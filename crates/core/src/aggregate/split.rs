//! Key splitting (§IV-B) — the "one set of changes inside Hadoop" the
//! paper made, reproduced here as pure functions the engine's key-
//! semantics hook calls.
//!
//! Two cases:
//! 1. *Routing*: "A mapper may generate an aggregate key whose simple
//!    keys do not all route to the same reducer" — split at partition
//!    boundaries.
//! 2. *Sorting*: "When sorting keys at a reducer, overlapping keys are
//!    split along the overlap boundaries (Fig. 7). This is necessary
//!    because unequal overlapping keys contain data that map to the same
//!    simple keys, but since the aggregate keys are unequal, the data
//!    would not be reduced together."

use super::key::{AggregateKey, AggregateRecord};
use scihadoop_sfc::{CurveIndex, CurveRun};
use std::collections::BTreeSet;

/// Routes curve indices to reducers by contiguous index ranges — the
/// routing SciHadoop uses so each reducer owns a region of the space.
#[derive(Debug, Clone)]
pub struct RangePartitioner {
    /// `boundaries[p]` is the first index owned by partition `p`;
    /// partition `p` owns `boundaries[p] .. boundaries[p+1]` (the last
    /// partition is unbounded above).
    boundaries: Vec<CurveIndex>,
}

impl RangePartitioner {
    /// Partition `[0, span)` into `parts` equal contiguous ranges.
    pub fn uniform(parts: usize, span: CurveIndex) -> Self {
        assert!(parts >= 1, "need at least one partition");
        assert!(span >= parts as CurveIndex, "span smaller than parts");
        let step = span / parts as CurveIndex;
        RangePartitioner {
            boundaries: (0..parts).map(|p| p as CurveIndex * step).collect(),
        }
    }

    /// Partition at the quantiles of `sample`, indices drawn evenly from
    /// those the job will route: boundary `p` is the sample's `p / parts`
    /// quantile, so each partition owns about as many sampled indices as
    /// the next — Hadoop's TotalOrderPartitioner over an interval sample.
    /// The first boundary is 0, and a boundary that would not exceed the
    /// one before it (a sample with fewer distinct indices than `parts`,
    /// or none at all) is moved one past it, so every partition owns at
    /// least one index.
    pub fn from_sample(parts: usize, mut sample: Vec<CurveIndex>) -> Self {
        assert!(parts >= 1, "need at least one partition");
        sample.sort_unstable();
        let mut boundaries: Vec<CurveIndex> = Vec::with_capacity(parts);
        boundaries.push(0);
        for p in 1..parts {
            let quantile = sample.get(p * sample.len() / parts).copied().unwrap_or(0);
            let floor = boundaries[p - 1] + 1;
            boundaries.push(quantile.max(floor));
        }
        RangePartitioner { boundaries }
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.boundaries.len()
    }

    /// Partition owning `index`.
    pub fn partition_of(&self, index: CurveIndex) -> usize {
        match self.boundaries.binary_search(&index) {
            Ok(p) => p,
            Err(ins) => ins - 1,
        }
    }

    /// `run` cut at partition boundaries (§IV-B case 1): the
    /// `(partition, start, end)` pieces, `end` inclusive, in curve order.
    /// Pieces stay contiguous, so there are at most
    /// `1 + boundaries crossed` of them.
    pub(crate) fn pieces(
        &self,
        run: CurveRun,
    ) -> impl Iterator<Item = (usize, CurveIndex, CurveIndex)> + '_ {
        let mut next = (run.start <= run.end).then_some(run.start);
        std::iter::from_fn(move || {
            let start = next?;
            let p = self.partition_of(start);
            let end = match self.boundaries.get(p + 1) {
                Some(&bound) if bound <= run.end => bound - 1,
                _ => run.end,
            };
            next = (end < run.end).then(|| end + 1);
            Some((p, start, end))
        })
    }
}

/// Split an aggregate record at partition boundaries and route each piece
/// (§IV-B case 1), as owned records.
pub fn route_split(
    record: &AggregateRecord,
    partitioner: &RangePartitioner,
    value_width: usize,
) -> Vec<(usize, AggregateRecord)> {
    partitioner
        .pieces(record.key.run)
        .map(|(p, start, end)| (p, record.slice(CurveRun { start, end }, value_width)))
        .collect()
}

/// Split overlapping aggregate records along overlap boundaries
/// (§IV-B case 2, Fig. 7): afterwards any two records are either equal in
/// range or disjoint, so grouping by key reunites data for the same
/// simple keys.
pub fn overlap_split(records: Vec<AggregateRecord>, value_width: usize) -> Vec<AggregateRecord> {
    // Collect cut points per variable: every range start and every
    // range end+1 is a potential boundary.
    let mut cuts: BTreeSet<(u32, CurveIndex)> = BTreeSet::new();
    for r in &records {
        cuts.insert((r.key.variable, r.key.run.start));
        if let Some(after) = r.key.run.end.checked_add(1) {
            cuts.insert((r.key.variable, after));
        }
    }
    let mut out = Vec::with_capacity(records.len());
    for r in records {
        let var = r.key.variable;
        let mut start = r.key.run.start;
        let end = r.key.run.end;
        while start <= end {
            // Next cut strictly after `start`, within this record.
            let next_cut = cuts
                .range((
                    std::ops::Bound::Excluded((var, start)),
                    std::ops::Bound::Included((var, end)),
                ))
                .next()
                .map(|&(_, c)| c);
            let piece_end = match next_cut {
                Some(c) => c - 1,
                None => end,
            };
            out.push(r.slice(
                CurveRun {
                    start,
                    end: piece_end,
                },
                value_width,
            ));
            if piece_end == end {
                break;
            }
            start = piece_end + 1;
        }
    }
    out.sort_by(|a, b| a.key.cmp(&b.key));
    out
}

/// Group records with identical keys (after [`overlap_split`] keys are
/// equal or disjoint): each group is one reduce call's input.
pub fn group_equal(mut records: Vec<AggregateRecord>) -> Vec<(AggregateKey, Vec<Vec<u8>>)> {
    records.sort_by(|a, b| a.key.cmp(&b.key));
    let mut out: Vec<(AggregateKey, Vec<Vec<u8>>)> = Vec::new();
    for r in records {
        match out.last_mut() {
            Some((k, vals)) if *k == r.key => vals.push(r.values),
            _ => out.push((r.key, vec![r.values])),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(var: u32, start: CurveIndex, end: CurveIndex, width: usize) -> AggregateRecord {
        let n = (end - start + 1) as usize;
        let values: Vec<u8> = (0..n)
            .flat_map(|i| vec![((start as usize + i) % 251) as u8; width])
            .collect();
        AggregateRecord::new(
            AggregateKey::new(var, CurveRun { start, end }),
            values,
            width,
        )
        .unwrap()
    }

    #[test]
    fn uniform_partitioner_owns_contiguous_ranges() {
        let p = RangePartitioner::uniform(4, 100);
        assert_eq!(p.partition_of(0), 0);
        assert_eq!(p.partition_of(24), 0);
        assert_eq!(p.partition_of(25), 1);
        assert_eq!(p.partition_of(99), 3);
        assert_eq!(p.partition_of(1000), 3); // unbounded last partition
        assert_eq!(p.parts(), 4);
    }

    fn assert_strictly_increasing_from_zero(p: &RangePartitioner, parts: usize) {
        assert_eq!(p.parts(), parts);
        assert_eq!(p.boundaries[0], 0);
        assert!(
            p.boundaries.windows(2).all(|w| w[0] < w[1]),
            "{:?}",
            p.boundaries
        );
    }

    #[test]
    fn sampled_partitioner_cuts_at_the_sample_quantiles() {
        // A sample crowded into the low end of the span, as a grid side
        // just above a power of two crowds a curve's indices: each part
        // owns a fifth of it, not a fifth of the span.
        let sample: Vec<CurveIndex> = (0..1000).rev().map(|i| i * 3).collect();
        let p = RangePartitioner::from_sample(5, sample.clone());
        assert_eq!(p.boundaries, vec![0, 600, 1200, 1800, 2400]);
        let mut owned = [0; 5];
        for &i in &sample {
            owned[p.partition_of(i)] += 1;
        }
        assert_eq!(owned, [200; 5]);
        assert_eq!(p.partition_of(1 << 40), 4); // unbounded last partition
    }

    #[test]
    fn sampled_partitioner_boundaries_strictly_increase() {
        // No sample at all.
        let p = RangePartitioner::from_sample(4, Vec::new());
        assert_strictly_increasing_from_zero(&p, 4);
        // Fewer distinct indices than parts.
        let p = RangePartitioner::from_sample(5, vec![9, 9, 9, 2, 2, 9]);
        assert_strictly_increasing_from_zero(&p, 5);
        // A one-cell grid under a 3×3 window: nine centres, five parts.
        let p = RangePartitioner::from_sample(5, (0..9).collect());
        assert_strictly_increasing_from_zero(&p, 5);
        // One sampled index, and one part.
        let p = RangePartitioner::from_sample(3, vec![0]);
        assert_strictly_increasing_from_zero(&p, 3);
        let p = RangePartitioner::from_sample(1, vec![5, 7]);
        assert_strictly_increasing_from_zero(&p, 1);
    }

    #[test]
    fn route_split_preserves_all_cells() {
        let p = RangePartitioner::uniform(4, 100);
        let r = rec(0, 20, 60, 4);
        let pieces = route_split(&r, &p, 4);
        // Crosses boundaries at 25 and 50: three pieces.
        assert_eq!(pieces.len(), 3);
        assert_eq!(pieces[0].0, 0);
        assert_eq!(pieces[1].0, 1);
        assert_eq!(pieces[2].0, 2);
        let total: u128 = pieces.iter().map(|(_, r)| r.key.cell_count()).sum();
        assert_eq!(total, 41);
        // Cell values survive the split.
        for (_, piece) in &pieces {
            for i in piece.key.run.start..=piece.key.run.end {
                assert_eq!(
                    piece.value_at(i, 4).unwrap(),
                    r.value_at(i, 4).unwrap(),
                    "cell {i}"
                );
            }
        }
    }

    #[test]
    fn route_split_single_partition_is_identity() {
        let p = RangePartitioner::uniform(4, 100);
        let r = rec(0, 30, 40, 2);
        let pieces = route_split(&r, &p, 2);
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].0, 1);
        assert_eq!(pieces[0].1, r);
    }

    #[test]
    fn overlap_split_fig7() {
        // Fig. 7: two overlapping ranges are split on the overlap
        // boundaries. [0,10] and [5,15] → [0,4],[5,10] and [5,10],[11,15].
        let a = rec(0, 0, 10, 1);
        let b = rec(0, 5, 15, 1);
        let pieces = overlap_split(vec![a, b], 1);
        let runs: Vec<(CurveIndex, CurveIndex)> = pieces
            .iter()
            .map(|r| (r.key.run.start, r.key.run.end))
            .collect();
        assert_eq!(runs, vec![(0, 4), (5, 10), (5, 10), (11, 15)]);
    }

    #[test]
    fn overlap_split_nested_ranges() {
        // [0,20] containing [5,10].
        let pieces = overlap_split(vec![rec(0, 0, 20, 1), rec(0, 5, 10, 1)], 1);
        let runs: Vec<(CurveIndex, CurveIndex)> = pieces
            .iter()
            .map(|r| (r.key.run.start, r.key.run.end))
            .collect();
        assert_eq!(runs, vec![(0, 4), (5, 10), (5, 10), (11, 20)]);
    }

    #[test]
    fn overlap_split_disjoint_is_identity() {
        let a = rec(0, 0, 4, 2);
        let b = rec(0, 10, 14, 2);
        let pieces = overlap_split(vec![b.clone(), a.clone()], 2);
        assert_eq!(pieces, vec![a, b]);
    }

    #[test]
    fn overlap_split_ignores_other_variables() {
        // Same ranges, different variables: no split.
        let a = rec(0, 0, 10, 1);
        let b = rec(1, 5, 15, 1);
        let pieces = overlap_split(vec![a.clone(), b.clone()], 1);
        assert_eq!(pieces, vec![a, b]);
    }

    #[test]
    fn overlap_split_preserves_cell_values() {
        let a = rec(0, 0, 10, 4);
        let b = rec(0, 5, 15, 4);
        let pieces = overlap_split(vec![a.clone(), b.clone()], 4);
        for piece in &pieces {
            for i in piece.key.run.start..=piece.key.run.end {
                let original = if piece.value_at(i, 4) == a.value_at(i, 4) {
                    &a
                } else {
                    &b
                };
                assert_eq!(piece.value_at(i, 4), original.value_at(i, 4));
            }
        }
        // Total cells double-counted in the overlap region.
        let total: u128 = pieces.iter().map(|r| r.key.cell_count()).sum();
        assert_eq!(total, 22);
    }

    #[test]
    fn group_equal_groups_identical_ranges() {
        let pieces = overlap_split(vec![rec(0, 0, 10, 1), rec(0, 5, 15, 1)], 1);
        let groups = group_equal(pieces);
        assert_eq!(groups.len(), 3);
        let sizes: Vec<usize> = groups.iter().map(|(_, v)| v.len()).collect();
        assert_eq!(sizes, vec![1, 2, 1]);
    }

    #[test]
    fn split_counts_measure_key_inflation() {
        // §IV-B's open question: "We have not yet determined how much the
        // key count is increased by key splitting." Quantify on a case.
        let p = RangePartitioner::uniform(8, 80);
        let r = rec(0, 0, 79, 1);
        let pieces = route_split(&r, &p, 1);
        assert_eq!(pieces.len(), 8, "one record became {} pieces", pieces.len());
    }

    #[test]
    #[should_panic(expected = "span smaller than parts")]
    fn uniform_rejects_tiny_span() {
        let _ = RangePartitioner::uniform(10, 5);
    }
}
