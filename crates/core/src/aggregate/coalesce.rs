//! Re-aggregation after key splitting — the paper's §IV-B future-work
//! item, implemented: "Aggregation is currently performed only inside
//! mappers. It could also be performed in other places to offset the
//! increase in key count caused by key splitting."
//!
//! After routing and overlap splitting, a reducer's stream contains many
//! adjacent aggregate records that originally were one. Coalescing merges
//! records whose runs are exactly adjacent (end + 1 == next start) for the
//! same variable, undoing split inflation without changing any cell's
//! value.

use super::key::AggregateRecord;
use scihadoop_sfc::CurveRun;

/// Merge adjacent contiguous records (same variable, `a.end + 1 ==
/// b.start`) in a sorted record stream. Records must be pairwise
/// non-overlapping (i.e. post-[`overlap_split`]+grouping, or any split
/// output); overlapping inputs are left unmerged rather than corrupted.
///
/// [`overlap_split`]: super::split::overlap_split
pub fn coalesce_adjacent(mut records: Vec<AggregateRecord>) -> Vec<AggregateRecord> {
    records.sort_by(|a, b| a.key.cmp(&b.key));
    let mut out: Vec<AggregateRecord> = Vec::with_capacity(records.len());
    for rec in records {
        match out.last_mut() {
            Some(prev)
                if prev.key.variable == rec.key.variable
                    && prev.key.run.end.checked_add(1) == Some(rec.key.run.start) =>
            {
                prev.key.run = CurveRun {
                    start: prev.key.run.start,
                    end: rec.key.run.end,
                };
                prev.values.extend_from_slice(&rec.values);
            }
            _ => out.push(rec),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::key::AggregateKey;
    use crate::aggregate::split::{route_split, RangePartitioner};

    fn rec(start: u128, end: u128) -> AggregateRecord {
        let n = (end - start + 1) as usize;
        AggregateRecord::new(
            AggregateKey::new(0, CurveRun { start, end }),
            (0..n).map(|i| ((start as usize + i) % 251) as u8).collect(),
            1,
        )
        .unwrap()
    }

    #[test]
    fn adjacent_records_merge() {
        let merged = coalesce_adjacent(vec![rec(5, 9), rec(0, 4), rec(10, 12)]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].key.run, CurveRun { start: 0, end: 12 });
        // Values concatenate in curve order.
        let expected = rec(0, 12);
        assert_eq!(merged[0].values, expected.values);
    }

    #[test]
    fn gaps_stop_merging() {
        let merged = coalesce_adjacent(vec![rec(0, 4), rec(6, 9)]);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn different_variables_do_not_merge() {
        let a = rec(0, 4);
        let mut b = rec(5, 9);
        b.key.variable = 1;
        let merged = coalesce_adjacent(vec![a, b]);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn coalesce_inverts_route_split() {
        // The §IV-B scenario end-to-end: one record split across
        // partitions, then each partition's share coalesced back.
        let original = rec(0, 99);
        let partitioner = RangePartitioner::uniform(4, 100);
        let pieces = route_split(&original, &partitioner, 1);
        assert_eq!(pieces.len(), 4);
        // All pieces land back together (e.g. the same reducer after a
        // rebalance): coalescing restores the original exactly.
        let merged = coalesce_adjacent(pieces.into_iter().map(|(_, r)| r).collect());
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0], original);
    }

    #[test]
    fn overlapping_inputs_are_left_alone() {
        // Defensive: overlapping records (which should have gone through
        // overlap_split first) must not be silently merged.
        let merged = coalesce_adjacent(vec![rec(0, 5), rec(3, 9)]);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn empty_input() {
        assert!(coalesce_adjacent(vec![]).is_empty());
    }
}
