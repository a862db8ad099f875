//! The aggregation buffer (§IV-A): the user-facing library mappers push
//! `(coordinate, value)` pairs into, or `(curve index, value)` pairs when
//! they already walk the curve.
//!
//! "Aggregation is performed on subsets of the intermediate data due to
//! memory limitations. Whenever the size of the aggregation buffer
//! reaches a set threshold, the results are written out and the buffer is
//! cleared."

use super::key::{AggregateKey, AggregateRecord};
use scihadoop_grid::{Coord, GridError};
use scihadoop_sfc::{Curve, CurveIndex, CurveRun};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One staged push: its cell's curve index and variable, and where its
/// value starts in the slab.
#[derive(Clone, Copy)]
struct Staged {
    index: CurveIndex,
    variable: u32,
    at: usize,
}

impl Staged {
    fn cell(&self) -> (u32, CurveIndex) {
        (self.variable, self.index)
    }

    /// The byte at bit `shift` of word `word` of the sort key
    /// `(variable, index)`, whose words are the index's low and high
    /// halves and the variable.
    #[inline(always)]
    fn byte(&self, (word, shift): (usize, u32)) -> u8 {
        let word = match word {
            0 => self.index as u64,
            1 => (self.index >> 64) as u64,
            _ => self.variable as u64,
        };
        (word >> shift) as u8
    }
}

/// Buffers `(variable, curve index, value)` triples, collapses contiguous
/// curve indices into [`AggregateRecord`]s, and flushes when a byte
/// threshold is reached.
///
/// The threshold is on bytes actually staged: pushing a cell that is
/// already in the buffer stages a second copy of its value, which counts
/// until the flush keeps the later one.
pub struct Aggregator {
    curve: Arc<dyn Curve>,
    /// Bits of the curve's indices: a pushed index must fit them.
    index_bits: u32,
    threshold_bytes: usize,
    /// Staged pushes in push order.
    entries: Vec<Staged>,
    /// The radix sort's scatter target, kept across flushes.
    scatter: Vec<Staged>,
    /// The staged values, back to back in push order.
    slab: Vec<u8>,
    /// The OR and the AND of every staged `(variable, index)`: the byte
    /// lanes on which they differ are the only ones the flush sorts on.
    or: (u32, CurveIndex),
    and: (u32, CurveIndex),
    /// Whether `entries` is strictly ascending by `(variable, index)`, in
    /// which case the flush has nothing to sort and no duplicate to drop.
    ascending: bool,
    /// Value width per variable, fixed at first push.
    widths: BTreeMap<u32, usize>,
    /// The variable of the latest push that reached its width and that
    /// width, so a run of pushes for one variable looks it up once.
    current: Option<(u32, usize)>,
    /// Total simple pairs pushed (statistics for the evaluation).
    pairs_in: u64,
    /// Total aggregate records flushed.
    records_out: u64,
}

impl Aggregator {
    /// A buffer over `curve`, flushing automatically once
    /// `threshold_bytes` of values are staged.
    pub fn new(curve: impl Curve + 'static, threshold_bytes: usize) -> Self {
        Self::with_curve(Arc::new(curve), threshold_bytes)
    }

    /// Like [`Aggregator::new`] with a shared curve handle.
    pub fn with_curve(curve: Arc<dyn Curve>, threshold_bytes: usize) -> Self {
        assert!(threshold_bytes > 0, "threshold must be positive");
        Aggregator {
            index_bits: curve.ndims() as u32 * curve.bits_per_dim(),
            curve,
            threshold_bytes,
            entries: Vec::new(),
            scatter: Vec::new(),
            slab: Vec::new(),
            or: (0, 0),
            and: (u32::MAX, CurveIndex::MAX),
            ascending: true,
            widths: BTreeMap::new(),
            current: None,
            pairs_in: 0,
            records_out: 0,
        }
    }

    /// Push a pair for variable 0. Returns flushed records if the push
    /// crossed the buffer threshold.
    pub fn push(
        &mut self,
        coord: &Coord,
        value: &[u8],
    ) -> Result<Option<Vec<AggregateRecord>>, GridError> {
        self.push_var(0, coord, value)
    }

    /// Push a pair for an explicit variable.
    pub fn push_var(
        &mut self,
        variable: u32,
        coord: &Coord,
        value: &[u8],
    ) -> Result<Option<Vec<AggregateRecord>>, GridError> {
        let index = self.curve.index_of_coord(coord)?;
        self.push_index(variable, index, value)
    }

    /// Push the value of the cell at `index` on this buffer's curve, for
    /// a mapper that walks its cells in curve space and has no [`Coord`]
    /// to hand over.
    pub fn push_index(
        &mut self,
        variable: u32,
        index: CurveIndex,
        value: &[u8],
    ) -> Result<Option<Vec<AggregateRecord>>, GridError> {
        if value.is_empty() {
            return Err(GridError::Deserialize("zero-width values".into()));
        }
        if self.index_bits < CurveIndex::BITS && index >> self.index_bits != 0 {
            return Err(GridError::Deserialize(format!(
                "curve index {index} exceeds {} bits",
                self.index_bits
            )));
        }
        // Nothing past this point rejects a variable's first push, so
        // only a push that is staged fixes the width.
        let &mut (_, width) = match &mut self.current {
            Some(current) if current.0 == variable => current,
            current => current.insert((
                variable,
                *self.widths.entry(variable).or_insert(value.len()),
            )),
        };
        if value.len() != width {
            return Err(GridError::Deserialize(format!(
                "variable {variable} has {width}-byte values, got {}",
                value.len()
            )));
        }
        if let Some(last) = self.entries.last() {
            self.ascending &= last.cell() < (variable, index);
        }
        self.or = (self.or.0 | variable, self.or.1 | index);
        self.and = (self.and.0 & variable, self.and.1 & index);
        self.entries.push(Staged {
            index,
            variable,
            at: self.slab.len(),
        });
        self.slab.extend_from_slice(value);
        self.pairs_in += 1;
        if self.slab.len() >= self.threshold_bytes {
            Ok(Some(self.flush()))
        } else {
            Ok(None)
        }
    }

    /// Make room for `pushes` more pushes of `bytes` value bytes in all,
    /// so a caller that knows how much it will stage before the next
    /// flush stages it without regrowing the buffer.
    pub fn reserve(&mut self, pushes: usize, bytes: usize) {
        self.entries.reserve(pushes);
        self.slab.reserve(bytes);
    }

    /// Drain the buffer into aggregate records, one per maximal
    /// contiguous index run per variable. Of several pushes of one cell
    /// the last wins.
    pub fn flush(&mut self) -> Vec<AggregateRecord> {
        if !self.ascending {
            self.radix_sort();
            // Pushes of one cell are adjacent and in push order: keep the
            // last of each.
            let mut kept = 0;
            for n in 0..self.entries.len() {
                let entry = self.entries[n];
                if self
                    .entries
                    .get(n + 1)
                    .is_none_or(|next| next.cell() != entry.cell())
                {
                    self.entries[kept] = entry;
                    kept += 1;
                }
            }
            self.entries.truncate(kept);
        }
        let mut out: Vec<AggregateRecord> = Vec::new();
        let mut rest = &self.entries[..];
        while let Some(first) = rest.first() {
            let run = 1 + rest
                .windows(2)
                .take_while(|pair| {
                    pair[1].variable == first.variable
                        && pair[0].index.checked_add(1) == Some(pair[1].index)
                })
                .count();
            let (cells, after) = rest.split_at(run);
            let width = match self.current {
                Some((var, width)) if var == first.variable => width,
                _ => self.widths[&first.variable],
            };
            let mut values = Vec::with_capacity(cells.len() * width);
            for cell in cells {
                values.extend_from_slice(&self.slab[cell.at..cell.at + width]);
            }
            let run = CurveRun {
                start: first.index,
                end: cells[cells.len() - 1].index,
            };
            out.push(AggregateRecord {
                key: AggregateKey::new(first.variable, run),
                values,
            });
            rest = after;
        }
        self.entries.clear();
        self.slab.clear();
        self.or = (0, 0);
        self.and = (u32::MAX, CurveIndex::MAX);
        self.ascending = true;
        self.records_out += out.len() as u64;
        out
    }

    /// Stable LSD radix sort of the staged pushes by `(variable, index)`,
    /// one counting pass per byte lane on which two of them differ, least
    /// significant first: a lane every push shares costs nothing. One
    /// read takes every such lane's histogram.
    fn radix_sort(&mut self) {
        let diff = Staged {
            index: self.or.1 ^ self.and.1,
            variable: self.or.0 ^ self.and.0,
            at: 0,
        };
        let lanes: Vec<(usize, u32)> = (0..3)
            .flat_map(|word| (0..64).step_by(8).map(move |shift| (word, shift)))
            .filter(|&lane| diff.byte(lane) != 0)
            .collect();
        let mut counts = vec![[0usize; 256]; lanes.len()];
        for entry in &self.entries {
            for (histogram, &lane) in counts.iter_mut().zip(&lanes) {
                histogram[entry.byte(lane) as usize] += 1;
            }
        }
        self.scatter.clear();
        self.scatter.resize(self.entries.len(), self.entries[0]);
        for (histogram, &lane) in counts.iter_mut().zip(&lanes) {
            // Counts become each byte's first output slot.
            let mut next = 0;
            for slot in histogram.iter_mut() {
                next += std::mem::replace(slot, next);
            }
            for entry in &self.entries {
                let slot = &mut histogram[entry.byte(lane) as usize];
                self.scatter[*slot] = *entry;
                *slot += 1;
            }
            std::mem::swap(&mut self.entries, &mut self.scatter);
        }
    }

    /// The curve indices are computed by this curve.
    pub fn curve(&self) -> &Arc<dyn Curve> {
        &self.curve
    }

    /// Value width of a variable, if any pair has been pushed for it.
    pub fn value_width(&self, variable: u32) -> Option<usize> {
        self.widths.get(&variable).copied()
    }

    /// Simple pairs pushed so far.
    pub fn pairs_in(&self) -> u64 {
        self.pairs_in
    }

    /// Aggregate records flushed so far.
    pub fn records_out(&self) -> u64 {
        self.records_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scihadoop_sfc::{RowMajorCurve, ZOrderCurve};

    #[test]
    fn full_aligned_tile_collapses_to_one_record() {
        let mut agg = Aggregator::new(ZOrderCurve::with_bits(2, 4), 1 << 20);
        for x in 0..4 {
            for y in 0..4 {
                agg.push(&Coord::new(vec![x, y]), &[x as u8, y as u8])
                    .unwrap();
            }
        }
        let recs = agg.flush();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].key.cell_count(), 16);
        assert_eq!(recs[0].values.len(), 32);
    }

    #[test]
    fn values_are_stored_in_curve_order() {
        let curve = ZOrderCurve::with_bits(2, 4);
        let mut agg = Aggregator::new(curve.clone(), 1 << 20);
        // Push in row-major order; values must come out in Z order.
        for x in 0..2 {
            for y in 0..2 {
                agg.push(&Coord::new(vec![x, y]), &[(10 * x + y) as u8])
                    .unwrap();
            }
        }
        let recs = agg.flush();
        assert_eq!(recs.len(), 1);
        // Z order on the unit square: (0,0) (0,1) (1,0) (1,1).
        assert_eq!(recs[0].values, vec![0, 1, 10, 11]);
    }

    #[test]
    fn disjoint_regions_produce_multiple_records() {
        let mut agg = Aggregator::new(ZOrderCurve::with_bits(2, 4), 1 << 20);
        agg.push(&Coord::new(vec![0, 0]), &[1]).unwrap();
        agg.push(&Coord::new(vec![7, 7]), &[2]).unwrap();
        let recs = agg.flush();
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|r| r.key.cell_count() == 1));
    }

    #[test]
    fn threshold_triggers_auto_flush() {
        // 8-byte threshold, 4-byte values: third push flushes.
        let mut agg = Aggregator::new(RowMajorCurve::with_bits(1, 8), 8);
        assert!(agg.push(&Coord::new(vec![0]), &[0; 4]).unwrap().is_none());
        let flushed = agg.push(&Coord::new(vec![1]), &[0; 4]).unwrap();
        let recs = flushed.expect("crossing threshold flushes");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].key.run, CurveRun { start: 0, end: 1 });
        // Buffer is empty again.
        assert!(agg.push(&Coord::new(vec![5]), &[0; 4]).unwrap().is_none());
    }

    #[test]
    fn flush_boundary_reduces_aggregation() {
        // §IV-A: "keys generated after a flush cannot be aggregated with
        // keys generated before a flush."
        let mut big = Aggregator::new(RowMajorCurve::with_bits(1, 8), 1 << 20);
        let mut small = Aggregator::new(RowMajorCurve::with_bits(1, 8), 4);
        let mut small_records = 0;
        for i in 0..16 {
            big.push(&Coord::new(vec![i]), &[i as u8]).unwrap();
            if let Some(recs) = small.push(&Coord::new(vec![i]), &[i as u8]).unwrap() {
                small_records += recs.len();
            }
        }
        let big_records = big.flush().len();
        small_records += small.flush().len();
        assert_eq!(big_records, 1);
        assert!(small_records > 1);
    }

    #[test]
    fn variables_do_not_aggregate_together() {
        let mut agg = Aggregator::new(RowMajorCurve::with_bits(1, 8), 1 << 20);
        agg.push_var(0, &Coord::new(vec![0]), &[1]).unwrap();
        agg.push_var(1, &Coord::new(vec![1]), &[2]).unwrap();
        let recs = agg.flush();
        assert_eq!(recs.len(), 2);
        assert_ne!(recs[0].key.variable, recs[1].key.variable);
    }

    #[test]
    fn duplicate_coordinate_keeps_latest_value() {
        let mut agg = Aggregator::new(RowMajorCurve::with_bits(1, 8), 1 << 20);
        agg.push(&Coord::new(vec![3]), &[1]).unwrap();
        agg.push(&Coord::new(vec![3]), &[9]).unwrap();
        let recs = agg.flush();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].values, vec![9]);
    }

    #[test]
    fn duplicates_count_toward_the_threshold_until_flushed() {
        // 8-byte threshold, 4-byte values: the second copy of cell 3
        // fills the buffer, and the flush keeps only that copy.
        let mut agg = Aggregator::new(RowMajorCurve::with_bits(1, 8), 8);
        assert!(agg.push(&Coord::new(vec![3]), &[1; 4]).unwrap().is_none());
        let recs = agg
            .push(&Coord::new(vec![3]), &[9; 4])
            .unwrap()
            .expect("two staged copies reach the threshold");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].key.run, CurveRun::singleton(3));
        assert_eq!(recs[0].values, vec![9; 4]);
        // The flush emptied the buffer: cell 3 again is a fresh cell, and
        // the duplicate that straddles the flush is not merged with it.
        assert!(agg.push(&Coord::new(vec![3]), &[5; 4]).unwrap().is_none());
        let recs = agg.flush();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].values, vec![5; 4]);
        assert_eq!(agg.pairs_in(), 3);
        assert_eq!(agg.records_out(), 2);
    }

    #[test]
    fn out_of_order_duplicates_keep_the_last_push() {
        let mut agg = Aggregator::new(RowMajorCurve::with_bits(1, 8), 1 << 20);
        for (x, v) in [(4, 1), (3, 2), (4, 3), (5, 4), (3, 5)] {
            agg.push(&Coord::new(vec![x]), &[v]).unwrap();
        }
        let recs = agg.flush();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].key.run, CurveRun { start: 3, end: 5 });
        assert_eq!(recs[0].values, vec![5, 3, 4]);
    }

    #[test]
    fn rejected_first_push_does_not_fix_the_width() {
        let mut agg = Aggregator::new(RowMajorCurve::with_bits(1, 8), 1 << 20);
        // Neither an empty value nor a coordinate off the curve is
        // staged, so neither decides variable 0's width.
        assert!(agg.push(&Coord::new(vec![0]), &[]).is_err());
        assert!(agg.push(&Coord::new(vec![-1]), &[0; 2]).is_err());
        assert_eq!(agg.value_width(0), None);
        agg.push(&Coord::new(vec![0]), &[7; 4]).unwrap();
        assert_eq!(agg.value_width(0), Some(4));
        assert!(agg.push(&Coord::new(vec![1]), &[]).is_err());
        assert_eq!(agg.flush()[0].values, vec![7; 4]);
    }

    #[test]
    fn mixed_value_width_is_rejected() {
        let mut agg = Aggregator::new(RowMajorCurve::with_bits(1, 8), 1 << 20);
        agg.push(&Coord::new(vec![0]), &[0; 4]).unwrap();
        assert!(agg.push(&Coord::new(vec![1]), &[0; 2]).is_err());
        // Different variables may differ in width.
        assert!(agg.push_var(1, &Coord::new(vec![1]), &[0; 2]).is_ok());
    }

    #[test]
    fn interleaved_variables_keep_their_own_widths() {
        let mut agg = Aggregator::new(RowMajorCurve::with_bits(1, 8), 1 << 20);
        for (var, x, value) in [
            (1, 2, &[1, 1][..]),
            (0, 0, &[7; 4]),
            (1, 3, &[2, 2]),
            (0, 1, &[8; 4]),
        ] {
            agg.push_var(var, &Coord::new(vec![x]), value).unwrap();
        }
        assert!(agg.push_var(1, &Coord::new(vec![4]), &[0; 4]).is_err());
        assert!(agg.push_var(0, &Coord::new(vec![2]), &[0; 2]).is_err());
        let recs = agg.flush();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].key.variable, 0);
        assert_eq!(recs[0].values, [[7; 4], [8; 4]].concat());
        assert_eq!(recs[1].key.variable, 1);
        assert_eq!(recs[1].values, vec![1, 1, 2, 2]);
    }

    #[test]
    fn negative_coordinates_are_rejected_by_curve() {
        let mut agg = Aggregator::new(ZOrderCurve::with_bits(2, 4), 1 << 20);
        assert!(agg.push(&Coord::new(vec![-1, 0]), &[0]).is_err());
    }

    #[test]
    fn statistics_count_pairs_and_records() {
        let mut agg = Aggregator::new(RowMajorCurve::with_bits(1, 8), 1 << 20);
        for i in 0..10 {
            agg.push(&Coord::new(vec![i]), &[0]).unwrap();
        }
        let recs = agg.flush();
        assert_eq!(agg.pairs_in(), 10);
        assert_eq!(agg.records_out(), recs.len() as u64);
    }
}
