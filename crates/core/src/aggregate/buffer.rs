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
use scihadoop_mapreduce::sort::{RadixScratch, Tagged};
use scihadoop_sfc::{Curve, CurveIndex, CurveRun};
use std::sync::Arc;

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
    /// Per variable pushed so far, ascending by id: its value width,
    /// fixed at first push, and its staged pushes in push order, each
    /// tagged with its cell's curve index and holding where its value
    /// starts in the slab. A `(variable, index)` key is up to 160 bits,
    /// too wide for one tag.
    vars: Vec<(u32, usize, Tagged<usize>)>,
    /// The position in `vars` of the latest push's variable, so a run of
    /// pushes for one variable looks it up once.
    current: usize,
    /// Room [`Aggregator::reserve`] made before the first push, which the
    /// first variable stages into.
    spare: Vec<(u128, usize)>,
    /// The flush's radix sort memory, kept across flushes.
    scratch: RadixScratch<usize>,
    /// The staged values, back to back in push order.
    slab: Vec<u8>,
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
            vars: Vec::new(),
            current: 0,
            spare: Vec::new(),
            scratch: RadixScratch::default(),
            slab: Vec::new(),
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
        if self.vars.get(self.current).map(|var| var.0) != Some(variable) {
            self.current = match self.vars.binary_search_by_key(&variable, |var| var.0) {
                Ok(at) => at,
                Err(at) => {
                    let staged = Tagged::reusing(std::mem::take(&mut self.spare));
                    self.vars.insert(at, (variable, value.len(), staged));
                    at
                }
            };
        }
        let (_, width, staged) = &mut self.vars[self.current];
        if value.len() != *width {
            return Err(GridError::Deserialize(format!(
                "variable {variable} has {width}-byte values, got {}",
                value.len()
            )));
        }
        // No key length: only `Tagged::sort`'s tie pass reads one.
        staged.push(index, 0, self.slab.len());
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
    /// flush stages it without regrowing the buffer. The room for pushes
    /// goes to the latest push's variable, or the first one to come.
    pub fn reserve(&mut self, pushes: usize, bytes: usize) {
        match self.vars.get_mut(self.current) {
            Some((_, _, staged)) => staged.items.reserve(pushes),
            None => self.spare.reserve(pushes),
        }
        self.slab.reserve(bytes);
    }

    /// Drain the buffer into aggregate records, one per maximal
    /// contiguous index run per variable, in variable then index order.
    /// Of several pushes of one cell the last wins.
    pub fn flush(&mut self) -> Vec<AggregateRecord> {
        let mut out: Vec<AggregateRecord> = Vec::new();
        for (variable, width, staged) in &mut self.vars {
            staged.sort_tags(&mut self.scratch);
            // Pushes of one cell are now adjacent and in push order: keep
            // the first's place with the last's value.
            staged.items.dedup_by(|later, kept| {
                later.0 == kept.0 && {
                    kept.1 = later.1;
                    true
                }
            });
            let mut rest = &staged.items[..];
            while let Some(&(start, _)) = rest.first() {
                let run = 1 + rest
                    .windows(2)
                    .take_while(|pair| pair[0].0.checked_add(1) == Some(pair[1].0))
                    .count();
                let (cells, after) = rest.split_at(run);
                let mut values = Vec::with_capacity(run * *width);
                for &(_, at) in cells {
                    values.extend_from_slice(&self.slab[at..at + *width]);
                }
                let run = CurveRun {
                    start,
                    end: cells[run - 1].0,
                };
                out.push(AggregateRecord {
                    key: AggregateKey::new(*variable, run),
                    values,
                });
                rest = after;
            }
            staged.clear();
        }
        self.slab.clear();
        self.records_out += out.len() as u64;
        out
    }

    /// The curve indices are computed by this curve.
    pub fn curve(&self) -> &Arc<dyn Curve> {
        &self.curve
    }

    /// Value width of a variable, if any pair has been pushed for it.
    pub fn value_width(&self, variable: u32) -> Option<usize> {
        let at = self.vars.binary_search_by_key(&variable, |var| var.0);
        at.ok().map(|at| self.vars[at].1)
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
