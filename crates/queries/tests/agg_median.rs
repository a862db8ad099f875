//! The aggregated sliding median's dense window slab against the
//! sequential oracle, over every shape of job the slab's index
//! arithmetic has a case for: dimensionality, window width, splits that
//! are the whole grid, uneven, one row thick, and more than there are
//! rows; every curve; buffers that flush mid-task. CI runs this suite in
//! release with overflow checks on.

use scihadoop_grid::{Shape, Variable};
use scihadoop_mapreduce::{Counter, JobConfig};
use scihadoop_queries::median::{CurveKind, SlidingMedian, SlidingMedianVariant};
use scihadoop_queries::{oracle, KeyLayout};

const CURVES: [CurveKind; 3] = [CurveKind::ZOrder, CurveKind::Hilbert, CurveKind::RowMajor];

fn aggregated(ndims: usize, buffer_bytes: usize) -> SlidingMedian {
    SlidingMedian::new(
        KeyLayout::Indexed { index: 0, ndims },
        SlidingMedianVariant::Aggregated { buffer_bytes },
    )
}

#[test]
fn dense_slab_matches_the_oracle_on_every_job_shape() {
    for extents in [vec![23], vec![16, 9], vec![5, 7, 6]] {
        let rows = *extents.iter().max().expect("a shape has dimensions") as usize;
        let var = Variable::random_i32("g", Shape::new(extents.clone()), 1000, 11).unwrap();
        for window in [3, 5] {
            let expected = oracle::sliding_median(&var, window).unwrap();
            for splits in [1, 3, 16, rows + 9] {
                for curve in CURVES {
                    let mut q = aggregated(extents.len(), 1 << 20);
                    q.window = window;
                    q.num_splits = splits;
                    q.curve = curve;
                    let run = q.run(&var).unwrap();
                    assert_eq!(
                        run.medians, expected,
                        "{extents:?}, window {window}, {splits} splits, {curve:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn mid_task_flushes_change_records_not_answers() {
    let var = Variable::random_i32("g", Shape::new(vec![20, 13]), 1000, 5).unwrap();
    let expected = oracle::sliding_median(&var, 3).unwrap();
    let records = |buffer_bytes, curve| {
        let mut q = aggregated(2, buffer_bytes);
        q.curve = curve;
        let run = q.run(&var).unwrap();
        assert_eq!(run.medians, expected, "{buffer_bytes} B, {curve:?}");
        run.result.counters.get(Counter::MapOutputRecords)
    };
    for curve in CURVES {
        let unflushed = records(1 << 20, curve);
        // One packed cell (37 B) per flush: nothing aggregates.
        assert!(records(1, curve) > unflushed, "{curve:?}");
        assert!(records(200, curve) >= unflushed, "{curve:?}");
    }
}

/// Each reducer owns a range of the curve holding about a fifth of the
/// window centres, whichever curve orders them, on a grid side (98
/// centres) that fills little more than half of the curve's span: a
/// range cut evenly from the span would leave the last reducers almost
/// nothing.
#[test]
fn aggregated_reducers_share_the_grid() {
    let var = Variable::random_i32("g", Shape::new(vec![96, 96]), 1_000_000, 7).unwrap();
    let expected = oracle::sliding_median(&var, 3).unwrap();
    for curve in CURVES {
        let mut q = aggregated(2, 64 << 20);
        q.num_splits = 8;
        q.curve = curve;
        q.base_config = JobConfig::default().with_reducers(5);
        let run = q.run(&var).unwrap();
        assert_eq!(run.medians, expected, "{curve:?}");
        let outputs: Vec<usize> = run.result.outputs.iter().map(Vec::len).collect();
        let mean = expected.len() as f64 / 5.0;
        assert!(
            outputs
                .iter()
                .all(|&n| (n as f64 - mean).abs() <= 0.1 * mean),
            "{curve:?}: {outputs:?} against a mean of {mean}"
        );
    }
}

/// A grid of one cell has nine window centres for five reducers: each
/// reducer still owns a non-empty range, and the answer is whole.
#[test]
fn a_one_cell_grid_still_cuts_five_ranges() {
    let var = Variable::random_i32("g", Shape::new(vec![1, 1]), 1000, 3).unwrap();
    let expected = oracle::sliding_median(&var, 3).unwrap();
    for curve in CURVES {
        let mut q = aggregated(2, 1 << 20);
        q.curve = curve;
        q.base_config = JobConfig::default().with_reducers(5);
        let run = q.run(&var).unwrap();
        assert_eq!(run.medians, expected, "{curve:?}");
        assert_eq!(run.result.outputs.len(), 5, "{curve:?}");
    }
}

/// What the aggregated job shipped before the slab replaced the hashed
/// window map: the slab changes where windows accumulate, not one byte of
/// what leaves the mapper.
///
/// The materialized bytes are those of v3 segments without a fence-key
/// index: each pin is the hashed mapper's less its job's index bytes.
/// An index cost a segment 9 bytes (its entry count and the 8-byte
/// index offset) and a block 37 (an 8-byte prefix, a one-byte length and
/// the 28-byte fence key) plus its offset's vint: 1 byte for a segment's
/// first block, at offset 6, and 3 for each later one. So Z-order, with
/// 31 segments and 103 blocks, drops 31 × 10 + 103 × 37 + 72 × 3 = 4,337
/// bytes (421,829 → 417,492); Hilbert, 27 and 82, drops 27 × 10 +
/// 82 × 37 + 55 × 3 = 3,469 (415,868 → 412,399); row-major, 32 and 120,
/// drops 32 × 10 + 120 × 37 + 88 × 3 = 5,024 (425,805 → 420,781).
///
/// Those jobs cut the curve's 16,384-index span into five equal ranges,
/// though the 98² window centres fill only 9,604 of its indices; the
/// pins below cut it at sampled quantiles of the centres. A record that now
/// crosses a boundary is split in two (one more record, one more stored
/// key), and a map task whose windows reach one more reducer writes one
/// more segment: 10 bytes of segment header and trailer, and at least
/// one block header. Z-order: route splits 4 → 5 (records 515 → 516),
/// segments 31 → 33, blocks 103 → 103; +2 × 10 segment bytes, +7 stored
/// key bytes and +7 bytes of block-header and group-head vints make
/// 417,492 → 417,526. Hilbert: route splits 1 → 4 (211 → 214), segments
/// 27 → 25, blocks 82 → 77; −2 × 10, +75 key bytes, and −193 header
/// bytes for five fewer blocks, whose headers each carried a 28-byte
/// fence key, make 412,399 → 412,261. Row-major: route splits 2 → 4
/// (786 → 788), segments 32 → 40, blocks 120 → 120; +8 × 10, +21 and +70
/// make 420,781 → 420,952.
#[test]
fn aggregated_job_ships_what_the_hashed_mapper_shipped() {
    let var = Variable::random_i32("g", Shape::new(vec![96, 96]), 1_000_000, 7).unwrap();
    for (curve, materialized, records, route_split) in [
        (CurveKind::ZOrder, 417_526, 516, 5),
        (CurveKind::Hilbert, 412_261, 214, 4),
        (CurveKind::RowMajor, 420_952, 788, 4),
    ] {
        let mut q = aggregated(2, 64 << 20);
        q.num_splits = 8;
        q.curve = curve;
        q.base_config = JobConfig::default().with_reducers(5);
        let counters = q.run(&var).unwrap().result.counters;
        let got = (
            counters.get(Counter::MapOutputMaterializedBytes),
            counters.get(Counter::MapOutputRecords),
            counters.get(Counter::RouteSplitRecords),
        );
        assert_eq!(got, (materialized, records, route_split), "{curve:?}");
    }
}

/// The same job with buffers smaller than one map task's windows, the
/// sizes `repro flush` runs below a task: a flush falls mid-task, so the
/// records depend on the order `finish` pushes cells in (grid order)
/// and on the flush keeping the last push of a cell. The pins are what
/// the job shipped when the aggregator still sorted each flush by
/// comparison and the mapper pushed `Coord`s.
#[test]
fn mid_task_flushes_ship_the_pinned_bytes() {
    let var = Variable::random_i32("g", Shape::new(vec![96, 96]), 1_000_000, 7).unwrap();
    for (curve, buffer_bytes, materialized, records) in [
        (CurveKind::ZOrder, 1 << 10, 433_137, 1572),
        (CurveKind::ZOrder, 16 << 10, 420_638, 731),
        (CurveKind::Hilbert, 1 << 10, 433_566, 1569),
        (CurveKind::Hilbert, 16 << 10, 415_198, 418),
        (CurveKind::RowMajor, 1 << 10, 420_952, 788),
        (CurveKind::RowMajor, 16 << 10, 421_753, 812),
    ] {
        let mut q = aggregated(2, buffer_bytes);
        q.num_splits = 8;
        q.curve = curve;
        q.base_config = JobConfig::default().with_reducers(5);
        let counters = q.run(&var).unwrap().result.counters;
        let got = (
            counters.get(Counter::MapOutputMaterializedBytes),
            counters.get(Counter::MapOutputRecords),
        );
        assert_eq!(got, (materialized, records), "{curve:?}, {buffer_bytes} B");
    }
}
