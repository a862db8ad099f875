//! Property tests for the paper's contribution layer.

use proptest::prelude::*;
use scihadoop_compress::{Codec, DeflateCodec, IdentityCodec};
use scihadoop_core::aggregate::{
    align_run, coalesce_adjacent, expand_record, overlap_split, AggregateKey, AggregateRecord,
    Aggregator,
};
use scihadoop_core::transform::{
    forward, inverse, StridePredictor, TransformCodec, TransformConfig,
};
use scihadoop_grid::Coord;
use scihadoop_sfc::{Curve, CurveRun, HilbertCurve, RowMajorCurve, ZOrderCurve};
use std::collections::BTreeMap;
use std::sync::Arc;

mod reference;
use reference::{ReferenceAggregator, ReferencePredictor};

/// Streams that reach every run mode of the predictor: each segment has
/// a record period, a linear counter at the head of every record and
/// some noise — none (the period's stride and its multiples stay live),
/// a sprinkle (strides hover at the eviction threshold, one active at a
/// time), or nothing but noise (everything is evicted).
fn record_streams() -> impl Strategy<Value = Vec<u8>> {
    let segment = (1usize..40, 0usize..1200, any::<u64>(), 0u64..4);
    proptest::collection::vec(segment, 0..4).prop_map(|segments| {
        let mut data = Vec::new();
        for (period, len, seed, noise) in segments {
            let mut state = seed;
            for k in 0..len {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let noisy = noise == 3 || (state >> 40) % 8 < noise;
                data.push(match (noisy, k % period) {
                    (true, _) => (state >> 33) as u8,
                    (false, 0) => (k / period) as u8,
                    (false, phase) => (phase as u8).wrapping_mul(seed as u8 | 1),
                });
            }
        }
        data
    })
}

/// Forward in chunks of `chunk` against the oracle (comparing the active
/// set at every chunk boundary), then inverse against the oracle.
fn assert_equals_reference(config: &TransformConfig, data: &[u8], chunk: usize) {
    let mut fast = StridePredictor::new(config.clone());
    let mut slow = ReferencePredictor::new(config.clone());
    let mut fast_out = Vec::new();
    let mut slow_out = Vec::new();
    for chunk in data.chunks(chunk) {
        fast_out.extend_from_slice(&fast.forward(chunk));
        slow_out.extend_from_slice(&slow.forward(chunk));
        assert_eq!(
            fast.active_strides(),
            slow.active_strides(),
            "active set diverged for {config:?}"
        );
    }
    assert_eq!(fast_out, slow_out, "forward diverged for {config:?}");
    let mut fast_inv = StridePredictor::new(config.clone());
    let mut slow_inv = ReferencePredictor::new(config.clone());
    assert_eq!(
        fast_inv.inverse(&fast_out),
        slow_inv.inverse(&slow_out),
        "inverse diverged for {config:?}"
    );
}

/// The configs that exercise eviction, selection, warm-up and the
/// fixed/brute-force modes, over a grid walk, a noise burst and a
/// counter stream.
#[test]
fn fast_predictor_equals_reference_on_fixed_cases() {
    let mut mixed = Vec::new();
    for x in 0..14i32 {
        for y in 0..14i32 {
            for z in 0..14i32 {
                mixed.extend_from_slice(&x.to_be_bytes());
                mixed.extend_from_slice(&y.to_be_bytes());
                mixed.extend_from_slice(&z.to_be_bytes());
            }
        }
    }
    let mut state = 99u64;
    for _ in 0..10_000 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        mixed.push((state >> 33) as u8);
    }
    mixed.extend((0..3000u32).flat_map(|i| i.to_be_bytes()));
    for config in [
        TransformConfig::default(),
        TransformConfig::adaptive(17),
        TransformConfig::adaptive(1),
        TransformConfig::brute_force(33),
        TransformConfig::fixed(vec![12]),
        TransformConfig::fixed(vec![3, 7, 12, 100]),
        TransformConfig {
            selection_cycle: 64,
            hit_rate_num: 1,
            hit_rate_den: 2,
            run_threshold: 0,
            ..TransformConfig::adaptive(25)
        },
    ] {
        assert_equals_reference(&config, &mixed, mixed.len());
    }
}

/// One 2-D, 4-bit curve of each kind.
fn curve(kind: usize) -> Arc<dyn Curve> {
    match kind {
        0 => Arc::new(ZOrderCurve::with_bits(2, 4)),
        1 => Arc::new(HilbertCurve::with_bits(2, 4)),
        _ => Arc::new(RowMajorCurve::with_bits(2, 4)),
    }
}

/// A push: variable, cell, and the byte its value repeats. Variable `v`
/// has `v % 4 + 1`-byte values.
type Push = (u32, (i32, i32), u8);

fn push_value((var, _, byte): Push) -> Vec<u8> {
    vec![byte; var as usize % 4 + 1]
}

/// Pushes over three variables of a 16×16 grid, duplicates included, in
/// generated order or — `sorted` — ascending along the curve, the order
/// that spares the buffer its sort.
fn pushes() -> impl Strategy<Value = (usize, Vec<Push>)> {
    let push = (0u32..3, (0i32..16, 0i32..16), any::<u8>());
    (
        0usize..3,
        proptest::collection::vec(push, 0..120),
        any::<bool>(),
    )
        .prop_map(|(kind, mut pushes, sorted)| {
            if sorted {
                let curve = curve(kind);
                pushes.sort_by_key(|&(var, (x, y), _)| {
                    (var, curve.index_of(&[x as u32, y as u32]).unwrap())
                });
            }
            (kind, pushes)
        })
}

/// [`pushes`] with every `(variable, cell)` pushed at most once.
fn distinct_pushes() -> impl Strategy<Value = (usize, Vec<Push>)> {
    pushes().prop_map(|(kind, mut pushes)| {
        let mut seen = std::collections::BTreeSet::new();
        pushes.retain(|&(var, cell, _)| seen.insert((var, cell)));
        (kind, pushes)
    })
}

/// The curves of the index-keyed push: the three of [`curve`], a 3-D
/// row-major curve of 32 bits a dimension, whose indices reach bit 95,
/// and a 4-D one, whose indices fill all 128 bits.
fn index_curve(kind: usize) -> Arc<dyn Curve> {
    match kind {
        0..=2 => curve(kind),
        3 => Arc::new(RowMajorCurve::with_bits(3, 32)),
        _ => Arc::new(RowMajorCurve::with_bits(4, 32)),
    }
}

/// The cell a generated `(x, y)` stands for on [`index_curve`]`(kind)`.
/// On the 3-D and 4-D curves the first coordinate is one of four far
/// apart and the last one of three, so cells repeat, and two cells that
/// differ only in the first coordinate have indices that differ only
/// above bit 64 (3-D) or only in the top 32 bits (4-D).
fn index_cell(kind: usize, (x, y): (i32, i32)) -> Coord {
    let first = [0, 1, 1 << 20, i32::MAX][x as usize % 4];
    match kind {
        0..=2 => Coord::new(vec![x, y]),
        3 => Coord::new(vec![first, 7, y % 3]),
        _ => Coord::new(vec![first, 7, 7, y % 3]),
    }
}

/// [`Push`]es for the index-keyed push over three variables, duplicates
/// included, in generated order, ascending, or descending along the
/// curve (pushes of one cell keep their generated order). On the 4-D
/// curve the variables are 0, `1 << 16` and `u32::MAX`, so a buffer that
/// packs the variable into its index tag sees keys collide.
fn index_pushes() -> impl Strategy<Value = (usize, Vec<Push>)> {
    let push = (0u32..3, (0i32..16, 0i32..16), any::<u8>());
    (
        0usize..5,
        proptest::collection::vec(push, 0..120),
        0usize..3,
    )
        .prop_map(|(kind, mut pushes, order)| {
            if kind == 4 {
                for push in &mut pushes {
                    push.0 = [0, 1 << 16, u32::MAX][push.0 as usize];
                }
            }
            let curve = index_curve(kind);
            let key = |&(var, cell, _): &Push| {
                (var, curve.index_of_coord(&index_cell(kind, cell)).unwrap())
            };
            match order {
                1 => pushes.sort_by_key(key),
                2 => pushes.sort_by_key(|push| std::cmp::Reverse(key(push))),
                _ => {}
            }
            (kind, pushes)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The slab buffer emits the record sequence the `BTreeMap` buffer
    /// emitted, duplicates and all, wherever the caller flushes.
    #[test]
    fn slab_buffer_equals_reference_on_any_pushes(
        case in pushes(),
        flush_every in 1usize..40,
    ) {
        let (kind, pushes) = case;
        let mut fast = Aggregator::with_curve(curve(kind), 1 << 20);
        let mut slow = ReferenceAggregator::with_curve(curve(kind), 1 << 20);
        for (n, &push) in pushes.iter().enumerate() {
            let (var, (x, y), _) = push;
            let coord = Coord::new(vec![x, y]);
            let value = push_value(push);
            prop_assert_eq!(fast.push_var(var, &coord, &value).unwrap(), None);
            prop_assert_eq!(slow.push_var(var, &coord, &value).unwrap(), None);
            if n % flush_every == flush_every - 1 {
                prop_assert_eq!(fast.flush(), slow.flush(), "flush after push {}", n);
            }
        }
        prop_assert_eq!(fast.flush(), slow.flush());
        prop_assert_eq!(fast.pairs_in(), slow.pairs_in());
        prop_assert_eq!(fast.records_out(), slow.records_out());
    }

    /// Without duplicates both buffers stage the same bytes, so they
    /// cross a threshold on the same push and flush the same records.
    #[test]
    fn slab_buffer_equals_reference_across_threshold_flushes(
        case in distinct_pushes(),
        threshold in 1usize..80,
    ) {
        let (kind, pushes) = case;
        let mut fast = Aggregator::with_curve(curve(kind), threshold);
        let mut slow = ReferenceAggregator::with_curve(curve(kind), threshold);
        for (n, &push) in pushes.iter().enumerate() {
            let (var, (x, y), _) = push;
            let coord = Coord::new(vec![x, y]);
            let value = push_value(push);
            prop_assert_eq!(
                fast.push_var(var, &coord, &value).unwrap(),
                slow.push_var(var, &coord, &value).unwrap(),
                "push {}", n
            );
        }
        prop_assert_eq!(fast.flush(), slow.flush());
        prop_assert_eq!(fast.records_out(), slow.records_out());
    }

    /// With duplicates a threshold counts every staged copy, so flushes
    /// may come earlier than the reference's; replayed in order, the
    /// records still say what the pushes said, last push winning.
    #[test]
    fn threshold_flushes_with_duplicates_keep_the_last_push(
        case in pushes(),
        threshold in 1usize..80,
    ) {
        let (kind, pushes) = case;
        let curve = curve(kind);
        let mut agg = Aggregator::with_curve(curve.clone(), threshold);
        let mut pushed = BTreeMap::new();
        let mut replayed = BTreeMap::new();
        let mut replay = |records: Vec<AggregateRecord>| {
            for rec in records {
                let var = rec.key.variable;
                let width = var as usize + 1;
                for index in rec.key.run.start..=rec.key.run.end {
                    let value = rec.value_at(index, width).expect("inside the run");
                    replayed.insert((var, index), value.to_vec());
                }
            }
        };
        for &push in &pushes {
            let (var, (x, y), _) = push;
            let coord = Coord::new(vec![x, y]);
            let value = push_value(push);
            pushed.insert((var, curve.index_of_coord(&coord).unwrap()), value.clone());
            replay(agg.push_var(var, &coord, &value).unwrap().unwrap_or_default());
        }
        replay(agg.flush());
        prop_assert_eq!(replayed, pushed);
        prop_assert_eq!(agg.pairs_in(), pushes.len() as u64);
    }

    /// The index-keyed push flushes the record sequence the reference
    /// flushes from the same cells' coordinates, in any push order,
    /// repeated cells included (the last push wins), wherever the caller
    /// flushes.
    #[test]
    fn index_push_equals_reference_in_any_order(
        case in index_pushes(),
        flush_every in 1usize..40,
    ) {
        let (kind, pushes) = case;
        let curve = index_curve(kind);
        let mut fast = Aggregator::with_curve(curve.clone(), 1 << 20);
        let mut slow = ReferenceAggregator::with_curve(curve.clone(), 1 << 20);
        for (n, &push) in pushes.iter().enumerate() {
            let (var, cell, _) = push;
            let coord = index_cell(kind, cell);
            let index = curve.index_of_coord(&coord).unwrap();
            let value = push_value(push);
            prop_assert_eq!(fast.push_index(var, index, &value).unwrap(), None);
            prop_assert_eq!(slow.push_var(var, &coord, &value).unwrap(), None);
            if n % flush_every == flush_every - 1 {
                prop_assert_eq!(fast.flush(), slow.flush(), "flush after push {}", n);
            }
        }
        prop_assert_eq!(fast.flush(), slow.flush());
        prop_assert_eq!(fast.pairs_in(), slow.pairs_in());
        prop_assert_eq!(fast.records_out(), slow.records_out());
    }

    /// Without repeated cells both buffers cross a threshold on the same
    /// push, so the index-keyed push flushes mid-stream what the
    /// reference flushes, push by push, in any push order.
    #[test]
    fn index_push_equals_reference_across_threshold_flushes(
        case in index_pushes(),
        threshold in 1usize..80,
    ) {
        let (kind, mut pushes) = case;
        let mut seen = std::collections::BTreeSet::new();
        pushes.retain(|&(var, cell, _)| seen.insert((var, index_cell(kind, cell))));
        let curve = index_curve(kind);
        let mut fast = Aggregator::with_curve(curve.clone(), threshold);
        let mut slow = ReferenceAggregator::with_curve(curve.clone(), threshold);
        for (n, &push) in pushes.iter().enumerate() {
            let (var, cell, _) = push;
            let coord = index_cell(kind, cell);
            let index = curve.index_of_coord(&coord).unwrap();
            let value = push_value(push);
            prop_assert_eq!(
                fast.push_index(var, index, &value).unwrap(),
                slow.push_var(var, &coord, &value).unwrap(),
                "push {}", n
            );
        }
        prop_assert_eq!(fast.flush(), slow.flush());
        prop_assert_eq!(fast.records_out(), slow.records_out());
    }

    /// The transform is a bijection for every detector configuration.
    #[test]
    fn transform_bijective_across_configs(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        max_stride in 1usize..48,
        cycle in prop_oneof![Just(32usize), Just(256), Just(1024)],
        run_threshold in 0u32..5,
    ) {
        for adaptive in [true, false] {
            let config = TransformConfig {
                max_stride,
                adaptive,
                selection_cycle: cycle,
                run_threshold,
                ..TransformConfig::default()
            };
            let t = forward(&config, &data);
            prop_assert_eq!(t.len(), data.len());
            prop_assert_eq!(inverse(&config, &t), data.clone());
        }
    }

    /// The transform codec composed with any inner codec is lossless.
    #[test]
    fn transform_codec_lossless(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        max_stride in 2usize..32,
    ) {
        let config = TransformConfig::adaptive(max_stride);
        for inner in [
            Arc::new(IdentityCodec) as Arc<dyn Codec>,
            Arc::new(DeflateCodec::new()),
        ] {
            let codec = TransformCodec::new(config.clone(), inner);
            let z = codec.compress(&data);
            prop_assert_eq!(codec.decompress(&z).unwrap(), data.clone());
        }
    }

    /// Aggregation + slicing is exact: any cell's value read through any
    /// record slice equals the pushed value, on both curves.
    #[test]
    fn aggregation_is_exact_on_both_curves(
        cells in proptest::collection::btree_map(
            (0u32..16, 0u32..16),
            any::<[u8; 2]>(),
            1..48,
        ),
    ) {
        for hilbert in [false, true] {
            let mut agg = if hilbert {
                Aggregator::new(HilbertCurve::with_bits(2, 4), 1 << 20)
            } else {
                Aggregator::new(ZOrderCurve::with_bits(2, 4), 1 << 20)
            };
            for (&(x, y), v) in &cells {
                agg.push(&Coord::new(vec![x as i32, y as i32]), v).unwrap();
            }
            let records = agg.flush();
            let total: u128 = records.iter().map(|r| r.key.cell_count()).sum();
            prop_assert_eq!(total as usize, cells.len());
            // Every record's payload length is consistent.
            for r in &records {
                prop_assert_eq!(r.values.len() as u128, r.key.cell_count() * 2);
            }
        }
    }

    /// Coalescing after overlap-splitting never loses or duplicates cells.
    #[test]
    fn split_then_coalesce_preserves_cells(
        ranges in proptest::collection::vec((0u64..100, 1u64..20), 1..8),
    ) {
        let records: Vec<AggregateRecord> = ranges
            .iter()
            .map(|&(start, len)| {
                AggregateRecord::new(
                    AggregateKey::new(0, CurveRun {
                        start: start as u128,
                        end: (start + len - 1) as u128,
                    }),
                    vec![7u8; len as usize],
                    1,
                )
                .unwrap()
            })
            .collect();
        let total: u128 = records.iter().map(|r| r.key.cell_count()).sum();
        let pieces = overlap_split(records, 1);
        let coalesced = coalesce_adjacent(pieces);
        let after: u128 = coalesced.iter().map(|r| r.key.cell_count()).sum();
        prop_assert_eq!(after, total);
        // Coalesced records never overlap-adjacent with same boundaries
        // except where inputs overlapped (duplicates may remain equal);
        // at minimum, payload lengths stay consistent.
        for r in &coalesced {
            prop_assert_eq!(r.values.len() as u128, r.key.cell_count());
        }
    }

    /// Alignment expansion always contains the original run and starts /
    /// ends on boundaries.
    #[test]
    fn alignment_contains_and_aligns(
        start in 0u128..10_000,
        len in 1u128..500,
        align_pow in 0u32..10,
    ) {
        let alignment = 1u128 << align_pow;
        let run = CurveRun { start, end: start + len - 1 };
        let a = align_run(run, alignment);
        prop_assert!(a.start <= run.start && a.end >= run.end);
        prop_assert_eq!(a.start % alignment, 0);
        prop_assert_eq!((a.end + 1) % alignment, 0);
        // Expansion is idempotent.
        prop_assert_eq!(align_run(a, alignment), a);
    }

    /// Expanded records read back the original values at original cells.
    #[test]
    fn expansion_preserves_values(
        start in 0u128..1000,
        len in 1u128..40,
        align_pow in 1u32..8,
    ) {
        let run = CurveRun { start, end: start + len - 1 };
        let values: Vec<u8> = (0..len as usize).map(|i| i as u8).collect();
        let rec = AggregateRecord::new(AggregateKey::new(0, run), values, 1).unwrap();
        let expanded = expand_record(&rec, 1 << align_pow, 1, &[0xEE]);
        for i in run.start..=run.end {
            prop_assert_eq!(
                expanded.value_at(i, 1).unwrap(),
                rec.value_at(i, 1).unwrap()
            );
        }
    }

    /// The run-mode predictor is byte-identical to the definition's
    /// full-set scan ([`ReferencePredictor`]) across detector
    /// configurations, including the surviving active set, fed in uneven
    /// chunks so mid-stream state is compared too.
    #[test]
    fn fast_predictor_equals_reference(
        data in prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..3000),
            record_streams(),
        ],
        max_stride in 1usize..40,
        cycle in prop_oneof![Just(32usize), Just(64), Just(256)],
        run_threshold in 0u32..4,
        adaptive in any::<bool>(),
    ) {
        let config = TransformConfig {
            max_stride,
            adaptive,
            selection_cycle: cycle,
            run_threshold,
            ..TransformConfig::default()
        };
        assert_equals_reference(&config, &data, 277);
    }

    /// Runs end at selection boundaries, evictions and chunk ends: a
    /// chunk size below, at and above the selection cycle, and one with
    /// no relation to it, must not move a byte in either direction.
    #[test]
    fn chunked_transform_equals_one_shot(
        data in record_streams(),
        max_stride in prop_oneof![1usize..40, Just(100usize)],
    ) {
        let config = TransformConfig::adaptive(max_stride);
        let one_shot = forward(&config, &data);
        prop_assert_eq!(&inverse(&config, &one_shot), &data);
        for chunk in [1usize, 255, 256, 257, 997] {
            let mut f = StridePredictor::new(config.clone());
            let mut i = StridePredictor::new(config.clone());
            let (mut t, mut back) = (Vec::new(), Vec::new());
            for (x, y) in data.chunks(chunk).zip(one_shot.chunks(chunk)) {
                t.extend_from_slice(&f.forward(x));
                back.extend_from_slice(&i.inverse(y));
            }
            prop_assert_eq!(&t, &one_shot, "forward, chunks of {}", chunk);
            prop_assert_eq!(&back, &data, "inverse, chunks of {}", chunk);
        }
    }
}
