//! Property suite for the `KeySemantics` sort-prefix contract:
//!
//! > `sort_prefix_wide(a) < sort_prefix_wide(b)` ⇒ `compare(a, b) == Less`
//!
//! checked for every shipped implementation — the default bytewise
//! semantics over arbitrary byte strings, the aggregate-key semantics
//! over valid keys (with curve indices from real Z-order mappings,
//! including boundary coordinates), junk byte strings, and starts
//! straddling the 48-bit prefix clamp — and for the two shapes of
//! implementor a user writes: a reversed order that overrides `compare`
//! and the prefix, and one that overrides nothing but `partition`. The
//! engine's radix spill sort, loser-tree merge and v3 block-skip proof
//! are only correct because of this implication, so a violation here is
//! a corruption bug, not a perf regression — which is why the reversed
//! order is also driven through all three (`check_engine`): a prefix
//! that is right by this contract must be all the engine needs.

use proptest::collection::vec;
use proptest::prelude::*;
use scihadoop::compress::IdentityCodec;
use scihadoop::core::aggregate::{AggregateKey, AggregateKeyOps, RangePartitioner};
use scihadoop::mapreduce::{
    bytewise_sort_prefix_wide, BlockMergeStream, Counter, DefaultKeySemantics, Emit, FnMapper,
    FnReducer, Framing, IFileWriter, InputSplit, Job, JobConfig, KeySemantics, KvPair, MergeItem,
    RawSegment,
};
use scihadoop::sfc::{index_prefix48, Curve, CurveRun, ZOrderCurve};
use std::cmp::Ordering;
use std::sync::Arc;

/// Assert the contract over every ordered pair of `keys` (a) and along
/// the run `compare` sorts them into (b).
fn check_contract(ks: &dyn KeySemantics, keys: &[Vec<u8>]) -> Result<(), TestCaseError> {
    for a in keys {
        for b in keys {
            if ks.sort_prefix_wide(a) < ks.sort_prefix_wide(b) {
                prop_assert_eq!(
                    ks.compare(a, b),
                    Ordering::Less,
                    "prefix order must imply key order: {:?} vs {:?}",
                    a,
                    b
                );
            }
        }
    }
    let mut run: Vec<&Vec<u8>> = keys.iter().collect();
    run.sort_by(|a, b| ks.compare(a, b));
    for w in run.windows(2) {
        prop_assert!(
            ks.sort_prefix_wide(w[0]) <= ks.sort_prefix_wide(w[1]),
            "prefix regressed along a sorted run: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    Ok(())
}

/// Reversed bytewise order over atomic keys, written the way the trait
/// asks: `compare`, the one prefix that preserves it (the complement of
/// the bytewise one), and `partition`. Declaring the keys atomic lets
/// the reducer group straight off the merge, with no re-sort behind it
/// to repair a misordered stream.
struct ReverseOrder;

impl KeySemantics for ReverseOrder {
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        b.cmp(a)
    }
    fn sort_prefix_wide(&self, key: &[u8]) -> u128 {
        !bytewise_sort_prefix_wide(key)
    }
    fn partition(&self, _key: &[u8], _parts: usize) -> usize {
        0
    }
    fn sort_splits(&self) -> bool {
        false
    }
    fn sort_interacts(&self, _a: &[u8], _b: &[u8]) -> bool {
        false
    }
}

/// Bytewise order with every sort hook left at the trait's default.
struct OnlyPartition;

impl KeySemantics for OnlyPartition {
    fn partition(&self, _key: &[u8], _parts: usize) -> usize {
        0
    }
}

/// Drive `ks` through everything the engine builds on its prefix.
///
/// *Job*: four map tasks each emit their rows of a 60 × 45 grid of
/// 12-byte keys — row `r` belongs to split `r % 4`, which also writes
/// the row below it, so the reducer's runs interleave and every row
/// arrives from two of them — plus every one of `keys`; a 4 KiB spill
/// buffer makes each task spill several v3 segments and merge them on
/// the map side into one of several blocks. The one reducer must see
/// each distinct key as exactly one group, in `compare` order.
///
/// *Merge*: `keys` sorted, written as v3 runs of 48-byte blocks —
/// contiguous chunks (disjoint runs, where whole blocks are skipped)
/// and round-robin (interleaved runs) — must merge to the comparator's
/// order through both `next` and `next_item`.
fn check_engine(ks: Arc<dyn KeySemantics>, keys: &[Vec<u8>]) -> Result<(), TestCaseError> {
    let mut distinct: Vec<Vec<u8>> = keys.to_vec();
    let splits: Vec<InputSplit> = (0..4i32)
        .map(|s| {
            let rows = (0..60i32).filter(|r| r % 4 == s).flat_map(|r| [r, r + 1]);
            let grid = rows.flat_map(|r| {
                (0..45i32).map(move |c| [[0u8; 4], r.to_be_bytes(), c.to_be_bytes()].concat())
            });
            let pairs: Vec<KvPair> = grid
                .chain(keys.iter().cloned())
                .map(|key| KvPair::new(key, vec![s as u8; 4]))
                .collect();
            distinct.extend(pairs.iter().map(|p| p.key.to_vec()));
            InputSplit::new(pairs)
        })
        .collect();
    distinct.sort_by(|a, b| ks.compare(a, b));
    distinct.dedup();
    let result = Job::new(
        JobConfig::default()
            .with_reducers(1)
            .with_spill_buffer(4 << 10)
            .with_key_semantics(ks.clone()),
    )
    .run(
        splits,
        Arc::new(FnMapper(|k: &[u8], v: &[u8], out: &mut dyn Emit| {
            out.emit(k, v)
        })),
        Arc::new(FnReducer(|k: &[u8], _: &[&[u8]], out: &mut dyn Emit| {
            out.emit(k, b"")
        })),
    )
    .expect("job runs");
    prop_assert!(
        result.counters.get(Counter::Spills) > 8,
        "multi-spill tasks"
    );
    prop_assert_eq!(
        result.counters.get(Counter::ReduceInputGroups),
        distinct.len() as u64,
        "one reduce group per distinct key"
    );
    let reduced: Vec<&[u8]> = result.outputs[0].iter().map(|p| &p.key[..]).collect();
    prop_assert_eq!(
        reduced,
        distinct.iter().map(Vec::as_slice).collect::<Vec<_>>()
    );

    let mut sorted: Vec<KvPair> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| KvPair::new(k.clone(), vec![i as u8]))
        .collect();
    sorted.sort_by(|a, b| ks.compare(&a.key, &b.key));
    let chunk = sorted.len().div_ceil(3);
    let disjoint: Vec<Vec<KvPair>> = sorted.chunks(chunk).map(<[_]>::to_vec).collect();
    let interleaved: Vec<Vec<KvPair>> = (0..3)
        .map(|r| sorted.iter().skip(r).step_by(3).cloned().collect())
        .collect();
    for runs in [disjoint, interleaved] {
        let sealed: Vec<Vec<u8>> = runs
            .iter()
            .map(|run| {
                let mut w =
                    IFileWriter::v3_with_budget(Framing::IFile, Arc::new(IdentityCodec), 48);
                run.iter().for_each(|p| w.append_pair(p));
                w.close().data
            })
            .collect();
        let segments: Vec<RawSegment> = sealed
            .iter()
            .map(|s| RawSegment::open(s, &IdentityCodec).expect("segment opens"))
            .collect();
        // The runs concatenated in run order and stable-sorted: a key
        // tied across runs keeps the lower run first.
        let mut expected: Vec<KvPair> = runs.into_iter().flatten().collect();
        expected.sort_by(|a, b| ks.compare(&a.key, &b.key));
        let mut by_record = Vec::new();
        let mut stream = BlockMergeStream::new(&segments, ks.as_ref()).expect("merge opens");
        while let Some((key, value)) = stream.next().expect("merge") {
            by_record.push(KvPair::new(key.to_vec(), value.to_vec()));
        }
        prop_assert_eq!(&by_record, &expected, "next()");
        let mut by_item = Vec::new();
        let mut stream = BlockMergeStream::new(&segments, ks.as_ref()).expect("merge opens");
        while let Some(item) = stream.next_item().expect("merge") {
            let mut push = |k: &[u8], v: &[u8]| by_item.push(KvPair::new(k.to_vec(), v.to_vec()));
            match item {
                MergeItem::Record(key, value) => push(key, value),
                MergeItem::Block(block) => block.for_each_record(push).expect("block decodes"),
            }
        }
        prop_assert_eq!(&by_item, &expected, "next_item()");
    }
    Ok(())
}

/// Byte strings where the 16-byte window's edge cases are the common
/// case: keys that differ only in trailing zero bytes and length
/// (`"ab"` vs `"ab\0"`), keys of exactly 15, 16 and 17 bytes over one
/// stem, and 12-byte grid keys whose `i32` coordinates sit either side
/// of −1/0 and 255/256.
fn edge_keys() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let coordinate = || {
        prop_oneof![
            Just(-2i32),
            Just(-1),
            Just(0),
            Just(1),
            Just(254),
            Just(255),
            Just(256),
            Just(257),
            Just(513),
            any::<i32>(),
        ]
    };
    (
        vec(vec(any::<u8>(), 0..20), 2..16),
        vec((vec(0u8..3, 0..18), 0usize..3), 0..12),
        vec(any::<u8>(), 17),
        vec((0u32..2, coordinate(), coordinate()), 0..16),
    )
        .prop_map(|(random, stems, long, coordinates)| {
            let mut keys = random;
            for (stem, zeros) in stems {
                let mut padded = stem.clone();
                padded.extend(std::iter::repeat_n(0u8, zeros));
                keys.extend([stem, padded]);
            }
            keys.extend([15, 16, 17].map(|len| long[..len].to_vec()));
            for (variable, c0, c1) in coordinates {
                keys.push([variable.to_be_bytes(), c0.to_be_bytes(), c1.to_be_bytes()].concat());
            }
            keys
        })
}

fn aggregate_ops() -> AggregateKeyOps {
    AggregateKeyOps::new(RangePartitioner::uniform(4, 1 << 20), 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Default semantics: arbitrary byte strings of any length, with a
    /// bias toward shared prefixes and embedded zero bytes (the cases
    /// where zero-extension could go wrong).
    #[test]
    fn default_prefix_contract_over_arbitrary_bytes(
        random in vec(vec(any::<u8>(), 0..14), 2..24),
        stems in vec(vec(0u8..3, 0..10), 0..12),
    ) {
        // Low-entropy stems manufacture prefix collisions and \x00 runs.
        let mut keys = random;
        keys.extend(stems);
        check_contract(&DefaultKeySemantics, &keys)?;
    }

    /// Bytewise order under all three implementors that use it or its
    /// mirror image, over the edges of the 16-byte window — and the
    /// mirror image through a job, the merge and its block skipping.
    #[test]
    fn bytewise_prefix_contracts_over_edge_keys(keys in edge_keys()) {
        check_contract(&DefaultKeySemantics, &keys)?;
        check_contract(&ReverseOrder, &keys)?;
        check_contract(&OnlyPartition, &keys)?;
        check_engine(Arc::new(ReverseOrder), &keys)?;
    }

    /// Aggregate semantics over valid keys whose starts are genuine
    /// Z-order curve indices — coordinates span the full u32 range, so
    /// curve indices cross the 48-bit clamp boundary.
    #[test]
    fn aggregate_prefix_contract_over_zorder_keys(
        coords in vec((any::<u32>(), any::<u32>()), 1..16),
        small in vec((0u32..300, 0u32..300), 1..16),
        variables in vec(0u32..4, 1..6),
        lens in vec(1u64..200, 1..8),
    ) {
        let curve = ZOrderCurve::new(2);
        let ops = aggregate_ops();
        let mut keys = Vec::new();
        for (i, &(x, y)) in coords.iter().chain(small.iter()).enumerate() {
            let start = curve.index_of(&[x, y]).expect("2x32-bit coords fit");
            let len = lens[i % lens.len()] as u128;
            let variable = variables[i % variables.len()];
            let end = start.saturating_add(len - 1);
            keys.push(AggregateKey::new(variable, CurveRun { start, end }).to_bytes());
        }
        check_contract(&ops, &keys)?;
    }

    /// Aggregate semantics must also survive junk: random byte strings
    /// (any length, including truncated keys) mixed with valid keys.
    /// The positional packing makes the prefix order-preserving for the
    /// bytewise comparator over *all* inputs, parseable or not.
    #[test]
    fn aggregate_prefix_contract_over_junk_and_valid_keys(
        junk in vec(vec(any::<u8>(), 0..40), 0..12),
        starts in vec(any::<u64>(), 1..8),
        variables in vec(any::<u32>(), 1..4),
    ) {
        let ops = aggregate_ops();
        let mut keys = junk;
        for (i, &s) in starts.iter().enumerate() {
            // Shift some starts past the 48-bit clamp.
            let start = (s as u128) << (8 * (i % 4));
            let variable = variables[i % variables.len()];
            keys.push(
                AggregateKey::new(variable, CurveRun { start, end: start }).to_bytes(),
            );
            // Truncations of valid keys are adversarial junk too.
            let full = keys.last().expect("just pushed").clone();
            keys.push(full[..full.len().min(3 + i % 20)].to_vec());
        }
        check_contract(&ops, &keys)?;
    }

    /// The default prefix is the first 16 bytes, zero-extended, and
    /// `index_prefix48` is monotone — spot restatements of the pieces
    /// the two implementations are built from.
    #[test]
    fn prefix_building_blocks_are_monotone(
        a in any::<u128>(),
        b in any::<u128>(),
        key in vec(any::<u8>(), 0..24),
    ) {
        if a <= b {
            prop_assert!(index_prefix48(a) <= index_prefix48(b));
        } else {
            prop_assert!(index_prefix48(a) >= index_prefix48(b));
        }
        let mut first16 = [0u8; 16];
        let n = key.len().min(16);
        first16[..n].copy_from_slice(&key[..n]);
        let wide = u128::from_be_bytes(first16);
        prop_assert_eq!(bytewise_sort_prefix_wide(&key), wide);
    }
}

/// Boundary coordinates deserve a deterministic pass: curve corners,
/// the 48-bit clamp, and negative grid coordinates rejected upstream
/// (signed coordinates must be offset non-negative before indexing, so
/// the key layer only ever sees unsigned indices — asserted here).
#[test]
fn aggregate_prefix_boundary_coordinates() {
    let curve = ZOrderCurve::new(2);
    let ops = aggregate_ops();
    let corners = [
        [0u32, 0],
        [0, u32::MAX],
        [u32::MAX, 0],
        [u32::MAX, u32::MAX],
        [1 << 23, 1 << 24],
        [(1 << 24) - 1, (1 << 24) - 1],
    ];
    let mut keys = Vec::new();
    for c in &corners {
        let start = curve.index_of(c).expect("corners fit");
        for len in [1u128, 1 << 30] {
            let end = start.saturating_add(len - 1);
            keys.push(AggregateKey::new(1, CurveRun { start, end }).to_bytes());
        }
    }
    for a in &keys {
        for b in &keys {
            if ops.sort_prefix_wide(a) < ops.sort_prefix_wide(b) {
                assert_eq!(ops.compare(a, b), Ordering::Less, "{a:?} vs {b:?}");
            }
        }
    }
    // Negative coordinates never reach the curve: the grid layer rejects
    // them, so aggregate keys cannot embed a "negative" index.
    use scihadoop::grid::Coord;
    assert!(curve.index_of_coord(&Coord::new(vec![-1, 5])).is_err());
    assert!(curve.index_of_coord(&Coord::new(vec![0, 5])).is_ok());
}
