//! Property suite for the `KeySemantics` sort-prefix contract, narrow and
//! wide:
//!
//! > `sort_prefix(a) < sort_prefix(b)` ⇒ `compare(a, b) == Less`
//! > `sort_prefix_wide(a) < sort_prefix_wide(b)` ⇒ `compare(a, b) == Less`
//! > `(sort_prefix_wide(k) >> 64) as u64 == sort_prefix(k)`
//!
//! checked for every shipped implementation — the default bytewise
//! semantics over arbitrary byte strings, the aggregate-key semantics
//! over valid keys (with curve indices from real Z-order mappings,
//! including boundary coordinates), junk byte strings, and starts
//! straddling the 48-bit prefix clamp — and for the two shapes of
//! implementor that inherit the trait's wide default: a reversed order
//! that overrides the narrow prefix, and one that overrides nothing but
//! `partition`. The engine's radix spill sort and loser-tree merge are
//! only correct because of these implications, and the v3 fence index
//! because of the third line, so a violation here is a corruption bug,
//! not a perf regression.

use proptest::collection::vec;
use proptest::prelude::*;
use scihadoop::core::aggregate::{AggregateKey, AggregateKeyOps, RangePartitioner};
use scihadoop::mapreduce::{
    bytewise_sort_prefix, bytewise_sort_prefix_wide, DefaultKeySemantics, KeySemantics,
};
use scihadoop::sfc::{index_prefix48, Curve, CurveRun, ZOrderCurve};
use std::cmp::Ordering;

/// Assert the contract over every ordered pair of `keys` (a), along the
/// run `compare` sorts them into (b), and between the two widths (c).
fn check_contract(ks: &dyn KeySemantics, keys: &[Vec<u8>]) -> Result<(), TestCaseError> {
    for a in keys {
        prop_assert_eq!(
            (ks.sort_prefix_wide(a) >> 64) as u64,
            ks.sort_prefix(a),
            "the wide key's high word must be the narrow prefix: {:?}",
            a
        );
        for b in keys {
            let narrow = ks.sort_prefix(a) < ks.sort_prefix(b);
            let wide = ks.sort_prefix_wide(a) < ks.sort_prefix_wide(b);
            if narrow || wide {
                prop_assert_eq!(
                    ks.compare(a, b),
                    Ordering::Less,
                    "prefix order (narrow {}, wide {}) must imply key order: {:?} vs {:?}",
                    narrow,
                    wide,
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
            ks.sort_prefix(w[0]) <= ks.sort_prefix(w[1])
                && ks.sort_prefix_wide(w[0]) <= ks.sort_prefix_wide(w[1]),
            "prefix regressed along a sorted run: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    Ok(())
}

/// Reversed bytewise order; the complemented narrow prefix preserves it
/// and the wide key is the trait's default over that.
struct ReverseOrder;

impl KeySemantics for ReverseOrder {
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        b.cmp(a)
    }
    fn sort_prefix(&self, key: &[u8]) -> u64 {
        !bytewise_sort_prefix(key)
    }
    fn partition(&self, _key: &[u8], _parts: usize) -> usize {
        0
    }
}

/// Bytewise order with every sort hook left at the trait's default.
struct OnlyPartition;

impl KeySemantics for OnlyPartition {
    fn partition(&self, _key: &[u8], _parts: usize) -> usize {
        0
    }
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
    /// mirror image, over the edges of the 16-byte window.
    #[test]
    fn bytewise_prefix_contracts_over_edge_keys(keys in edge_keys()) {
        check_contract(&DefaultKeySemantics, &keys)?;
        check_contract(&ReverseOrder, &keys)?;
        check_contract(&OnlyPartition, &keys)?;
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

    /// The default prefixes are the first 8 and 16 bytes, zero-extended,
    /// and `index_prefix48` is monotone — spot restatements of the pieces
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
        prop_assert_eq!(bytewise_sort_prefix(&key), (wide >> 64) as u64);
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
            if ops.sort_prefix(a) < ops.sort_prefix(b) {
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
