//! Key semantics — the engine hook behind the paper's §IV-B change.
//!
//! Stock Hadoop assumes keys are atomic and independent (§II-B). The
//! paper's "one set of changes inside Hadoop ... allows aggregate keys to
//! be split during the routing and sorting phases". This trait is that
//! change, made pluggable, and each decision is one hook: the engine
//! calls [`KeySemantics::route_slices`] when partitioning map output,
//! sorts and merges on [`KeySemantics::sort_prefix_wide`] with
//! [`KeySemantics::compare`] behind it, and calls
//! [`KeySemantics::sort_split`] before grouping at the reducer. The
//! defaults reproduce stock Hadoop (whole pairs, bytewise order, no
//! splitting); `scihadoop-core` provides the aggregate-key
//! implementation.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::record::KvPair;
use std::cmp::Ordering;

/// Sink receiving routed `(partition, key, value)` pieces from
/// [`KeySemantics::route_slices`].
pub type RouteSink<'a> = dyn FnMut(usize, &[u8], &[u8]) + 'a;

/// Pluggable key behaviour for routing, sorting, splitting and grouping.
pub trait KeySemantics: Send + Sync {
    /// Sort order of serialized keys (Hadoop: bytewise).
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        a.cmp(b)
    }

    /// The 16-byte *normalized key* both shuffle sort stages run on —
    /// database sort kernels' "normalized keys", Hadoop's
    /// `RawComparator` taken one step further: the spill sort radix-
    /// sorts these, the merge's loser tree compares its run heads'
    /// cached copies, and its v3 block skipping compares high words: the
    /// next block's fence key's against each head's. Contract:
    ///
    /// > `sort_prefix_wide(a) < sort_prefix_wide(b)` implies
    /// > `compare(a, b) == Ordering::Less`.
    ///
    /// Equal wide keys promise nothing — the sort leaves a tie run of
    /// byte-identical keys alone (any comparator is reflexive) and hands
    /// every other tie to [`KeySemantics::compare`] — so a low-entropy
    /// prefix costs speed, never correctness, and a constant is always
    /// valid. The block-skipping merge leans on the same implication
    /// read the other way: along a sorted run the wide keys, and so
    /// their high words, never decrease, which makes a block whose next
    /// fence is strictly below every rival head provably uncontended.
    ///
    /// The default takes the first 16 key bytes, big-endian, zero-
    /// extended ([`bytewise_sort_prefix_wide`]) — order-preserving for
    /// the default bytewise `compare`, and wide enough to decide a
    /// 12-byte grid key (`[variable][c0][c1]`) without the comparator.
    /// An implementation that overrides `compare` with a non-bytewise
    /// order MUST override this method too.
    fn sort_prefix_wide(&self, key: &[u8]) -> u128 {
        bytewise_sort_prefix_wide(key)
    }

    /// Whether `compare` is bytewise and `sort_prefix_wide` is
    /// [`bytewise_sort_prefix_wide`]. Unless it is, the spill sort re-tags
    /// the keys the arena tagged bytewise at append (always correct).
    fn bytewise_order(&self) -> bool {
        false
    }

    /// Which reducer a key routes to (Hadoop's `Partitioner`).
    fn partition(&self, key: &[u8], parts: usize) -> usize;

    /// Route a pair: emit each `(partition, key, value)` piece it
    /// becomes, possibly splitting it across reducers (§IV-B case 1).
    /// The default emits the whole pair to
    /// [`KeySemantics::partition`], like stock Hadoop.
    fn route_slices(&self, key: &[u8], value: &[u8], parts: usize, emit: &mut RouteSink<'_>) {
        emit(self.partition(key, parts), key, value);
    }

    /// Rewrite a reducer's sorted run before grouping, e.g. splitting
    /// overlapping aggregate keys (§IV-B case 2). Must return records
    /// whose keys are equal or never group together; the engine re-sorts
    /// afterwards. The default is the identity (stock Hadoop).
    fn sort_split(&self, records: Vec<KvPair>) -> Vec<KvPair> {
        records
    }

    /// Whether [`KeySemantics::sort_split`] can ever rewrite records.
    /// `false` lets the reducer stream records from the merge straight
    /// into grouping with no buffering at all. The conservative default
    /// is `true`.
    fn sort_splits(&self) -> bool {
        true
    }

    /// Whether `sort_split` could rewrite either of two records because
    /// the other is present in the same batch. The reducer uses this to
    /// window the merged stream: a run of records is handed to
    /// `sort_split` as soon as the next record interacts with none of
    /// them. Implementations must satisfy two contracts over a sorted
    /// run: (closure) if `b` sorts at-or-after `a` and `!sort_interacts(a,
    /// b)`, then no `c` sorting at-or-after `b` interacts with `a`; and
    /// (grouping) `group_eq(a, b)` implies `sort_interacts(a, b)`. The
    /// conservative default — everything interacts — degrades to one
    /// whole-run batch, the pre-streaming behaviour.
    fn sort_interacts(&self, _a: &[u8], _b: &[u8]) -> bool {
        true
    }

    /// Whether two keys belong to the same reduce group (Hadoop's
    /// grouping comparator).
    fn group_eq(&self, a: &[u8], b: &[u8]) -> bool {
        bytewise_eq(a, b)
    }
}

/// Stock-Hadoop behaviour: FNV-1a hash partitioning, bytewise sort,
/// atomic keys.
#[derive(Debug, Clone, Default)]
pub struct DefaultKeySemantics;

impl KeySemantics for DefaultKeySemantics {
    fn bytewise_order(&self) -> bool {
        true
    }

    fn partition(&self, key: &[u8], parts: usize) -> usize {
        (fnv1a(key) % parts as u64) as usize
    }

    fn sort_splits(&self) -> bool {
        false
    }

    fn sort_interacts(&self, _a: &[u8], _b: &[u8]) -> bool {
        false
    }
}

/// First 8 key bytes, big-endian, zero-extended: the high word of
/// [`bytewise_sort_prefix_wide`].
#[inline]
fn bytewise_sort_prefix(key: &[u8]) -> u64 {
    match key.first_chunk::<8>() {
        Some(head) => u64::from_be_bytes(*head),
        None => {
            let mut buf = [0u8; 8];
            buf[..key.len()].copy_from_slice(key);
            u64::from_be_bytes(buf)
        }
    }
}

/// The default [`KeySemantics::sort_prefix_wide`]: first 16 key bytes,
/// big-endian, zero-extended. For any bytewise comparator this is
/// order-preserving — where the zero padding collides with real `0x00`
/// key bytes the prefixes tie, and ties always fall back to the full
/// comparator.
#[inline]
pub fn bytewise_sort_prefix_wide(key: &[u8]) -> u128 {
    let low = match *key {
        [_, _, _, _, _, _, _, _, a, b, c, d, e, f, g, h, ..] => {
            u64::from_be_bytes([a, b, c, d, e, f, g, h])
        }
        // 9 to 15 bytes. A key's last 8 bytes end with its bytes 8..len:
        // shifting out the overlap with the high word leaves those
        // zero-extended, with no variable-length copy — which doubled
        // the spill sort's key-build pass on 12-byte grid keys (1.0 ->
        // 2.0 ms per 147,456 records).
        [_, .., a, b, c, d, e, f, g, h] => {
            u64::from_be_bytes([a, b, c, d, e, f, g, h]) << (8 * (16 - key.len()))
        }
        _ => 0,
    };
    (bytewise_sort_prefix(key) as u128) << 64 | low as u128
}

/// Byte equality of two keys, for the per-record equality tests of the
/// shuffle (the spill sort's tie runs, the block writer's key groups,
/// the default `group_eq`). Keys of 8 to 16 bytes — every grid key —
/// compare as two overlapping 8-byte words with no call; others take
/// the slice comparison, which calls `memcmp`. On 12-byte keys those
/// calls were a tenth of a plain job's CPU.
#[inline]
pub(crate) fn bytewise_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    match (a.first_chunk::<8>(), b.first_chunk::<8>()) {
        (Some(a_head), Some(b_head)) if a.len() <= 16 => {
            a_head == b_head && a.last_chunk::<8>() == b.last_chunk::<8>()
        }
        _ => a == b,
    }
}

/// FNV-1a, the engine's stand-in for `key.hashCode() % numReducers`.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_partition_is_stable_and_in_range() {
        let ks = DefaultKeySemantics;
        for key in [b"a".as_slice(), b"windspeed1", b"", &[0xFF; 40]] {
            let p = ks.partition(key, 5);
            assert!(p < 5);
            assert_eq!(p, ks.partition(key, 5), "deterministic");
        }
    }

    #[test]
    fn default_compare_is_bytewise() {
        let ks = DefaultKeySemantics;
        assert_eq!(ks.compare(b"a", b"b"), Ordering::Less);
        assert_eq!(ks.compare(b"ab", b"a"), Ordering::Greater);
        assert!(ks.group_eq(b"x", b"x"));
        assert!(!ks.group_eq(b"x", b"y"));
    }

    #[test]
    fn sort_split_default_is_identity() {
        let ks = DefaultKeySemantics;
        let records = vec![KvPair::new(b"a".to_vec(), b"1".to_vec())];
        assert_eq!(ks.sort_split(records.clone()), records);
    }

    #[test]
    fn default_route_slices_emits_the_whole_pair_to_its_partition() {
        /// Overrides nothing but the one required method.
        struct OnlyPartition;
        impl KeySemantics for OnlyPartition {
            fn partition(&self, key: &[u8], _parts: usize) -> usize {
                key.len()
            }
        }
        let mut emitted = Vec::new();
        OnlyPartition.route_slices(b"key", b"val", 7, &mut |p, k, v| {
            emitted.push((p, k.to_vec(), v.to_vec()));
        });
        assert_eq!(emitted, vec![(3, b"key".to_vec(), b"val".to_vec())]);
        // Unknown semantics keep the conservative streaming defaults.
        assert!(OnlyPartition.sort_splits());
        assert!(OnlyPartition.sort_interacts(b"a", b"b"));
        assert!(!OnlyPartition.bytewise_order(), "the spill sort re-tags");
        let ks = DefaultKeySemantics;
        assert!(!ks.sort_splits(), "atomic keys never split at sort time");
        assert!(ks.bytewise_order());
        assert!(!ks.sort_interacts(b"a", b"a"));
    }

    #[test]
    fn default_sort_prefix_is_order_preserving_for_bytewise_keys() {
        let ks = DefaultKeySemantics;
        let keys: &[&[u8]] = &[
            b"",
            b"\x00",
            b"\x00\x00",
            b"a",
            b"a\x00",
            b"a\x00\x01",
            b"a\x01",
            b"ab",
            b"abcdefgh",
            b"abcdefghi",
            b"abcdefgi",
            b"abcdefghijklmnop",
            b"abcdefghijklmnopq",
            b"abcdefghijklmnoq",
            b"b",
            &[0xFF; 20],
        ];
        for a in keys {
            for b in keys {
                if ks.sort_prefix_wide(a) < ks.sort_prefix_wide(b) {
                    assert_eq!(
                        ks.compare(a, b),
                        Ordering::Less,
                        "prefix contract violated for {a:?} vs {b:?}"
                    );
                }
            }
        }
        // Prefixes are non-decreasing along any sorted sequence — the
        // monotonicity the v3 fence-index skip rule leans on.
        let mut sorted: Vec<&[u8]> = keys.to_vec();
        sorted.sort_by(|a, b| ks.compare(a, b));
        for w in sorted.windows(2) {
            assert!(
                ks.sort_prefix_wide(w[0]) <= ks.sort_prefix_wide(w[1]),
                "prefix regressed along a sorted run: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn default_sort_prefix_is_the_first_16_bytes_zero_extended() {
        let ks = DefaultKeySemantics;
        let long: Vec<u8> = (1..=20).collect();
        for len in 0..=long.len() {
            let key = &long[..len];
            let mut padded = [0u8; 16];
            padded[..len.min(16)].copy_from_slice(&key[..len.min(16)]);
            assert_eq!(
                ks.sort_prefix_wide(key),
                u128::from_be_bytes(padded),
                "{len} bytes"
            );
        }
        // Trailing zero bytes, length and anything past 16 bytes are the
        // comparator's to tell apart.
        assert_eq!(ks.sort_prefix_wide(b"ab"), ks.sort_prefix_wide(b"ab\0"));
        assert_eq!(
            ks.sort_prefix_wide(&long[..16]),
            ks.sort_prefix_wide(&long[..17])
        );
    }

    #[test]
    fn bytewise_eq_is_slice_equality() {
        let base: Vec<u8> = (1..=20).collect();
        for len in 0..=base.len() {
            let a = &base[..len];
            assert!(bytewise_eq(a, a));
            for other_len in 0..=base.len() {
                assert_eq!(bytewise_eq(a, &base[..other_len]), len == other_len);
            }
            for at in 0..len {
                let mut b = a.to_vec();
                b[at] ^= 0x80;
                assert!(!bytewise_eq(a, &b), "{len} bytes, differing at {at}");
            }
        }
    }

    #[test]
    fn fnv_distributes() {
        // Coarse check: 1000 numeric keys spread over 10 buckets with no
        // bucket starved.
        let mut buckets = [0usize; 10];
        for i in 0..1000u32 {
            let ks = DefaultKeySemantics;
            buckets[ks.partition(&i.to_be_bytes(), 10)] += 1;
        }
        assert!(buckets.iter().all(|&b| b > 50), "skewed: {buckets:?}");
    }
}
