//! Key semantics — the engine hook behind the paper's §IV-B change.
//!
//! Stock Hadoop assumes keys are atomic and independent (§II-B). The
//! paper's "one set of changes inside Hadoop ... allows aggregate keys to
//! be split during the routing and sorting phases". This trait is that
//! change, made pluggable: the engine calls [`KeySemantics::route`] when
//! partitioning map output and [`KeySemantics::sort_split`] before
//! grouping at the reducer. The default implementation reproduces stock
//! Hadoop (hash partitioning, no splitting); `scihadoop-core` provides
//! the aggregate-key implementation.

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

    /// Order-preserving 8-byte *sort prefix* of a key: the high word of
    /// [`KeySemantics::sort_prefix_wide`], and the form the v3 fence
    /// index stores on disk. Contract:
    ///
    /// > `sort_prefix(a) < sort_prefix(b)` implies
    /// > `compare(a, b) == Ordering::Less`.
    ///
    /// Equal prefixes promise nothing, so a low-entropy prefix costs
    /// speed, never correctness; returning a constant (e.g. `0`) is
    /// always valid.
    ///
    /// The v3 block-skipping merge additionally relies on the *other*
    /// direction of the same contract: along a sorted run the prefixes
    /// are non-decreasing (a strictly smaller prefix after a larger one
    /// would contradict the implication above), and a run whose next
    /// fence prefix is strictly below every rival head's prefix is
    /// provably uncontended. Only the implication is required — no new
    /// obligation is placed on implementors.
    ///
    /// The default takes the first 8 key bytes,
    /// big-endian, zero-extended — order-preserving for the default
    /// bytewise `compare` (zero-extension only ever coarsens bytewise
    /// order into ties). Implementations that override `compare` with a
    /// non-bytewise order MUST also override this method.
    fn sort_prefix(&self, key: &[u8]) -> u64 {
        bytewise_sort_prefix(key)
    }

    /// The 16-byte *normalized key* both shuffle sort stages run on —
    /// database sort kernels' "normalized keys", Hadoop's
    /// `RawComparator` taken one step further: the spill sort radix-
    /// sorts these and the merge's loser tree compares its run heads'
    /// cached copies. Same contract as [`KeySemantics::sort_prefix`],
    ///
    /// > `sort_prefix_wide(a) < sort_prefix_wide(b)` implies
    /// > `compare(a, b) == Ordering::Less`,
    ///
    /// plus one tie to it: **the top 64 bits are `sort_prefix(key)`**,
    /// so fence prefixes read off disk compare against the high word of
    /// a cached head. Equal wide keys promise nothing: the sort leaves
    /// a tie run of byte-identical keys alone (any comparator is
    /// reflexive) and hands every other tie to
    /// [`KeySemantics::compare`].
    ///
    /// The default widens `sort_prefix` with zeros, which is valid for
    /// every implementation of that method. [`DefaultKeySemantics`]
    /// takes the first 16 key bytes, so a 12-byte grid key
    /// (`[variable][c0][c1]`) is decided without the comparator; an
    /// override must keep both halves of the contract.
    fn sort_prefix_wide(&self, key: &[u8]) -> u128 {
        (self.sort_prefix(key) as u128) << 64
    }

    /// Which reducer a key routes to (Hadoop's `Partitioner`).
    fn partition(&self, key: &[u8], parts: usize) -> usize;

    /// Route a pair, possibly splitting it across reducers (§IV-B case
    /// 1). The default routes whole pairs, like stock Hadoop.
    fn route(&self, pair: KvPair, parts: usize) -> Vec<(usize, KvPair)> {
        let p = self.partition(&pair.key, parts);
        vec![(p, pair)]
    }

    /// Slice-based routing for the arena spill path: emit each routed
    /// `(partition, key, value)` piece without materializing owned pairs.
    /// The default delegates to [`KeySemantics::route`], so existing
    /// implementations that only override `route` stay correct;
    /// implementations on the hot path should override this to avoid the
    /// per-record allocations.
    fn route_slices(&self, key: &[u8], value: &[u8], parts: usize, emit: &mut RouteSink<'_>) {
        for (p, piece) in self.route(KvPair::new(key.to_vec(), value.to_vec()), parts) {
            emit(p, &piece.key, &piece.value);
        }
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
        a == b
    }
}

/// Stock-Hadoop behaviour: FNV-1a hash partitioning, bytewise sort,
/// atomic keys.
#[derive(Debug, Clone, Default)]
pub struct DefaultKeySemantics;

impl KeySemantics for DefaultKeySemantics {
    fn sort_prefix_wide(&self, key: &[u8]) -> u128 {
        bytewise_sort_prefix_wide(key)
    }

    fn partition(&self, key: &[u8], parts: usize) -> usize {
        (fnv1a(key) % parts as u64) as usize
    }

    fn route_slices(&self, key: &[u8], value: &[u8], parts: usize, emit: &mut RouteSink<'_>) {
        emit(self.partition(key, parts), key, value);
    }

    fn sort_splits(&self) -> bool {
        false
    }

    fn sort_interacts(&self, _a: &[u8], _b: &[u8]) -> bool {
        false
    }
}

/// The default [`KeySemantics::sort_prefix`]: first 8 key bytes,
/// big-endian, zero-extended. For any bytewise comparator this is
/// order-preserving — where the zero padding collides with real `0x00`
/// key bytes the prefixes tie, and ties always fall back to the full
/// comparator.
#[inline]
pub fn bytewise_sort_prefix(key: &[u8]) -> u64 {
    match key.first_chunk::<8>() {
        Some(head) => u64::from_be_bytes(*head),
        None => {
            let mut buf = [0u8; 8];
            buf[..key.len()].copy_from_slice(key);
            u64::from_be_bytes(buf)
        }
    }
}

/// [`DefaultKeySemantics`]' [`KeySemantics::sort_prefix_wide`]: first 16
/// key bytes, big-endian, zero-extended; its top 64 bits are
/// [`bytewise_sort_prefix`]. Order-preserving for a bytewise comparator
/// for the same reason.
#[inline]
pub fn bytewise_sort_prefix_wide(key: &[u8]) -> u128 {
    let low = match key.len() {
        0..=8 => 0,
        // A key's last 8 bytes end with its bytes 8..len: shifting out
        // the overlap with the high word leaves those zero-extended,
        // with no variable-length copy — which doubled the spill sort's
        // key-build pass on 12-byte grid keys (1.0 -> 2.0 ms per
        // 147,456 records).
        len @ 9..=15 => {
            let tail = key.last_chunk::<8>().expect("more than 8 bytes");
            u64::from_be_bytes(*tail) << (8 * (16 - len))
        }
        _ => u64::from_be_bytes(key[8..16].try_into().expect("8 bytes")),
    };
    (bytewise_sort_prefix(key) as u128) << 64 | low as u128
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
    fn default_route_is_whole_pair() {
        let ks = DefaultKeySemantics;
        let pair = KvPair::new(b"k".to_vec(), b"v".to_vec());
        let routed = ks.route(pair.clone(), 3);
        assert_eq!(routed.len(), 1);
        assert_eq!(routed[0].1, pair);
        assert_eq!(routed[0].0, ks.partition(b"k", 3));
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
    fn route_slices_default_delegates_to_route() {
        /// Splits every pair across two fixed partitions via `route` only.
        struct Splitter;
        impl KeySemantics for Splitter {
            fn partition(&self, _key: &[u8], _parts: usize) -> usize {
                0
            }
            fn route(&self, pair: KvPair, _parts: usize) -> Vec<(usize, KvPair)> {
                vec![(0, pair.clone()), (1, pair)]
            }
        }
        let mut emitted = Vec::new();
        Splitter.route_slices(b"k", b"v", 2, &mut |p, k, v| {
            emitted.push((p, k.to_vec(), v.to_vec()));
        });
        assert_eq!(
            emitted,
            vec![
                (0, b"k".to_vec(), b"v".to_vec()),
                (1, b"k".to_vec(), b"v".to_vec()),
            ]
        );
        // Unknown semantics keep the conservative streaming defaults.
        assert!(Splitter.sort_splits());
        assert!(Splitter.sort_interacts(b"a", b"b"));
    }

    #[test]
    fn default_route_slices_matches_route() {
        let ks = DefaultKeySemantics;
        let mut emitted = Vec::new();
        ks.route_slices(b"key", b"val", 7, &mut |p, k, v| {
            emitted.push((p, k.to_vec(), v.to_vec()));
        });
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].0, ks.partition(b"key", 7));
        assert!(!ks.sort_splits(), "atomic keys never split at sort time");
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
            b"b",
            &[0xFF; 12],
        ];
        for a in keys {
            for b in keys {
                if ks.sort_prefix(a) < ks.sort_prefix(b) {
                    assert_eq!(
                        ks.compare(a, b),
                        Ordering::Less,
                        "prefix contract violated for {a:?} vs {b:?}"
                    );
                }
            }
        }
        // Beyond-8-byte differences tie (and must, per the contract).
        assert_eq!(ks.sort_prefix(b"abcdefghX"), ks.sort_prefix(b"abcdefghY"));
        assert_eq!(bytewise_sort_prefix(b"abcdefgh"), 0x6162636465666768);
        // Prefixes are non-decreasing along any sorted sequence — the
        // monotonicity the v3 fence-index skip rule leans on.
        let mut sorted: Vec<&[u8]> = keys.to_vec();
        sorted.sort_by(|a, b| ks.compare(a, b));
        for w in sorted.windows(2) {
            assert!(
                ks.sort_prefix(w[0]) <= ks.sort_prefix(w[1]),
                "prefix regressed along a sorted run: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        assert_eq!(bytewise_sort_prefix(b"a"), 0x61 << 56);
        assert_eq!(bytewise_sort_prefix(b""), 0);
    }

    #[test]
    fn wide_prefix_extends_the_narrow_one() {
        let ks = DefaultKeySemantics;
        let long: Vec<u8> = (1..=20).collect();
        for len in 0..=long.len() {
            let key = &long[..len];
            let mut padded = [0u8; 16];
            padded[..len.min(16)].copy_from_slice(&key[..len.min(16)]);
            let wide = ks.sort_prefix_wide(key);
            assert_eq!(wide, u128::from_be_bytes(padded), "{len} bytes");
            assert_eq!((wide >> 64) as u64, ks.sort_prefix(key), "{len} bytes");
        }
        // Trailing zero bytes and length are the comparator's to tell apart.
        assert_eq!(ks.sort_prefix_wide(b"ab"), ks.sort_prefix_wide(b"ab\0"));
        assert_eq!(
            ks.sort_prefix_wide(&long[..16]),
            ks.sort_prefix_wide(&long[..17])
        );

        /// Overrides nothing the sort reads: the trait's wide default
        /// widens the bytewise narrow prefix with zeros.
        struct OnlyPartition;
        impl KeySemantics for OnlyPartition {
            fn partition(&self, _key: &[u8], _parts: usize) -> usize {
                0
            }
        }
        assert_eq!(
            OnlyPartition.sort_prefix_wide(&long),
            (bytewise_sort_prefix(&long) as u128) << 64
        );
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
