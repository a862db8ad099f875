//! The engine integration: aggregate-key semantics for the MapReduce
//! engine's [`KeySemantics`] hook.
//!
//! This is the paper's "one set of changes inside Hadoop (detailed in
//! section IV-B), which allows aggregate keys to be split during the
//! routing and sorting phases", expressed against the engine's pluggable
//! hook instead of a Hadoop patch.

use super::key::{AggregateKey, AggregateRecord, AGGREGATE_KEY_LEN};
use super::split::{overlap_split, RangePartitioner};
use scihadoop_mapreduce::{KeySemantics, KvPair, RouteSink};
use std::cmp::Ordering;

/// Key semantics for serialized [`AggregateKey`]s.
///
/// * `compare` — bytewise, which equals (variable, start, length) order
///   thanks to the big-endian layout;
/// * `route_slices` — splits a record at partition boundaries and routes
///   each piece to the reducer owning its curve range (§IV-B case 1);
/// * `sort_split` — splits overlapping keys along overlap boundaries
///   (§IV-B case 2, Fig. 7);
/// * `group_eq` — exact key equality (after `sort_split`, equal-or-
///   disjoint holds, so equality groups precisely the data that must be
///   reduced together).
#[derive(Debug, Clone)]
pub struct AggregateKeyOps {
    partitioner: RangePartitioner,
    value_width: usize,
}

impl AggregateKeyOps {
    /// Semantics for values `value_width` bytes wide, routed by
    /// `partitioner`.
    pub fn new(partitioner: RangePartitioner, value_width: usize) -> Self {
        assert!(value_width > 0, "value width must be positive");
        AggregateKeyOps {
            partitioner,
            value_width,
        }
    }

    /// The partitioner in use.
    pub fn partitioner(&self) -> &RangePartitioner {
        &self.partitioner
    }

    fn parse(&self, pair: &KvPair) -> Option<AggregateRecord> {
        let key = AggregateKey::from_bytes(&pair.key).ok()?;
        AggregateRecord::new(key, pair.value.to_vec(), self.value_width).ok()
    }
}

impl KeySemantics for AggregateKeyOps {
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        a.cmp(b)
    }

    /// Sort prefix packing the 16 low variable bits over the 48 high
    /// curve-index bits into the high word, the low word zero:
    /// `(variable:16 | index_prefix48(start):48) << 64`.
    ///
    /// The packing is purely positional — bytes 0..4 (variable) and
    /// 4..20 (start), zero-padded — so it is monotone over *arbitrary*
    /// byte strings under the bytewise `compare`, junk keys included:
    /// zero-padding only coarsens bytewise order into ties, and the
    /// clamp (variable ≥ 2¹⁶ − 1 saturates to `u64::MAX`, start
    /// saturates at 2⁴⁸ − 1) is monotone in the padded value. Ties fall
    /// back to the comparator, which resolves length and the clamped
    /// tails.
    fn sort_prefix_wide(&self, key: &[u8]) -> u128 {
        let mut buf = [0u8; 20];
        let n = key.len().min(20);
        buf[..n].copy_from_slice(&key[..n]);
        let variable = u32::from_be_bytes(buf[0..4].try_into().expect("4 bytes")) as u64;
        let start = u128::from_be_bytes(buf[4..20].try_into().expect("16 bytes"));
        let high = if variable >= 0xFFFF {
            u64::MAX
        } else {
            (variable << 48) | scihadoop_sfc::index_prefix48(start)
        };
        (high as u128) << 64
    }

    fn partition(&self, key: &[u8], parts: usize) -> usize {
        match AggregateKey::from_bytes(key) {
            Ok(k) => self.partitioner.partition_of(k.run.start).min(parts - 1),
            Err(_) => 0,
        }
    }

    fn route_slices(&self, key: &[u8], value: &[u8], parts: usize, emit: &mut RouteSink<'_>) {
        // Each piece's key is serialized into a stack buffer and its
        // values borrowed straight from `value` — no owned
        // `AggregateRecord` is ever built.
        let parsed = AggregateKey::from_bytes(key)
            .ok()
            .filter(|k| k.cell_count() * self.value_width as u128 == value.len() as u128);
        let run = match parsed {
            Some(k) => k.run,
            // Unparseable keys fall back to partition 0 rather than being
            // dropped; the engine's counters will still account them.
            None => return emit(0, key, value),
        };
        let mut key_buf = [0u8; AGGREGATE_KEY_LEN];
        key_buf[0..4].copy_from_slice(&key[0..4]);
        for (p, start, end) in self.partitioner.pieces(run) {
            key_buf[4..20].copy_from_slice(&start.to_be_bytes());
            key_buf[20..28].copy_from_slice(&((end - start + 1) as u64).to_be_bytes());
            let from = (start - run.start) as usize * self.value_width;
            let to = (end - run.start + 1) as usize * self.value_width;
            emit(p.min(parts - 1), &key_buf, &value[from..to]);
        }
    }

    fn sort_splits(&self) -> bool {
        true
    }

    /// Two records interact iff their curve ranges overlap on the same
    /// variable — exactly when [`overlap_split`] would cut either. Over a
    /// bytewise-sorted run (variable, start, length order) this satisfies
    /// the closure contract: once a later record's start passes an
    /// earlier record's end, every record after it does too. Unparseable
    /// keys interact with everything, collapsing the streaming windows
    /// back into one whole-run batch so the passthrough ordering matches
    /// the non-streaming path.
    fn sort_interacts(&self, a: &[u8], b: &[u8]) -> bool {
        match (AggregateKey::from_bytes(a), AggregateKey::from_bytes(b)) {
            (Ok(ka), Ok(kb)) => {
                ka.variable == kb.variable
                    && ka.run.start <= kb.run.end
                    && kb.run.start <= ka.run.end
            }
            _ => true,
        }
    }

    fn sort_split(&self, records: Vec<KvPair>) -> Vec<KvPair> {
        let mut parsed = Vec::with_capacity(records.len());
        let mut passthrough = Vec::new();
        for pair in records {
            match self.parse(&pair) {
                Some(rec) => parsed.push(rec),
                None => passthrough.push(pair),
            }
        }
        let mut out: Vec<KvPair> = overlap_split(parsed, self.value_width)
            .into_iter()
            .map(|rec| KvPair::new(rec.key.to_bytes(), rec.values))
            .collect();
        out.extend(passthrough);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scihadoop_sfc::CurveRun;

    fn pair(start: u128, end: u128, width: usize) -> KvPair {
        let n = (end - start + 1) as usize;
        let rec = AggregateRecord::new(
            AggregateKey::new(0, CurveRun { start, end }),
            (0..n)
                .flat_map(|i| vec![(start as usize + i) as u8; width])
                .collect(),
            width,
        )
        .unwrap();
        KvPair::new(rec.key.to_bytes(), rec.values)
    }

    fn ops(parts: usize, span: u128, width: usize) -> AggregateKeyOps {
        AggregateKeyOps::new(RangePartitioner::uniform(parts, span), width)
    }

    fn route_all(ops: &AggregateKeyOps, pair: &KvPair, parts: usize) -> Vec<(usize, KvPair)> {
        let mut routed = Vec::new();
        ops.route_slices(&pair.key, &pair.value, parts, &mut |p, k, v| {
            routed.push((p, KvPair::new(k, v)));
        });
        routed
    }

    #[test]
    fn route_splits_across_partition_boundaries() {
        let ops = ops(4, 100, 1);
        let routed = route_all(&ops, &pair(20, 60, 1), 4);
        assert_eq!(routed.len(), 3);
        let parts: Vec<usize> = routed.iter().map(|(p, _)| *p).collect();
        assert_eq!(parts, vec![0, 1, 2]);
        // Piece payloads cover all 41 cells.
        let total: usize = routed.iter().map(|(_, p)| p.value.len()).sum();
        assert_eq!(total, 41);
        // Each piece is a well-formed record over its own sub-range.
        let runs: Vec<(u128, u128)> = routed
            .iter()
            .map(|(_, p)| ops.parse(p).expect("piece parses").key.run)
            .map(|run| (run.start, run.end))
            .collect();
        assert_eq!(runs, vec![(20, 24), (25, 49), (50, 60)]);
    }

    #[test]
    fn route_within_one_partition_is_unsplit() {
        let ops = ops(4, 100, 2);
        let p = pair(30, 40, 2);
        assert_eq!(route_all(&ops, &p, 4), vec![(1, p)]);
    }

    #[test]
    fn sort_split_resolves_overlap() {
        let ops = ops(1, 100, 1);
        let out = ops.sort_split(vec![pair(0, 10, 1), pair(5, 15, 1)]);
        let keys: Vec<AggregateKey> = out
            .iter()
            .map(|p| AggregateKey::from_bytes(&p.key).unwrap())
            .collect();
        let runs: Vec<(u128, u128)> = keys.iter().map(|k| (k.run.start, k.run.end)).collect();
        assert_eq!(runs, vec![(0, 4), (5, 10), (5, 10), (11, 15)]);
    }

    #[test]
    fn partition_uses_range_start() {
        let ops = ops(4, 100, 1);
        assert_eq!(ops.partition(&pair(0, 5, 1).key, 4), 0);
        assert_eq!(ops.partition(&pair(80, 90, 1).key, 4), 3);
        // Garbage keys fall back to partition 0.
        assert_eq!(ops.partition(b"garbage", 4), 0);
    }

    #[test]
    fn unparseable_pairs_pass_through() {
        let ops = ops(2, 100, 1);
        let junk = KvPair::new(b"junk".to_vec(), b"v".to_vec());
        assert_eq!(route_all(&ops, &junk, 2), vec![(0, junk.clone())]);
        let out = ops.sort_split(vec![junk.clone()]);
        assert_eq!(out, vec![junk]);
    }

    #[test]
    fn sort_interacts_is_range_overlap() {
        let ops = ops(1, 100, 1);
        assert!(ops.sort_splits());
        let a = pair(0, 10, 1);
        let b = pair(5, 15, 1);
        let c = pair(11, 20, 1);
        assert!(ops.sort_interacts(&a.key, &b.key), "overlap");
        assert!(
            ops.sort_interacts(&a.key, &a.key),
            "equal keys must interact"
        );
        assert!(!ops.sort_interacts(&a.key, &c.key), "disjoint ranges");
        // Same ranges on different variables never interact.
        let mut other_var = a.key.to_vec();
        other_var[0..4].copy_from_slice(&7u32.to_be_bytes());
        assert!(!ops.sort_interacts(&a.key, &other_var));
        // Unparseable keys conservatively interact with everything.
        assert!(ops.sort_interacts(b"junk", &a.key));
        assert!(ops.sort_interacts(&a.key, b"junk"));
    }

    #[test]
    fn sort_prefix_is_order_preserving_over_valid_and_junk_keys() {
        let ops = ops(1, 100, 1);
        const MAX48: u128 = (1 << 48) - 1;
        // Valid keys (several variables, boundary starts straddling the
        // 48-bit clamp), junk byte strings, prefixes-of-keys — the
        // contract must hold across the whole mixed set.
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for variable in [0u32, 1, 7, 0xFFFE, 0xFFFF, u32::MAX] {
            for start in [0u128, 1, 99, MAX48 - 1, MAX48, MAX48 + 1, u128::MAX - 9] {
                for len in [1u64, 10] {
                    let end = start.saturating_add(len as u128 - 1);
                    keys.push(AggregateKey::new(variable, CurveRun { start, end }).to_bytes());
                }
            }
        }
        keys.push(Vec::new());
        keys.push(b"junk".to_vec());
        keys.push(vec![0u8; 3]);
        keys.push(vec![0xFF; 28]);
        keys.push(keys[0][..10].to_vec());
        for a in &keys {
            for b in &keys {
                if ops.sort_prefix_wide(a) < ops.sort_prefix_wide(b) {
                    assert_eq!(
                        ops.compare(a, b),
                        Ordering::Less,
                        "prefix contract violated for {a:?} vs {b:?}"
                    );
                }
            }
        }
        // Below both clamps the prefix is exact, so distinct
        // (variable, start) pairs must not tie.
        let k1 = AggregateKey::new(3, CurveRun { start: 5, end: 9 }).to_bytes();
        let k2 = AggregateKey::new(3, CurveRun { start: 6, end: 9 }).to_bytes();
        let k3 = AggregateKey::new(4, CurveRun { start: 0, end: 9 }).to_bytes();
        assert!(ops.sort_prefix_wide(&k1) < ops.sort_prefix_wide(&k2));
        assert!(ops.sort_prefix_wide(&k2) < ops.sort_prefix_wide(&k3));
        assert_eq!(
            ops.sort_prefix_wide(&k3),
            ((4u128 << 48) | scihadoop_sfc::index_prefix48(0) as u128) << 64,
            "variable:16 | index_prefix48 in the high word, low word zero"
        );
    }

    #[test]
    fn serialized_sort_order_equals_semantic_order() {
        let ops = ops(1, 100, 1);
        let a = pair(5, 9, 1);
        let b = pair(5, 12, 1);
        let c = pair(6, 7, 1);
        assert_eq!(ops.compare(&a.key, &b.key), Ordering::Less); // shorter first
        assert_eq!(ops.compare(&b.key, &c.key), Ordering::Less); // start order
    }
}
