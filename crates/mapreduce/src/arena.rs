//! Arena-backed spill buffer for the map-side shuffle hot path.
//!
//! The engine's original staging path allocated two `Vec<u8>`s per
//! emitted record (`KvPair`) and sorted those owned pairs. This arena is
//! the analogue of Hadoop's `MapOutputBuffer` (`io.sort.mb`): every
//! emitted key/value is appended to one contiguous byte buffer shared by
//! all partitions, and each partition keeps a compact record index of
//! `(wide key, offset, key_len, val_len)` entries, tagged at append.
//! Sorting a partition permutes its *index* in place — record payloads
//! are written once and never move. Spills drain the arena through
//! borrowed slices straight into the `IFileWriter`, then `clear()`
//! retains the allocated capacity for the next spill.

use crate::keysem::{bytewise_sort_prefix_wide, KeySemantics};
use crate::sort::{PrefixSortStats, RadixScratch, Tagged};
use std::cell::RefCell;
use std::cmp::Ordering;

/// One staged record: value bytes immediately follow the key bytes at
/// `off` inside the shared data buffer.
#[derive(Debug, Default, Clone, Copy)]
struct IndexEntry {
    off: usize,
    key_len: u32,
    val_len: u32,
}

impl IndexEntry {
    fn key<'a>(&self, data: &'a [u8]) -> &'a [u8] {
        &data[self.off..self.off + self.key_len as usize]
    }

    fn value<'a>(&self, data: &'a [u8]) -> &'a [u8] {
        let start = self.off + self.key_len as usize;
        &data[start..start + self.val_len as usize]
    }
}

thread_local! {
    /// The spill sort's scatter buffers, sized by the largest partition
    /// sorted on this thread, and the index buffers the last arena
    /// dropped here. A slot runs its map tasks one after another; first
    /// touch of ~2 MB of fresh buffers cost a 147,456-record task a fifth
    /// of its sort (one page fault per 4 KiB), so a task reuses its
    /// predecessor's.
    static SCRATCH: RefCell<RadixScratch<IndexEntry>> = RefCell::default();
    static SPARE: RefCell<Vec<Vec<(u128, IndexEntry)>>> = RefCell::default();
}

/// Contiguous staging buffer for one map task's output, indexed per
/// partition.
pub struct SpillArena {
    data: Vec<u8>,
    parts: Vec<Tagged<IndexEntry>>,
    payload_bytes: usize,
}

impl SpillArena {
    /// An empty arena staging for `partitions` reducers.
    pub fn new(partitions: usize) -> Self {
        let mut spare = SPARE.take();
        let mut part = || Tagged::reusing(spare.pop().unwrap_or_default());
        SpillArena {
            data: Vec::new(),
            parts: (0..partitions).map(|_| part()).collect(),
            payload_bytes: 0,
        }
    }

    /// Append one record to a partition, tagged with its key's
    /// [`bytewise_sort_prefix_wide`].
    pub fn append(&mut self, partition: usize, key: &[u8], value: &[u8]) {
        let off = self.data.len();
        self.data.extend_from_slice(key);
        self.data.extend_from_slice(value);
        let entry = IndexEntry {
            off,
            key_len: u32::try_from(key.len()).expect("key larger than 4 GiB"),
            val_len: u32::try_from(value.len()).expect("value larger than 4 GiB"),
        };
        self.parts[partition].push(bytewise_sort_prefix_wide(key), key.len(), entry);
        self.payload_bytes += key.len() + value.len();
    }

    /// Staged payload bytes (keys + values, no framing) — the spill-
    /// threshold metric, matching Hadoop's buffer accounting.
    pub fn payload_bytes(&self) -> usize {
        self.payload_bytes
    }

    /// Records staged for one partition.
    pub fn partition_len(&self, partition: usize) -> usize {
        self.parts[partition].items.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|p| p.items.is_empty())
    }

    /// Stable-sort one partition's index by key; record bytes stay put.
    ///
    /// The entries, tagged at append (re-tagged with
    /// [`KeySemantics::sort_prefix_wide`] unless the semantics declare
    /// [`KeySemantics::bytewise_order`]), are radix-sorted in place; only
    /// tie runs of differing keys call the comparator, and strictly
    /// ascending tags are left as they are. Byte-identical to a whole
    /// stable comparator sort of the index. Returns how much of the sort
    /// the comparator had to finish, or `None` when the partition held
    /// fewer than two records and nothing was sorted.
    pub fn sort_partition(
        &mut self,
        partition: usize,
        ks: &dyn KeySemantics,
    ) -> Option<PrefixSortStats> {
        let data = &self.data;
        let index = &mut self.parts[partition];
        if index.items.len() < 2 {
            return None;
        }
        if !ks.bytewise_order() {
            index.retag(ks, |e| e.key(data));
        }
        let stats = SCRATCH.with_borrow_mut(|scratch| index.sort(scratch, ks, |e| e.key(data)));
        debug_assert!(is_partition_sorted(self, partition, ks));
        Some(stats)
    }

    /// Iterate one partition's `(key, value)` slices in index order
    /// (sorted order after [`SpillArena::sort_partition`]).
    pub fn pairs(&self, partition: usize) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.parts[partition]
            .items
            .iter()
            .map(|(_, e)| (e.key(&self.data), e.value(&self.data)))
    }

    /// Group a sorted partition by the grouping predicate; calls `f` once
    /// per group with `(key, values)`, all borrowed from the arena.
    pub fn for_each_group(
        &self,
        partition: usize,
        ks: &dyn KeySemantics,
        mut f: impl FnMut(&[u8], &[&[u8]]),
    ) {
        let (data, entries) = (&self.data, &self.parts[partition].items);
        let mut i = 0;
        while i < entries.len() {
            let key = entries[i].1.key(data);
            let mut j = i + 1;
            while j < entries.len() && ks.group_eq(key, entries[j].1.key(data)) {
                j += 1;
            }
            let values: Vec<&[u8]> = entries[i..j].iter().map(|e| e.1.value(data)).collect();
            f(key, &values);
            i = j;
        }
    }

    /// Forget all staged records but keep the allocations for reuse.
    pub fn clear(&mut self) {
        self.data.clear();
        self.parts.iter_mut().for_each(Tagged::clear);
        self.payload_bytes = 0;
    }
}

impl Drop for SpillArena {
    fn drop(&mut self) {
        let index = self.parts.drain(..).map(|p| p.items).collect();
        // Unreachable once the thread's locals are being destroyed; the
        // buffers are then simply freed.
        let _ = SPARE.try_with(|slot| slot.replace(index));
    }
}

/// Whether a partition's index is sorted, each entry tagged with its
/// key's `sort_prefix_wide` (the sort's debug assert).
fn is_partition_sorted(arena: &SpillArena, partition: usize, ks: &dyn KeySemantics) -> bool {
    let keys: Vec<&[u8]> = arena.pairs(partition).map(|(k, _)| k).collect();
    let tags = arena.parts[partition].items.iter().map(|(wide, _)| *wide);
    keys.windows(2)
        .all(|w| ks.compare(w[0], w[1]) != Ordering::Greater)
        && tags
            .zip(&keys)
            .all(|(wide, key)| wide == ks.sort_prefix_wide(key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keysem::DefaultKeySemantics;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    /// A partition's `(key, value)` pairs, owned.
    type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

    fn collect(arena: &SpillArena, partition: usize) -> Pairs {
        arena
            .pairs(partition)
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect()
    }

    /// `keys` staged into one partition, values tagging emission order,
    /// beside the sort's oracle: the staged pairs, collected before
    /// sorting and stable-sorted by the default comparator. Comparing
    /// `sort_partition`'s result against it shows any difference in
    /// order or stability.
    fn staged(keys: &[Vec<u8>]) -> (SpillArena, Pairs) {
        let mut arena = SpillArena::new(1);
        for (i, k) in keys.iter().enumerate() {
            arena.append(0, k, &(i as u32).to_be_bytes());
        }
        let mut expected = collect(&arena, 0);
        expected.sort_by(|a, b| DefaultKeySemantics.compare(&a.0, &b.0));
        (arena, expected)
    }

    #[test]
    fn append_tracks_payload_and_partitions() {
        let mut a = SpillArena::new(3);
        assert!(a.is_empty());
        a.append(0, b"key", b"value");
        a.append(2, b"k2", b"");
        assert_eq!(a.payload_bytes(), 10);
        assert_eq!(a.partition_len(0), 1);
        assert_eq!(a.partition_len(1), 0);
        assert_eq!(a.partition_len(2), 1);
        assert!(!a.is_empty());
        assert_eq!(collect(&a, 0), vec![(b"key".to_vec(), b"value".to_vec())]);
        assert_eq!(collect(&a, 2), vec![(b"k2".to_vec(), Vec::new())]);
    }

    #[test]
    fn sort_partition_orders_by_key_and_is_stable() {
        let ks = DefaultKeySemantics;
        let mut a = SpillArena::new(1);
        a.append(0, b"m", b"1");
        a.append(0, b"a", b"2");
        a.append(0, b"m", b"3");
        a.append(0, b"a", b"4");
        a.sort_partition(0, &ks);
        assert!(is_partition_sorted(&a, 0, &ks));
        assert_eq!(
            collect(&a, 0),
            vec![
                (b"a".to_vec(), b"2".to_vec()),
                (b"a".to_vec(), b"4".to_vec()),
                (b"m".to_vec(), b"1".to_vec()),
                (b"m".to_vec(), b"3".to_vec()),
            ],
            "equal keys must keep insertion order"
        );
    }

    #[test]
    fn radix_sort_matches_comparator_reference() {
        let ks = DefaultKeySemantics;
        // Mixed lengths, shared 16-byte prefixes, duplicates, empty keys —
        // everything that stresses the tie-run fallback and stability.
        let keys: Vec<Vec<u8>> = (0..200u32)
            .map(|i| match i % 5 {
                0 => format!("{:03}", (i * 37) % 100).into_bytes(),
                1 => format!("a-shared-prefix--{:03}", (i * 13) % 50).into_bytes(),
                2 => Vec::new(),
                3 => vec![0u8; (i % 7) as usize],
                _ => i.wrapping_mul(2654435761).to_be_bytes().to_vec(),
            })
            .collect();
        let (mut fast, expected) = staged(&keys);
        fast.sort_partition(0, &ks);
        assert_eq!(
            collect(&fast, 0),
            expected,
            "radix path must be byte-identical to the comparator sort"
        );
    }

    /// Default semantics that count what the sort asks of them, and
    /// declare them bytewise ([`KeySemantics::bytewise_order`]) or not.
    #[derive(Default)]
    struct Counting {
        bytewise: bool,
        wide: AtomicU64,
        compares: AtomicU64,
    }

    impl KeySemantics for Counting {
        fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
            self.compares.fetch_add(1, Relaxed);
            a.cmp(b)
        }
        fn sort_prefix_wide(&self, key: &[u8]) -> u128 {
            self.wide.fetch_add(1, Relaxed);
            DefaultKeySemantics.sort_prefix_wide(key)
        }
        fn bytewise_order(&self) -> bool {
            self.bytewise
        }
        fn partition(&self, key: &[u8], parts: usize) -> usize {
            DefaultKeySemantics.partition(key, parts)
        }
    }

    impl Counting {
        fn bytewise() -> Self {
            Counting {
                bytewise: true,
                ..Counting::default()
            }
        }

        /// `(prefix, compare)` calls since the last take. Debug builds
        /// check the partition's `n` tags with a prefix call each, and
        /// re-check the sorted partition with `n - 1` compares.
        fn take(&self, n: u64) -> (u64, u64) {
            let checked = if cfg!(debug_assertions) { n } else { 0 };
            (
                self.wide.swap(0, Relaxed) - checked,
                self.compares.swap(0, Relaxed) - checked.saturating_sub(1),
            )
        }
    }

    /// One map task's emission over an `rows x cols` block at column
    /// `c0`: every cell writes the nine window centres around it, so each
    /// `[variable][row][col]` key arrives nine times (fewer on the halo)
    /// and rows and columns start at -1. `pad` extends every key with
    /// that many bytes after the coordinates, the last one the window row
    /// the emission came from — which arrives in descending order.
    fn window_keys(rows: i32, c0: i32, cols: i32, pad: usize) -> Vec<Vec<u8>> {
        let mut keys = Vec::new();
        for r in 0..rows {
            for c in c0..c0 + cols {
                for (dr, dc) in (-1..=1).flat_map(|dr| (-1..=1).map(move |dc| (dr, dc))) {
                    let mut key = vec![0u8; 12 + pad];
                    key[4..8].copy_from_slice(&(r + dr).to_be_bytes());
                    key[8..12].copy_from_slice(&(c + dc).to_be_bytes());
                    if pad > 0 {
                        key[11 + pad] = (dr + 1) as u8;
                    }
                    keys.push(key);
                }
            }
        }
        keys
    }

    #[test]
    fn window_keys_sort_on_one_prefix_call_each_and_no_compare() {
        // Semantics not declared bytewise: the sort re-tags each key.
        let ks = Counting::default();
        let keys = window_keys(40, 250, 12, 0);
        let n = keys.len() as u64;
        let (mut fast, expected) = staged(&keys);
        fast.sort_partition(0, &ks);
        assert_eq!(ks.take(n), (n, 0), "(prefix, compare) calls");
        assert_eq!(collect(&fast, 0), expected);
        // Sorted with ties: still one call each, still no compare.
        fast.sort_partition(0, &ks);
        assert_eq!(ks.take(n), (n, 0), "re-sort of a sorted partition");
        assert_eq!(collect(&fast, 0), expected);
    }

    #[test]
    fn exact_partitions_skip_the_tie_pass() {
        // Declared bytewise, one key length of at most 16 bytes: the tags
        // staged at append are the sort's, and equal tags are equal keys.
        let ks = Counting::bytewise();
        let keys = window_keys(40, 250, 12, 0);
        let n = keys.len() as u64;
        let (mut exact, expected) = staged(&keys);
        let stats = exact.sort_partition(0, &ks).expect("a partition to sort");
        assert_eq!((stats.tie_records, stats.compare_calls), (0, 0));
        assert_eq!(ks.take(n), (0, 0), "(prefix, compare) calls");
        assert_eq!(collect(&exact, 0), expected);
        // `[1]` and `[1, 0]` tie on the zero-extended tag but differ: two
        // lengths make the partition inexact, and the tie pass sorts them.
        let keys = [vec![1], vec![1, 0], vec![2], vec![1]];
        let (mut mixed, expected) = staged(&keys);
        let stats = mixed.sort_partition(0, &ks).expect("a partition to sort");
        assert_eq!(stats.tie_records, 3);
        let (wide, compares) = ks.take(keys.len() as u64);
        assert_eq!(wide, 0);
        assert!(compares >= 2, "{compares} compares");
        assert_eq!(stats.compare_calls, compares);
        assert_eq!(collect(&mixed, 0), expected);
    }

    /// The capacities of an arena's index and scatter buffers, sorted:
    /// a sort swaps a partition's index with the scatter buffer after an
    /// odd number of digits, so which buffer is which can change.
    fn capacities(a: &SpillArena) -> Vec<usize> {
        let mut caps: Vec<usize> = a.parts.iter().map(|p| p.items.capacity()).collect();
        caps.push(SCRATCH.with_borrow(RadixScratch::item_capacity));
        caps.sort_unstable();
        caps
    }

    #[test]
    fn buffers_outlive_partitions_spills_and_the_arena() {
        let ks = DefaultKeySemantics;
        let keys = window_keys(20, 0, 10, 0);
        let stage = |a: &mut SpillArena| {
            for (i, k) in keys.iter().enumerate() {
                a.append(i % 2, k, b"v");
            }
            a.sort_partition(0, &ks);
            a.sort_partition(1, &ks);
        };
        let mut a = SpillArena::new(2);
        assert_eq!(
            capacities(&a),
            [0, 0, 0],
            "nothing staged on this thread yet"
        );
        stage(&mut a);
        let grown = capacities(&a);
        assert!(grown[0] >= keys.len() / 2);
        a.clear();
        stage(&mut a);
        assert_eq!(capacities(&a), grown, "second spill reallocated");
        drop(a);
        let mut next = SpillArena::new(2);
        assert_eq!(capacities(&next), grown, "next task starts cold");
        stage(&mut next);
        assert_eq!(capacities(&next), grown);
    }

    #[test]
    fn keys_that_differ_past_sixteen_bytes_reach_the_comparator() {
        let ks = Counting::default();
        // 20-byte keys: the wide key covers the coordinates and four zero
        // bytes, the byte after them is the comparator's to order.
        let keys = window_keys(12, -1, 9, 8);
        let n = keys.len() as u64;
        let (mut fast, expected) = staged(&keys);
        fast.sort_partition(0, &ks);
        let (wide, compares) = ks.take(n);
        assert_eq!(wide, n);
        assert!(
            compares > 0,
            "tie runs of differing keys need the comparator"
        );
        assert_eq!(collect(&fast, 0), expected);
    }

    #[test]
    fn grouping_walks_equal_keys() {
        let ks = DefaultKeySemantics;
        let mut a = SpillArena::new(1);
        for (k, v) in [("a", "1"), ("b", "2"), ("a", "3"), ("c", "4"), ("a", "5")] {
            a.append(0, k.as_bytes(), v.as_bytes());
        }
        a.sort_partition(0, &ks);
        let mut groups = Vec::new();
        a.for_each_group(0, &ks, |key, values| {
            groups.push((key.to_vec(), values.len()));
        });
        assert_eq!(
            groups,
            vec![(b"a".to_vec(), 3), (b"b".to_vec(), 1), (b"c".to_vec(), 1)]
        );
    }

    #[test]
    fn clear_retains_capacity() {
        let mut a = SpillArena::new(2);
        for i in 0..100u32 {
            a.append((i % 2) as usize, &i.to_be_bytes(), &[0u8; 16]);
        }
        let data_cap = a.data.capacity();
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.payload_bytes(), 0);
        assert_eq!(
            a.data.capacity(),
            data_cap,
            "clear must not free the buffer"
        );
        a.append(1, b"x", b"y");
        assert_eq!(collect(&a, 1), vec![(b"x".to_vec(), b"y".to_vec())]);
    }

    #[test]
    fn empty_records_are_staged_with_zero_payload() {
        let mut a = SpillArena::new(1);
        a.append(0, b"", b"");
        assert_eq!(a.payload_bytes(), 0);
        assert_eq!(a.partition_len(0), 1);
    }
}
