//! The spill sort's prefix radix kernel and the k-way merge that both
//! the map-side spill merge and the reducer run (Fig. 1 steps 3 and 5).
//!
//! Both stages run *comparison-free* on their fast path: keys are
//! reduced to order-preserving 16-byte normalized keys
//! ([`KeySemantics::sort_prefix_wide`]), the map-side spill sort is an
//! in-place LSD radix sort of `(wide key, item)` pairs tagged as they
//! were staged ([`Tagged`], [`sort_pairs`]), and the merge is a
//! cache-resident loser tree over segment cursors keyed by cached wide
//! keys ([`BlockMergeStream`]). The full virtual comparator runs only
//! where wide keys tie on keys that differ, so both stages stay
//! byte-identical to a stable whole-comparator sort.
//!
//! The radix kernel is the workspace's one: the §IV aggregation buffer
//! (`scihadoop_core::aggregate::Aggregator`) tags each staged cell with
//! its curve index and sorts at every flush through
//! [`Tagged::sort_tags`].

use crate::error::MrError;
use crate::ifile::{
    BlockCursor, EncodedBlock, RawSegment, RecordCursor, RecordSlices, ScratchRecord,
};
use crate::keysem::KeySemantics;
use crate::record::KvPair;
use std::cmp::Ordering;

// ---------------------------------------------------------------------------
// Prefix radix sort
// ---------------------------------------------------------------------------

/// Outcome of one prefix-radix sort: how much of it the comparator had
/// to finish.
#[derive(Debug, Default, Clone, Copy)]
pub struct PrefixSortStats {
    /// Records inside tie runs (wide key shared with a neighbour) whose
    /// keys are not all byte-identical — the comparator's input.
    pub tie_records: u64,
    /// `KeySemantics::compare` invocations spent on those runs.
    pub compare_calls: u64,
}

/// Below this many items the per-pass setup of a radix scatter costs
/// more than a stable binary-insertion/merge sort of the wide keys, so
/// small inputs (combiner re-sorts, sort-split windows) take
/// `sort_by_key` instead. Both paths are stable, so the choice never
/// changes the output.
const RADIX_MIN: usize = 64;

/// Most buckets one folded radix digit may have. A grid coordinate with
/// a −1 halo spreads over all four of its byte lanes with 2, 2, ≤ 4 and
/// 256 distinct values; folded, they are one 4096-bucket pass, not four
/// scatters.
const MAX_BUCKETS: usize = 4096;

/// The radix sort's working memory besides the items themselves — the
/// scatter target, and a folded digit's per-item buckets and counters —
/// kept by the caller so one allocation serves every partition of every
/// spill, or every flush of an aggregation buffer.
#[derive(Default)]
pub struct RadixScratch<T> {
    scatter: Vec<(u128, T)>,
    buckets: Vec<u16>,
    counts: Vec<usize>,
}

#[cfg(test)]
impl<T> RadixScratch<T> {
    /// Items the scatter buffer can hold without growing.
    pub(crate) fn item_capacity(&self) -> usize {
        self.scatter.capacity()
    }
}

/// One stable counting-sort pass: `counts[b]` items of `src` fall in
/// bucket `b`, and `buckets` yields each item's bucket in order.
fn scatter<T: Copy>(
    src: &[(u128, T)],
    dst: &mut [(u128, T)],
    counts: &mut [usize],
    buckets: impl Iterator<Item = usize>,
) {
    // Counts become each bucket's first output slot.
    let mut next = 0usize;
    for slot in counts.iter_mut() {
        next += std::mem::replace(slot, next);
    }
    for (&item, bucket) in src.iter().zip(buckets) {
        let slot = &mut counts[bucket];
        dst[*slot] = item;
        *slot += 1;
    }
}

/// Group `n` items' active lanes, given low to high by their byte
/// histograms, into radix digits `(first lane, lanes, buckets)`: a lane
/// joins the digit below it while the product of their cardinalities
/// stays under [`MAX_BUCKETS`] and under `n` (more buckets than items is
/// all set-up).
fn fold_lanes(histograms: &[[usize; 256]], n: usize) -> Vec<(usize, usize, usize)> {
    let mut digits: Vec<(usize, usize, usize)> = Vec::new();
    for (i, histogram) in histograms.iter().enumerate() {
        let cardinality = histogram.iter().filter(|&&count| count != 0).count();
        match digits.last_mut() {
            Some((_, len, buckets)) if *buckets * cardinality <= MAX_BUCKETS.min(n) => {
                *len += 1;
                *buckets *= cardinality;
            }
            _ => digits.push((i, 1, cardinality)),
        }
    }
    digits
}

/// Stable LSD radix sort of `items` by wide key, in place, least
/// significant byte lane first, over the lanes on which some pair of
/// keys disagrees (`diff` has a bit set iff one does) — a uniform lane
/// costs nothing, and for short keys the high lanes of the big-endian
/// key carry all the entropy. One read pass takes every active lane's
/// byte histogram. Adjacent lanes with few distinct bytes then *fold*
/// into one digit ([`fold_lanes`]): each lane maps its bytes through a
/// table of *rank among the bytes that occur × the cardinalities of the
/// lanes below*, and the sum over the lanes is a mixed-radix bucket
/// that orders exactly as the bytes do. A folded digit costs a counting
/// pass and a scatter; a lane left alone scatters by its byte, on the
/// histogram it already has. An odd number of digits swaps the buffers.
fn radix_sort_by_prefix<T: Copy>(
    items: &mut Vec<(u128, T)>,
    scratch: &mut RadixScratch<T>,
    diff: u128,
) {
    let n = items.len();
    if n < RADIX_MIN {
        items.sort_by_key(|&(wide, _)| wide);
        return;
    }
    let lanes: Vec<usize> = (0..16)
        .filter(|lane| (diff >> (8 * lane)) as u8 != 0)
        .collect();
    let mut histograms = vec![[0usize; 256]; lanes.len()];
    for (wide, _) in items.iter() {
        let bytes = wide.to_le_bytes();
        for (histogram, &lane) in histograms.iter_mut().zip(&lanes) {
            histogram[bytes[lane] as usize] += 1;
        }
    }
    let digits = fold_lanes(&histograms, n);
    if scratch.scatter.len() < n {
        scratch.scatter.resize(n, items[0]);
    }
    let (mut src, mut dst) = (&mut items[..], &mut scratch.scatter[..n]);
    for &(first, len, buckets) in &digits {
        if len == 1 {
            let lane = lanes[first];
            let bytes = src
                .iter()
                .map(|(wide, _)| wide.to_le_bytes()[lane] as usize);
            scatter(src, dst, &mut histograms[first], bytes);
        } else {
            let mut stride = 1;
            let ranks: Vec<(usize, [u16; 256])> = (first..first + len)
                .map(|i| {
                    let mut table = [0u16; 256];
                    let occurring = table
                        .iter_mut()
                        .zip(&histograms[i])
                        .filter(|(_, &c)| c != 0);
                    let mut cardinality = 0;
                    for (rank, (slot, _)) in occurring.enumerate() {
                        *slot = (rank * stride) as u16; // < buckets <= MAX_BUCKETS
                        cardinality = rank + 1;
                    }
                    stride *= cardinality;
                    (lanes[i], table)
                })
                .collect();
            scratch.counts.clear();
            scratch.counts.resize(buckets, 0);
            scratch.buckets.clear();
            // Reserved whole: grown by doubling, a fresh scratch's buffer
            // is reallocated log2(n) times, and under glibc's default
            // malloc that nearly doubled the push and flush of one
            // 17,476-cell aggregation task.
            scratch.buckets.reserve(n);
            for (wide, _) in src.iter() {
                let bytes = wide.to_le_bytes();
                let bucket: u16 = ranks
                    .iter()
                    .map(|(lane, table)| table[bytes[*lane] as usize])
                    .sum();
                scratch.counts[bucket as usize] += 1;
                scratch.buckets.push(bucket);
            }
            let noted = scratch.buckets.iter().map(|&bucket| bucket as usize);
            scatter(src, dst, &mut scratch.counts, noted);
        }
        std::mem::swap(&mut src, &mut dst);
    }
    if digits.len() % 2 == 1 {
        std::mem::swap(items, &mut scratch.scatter);
        items.truncate(n);
    }
}

/// Items tagged with their keys' wide keys, and what the tags said as
/// they were pushed: their OR and AND (the lanes on which two disagree),
/// whether they ascend strictly (which proves the items sorted: wide <
/// implies compare Less), and the shortest and longest key.
pub struct Tagged<T> {
    /// The pushed `(tag, item)` pairs, in push order until a sort. A
    /// caller may rearrange them after sorting, until [`Tagged::clear`].
    pub items: Vec<(u128, T)>,
    bits: (u128, u128),
    ascending: bool,
    lens: (usize, usize),
}

impl<T: Copy> Tagged<T> {
    /// An empty run that pushes into `buffer`'s allocation.
    pub fn reusing(mut buffer: Vec<(u128, T)>) -> Self {
        buffer.clear();
        Tagged {
            items: buffer,
            bits: (0, u128::MAX),
            ascending: true,
            lens: (usize::MAX, 0),
        }
    }

    /// Forget every item but keep the allocation.
    pub fn clear(&mut self) {
        *self = Tagged::reusing(std::mem::take(&mut self.items));
    }

    /// Append `item`, whose key is `key_len` bytes and tags as `wide`.
    /// Only the tie pass of `Tagged::sort` reads `key_len`.
    pub fn push(&mut self, wide: u128, key_len: usize, item: T) {
        self.ascending &= self.items.last().is_none_or(|&(prev, _)| prev < wide);
        self.bits = (self.bits.0 | wide, self.bits.1 & wide);
        self.lens = (self.lens.0.min(key_len), self.lens.1.max(key_len));
        self.items.push((wide, item));
    }

    /// Re-tag every item with its key's [`KeySemantics::sort_prefix_wide`]
    /// (`key_of` maps an item to its key bytes): one call per item.
    pub(crate) fn retag<'k>(&mut self, ks: &dyn KeySemantics, key_of: impl Fn(T) -> &'k [u8]) {
        let capacity = Vec::with_capacity(self.items.len());
        for (_, item) in std::mem::replace(self, Tagged::reusing(capacity)).items {
            let key = key_of(item);
            self.push(ks.sort_prefix_wide(key), key.len(), item);
        }
    }

    /// Sort the items stably by tag in place, unless they were pushed in
    /// strictly ascending tag order.
    pub fn sort_tags(&mut self, scratch: &mut RadixScratch<T>) {
        if !self.ascending {
            radix_sort_by_prefix(&mut self.items, scratch, self.bits.0 ^ self.bits.1);
        }
    }

    /// Sort the items into full key order in place (the tags must be the
    /// keys' [`KeySemantics::sort_prefix_wide`]): [`Tagged::sort_tags`],
    /// then stable-sort each tie run of differing keys with the comparator
    /// — byte-identical to a stable whole-comparator sort. Bytewise keys of
    /// one length of at most 16 bytes skip that pass: equal tags are then
    /// equal keys, already in stable order.
    pub(crate) fn sort<'k>(
        &mut self,
        scratch: &mut RadixScratch<T>,
        ks: &dyn KeySemantics,
        key_of: impl Fn(T) -> &'k [u8],
    ) -> PrefixSortStats {
        let mut stats = PrefixSortStats::default();
        if self.ascending {
            return stats;
        }
        self.sort_tags(scratch);
        if ks.bytewise_order() && self.lens.0 == self.lens.1 && self.lens.1 <= 16 {
            return stats;
        }
        let items = &mut self.items;
        let mut i = 0;
        while i < items.len() {
            let (wide, first) = items[i];
            let mut j = i + 1;
            while j < items.len() && items[j].0 == wide {
                j += 1;
            }
            if j - i > 1 {
                let first = key_of(first);
                if items[i + 1..j]
                    .iter()
                    .any(|&(_, item)| !crate::keysem::bytewise_eq(key_of(item), first))
                {
                    stats.tie_records += (j - i) as u64;
                    items[i..j].sort_by(|a, b| {
                        stats.compare_calls += 1;
                        ks.compare(key_of(a.1), key_of(b.1))
                    });
                }
            }
            i = j;
        }
        stats
    }
}

/// Stable sort of owned pairs by key through the prefix radix path —
/// byte-identical to `pairs.sort_by(|a, b| ks.compare(&a.key, &b.key))`
/// but comparison-free outside wide-key tie runs. Used for the combiner
/// output re-sort and the reducer's windowed sort-split re-sort.
pub fn sort_pairs(pairs: &mut Vec<KvPair>, ks: &dyn KeySemantics) {
    if pairs.len() < 2 {
        return;
    }
    let mut order = Tagged::reusing(Vec::with_capacity(pairs.len()));
    for (i, pair) in pairs.iter().enumerate() {
        order.push(ks.sort_prefix_wide(&pair.key), pair.key.len(), i);
    }
    order.sort(&mut RadixScratch::default(), ks, |i| &pairs[i].key[..]);
    let sorted: Vec<KvPair> = order
        .items
        .iter()
        .map(|&(_, i)| std::mem::take(&mut pairs[i]))
        .collect();
    *pairs = sorted;
    debug_assert!(pairs
        .windows(2)
        .all(|w| ks.compare(&w[0].key, &w[1].key) != Ordering::Greater));
}

// ---------------------------------------------------------------------------
// Streaming merge
// ---------------------------------------------------------------------------

/// One run of a [`BlockMergeStream`]: a flat (v1/v2) record cursor with
/// its parsed head, or a v3 [`BlockCursor`] whose head lives in the
/// cursor's incremental key buffer. Whether the run is live and what its
/// head's wide sort key is are kept in the stream's flat arrays, which
/// is all the loser tree reads on its fast path.
// A merge holds one of these per run; boxing the block cursor to even
// out the variants would put a pointer chase in the per-record path.
#[allow(clippy::large_enum_variant)]
enum RunCursor<'a> {
    Flat {
        cursor: RecordCursor<'a>,
        /// The current record; stale once the run is exhausted.
        head: RecordSlices<'a>,
    },
    Blocks(BlockCursor<'a>),
}

// The per-record helpers here and on `BlockMergeStream` are
// `inline(always)`: left to the inliner they land out of line in some
// builds, and each call then moves a `Result` through memory once per
// record or pays a call per tree level — measured at 5 % and 20 % of a
// flat merge's time respectively.
impl<'a> RunCursor<'a> {
    fn open(seg: &'a RawSegment) -> Self {
        if seg.is_block_format() {
            RunCursor::Blocks(seg.block_cursor())
        } else {
            RunCursor::Flat {
                cursor: seg.cursor(),
                head: (&[], &[]),
            }
        }
    }

    /// Step to the next record; `false` at the end of the run.
    #[inline(always)]
    fn advance(&mut self) -> Result<bool, MrError> {
        match self {
            RunCursor::Flat { cursor, head } => Ok(match cursor.next()? {
                Some(record) => {
                    *head = record;
                    true
                }
                None => false,
            }),
            RunCursor::Blocks(cursor) => cursor.advance(),
        }
    }

    /// Whether the next record's key is byte-identical to the current
    /// one's (the head is not the last of its v3 key group).
    #[inline(always)]
    fn next_key_repeats(&self) -> bool {
        match self {
            RunCursor::Flat { .. } => false,
            RunCursor::Blocks(cursor) => cursor.group_remaining() > 1,
        }
    }

    /// The current record's `(key, value)` slices.
    #[inline(always)]
    fn record(&self) -> ScratchRecord<'_, 'a> {
        match self {
            RunCursor::Flat { head, .. } => *head,
            RunCursor::Blocks(cursor) => (cursor.key(), cursor.value()),
        }
    }
}

/// What the merge's block-skip proof compares of a wide sort key
/// ([`KeySemantics::sort_prefix_wide`]): its high word. The next block's
/// fence and every rival run's cached head both go through here, so they
/// compare like with like whatever an implementor returns.
#[inline]
fn fence_prefix(wide: u128) -> u64 {
    (wide >> 64) as u64
}

/// One item yielded by [`BlockMergeStream::next_item`].
pub enum MergeItem<'s, 'a> {
    /// One record in merged order. The key borrows the stream's
    /// incremental scratch buffer (valid until the next call), the
    /// value borrows the segment.
    Record(&'s [u8], &'a [u8]),
    /// A whole still-encoded v3 block, proven by fence-prefix
    /// comparison to sort entirely before every other live run's head —
    /// splice it through with
    /// [`IFileWriter::append_encoded_block`](crate::ifile::IFileWriter::append_encoded_block)
    /// without decoding.
    Block(EncodedBlock<'a>),
}

/// Streaming k-way merge over segment cursors, flat (v1/v2) and
/// block-format (v3) alike: a cache-resident *loser tree* of run ids
/// yields one record at a time, borrowed from the decompressed segment
/// buffers.
///
/// Every live run's head [`KeySemantics::sort_prefix_wide`] is cached
/// (computed once per record); tree matches compare two cached `u128`s
/// and fall back to the virtual comparator only where those tie — for
/// keys of up to 16 bytes, only where two runs hold the same key.
/// Advancing the winner replays exactly one leaf-to-root path (⌈log₂ k⌉
/// matches) against the stored losers. Ties break toward the lower run
/// id: the sequence equals a stable sort of the runs concatenated in
/// run order.
///
/// A v3 run also says when its next record repeats the current key
/// ([`BlockCursor::group_remaining`]); the winner's advance then skips
/// the prefix and the replay, so a run of duplicates costs the
/// tournament one replay, not one per record.
///
/// **Block skipping** ([`BlockMergeStream::next_item`], the spill
/// merge's shape) rides on the fence key each block header carries:
/// when the winning run's head is the first record of a fully undecoded
/// block whose *next* block's fence prefix (the high word of its fence
/// key's wide key) is strictly below every other live run's, the whole
/// block sorts before all of them (the [`KeySemantics::sort_prefix_wide`]
/// contract: `prefix(a) < prefix(b)` implies `a < b`, and monotonicity
/// along the sorted run bounds every key in the block by the next
/// fence). The block is emitted still-encoded — no decode, no re-encode,
/// no per-record tree work. Strict inequality sidesteps the tie-break,
/// so the record stream is byte-identical to the record-at-a-time merge.
/// [`BlockMergeStream::next`], which reducers drain, yields every record
/// through the tree.
///
/// Each key is reconstructed incrementally in the [`BlockCursor`]'s
/// single reused buffer, which is why an emitted key is only valid until
/// the next call.
pub struct BlockMergeStream<'a> {
    runs: Vec<RunCursor<'a>>,
    /// Loser tree over `k` runs: `tree[0]` is the overall winner,
    /// `tree[1..k]` hold the losers of internal matches, and run `i`'s
    /// leaf sits implicitly at index `k + i`.
    tree: Vec<usize>,
    /// Wide sort key of each live run's head (stale once a run
    /// exhausts).
    prefixes: Vec<u128>,
    /// Whether each run still has a head.
    lives: Vec<bool>,
    ks: &'a dyn KeySemantics,
    /// Comparator fallbacks on wide-key ties.
    compare_calls: u64,
    /// Blocks emitted still-encoded (skip hits).
    blocks_copied: u64,
    /// The previous item's winner still needs its advance + replay.
    pending_advance: bool,
    #[cfg(debug_assertions)]
    last_key: Option<Vec<u8>>,
}

impl<'a> BlockMergeStream<'a> {
    /// Open a merge over the given segments' records.
    pub fn new(segments: &'a [RawSegment], ks: &'a dyn KeySemantics) -> Result<Self, MrError> {
        let k = segments.len();
        let mut stream = BlockMergeStream {
            runs: segments.iter().map(RunCursor::open).collect(),
            tree: vec![0; k],
            prefixes: vec![0; k],
            lives: vec![false; k],
            ks,
            compare_calls: 0,
            blocks_copied: 0,
            pending_advance: false,
            #[cfg(debug_assertions)]
            last_key: None,
        };
        for run in 0..k {
            stream.advance_run(run)?;
        }
        stream.build();
        Ok(stream)
    }

    /// Step run `w` to its next record and refresh its cached state.
    #[inline(always)]
    fn advance_run(&mut self, w: usize) -> Result<(), MrError> {
        let live = self.runs[w].advance()?;
        self.set_head(w, live);
        Ok(())
    }

    #[inline(always)]
    fn set_head(&mut self, w: usize, live: bool) {
        self.lives[w] = live;
        if live {
            self.prefixes[w] = self.ks.sort_prefix_wide(self.runs[w].record().0);
        }
    }

    /// Whether run `a`'s head sorts strictly before run `b`'s. Exhausted
    /// runs lose every match; among themselves they order by id, which
    /// keeps the relation total.
    #[inline(always)]
    fn run_less(&mut self, a: usize, b: usize) -> bool {
        match (self.lives[a], self.lives[b]) {
            (true, true) => match self.prefixes[a].cmp(&self.prefixes[b]) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => {
                    self.compare_calls += 1;
                    let (ka, kb) = (self.runs[a].record().0, self.runs[b].record().0);
                    match self.ks.compare(ka, kb) {
                        Ordering::Less => true,
                        Ordering::Greater => false,
                        Ordering::Equal => a < b,
                    }
                }
            },
            (true, false) => true,
            (false, true) => false,
            (false, false) => a < b,
        }
    }

    /// Build the tree bottom-up: compute each internal match's winner,
    /// store its loser, crown `tree[0]`.
    fn build(&mut self) {
        let k = self.runs.len();
        if k == 0 {
            return;
        }
        let mut winner = vec![0usize; 2 * k];
        for (i, w) in winner[k..].iter_mut().enumerate() {
            *w = i;
        }
        for node in (1..k).rev() {
            let (a, b) = (winner[2 * node], winner[2 * node + 1]);
            let (win, lose) = if self.run_less(b, a) { (b, a) } else { (a, b) };
            winner[node] = win;
            self.tree[node] = lose;
        }
        self.tree[0] = winner[1];
    }

    /// Replay the matches on `run`'s leaf-to-root path after its head
    /// changed: the contender plays each stored loser, the winner climbs.
    #[inline(always)]
    fn replay(&mut self, mut contender: usize) {
        let k = self.runs.len();
        let mut node = (contender + k) / 2;
        while node > 0 {
            let resident = self.tree[node];
            if self.run_less(resident, contender) {
                self.tree[node] = contender;
                contender = resident;
            }
            node /= 2;
        }
        self.tree[0] = contender;
    }

    /// The run whose head is next in merged order, after performing the
    /// previous winner's deferred advance. Deferring is what lets an
    /// emitted key borrow a block cursor's reused buffer: the buffer is
    /// only overwritten once the caller asks for the next item.
    #[inline(always)]
    fn winner(&mut self) -> Result<Option<usize>, MrError> {
        if self.tree.is_empty() {
            return Ok(None);
        }
        if self.pending_advance {
            self.pending_advance = false;
            let w = self.tree[0];
            // Same key bytes from the same run: the cached wide key stands
            // and every match would repeat its outcome.
            if self.runs[w].next_key_repeats() {
                self.runs[w].advance()?;
            } else {
                self.advance_run(w)?;
                self.replay(w);
            }
        }
        let w = self.tree[0];
        Ok(self.lives[w].then_some(w))
    }

    /// If `w`'s head opens a fully undecoded block whose every key sorts
    /// strictly before every other live run's head, that block's cursor:
    /// the next block's fence key upper-bounds the block, and strict
    /// inequality of [`fence_prefix`]es implies strict key order. A last
    /// block (no next fence) qualifies only when no other run is live.
    #[inline(always)]
    fn uncontended_block(&mut self, w: usize) -> Option<&mut BlockCursor<'a>> {
        let (lives, prefixes, ks) = (&self.lives, &self.prefixes, self.ks);
        let RunCursor::Blocks(cursor) = &mut self.runs[w] else {
            return None;
        };
        if !cursor.at_block_start() {
            return None;
        }
        let bound = cursor
            .next_fence_key()
            .map(|fence| fence_prefix(ks.sort_prefix_wide(fence)));
        let clear = (0..lives.len())
            .all(|r| r == w || !lives[r] || bound.is_some_and(|ub| ub < fence_prefix(prefixes[r])));
        clear.then_some(cursor)
    }

    /// The next record in merged order, or `None` when every run is
    /// exhausted. The key slice borrows the stream (valid until the
    /// next call); the value borrows the segment.
    #[allow(clippy::should_implement_trait)] // fallible, unlike Iterator
    pub fn next<'s>(&'s mut self) -> Result<Option<ScratchRecord<'s, 'a>>, MrError> {
        let Some(w) = self.winner()? else {
            return Ok(None);
        };
        #[cfg(debug_assertions)]
        self.debug_check_record(w);
        self.pending_advance = true;
        Ok(Some(self.runs[w].record()))
    }

    /// The next item in merged order: a record, or — when the winning
    /// run's next block is provably below every other live head — a
    /// whole still-encoded block. Spill merges splice block items
    /// through verbatim.
    pub fn next_item<'s>(&'s mut self) -> Result<Option<MergeItem<'s, 'a>>, MrError> {
        let Some(w) = self.winner()? else {
            return Ok(None);
        };
        if let Some(cursor) = self.uncontended_block(w) {
            let blk = cursor.take_block()?;
            let live = cursor.is_live();
            self.set_head(w, live);
            self.blocks_copied += 1;
            self.replay(w);
            #[cfg(debug_assertions)]
            self.debug_check_block(w, &blk);
            return Ok(Some(MergeItem::Block(blk)));
        }
        #[cfg(debug_assertions)]
        self.debug_check_record(w);
        self.pending_advance = true;
        let (key, value) = self.runs[w].record();
        Ok(Some(MergeItem::Record(key, value)))
    }

    /// Comparator fallbacks taken on wide-key ties so far.
    pub fn compare_calls(&self) -> u64 {
        self.compare_calls
    }

    /// Blocks emitted still-encoded as [`MergeItem::Block`] so far; 0 for
    /// a stream drained through [`BlockMergeStream::next`].
    pub fn blocks_copied(&self) -> u64 {
        self.blocks_copied
    }

    /// Debug builds cross-check merged order with the full comparator
    /// per record — which means only release builds exercise the
    /// comparison-free path alone (see the CI sort-smoke job, which
    /// runs the equivalence suite --release).
    #[cfg(debug_assertions)]
    fn debug_check_record(&mut self, w: usize) {
        let key = self.runs[w].record().0;
        if let Some(prev) = &self.last_key {
            debug_assert!(
                self.ks.compare(prev, key) != Ordering::Greater,
                "merge yielded out-of-order records"
            );
        }
        self.last_key = Some(key.to_vec());
    }

    /// Debug builds decode every skipped block and verify (a) its
    /// records are in order and follow the previous emission, and
    /// (b) its last key sorts strictly before every other live head —
    /// i.e. the fence-prefix proof was sound.
    #[cfg(debug_assertions)]
    fn debug_check_block(&mut self, w: usize, blk: &EncodedBlock<'a>) {
        let ks = self.ks;
        let mut prev = self.last_key.take();
        blk.for_each_record(|k, _| {
            if let Some(p) = &prev {
                debug_assert!(
                    ks.compare(p, k) != Ordering::Greater,
                    "skipped block out of order"
                );
            }
            prev = Some(k.to_vec());
        })
        .expect("emitted block must decode");
        if let Some(last) = &prev {
            for (r, run) in self.runs.iter().enumerate() {
                debug_assert!(
                    r == w || !self.lives[r] || ks.compare(last, run.record().0) == Ordering::Less,
                    "skipped block not strictly below run {r}'s head"
                );
            }
        }
        self.last_key = prev;
    }
}

/// Group a sorted run by the key-semantics grouping predicate; calls `f`
/// once per group with (key, values).
pub fn for_each_group(
    sorted: &[KvPair],
    ks: &dyn KeySemantics,
    mut f: impl FnMut(&[u8], &[&[u8]]),
) {
    let mut i = 0;
    while i < sorted.len() {
        let key = &sorted[i].key;
        let mut j = i + 1;
        while j < sorted.len() && ks.group_eq(key, &sorted[j].key) {
            j += 1;
        }
        let values: Vec<&[u8]> = sorted[i..j].iter().map(|p| p.value.as_slice()).collect();
        f(key, &values);
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ifile::{Framing, IFileWriter, HEADER_LEN};
    use crate::keysem::DefaultKeySemantics;
    use scihadoop_compress::IdentityCodec;
    use std::sync::Arc;

    fn pair(k: &str, v: &str) -> KvPair {
        KvPair::new(k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    /// Merge sorted runs the engine's way: each sealed as a flat
    /// segment and streamed through one [`BlockMergeStream`].
    fn merge_runs(runs: &[Vec<KvPair>]) -> Vec<KvPair> {
        let sealed: Vec<Vec<u8>> = runs.iter().map(|r| seal(r, None, true)).collect();
        let segments = open_all(&sealed);
        let mut stream = BlockMergeStream::new(&segments, &DefaultKeySemantics).unwrap();
        drain(&mut stream).unwrap()
    }

    /// The merge oracle: sorted runs concatenated in run order and
    /// stable-sorted, so a key tied across runs keeps the lower run first.
    fn stable_merged(runs: Vec<Vec<KvPair>>) -> Vec<KvPair> {
        let mut all: Vec<KvPair> = runs.into_iter().flatten().collect();
        all.sort_by(|a, b| DefaultKeySemantics.compare(&a.key, &b.key));
        all
    }

    #[test]
    fn merge_two_runs() {
        let a = vec![pair("a", "1"), pair("c", "3"), pair("e", "5")];
        let b = vec![pair("b", "2"), pair("d", "4")];
        let merged = merge_runs(&[a, b]);
        let keys: Vec<&[u8]> = merged.iter().map(|p| p.key.as_slice()).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"b", b"c", b"d", b"e"]);
    }

    #[test]
    fn merge_with_duplicates_keeps_all() {
        let a = vec![pair("x", "1"), pair("x", "2")];
        let b = vec![pair("x", "3")];
        let merged = merge_runs(&[a, b]);
        assert_eq!(merged.len(), 3);
        assert!(merged.iter().all(|p| *p.key == *b"x"));
    }

    #[test]
    fn merge_empty_and_single() {
        assert!(merge_runs(&[]).is_empty());
        assert!(merge_runs(&[vec![], vec![]]).is_empty());
        let only = vec![pair("q", "v")];
        assert_eq!(merge_runs(std::slice::from_ref(&only)), only);
    }

    #[test]
    fn merge_many_runs_is_globally_sorted() {
        let mut runs = Vec::new();
        for r in 0..8 {
            let run: Vec<KvPair> = (0..50)
                .map(|i| {
                    let k = format!("{:04}", (i * 13 + r * 7) % 997);
                    pair(&k, "v")
                })
                .collect();
            let mut run = run;
            run.sort();
            runs.push(run);
        }
        let merged = merge_runs(&runs);
        assert_eq!(merged.len(), 400);
        assert!(merged.windows(2).all(|w| w[0].key <= w[1].key));
    }

    #[test]
    fn sort_pairs_matches_stable_comparator_sort() {
        let ks = DefaultKeySemantics;
        // Duplicate keys with distinct values pin stability; keys longer
        // than 16 bytes force wide-key tie runs.
        let mut pairs = vec![
            pair("abcdefghijklmnop-late", "1"),
            pair("zz", "2"),
            pair("abcdefghijklmnop-early", "3"),
            pair("zz", "4"),
            pair("", "5"),
            pair("abcdefghijklmnop-late", "6"),
            pair("\u{0}", "7"),
        ];
        let mut expected = pairs.clone();
        expected.sort_by(|a, b| ks.compare(&a.key, &b.key));
        sort_pairs(&mut pairs, &ks);
        assert_eq!(pairs, expected);
    }

    /// Sort `keys`' positions through the kernel: the sorted order and
    /// what the comparator was asked to do.
    fn prefix_sort(keys: &[&[u8]]) -> (Vec<usize>, PrefixSortStats) {
        let ks = DefaultKeySemantics;
        let mut order = Tagged::reusing(Vec::new());
        for (i, key) in keys.iter().enumerate() {
            order.push(ks.sort_prefix_wide(key), key.len(), i);
        }
        let stats = order.sort(&mut RadixScratch::default(), &ks, |i| keys[i]);
        (order.items.iter().map(|&(_, i)| i).collect(), stats)
    }

    #[test]
    fn prefix_sort_stats_count_ties_and_calls() {
        // Three keys share their first 16 bytes; two are unique.
        let (order, stats) = prefix_sort(&[
            b"aaaaaaaaaaaaaaaa-z",
            b"b",
            b"aaaaaaaaaaaaaaaa-a",
            b"c",
            b"aaaaaaaaaaaaaaaa-m",
        ]);
        assert_eq!(stats.tie_records, 3);
        assert!(stats.compare_calls >= 2, "tie run of 3 needs >= 2 compares");
        assert_eq!(order, vec![2, 4, 0, 1, 3]);
    }

    #[test]
    fn byte_identical_tie_runs_never_reach_the_comparator() {
        // Unsorted, every key three times: the runs tie on the wide key
        // and are left in emission order without one compare call.
        let (order, stats) = prefix_sort(&[b"m", b"a", b"m", b"z", b"a", b"z", b"a", b"m", b"z"]);
        assert_eq!(order, vec![1, 4, 6, 0, 2, 7, 3, 5, 8]);
        assert_eq!((stats.tie_records, stats.compare_calls), (0, 0));
        // "ab" and "ab\0" tie on the zero-extended wide key but differ.
        let (order, stats) = prefix_sort(&[b"ab\0", b"ab", b"ab\0"]);
        assert_eq!(order, vec![1, 0, 2]);
        assert_eq!(stats.tie_records, 3);
        assert!(stats.compare_calls >= 2);
    }

    /// Radix-sort `(wide key, tag)` items through a fresh scratch.
    fn radix(items: &[(u128, usize)]) -> Vec<(u128, usize)> {
        let (all_or, all_and) = items
            .iter()
            .fold((0, u128::MAX), |(or, and), &(p, _)| (or | p, and & p));
        let mut sorted = items.to_vec();
        radix_sort_by_prefix(&mut sorted, &mut RadixScratch::default(), all_or ^ all_and);
        sorted
    }

    #[test]
    fn radix_sort_is_stable_across_equal_prefixes() {
        // Small input: the sort_by_key fallback, itself stable.
        let items = [(5, 0), (1, 1), (5, 2), (0, 3), (5, 4), (1, 5)];
        assert_eq!(
            radix(&items),
            vec![(0, 3), (1, 1), (1, 5), (5, 0), (5, 2), (5, 4)],
            "equal prefixes must keep insertion order"
        );
        // Large input: the real scatter passes, pinned against std's
        // stable sort. Heavy duplication means stability is load-bearing.
        let items: Vec<(u128, usize)> = (0..300)
            .map(|i| ((i as u128).wrapping_mul(2654435761) % 5, i))
            .collect();
        let mut expected = items.clone();
        expected.sort_by_key(|&(p, _)| p);
        assert_eq!(
            radix(&items),
            expected,
            "scatter passes must keep insertion order"
        );
    }

    #[test]
    fn radix_sort_covers_all_digit_positions() {
        // Keys differing only in high bytes, only in low bytes, and
        // across the full range — exercises lane skipping, folding and
        // the scatter on all 16 byte lanes. Repeated past RADIX_MIN so
        // the radix path (not the small-input fallback) runs.
        let patterns = [
            u128::MAX,
            0,
            1,
            0xFF << 120,
            0xFF00,
            1 << 127 | 1,
            42,
            0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210,
        ];
        let items: Vec<(u128, usize)> = (0..32)
            .flat_map(|r| patterns.iter().map(move |&p| p.rotate_left(4 * r)))
            .enumerate()
            .map(|(i, p)| (p, i))
            .collect();
        assert!(items.len() >= RADIX_MIN);
        let mut expected = items.clone();
        expected.sort_by_key(|&(p, _)| p);
        assert_eq!(radix(&items), expected);
    }

    #[test]
    fn low_cardinality_lanes_fold_into_one_digit() {
        // One grid coordinate with a -1 halo, as the wide key's top four
        // lanes: -1..=513 takes 256, 4, 2 and 2 byte values, low lane
        // first — one 4096-bucket digit. The full-range lane below them
        // cannot join it.
        let wide = |c: i32, low: u8| (c as u32 as u128) << 96 | low as u128;
        let items: Vec<(u128, usize)> = (-1..=513)
            .rev()
            .flat_map(|c| (0..8).map(move |i| wide(c, (37 * c + i) as u8)))
            .enumerate()
            .map(|(i, p)| (p, i))
            .collect();
        let histograms = |items: &[(u128, usize)]| -> Vec<[usize; 256]> {
            [0, 12, 13, 14, 15]
                .map(|lane| {
                    let mut histogram = [0; 256];
                    for (wide, _) in items {
                        histogram[wide.to_le_bytes()[lane] as usize] += 1;
                    }
                    histogram
                })
                .to_vec()
        };
        assert_eq!(
            fold_lanes(&histograms(&items), items.len()),
            vec![(0, 1, 256), (1, 4, 4096)]
        );
        let mut expected = items.clone();
        expected.sort_by_key(|&(p, _)| p);
        assert_eq!(radix(&items), expected);
        // A fold never has more buckets than there are items.
        let few: Vec<(u128, usize)> = items.iter().copied().step_by(5).collect();
        assert_eq!(
            fold_lanes(&histograms(&few), few.len()),
            vec![(0, 1, 256), (1, 1, 256), (2, 3, 16)],
            "{} items",
            few.len()
        );
        expected.retain(|item| few.contains(item));
        assert_eq!(radix(&few), expected);
    }

    #[test]
    fn prefix_sort_skips_presorted_input_without_comparisons() {
        // Strictly increasing wide keys: the presorted fast path must
        // detect it and spend zero comparator calls.
        let keys: Vec<Vec<u8>> = (0u32..200).map(|i| i.to_be_bytes().to_vec()).collect();
        let keys: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let (order, stats) = prefix_sort(&keys);
        assert_eq!((stats.tie_records, stats.compare_calls), (0, 0));
        assert_eq!(order, (0..200).collect::<Vec<_>>());
        // Non-decreasing with a tie must NOT take the shortcut: the tie
        // run still needs its comparator fallback to prove order.
        let (order, stats) = prefix_sort(&[b"aaaaaaaaaaaaaaaa-b", b"aaaaaaaaaaaaaaaa-a"]);
        assert!(stats.compare_calls > 0, "ties disqualify the shortcut");
        assert_eq!(order, vec![1, 0]);
    }

    // The merged *sequence* (flat, block and mixed fan-ins, cross-run
    // ties, uneven and empty runs, `next` and `next_item`) is pinned
    // against a stable sort of the concatenated runs by the proptest
    // `merge_stream_matches_materializing_merge` in
    // tests/shuffle_equivalence.rs. What stays here is what a sequence
    // comparison cannot see: comparator-call counts, skip hits, and
    // failures surfacing as errors.

    /// Seal a sorted run as a flat segment (`budget: None`; v1 when
    /// `trailer` is off) or a v3 segment with the given block budget.
    fn seal(pairs: &[KvPair], budget: Option<usize>, trailer: bool) -> Vec<u8> {
        let codec = Arc::new(IdentityCodec);
        let mut w = match budget {
            Some(b) => IFileWriter::v3_with_budget(Framing::IFile, codec, b),
            None if trailer => IFileWriter::new(Framing::IFile, codec),
            None => IFileWriter::without_trailer(Framing::IFile, codec),
        };
        for p in pairs {
            w.append_pair(p);
        }
        w.close().data
    }

    fn open_all(sealed: &[Vec<u8>]) -> Vec<RawSegment> {
        sealed
            .iter()
            .map(|s| RawSegment::open(s, &IdentityCodec).unwrap())
            .collect()
    }

    fn drain(stream: &mut BlockMergeStream<'_>) -> Result<Vec<KvPair>, MrError> {
        let mut out = Vec::new();
        while let Some((k, v)) = stream.next()? {
            out.push(KvPair::new(k.to_vec(), v.to_vec()));
        }
        Ok(out)
    }

    /// Runs with disjoint key ranges: after the first heads resolve,
    /// whole blocks of the low run sit below every other head.
    fn disjoint_runs(runs: usize, per_run: usize) -> Vec<Vec<KvPair>> {
        (0..runs)
            .map(|r| {
                (0..per_run)
                    .map(|i| pair(&format!("{r}-{i:05}"), &format!("{r}.{i}")))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn merge_falls_back_to_comparator_only_on_prefix_ties() {
        // Short distinct keys: prefixes decide everything, so the
        // comparator must never run. Long shared-prefix keys: it must.
        let ks = DefaultKeySemantics;
        let distinct = [
            seal(&[pair("a", "1"), pair("c", "2")], None, true),
            seal(&[pair("b", "3"), pair("d", "4")], None, true),
        ];
        let segments = open_all(&distinct);
        let mut stream = BlockMergeStream::new(&segments, &ks).unwrap();
        assert_eq!(drain(&mut stream).unwrap().len(), 4);
        assert_eq!(stream.compare_calls(), 0, "distinct prefixes: no fallback");

        let tied = [
            seal(&[pair("aaaaaaaaaaaaaaaa-x", "1")], None, true),
            seal(&[pair("aaaaaaaaaaaaaaaa-y", "2")], None, true),
        ];
        let segments = open_all(&tied);
        let mut stream = BlockMergeStream::new(&segments, &ks).unwrap();
        assert_eq!(drain(&mut stream).unwrap().len(), 2);
        assert!(
            stream.compare_calls() > 0,
            "prefix tie needs the comparator"
        );
    }

    #[test]
    fn next_yields_every_record_through_the_tree() {
        // Disjoint ranges, where `next_item` would splice: `next` still
        // hands out records one at a time, and copies no block.
        let runs = disjoint_runs(4, 200);
        let sealed: Vec<Vec<u8>> = runs.iter().map(|r| seal(r, Some(256), true)).collect();
        let segments = open_all(&sealed);
        let mut stream = BlockMergeStream::new(&segments, &DefaultKeySemantics).unwrap();
        let streamed = drain(&mut stream).unwrap();
        assert_eq!(streamed, stable_merged(runs));
        assert_eq!(stream.blocks_copied(), 0);
    }

    #[test]
    fn block_merge_next_item_splices_still_encoded_blocks() {
        // Disjoint ranges consumed through next_item: blocks splice
        // still-encoded into a new v3 writer, and the re-read output
        // must byte-match the record-at-a-time merge.
        let runs = disjoint_runs(3, 150);
        let sealed: Vec<Vec<u8>> = runs.iter().map(|r| seal(r, Some(256), true)).collect();
        let segments = open_all(&sealed);
        let mut stream = BlockMergeStream::new(&segments, &DefaultKeySemantics).unwrap();
        let mut w = IFileWriter::v3_with_budget(Framing::IFile, Arc::new(IdentityCodec), 256);
        let mut spliced = 0u64;
        loop {
            match stream.next_item().unwrap() {
                None => break,
                Some(MergeItem::Record(k, v)) => w.append(k, v),
                Some(MergeItem::Block(blk)) => {
                    spliced += 1;
                    w.append_encoded_block(&blk).unwrap();
                }
            }
        }
        assert!(spliced > 0, "disjoint ranges must splice whole blocks");
        assert_eq!(spliced, stream.blocks_copied());
        let merged = w.close();
        let raw = RawSegment::open(&merged.data, &IdentityCodec).unwrap();
        let mut out = Vec::new();
        raw.for_each_record(|k, v| out.push(KvPair::new(k.to_vec(), v.to_vec())))
            .unwrap();
        assert_eq!(out, stable_merged(runs));
    }

    #[test]
    fn flat_run_cut_short_fails_the_merge_without_panicking() {
        // A v1 segment carries no trailer, so a truncated copy opens
        // and the damage only shows when the merge parses into it —
        // while opening the stream (cut inside the first record) or
        // mid-merge. Every cut either falls on a record boundary (the
        // merge yields the surviving records) or must come back as Err.
        let ks = DefaultKeySemantics;
        let victim: Vec<KvPair> = (0..6)
            .map(|i| pair(&format!("k{i}"), &format!("victim-{i}")))
            .collect();
        let healthy = seal(
            &[pair("k0", "h"), pair("k3x", "h"), pair("k9", "h")],
            None,
            true,
        );
        let full = seal(&victim, None, false);
        let record_len = (full.len() - HEADER_LEN) / victim.len();
        let (mut clean, mut failed) = (0, 0);
        for cut in HEADER_LEN..full.len() {
            let sealed = [healthy.clone(), full[..cut].to_vec()];
            let segments = open_all(&sealed);
            let merged =
                BlockMergeStream::new(&segments, &ks).and_then(|mut stream| drain(&mut stream));
            let body = cut - HEADER_LEN;
            match merged {
                Ok(records) => {
                    assert_eq!(body % record_len, 0, "cut {cut} is mid-record yet merged");
                    assert_eq!(records.len(), 3 + body / record_len);
                    clean += 1;
                }
                Err(e) => {
                    assert_ne!(body % record_len, 0, "cut {cut} is a boundary: {e}");
                    failed += 1;
                }
            }
        }
        assert_eq!(clean, victim.len());
        assert!(failed > clean);

        // A length vint rewritten to overrun the buffer fails the same way.
        let mut corrupt = full.clone();
        corrupt[HEADER_LEN + record_len] = 0x7f;
        let sealed = [healthy, corrupt];
        let segments = open_all(&sealed);
        let mut stream = BlockMergeStream::new(&segments, &ks).unwrap();
        assert!(drain(&mut stream).is_err());
    }

    #[test]
    fn grouping_walks_equal_keys() {
        let sorted = vec![
            pair("a", "1"),
            pair("a", "2"),
            pair("b", "3"),
            pair("c", "4"),
            pair("c", "5"),
        ];
        let mut groups = Vec::new();
        for_each_group(&sorted, &DefaultKeySemantics, |k, vs| {
            groups.push((k.to_vec(), vs.len()));
        });
        assert_eq!(
            groups,
            vec![(b"a".to_vec(), 2), (b"b".to_vec(), 1), (b"c".to_vec(), 2)]
        );
    }
}
