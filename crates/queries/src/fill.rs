//! Filling a coordinate-keyed result map in the order its table is laid
//! out.
//!
//! A sliding median over a 512² grid answers 264,196 window centres, and
//! the `HashMap<Coord, i32>` that holds them is a table of 524,288
//! 32-byte buckets, about 17 MB. Inserted in output order, every entry
//! lands in a random bucket: the fill is bound by cache and TLB misses,
//! not by hashing. [`fill`] sorts the entries by the bucket each will
//! occupy and inserts them in about that order, so the table is written
//! front to back. All but the inserts runs on several threads: each
//! thread decodes and hashes an equal share of the entries and sorts its
//! share by bucket, with a least-significant-digit radix sort whose
//! passes are stable counting sorts. One thread then inserts the shares
//! a window at a time: the entries of every share whose buckets share
//! the top digit, share after share. A window of a 512² answer is 2,048
//! buckets, 64 KB of the table, so the shares' runs through it meet in
//! cache. Entries of one key have one bucket, so they keep their order
//! and the last one still wins. The caller allocates every buffer, and
//! the thread that fills one writes it first, so the threads fault their
//! pages in at once and allocate nothing: no allocator arena of theirs
//! grows.
//!
//! The one assumption is std's: its table picks an entry's first bucket
//! from the low bits of the entry's hash. Should that ever change, the
//! map built here is still the map the plain insertion loop builds, and
//! only the speed is lost — and `std_buckets_by_the_low_hash_bits`
//! fails.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use scihadoop_grid::Coord;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// Bits of the bucket index sorted per pass; a 512² answer's 19 bits
/// take two passes. Timed filling that answer on one thread of a 2-core
/// Xeon VM: 8 bits (three passes) 36.7 ms, 10 bits 35.7 ms, 11 bits
/// 34.0 ms, all 19 in one pass 37.0 ms, against 63–70 ms for the
/// insertion loop.
const DIGIT_BITS: u32 = 11;

/// Where the top digit of a `bucket_bits`-bit bucket index starts: the
/// shift of the radix sort's last pass, and of the windows the inserts
/// take.
fn top_shift(bucket_bits: u32) -> u32 {
    bucket_bits.saturating_sub(1) / DIGIT_BITS * DIGIT_BITS
}

/// An entry tagged with the bucket its insert starts probing at.
type Tagged = (u32, Coord, i32);

/// The mask that takes a bucket index from a hash in a map of
/// `capacity`: std's table has a power-of-two bucket count and is filled
/// to at most 7/8 of it, so the count is the power of two above
/// capacity.
fn bucket_mask(capacity: usize) -> u64 {
    let bucket_bits = (capacity + 1).next_power_of_two().trailing_zeros();
    (1u64 << bucket_bits) - 1
}

/// The map that the entries `decode` makes of `parts`' items build when
/// inserted one by one, in order: a key that appears twice keeps its last
/// value. The first item that fails to decode, in order, is the error.
///
/// Items are decoded, hashed and sorted on up to `threads` threads, the
/// caller's among them. Each takes an equal share of the items, whatever
/// the parts' sizes.
pub(crate) fn fill<T: Sync, E: Send>(
    parts: &[Vec<T>],
    threads: usize,
    decode: impl Fn(&T) -> Result<(Coord, i32), E> + Sync,
) -> Result<HashMap<Coord, i32>, E> {
    let total = parts.iter().map(Vec::len).sum::<usize>();
    let mut map = HashMap::with_capacity(total);
    let mask = bucket_mask(map.capacity());
    let hasher = map.hasher().clone();
    in_bucket_order(parts, threads, decode, &hasher, mask, |(_, coord, v)| {
        map.insert(coord, v);
    })?;
    Ok(map)
}

/// Hand `visit` the entries `decode` makes of `parts`' items, each tagged
/// with the bits of its hash under `hasher` that `mask` keeps: window by
/// window (the tags' top digits, from [`top_shift`]), and among equal
/// tags in the items' order.
fn in_bucket_order<T: Sync, E: Send>(
    parts: &[Vec<T>],
    threads: usize,
    decode: impl Fn(&T) -> Result<(Coord, i32), E> + Sync,
    hasher: &(impl BuildHasher + Sync),
    mask: u64,
    mut visit: impl FnMut(Tagged),
) -> Result<(), E> {
    let total = parts.iter().map(Vec::len).sum::<usize>();
    if total == 0 {
        return Ok(());
    }
    let bucket_bits = 64 - mask.leading_zeros();
    let per_thread = total.div_ceil(threads.max(1));
    let shares = total.div_ceil(per_thread);
    let share_len = |s: usize| per_thread.min(total - s * per_thread);
    let buffers = || -> Vec<Vec<Tagged>> {
        (0..shares)
            .map(|s| Vec::with_capacity(share_len(s)))
            .collect()
    };
    let (mut sorted, mut spare) = (buffers(), buffers());
    let mut counts = vec![0usize; shares << DIGIT_BITS];

    let sort_share =
        |s: usize, share: &mut Vec<Tagged>, spare: &mut Vec<Tagged>, counts: &mut [usize]| {
            // Placeholders first: filling a buffer in one sweep, then writing
            // it, beat pushing into it as the entries are made (19–25 against
            // 31–35 ms for this pass over a 512² answer on a 2-core VM).
            share.resize_with(share_len(s), placeholder);
            let items = parts.iter().flatten().skip(s * per_thread);
            for (item, slot) in items.zip(share.iter_mut()) {
                let (coord, v) = decode(item)?;
                *slot = ((hasher.hash_one(&coord) & mask) as u32, coord, v);
            }
            spare.resize_with(share.len(), placeholder);
            radix_sort(share, spare, counts, bucket_bits);
            Ok(())
        };
    on_threads(
        sorted
            .iter_mut()
            .zip(&mut spare)
            .zip(counts.chunks_mut(1 << DIGIT_BITS))
            .enumerate(),
        |(s, ((share, spare), counts))| sort_share(s, share, spare, counts),
    )?;
    // The sorts' spare buffers go before the inserts fault in the table.
    drop(spare);

    // The last pass left, per share, where each top digit's entries end.
    let windows = 1usize << (bucket_bits - top_shift(bucket_bits));
    let mut runs: Vec<_> = sorted.into_iter().map(Vec::into_iter).collect();
    for window in 0..windows {
        for (run, ends) in runs.iter_mut().zip(counts.chunks(1 << DIGIT_BITS)) {
            let start = window.checked_sub(1).map_or(0, |w| ends[w]);
            run.by_ref().take(ends[window] - start).for_each(&mut visit);
        }
    }
    Ok(())
}

/// Sort `items` stably by their tags' low `bits` bits, through `spare`,
/// a buffer of as many placeholders, with `counts` (`2^DIGIT_BITS` of
/// them) for the counting. After the last pass, `counts[d]` is where the
/// entries whose top digit is `d` end.
///
/// This is not `mapreduce::sort`'s radix kernel, which the spill sort
/// and the aggregation flush share, for two reasons: an entry holds a
/// `Coord`, which is not `Copy`, so it moves by swap, not by copy; and
/// the caller reads the last pass's counts as its insert windows, which
/// the kernel, folding lanes into digits, does not keep.
fn radix_sort(items: &mut Vec<Tagged>, spare: &mut Vec<Tagged>, counts: &mut [usize], bits: u32) {
    let mut shift = 0;
    while shift < bits {
        let digit = |tag: u32| (tag >> shift) as usize & ((1 << DIGIT_BITS) - 1);
        counts.fill(0);
        for item in items.iter() {
            counts[digit(item.0)] += 1;
        }
        let mut next = 0;
        for start in counts.iter_mut() {
            (*start, next) = (next, next + *start);
        }
        for item in items.iter_mut() {
            let slot = &mut counts[digit(item.0)];
            std::mem::swap(&mut spare[*slot], item);
            *slot += 1;
        }
        std::mem::swap(items, spare);
        shift += DIGIT_BITS;
    }
}

/// What fills a slot of a buffer until an entry is moved into it.
fn placeholder() -> Tagged {
    (0, Coord::origin(0), 0)
}

/// Run `work` on each of `jobs`: the first on this thread, each other on
/// a scoped thread of its own. The error is the first in job order.
fn on_threads<J: Send, E: Send>(
    jobs: impl IntoIterator<Item = J>,
    work: impl Fn(J) -> Result<(), E> + Sync,
) -> Result<(), E> {
    std::thread::scope(|scope| {
        let work = &work;
        let mut jobs = jobs.into_iter();
        let own = jobs.next();
        let others: Vec<_> = jobs.map(|job| scope.spawn(move || work(job))).collect();
        let own = own.map_or(Ok(()), work);
        others.into_iter().fold(own, |first, thread| {
            let theirs = thread
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            first.and(theirs)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scihadoop_grid::INLINE_DIMS;
    use std::convert::Infallible;

    /// The loop the fill replaces.
    fn inserted(entries: Vec<(Coord, i32)>) -> HashMap<Coord, i32> {
        let mut map = HashMap::new();
        for (coord, v) in entries {
            map.insert(coord, v);
        }
        map
    }

    /// The fill over entries that are already decoded.
    fn filled(parts: &[Vec<(Coord, i32)>], threads: usize) -> HashMap<Coord, i32> {
        let same = |(coord, v): &(Coord, i32)| Ok::<_, Infallible>((coord.clone(), *v));
        match fill(parts, threads, same) {
            Ok(map) => map,
            Err(never) => match never {},
        }
    }

    /// Coordinates drawn from a small cube so that keys repeat; each
    /// entry's value is its position, so a map that kept the wrong one
    /// of two duplicates differs from the loop's.
    fn arb_entries(
        ndims: usize,
        side: i32,
        max_len: usize,
    ) -> impl Strategy<Value = Vec<(Coord, i32)>> {
        proptest::collection::vec(proptest::collection::vec(-side..side, ndims), 0..max_len)
            .prop_map(|coords| (0..).zip(coords).map(|(i, c)| (Coord::new(c), i)).collect())
    }

    /// `entries` cut into reducer outputs of uneven sizes, empty ones
    /// among them, at the cut points `cuts` picks.
    fn cut(entries: &[(Coord, i32)], cuts: &[usize]) -> Vec<Vec<(Coord, i32)>> {
        let mut at: Vec<usize> = cuts.iter().map(|c| c % (entries.len() + 1)).collect();
        at.sort_unstable();
        let mut parts = Vec::new();
        let mut from = 0;
        for to in at.into_iter().chain([entries.len()]) {
            parts.push(entries[from..to].to_vec());
            from = to;
        }
        parts
    }

    #[test]
    fn empty_and_single_entries() {
        assert!(filled(&[], 2).is_empty());
        assert!(filled(&[Vec::new(), Vec::new()], 3).is_empty());
        let one = vec![(Coord::new(vec![3, -1]), 7)];
        for threads in 0..=3 {
            assert_eq!(
                filled(std::slice::from_ref(&one), threads),
                inserted(one.clone())
            );
        }
    }

    #[test]
    fn the_first_failure_in_order_is_the_error() {
        let parts = vec![vec![1, -2, 3], vec![], vec![4, -5, 6, -7]];
        for threads in 1..=4 {
            let got = fill(&parts, threads, |&n: &i32| {
                if n < 0 {
                    Err(n)
                } else {
                    Ok((Coord::new(vec![n]), n))
                }
            });
            assert_eq!(got, Err(-2), "{threads} threads");
        }
    }

    #[test]
    fn std_buckets_by_the_low_hash_bits() {
        // Iterating std's table walks its buckets in order. If each
        // entry's bucket is its hash's low bits, as the fill assumes, the
        // walk meets those bits in non-decreasing order, but for entries
        // probing displaced a few slots on, and for those displaced past
        // the table's end, which are met first and step back from the
        // top. If the table took its buckets from other bits, about half
        // of all steps would go far back. (Over 300 fills of these keys,
        // no step went back more than `SLACK` from below the top.)
        const SLACK: u64 = 1024;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as i32
        };
        let entries: Vec<(Coord, i32)> = (0..100_000)
            .map(|i| (Coord::new(vec![next(), next()]), i))
            .collect();
        let map = filled(&[entries], 2);
        let mask = bucket_mask(map.capacity());
        let buckets: Vec<u64> = map
            .keys()
            .map(|k| map.hasher().hash_one(k) & mask)
            .collect();
        let far_back = buckets
            .windows(2)
            .filter(|w| w[1] + SLACK < w[0] && w[0] + SLACK <= mask + 1)
            .count();
        assert!(
            far_back <= 2,
            "{far_back} of {} steps went back more than {SLACK} buckets",
            buckets.len()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn entries_come_out_window_by_window_and_stable(
            entries in arb_entries(2, 20, 3_000),
            cuts in proptest::collection::vec(any::<usize>(), 0..6),
            threads in 1usize..5,
            bucket_bits in 1u32..24,
        ) {
            // Tables of up to 2²³ buckets: up to three passes, though
            // only a few thousand entries are sorted.
            let same = |(coord, v): &(Coord, i32)| Ok::<_, Infallible>((coord.clone(), *v));
            let hasher = std::collections::hash_map::RandomState::new();
            let mask = (1u64 << bucket_bits) - 1;
            let parts = cut(&entries, &cuts);
            let mut sorted = Vec::new();
            if let Err(never) = in_bucket_order(&parts, threads, same, &hasher, mask, |e| sorted.push(e)) {
                match never {}
            }
            prop_assert_eq!(sorted.len(), entries.len());
            for (tag, coord, _) in &sorted {
                prop_assert_eq!(*tag as u64, hasher.hash_one(coord) & mask);
            }
            // Windows rise. Each entry's value is its position: stable
            // means positions rise within a tag.
            let window = |tag: u32| tag >> top_shift(bucket_bits);
            for pair in sorted.windows(2) {
                let ((a, _, at_a), (b, _, at_b)) = (&pair[0], &pair[1]);
                prop_assert!(window(*a) <= window(*b));
                prop_assert!(a != b || at_a < at_b);
            }
        }

        #[test]
        fn fills_the_map_the_insertion_loop_fills(
            // Up to 5,000 entries: tables past 2¹¹ buckets take two passes.
            entries in arb_entries(2, 60, 5_000),
        ) {
            prop_assert_eq!(filled(std::slice::from_ref(&entries), 1), inserted(entries));
        }

        #[test]
        fn threads_fill_uneven_outputs_as_the_loop_does(
            entries in arb_entries(2, 20, 2_000),
            cuts in proptest::collection::vec(any::<usize>(), 0..6),
            threads in 1usize..5,
        ) {
            let parts = cut(&entries, &cuts);
            prop_assert_eq!(filled(&parts, threads), inserted(entries));
        }

        #[test]
        fn a_duplicated_key_keeps_its_last_value(
            entries in arb_entries(1, 4, 40),
            cuts in proptest::collection::vec(any::<usize>(), 0..4),
            threads in 1usize..5,
        ) {
            let parts = cut(&entries, &cuts);
            prop_assert_eq!(filled(&parts, threads), inserted(entries));
        }

        #[test]
        fn wide_coordinates_fill_the_same_map(
            entries in arb_entries(INLINE_DIMS + 2, 3, 3_000),
            threads in 1usize..5,
        ) {
            prop_assert_eq!(filled(std::slice::from_ref(&entries), threads), inserted(entries));
        }
    }
}
