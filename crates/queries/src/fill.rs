//! Filling a coordinate-keyed result map in the order its table is laid
//! out.
//!
//! A sliding median over a 512² grid answers 264,196 window centres, and
//! the `HashMap<Coord, i32>` that holds them is a table of 524,288
//! 32-byte buckets, about 17 MB. Inserted in output order, every entry
//! lands in a random bucket: the fill is bound by cache and TLB misses,
//! not by hashing. [`bucket_ordered`] sorts the entries by the bucket
//! each will occupy and inserts them in that order, so the table is
//! written front to back.
//!
//! The one assumption is std's: its table picks an entry's first bucket
//! from the low bits of the entry's hash. Should that ever change, the
//! map built here is still the map the plain insertion loop builds, and
//! only the speed is lost.

use scihadoop_grid::Coord;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// Bits of the bucket index sorted per pass; a 512² answer's 19 bits
/// take two passes. Timed filling that answer on a 2-core Xeon VM: 8
/// bits (three passes) 36.7 ms, 10 bits 35.7 ms, 11 bits 34.0 ms, all 19
/// in one pass 37.0 ms, against 63–70 ms for the insertion loop.
const DIGIT_BITS: u32 = 11;

/// The map `entries` build when inserted one by one, in order: a key
/// that appears twice keeps its last value.
pub(crate) fn bucket_ordered(entries: Vec<(Coord, i32)>) -> HashMap<Coord, i32> {
    let mut map = HashMap::with_capacity(entries.len());
    // std's table has a power-of-two bucket count and is filled to at
    // most 7/8 of it, so the count is the power of two above capacity.
    let bucket_bits = (map.capacity() + 1).next_power_of_two().trailing_zeros();
    let mask = (1u64 << bucket_bits) - 1;
    let mut items: Vec<(u32, Coord, i32)> = entries
        .into_iter()
        .map(|(coord, v)| ((map.hasher().hash_one(&coord) & mask) as u32, coord, v))
        .collect();
    // A least-significant-digit radix sort on the bucket index. Each
    // pass is a stable counting sort, so entries of one key stay in
    // input order and the last one inserted still wins.
    let mut sorted: Vec<(u32, Coord, i32)> = Vec::with_capacity(items.len());
    sorted.resize_with(items.len(), || (0, Coord::origin(0), 0));
    let mut shift = 0;
    while shift < bucket_bits {
        let digit = |bucket: u32| (bucket >> shift) as usize & ((1 << DIGIT_BITS) - 1);
        let mut starts = vec![0usize; 1 << DIGIT_BITS];
        for item in &items {
            starts[digit(item.0)] += 1;
        }
        let mut next = 0;
        for start in &mut starts {
            (*start, next) = (next, next + *start);
        }
        for item in &mut items {
            let slot = &mut starts[digit(item.0)];
            std::mem::swap(&mut sorted[*slot], item);
            *slot += 1;
        }
        std::mem::swap(&mut items, &mut sorted);
        shift += DIGIT_BITS;
    }
    for (_, coord, v) in items {
        map.insert(coord, v);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scihadoop_grid::INLINE_DIMS;

    /// The loop the fill replaces.
    fn inserted(entries: Vec<(Coord, i32)>) -> HashMap<Coord, i32> {
        let mut map = HashMap::new();
        for (coord, v) in entries {
            map.insert(coord, v);
        }
        map
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

    #[test]
    fn empty_and_single_entries() {
        assert!(bucket_ordered(Vec::new()).is_empty());
        let one = vec![(Coord::new(vec![3, -1]), 7)];
        assert_eq!(bucket_ordered(one.clone()), inserted(one));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fills_the_map_the_insertion_loop_fills(
            // Up to 5,000 entries: tables past 2¹¹ buckets take two passes.
            entries in arb_entries(2, 60, 5_000),
        ) {
            prop_assert_eq!(bucket_ordered(entries.clone()), inserted(entries));
        }

        #[test]
        fn a_duplicated_key_keeps_its_last_value(entries in arb_entries(1, 4, 40)) {
            prop_assert_eq!(bucket_ordered(entries.clone()), inserted(entries));
        }

        #[test]
        fn wide_coordinates_fill_the_same_map(
            entries in arb_entries(INLINE_DIMS + 2, 3, 3_000),
        ) {
            prop_assert_eq!(bucket_ordered(entries.clone()), inserted(entries));
        }
    }
}
