//! Property tests for the space-filling-curve crate.

use proptest::prelude::*;
use scihadoop_grid::Coord;
use scihadoop_sfc::{
    collapse_sorted, Curve, CurveIndex, CurveRun, HilbertCurve, RowMajorCurve, ZOrderCurve,
};

/// The bit loop the Z-order kernel replaced, kept as its oracle: one
/// index bit per step, most significant coordinate bit first, dimension
/// 0 first within each group.
fn interleave_oracle(coords: &[u32], bits: u32) -> CurveIndex {
    let mut index: CurveIndex = 0;
    for bit in (0..bits).rev() {
        for &c in coords {
            index = (index << 1) | (((c >> bit) & 1) as CurveIndex);
        }
    }
    index
}

/// Inverse of [`interleave_oracle`].
fn deinterleave_oracle(index: CurveIndex, ndims: usize, bits: u32) -> Vec<u32> {
    let mut coords = vec![0u32; ndims];
    let mut idx = index;
    for bit in 0..bits {
        for c in coords.iter_mut().rev() {
            *c |= ((idx & 1) as u32) << bit;
            idx >>= 1;
        }
    }
    coords
}

/// Every Z-order shape the 128-bit index allows, for 1 to 8 dimensions.
fn zorder_shapes() -> impl Iterator<Item = (usize, u32)> {
    (1..=8usize).flat_map(|ndims| (1..=(128 / ndims as u32).min(32)).map(move |bits| (ndims, bits)))
}

/// The Z-order kernel against the bit loop at both ends of every shape's
/// range: the first and last indices, the indices one bit in from each
/// end, and alternating bit patterns.
#[test]
fn zorder_matches_the_bit_loop_at_the_ends_of_every_shape() {
    for (ndims, bits) in zorder_shapes() {
        let z = ZOrderCurve::with_bits(ndims, bits);
        let width = ndims as u32 * bits;
        let last = CurveIndex::MAX >> (128 - width);
        let probes = [
            0,
            1,
            1 << (width - 1),
            last,
            last - 1,
            last >> 1,
            last & (CurveIndex::MAX / 3),
            last & !(CurveIndex::MAX / 3),
        ];
        let mut out = vec![0; ndims];
        for index in probes {
            let coords = deinterleave_oracle(index, ndims, bits);
            z.coords_into(index, &mut out).unwrap();
            assert_eq!(out, coords, "{ndims}x{bits}: coordinates of {index:#x}");
            assert_eq!(
                z.index_of(&coords).unwrap(),
                index,
                "{ndims}x{bits}: index of {coords:?}"
            );
            assert_eq!(interleave_oracle(&coords, bits), index);
        }
        if width < 128 {
            assert!(z.coords_into(last + 1, &mut out).is_err(), "{ndims}x{bits}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The Z-order kernel against the bit loop at random points of a
    /// random shape (1 to 8 dimensions, every bit width that fits),
    /// both ways and through the `Coord` paths.
    #[test]
    fn zorder_matches_the_bit_loop(
        shape in 0usize..zorder_shapes().count(),
        seeds in proptest::collection::vec(any::<u32>(), 8),
        index_seed in any::<u128>(),
    ) {
        let (ndims, bits) = zorder_shapes().nth(shape).unwrap();
        let z = ZOrderCurve::with_bits(ndims, bits);
        let max = u32::MAX >> (32 - bits);
        let coords: Vec<u32> = seeds[..ndims].iter().map(|s| s & max).collect();
        let index = interleave_oracle(&coords, bits);
        prop_assert_eq!(z.index_of(&coords).unwrap(), index);
        prop_assert_eq!(z.coords_of(index).unwrap(), coords.clone());
        let index = index_seed >> (128 - ndims as u32 * bits);
        prop_assert_eq!(z.coords_of(index).unwrap(), deinterleave_oracle(index, ndims, bits));
        if bits < 32 {
            let coord = Coord::new(coords.iter().map(|&c| c as i32).collect());
            prop_assert_eq!(z.index_of_coord(&coord).unwrap(), interleave_oracle(&coords, bits));
            prop_assert_eq!(z.coord_of_index(index).unwrap().components().to_vec(),
                deinterleave_oracle(index, ndims, bits).iter().map(|&c| c as i32).collect::<Vec<_>>());
        }
    }

    /// The `Coord` paths — on a stack buffer up to `INLINE_DIMS`
    /// dimensions, on the heap beyond — agree with the slice paths they
    /// wrap, errors included: a negative or too-large component, a
    /// coordinate of the wrong dimensionality, an index off the curve.
    #[test]
    fn coord_paths_agree_with_slice_paths(
        components in proptest::collection::vec(-2i32..20, 1..7),
        index_bits in 0u32..20,
        index_seed in any::<u64>(),
    ) {
        let ndims = components.len();
        let coord = Coord::new(components);
        let curves: [Box<dyn Curve>; 3] = [
            Box::new(ZOrderCurve::with_bits(ndims, 4)),
            Box::new(HilbertCurve::with_bits(ndims, 4)),
            Box::new(RowMajorCurve::with_bits(ndims, 4)),
        ];
        for curve in &curves {
            let via_slice = coord.to_unsigned().and_then(|u| curve.index_of(&u));
            let via_coord = curve.index_of_coord(&coord);
            prop_assert_eq!(format!("{via_coord:?}"), format!("{via_slice:?}"), "{}", curve.name());
            if let Ok(index) = via_coord {
                prop_assert_eq!(curve.coord_of_index(index).unwrap(), coord.clone());
            }
            let index = (index_seed as u128) << index_bits;
            let via_slice = curve
                .coords_of(index)
                .map(|u| Coord::new(u.into_iter().map(|c| c as i32).collect()));
            let via_coord = curve.coord_of_index(index);
            prop_assert_eq!(format!("{via_coord:?}"), format!("{via_slice:?}"), "{}", curve.name());
            let wider = Coord::origin(ndims + 1);
            prop_assert!(curve.index_of_coord(&wider).is_err());
        }
    }

    /// A row's indices, stepped or encoded, are the indices of its
    /// cells one by one, on every curve and at every width up to the
    /// full 128-bit index; a row with a cell off the curve (or past
    /// `u32::MAX`) is refused, and a refused row appends nothing.
    #[test]
    fn row_indices_are_the_cells_indices(
        ndims in 1usize..5,
        bits in prop_oneof![1u32..6, Just(31u32), Just(32u32)],
        start_seed in proptest::collection::vec(any::<u32>(), 4),
        len in 0u32..40,
        near_the_end in any::<bool>(),
    ) {
        let max = u32::MAX >> (32 - bits);
        let mut start: Vec<u32> = start_seed[..ndims].iter().map(|&c| c & max).collect();
        if near_the_end {
            start[ndims - 1] = max.saturating_sub(len / 2);
        }
        let curves: [Box<dyn Curve>; 3] = [
            Box::new(ZOrderCurve::with_bits(ndims, bits)),
            Box::new(HilbertCurve::with_bits(ndims, bits)),
            Box::new(RowMajorCurve::with_bits(ndims, bits)),
        ];
        for curve in &curves {
            let one_by_one: Result<Vec<CurveIndex>, _> = (0..len)
                .map(|step| {
                    let mut cell = start.clone();
                    let last = cell[ndims - 1].checked_add(step).ok_or(())?;
                    cell[ndims - 1] = last;
                    curve.index_of(&cell).map_err(drop)
                })
                .collect();
            let mut row = vec![7];
            let got = curve.row_indices(&start, len, &mut row);
            match one_by_one {
                Ok(indices) => {
                    prop_assert!(got.is_ok(), "{}", curve.name());
                    prop_assert_eq!(&row[1..], &indices[..], "{}", curve.name());
                }
                Err(()) => {
                    prop_assert!(got.is_err(), "{}", curve.name());
                    prop_assert_eq!(&row[..], &[7][..], "{}", curve.name());
                }
            }
        }
    }

    /// Hilbert adjacency holds along arbitrary index segments, not just
    /// from zero.
    #[test]
    fn hilbert_segments_are_connected(start in 0u128..4000, len in 1u128..64) {
        let h = HilbertCurve::with_bits(2, 6);
        let end = (start + len).min((1u128 << 12) - 1);
        let mut prev = h.coords_of(start).unwrap();
        for i in start + 1..=end {
            let cur = h.coords_of(i).unwrap();
            let dist: u32 = prev.iter().zip(&cur).map(|(a, b)| a.abs_diff(*b)).sum();
            prop_assert_eq!(dist, 1);
            prev = cur;
        }
    }

    /// collapse_sorted over any sorted index list covers exactly the
    /// input set with maximal runs.
    #[test]
    fn collapse_sorted_is_exact_and_maximal(
        set in proptest::collection::btree_set(0u128..500, 0..64),
    ) {
        let indices: Vec<u128> = set.iter().copied().collect();
        let runs = collapse_sorted(&indices);
        // Coverage.
        let covered: Vec<u128> = runs
            .iter()
            .flat_map(|r| r.start..=r.end)
            .collect();
        prop_assert_eq!(&covered, &indices);
        // Maximality: consecutive runs are separated by a gap.
        for w in runs.windows(2) {
            prop_assert!(w[0].end + 1 < w[1].start);
        }
    }

    /// CurveRun::overlaps is symmetric and consistent with contains.
    #[test]
    fn curve_run_overlap_symmetry(
        a_start in 0u128..100, a_len in 1u128..20,
        b_start in 0u128..100, b_len in 1u128..20,
    ) {
        let a = CurveRun { start: a_start, end: a_start + a_len - 1 };
        let b = CurveRun { start: b_start, end: b_start + b_len - 1 };
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        let any_shared = (a.start..=a.end).any(|i| b.contains(i));
        prop_assert_eq!(a.overlaps(&b), any_shared);
    }
}
