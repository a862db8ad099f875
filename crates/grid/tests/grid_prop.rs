//! Property tests for the grid substrate.

use proptest::prelude::*;
use scihadoop_grid::writable::{read_vint, write_vint};
use scihadoop_grid::{BoundingBox, Coord, Shape};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn vint_roundtrips_all_i64(v in any::<i64>()) {
        let mut buf = Vec::new();
        write_vint(&mut buf, v);
        prop_assert_eq!(read_vint(&buf).unwrap(), (v, buf.len()));
    }

    #[test]
    fn linearize_is_bijective(
        extents in proptest::collection::vec(1u32..20, 1..4),
        idx_frac in 0.0f64..1.0,
    ) {
        let shape = Shape::new(extents);
        let cells = shape.num_cells();
        let idx = ((cells as f64 - 1.0) * idx_frac) as u64;
        let coord = shape.delinearize(idx).unwrap();
        prop_assert_eq!(shape.linearize(&coord).unwrap(), idx);
    }

    #[test]
    fn coord_behaves_like_its_component_vec(
        a in proptest::collection::vec(-3i32..3, 0..7),
        b in proptest::collection::vec(-3i32..3, 0..7),
        delta in any::<i32>(),
    ) {
        // Lengths 0..=6 straddle the inline capacity; the narrow value
        // range makes equal prefixes and equal coordinates common.
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |v: &dyn Fn(&mut DefaultHasher)| {
            let mut h = DefaultHasher::new();
            v(&mut h);
            h.finish()
        };
        let (ca, cb) = (Coord::new(a.clone()), Coord::from(b.as_slice()));
        prop_assert_eq!(ca.components(), a.as_slice());
        prop_assert_eq!(ca.ndims(), a.len());
        prop_assert_eq!(ca.cmp(&cb), a.cmp(&b));
        prop_assert_eq!(ca == cb, a == b);
        prop_assert_eq!(hash(&|h| ca.hash(h)), hash(&|h| a.hash(h)));
        prop_assert_eq!(&ca.clone(), &ca);
        prop_assert_eq!(format!("{ca:?}"), format!("Coord({a:?})"));

        let shifted: Vec<i32> = a.iter().map(|c| c.wrapping_add(delta)).collect();
        prop_assert_eq!(ca.offset_all(delta).components(), shifted.as_slice());
        if a.len() == b.len() {
            let sum: Vec<i32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            prop_assert_eq!((&ca + &cb).components(), sum.as_slice());
            let diff: Vec<i32> = a.iter().zip(&b).map(|(x, y)| x - y).collect();
            prop_assert_eq!((&ca - &cb).components(), diff.as_slice());
        } else {
            prop_assert!(ca.checked_add(&cb).is_err());
        }
        let mut bumped = ca.clone();
        for (d, expected) in a.iter().enumerate() {
            prop_assert_eq!(bumped[d], *expected);
            bumped[d] += 1;
        }
        prop_assert_eq!(bumped, ca.offset_all(1));
    }

    #[test]
    fn cells_walk_the_box_in_linear_order(
        corner in proptest::collection::vec(-5i32..5, 1..5),
        extent in 1u32..5,
    ) {
        let shape = Shape::cube(extent, corner.len());
        let b = BoundingBox::new(Coord::new(corner.clone()), shape.clone()).unwrap();
        let origin = Coord::new(corner);
        let cells: Vec<Coord> = b.cells().collect();
        prop_assert_eq!(cells.len() as u64, b.num_cells());
        for (i, cell) in cells.iter().enumerate() {
            prop_assert_eq!(shape.linearize(&(cell - &origin)).unwrap(), i as u64);
        }
    }

    #[test]
    fn split_longest_partitions_exactly(
        extents in proptest::collection::vec(1u32..12, 1..4),
        parts in 1usize..8,
    ) {
        let b = BoundingBox::at_origin(Shape::new(extents));
        let pieces = b.split_longest(parts);
        let total: u64 = pieces.iter().map(|p| p.num_cells()).sum();
        prop_assert_eq!(total, b.num_cells());
        for cell in b.cells() {
            let n = pieces.iter().filter(|p| p.contains(&cell)).count();
            prop_assert_eq!(n, 1);
        }
    }
}
