//! Axis-aligned bounding boxes: the `(corner, size)` aggregate description
//! the paper contrasts with per-cell keys (§I: "if values can be stored in
//! order and keys are represented in aggregate as a (corner, size) pair,
//! the overhead is reduced to a constant").

use crate::coord::Coord;
use crate::error::GridError;
use crate::shape::Shape;

/// An axis-aligned box of grid cells, described by its lowest corner and
/// its per-dimension size.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BoundingBox {
    corner: Coord,
    shape: Shape,
}

impl BoundingBox {
    /// Create a box from its lowest corner and shape.
    pub fn new(corner: Coord, shape: Shape) -> Result<Self, GridError> {
        if corner.ndims() != shape.ndims() {
            return Err(GridError::DimensionMismatch {
                expected: corner.ndims(),
                actual: shape.ndims(),
            });
        }
        Ok(BoundingBox { corner, shape })
    }

    /// A box anchored at the origin.
    pub fn at_origin(shape: Shape) -> Self {
        BoundingBox {
            corner: Coord::origin(shape.ndims()),
            shape,
        }
    }

    /// Smallest box containing both inclusive corners `lo` and `hi`.
    pub fn from_corners(lo: &Coord, hi: &Coord) -> Result<Self, GridError> {
        if lo.ndims() != hi.ndims() {
            return Err(GridError::DimensionMismatch {
                expected: lo.ndims(),
                actual: hi.ndims(),
            });
        }
        let min = lo.elementwise_min(hi);
        let max = lo.elementwise_max(hi);
        let shape = Shape::new(
            min.components()
                .iter()
                .zip(max.components())
                .map(|(a, b)| (b - a + 1) as u32)
                .collect(),
        );
        Ok(BoundingBox { corner: min, shape })
    }

    /// The lowest corner.
    pub fn corner(&self) -> &Coord {
        &self.corner
    }

    /// Per-dimension size.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.shape.ndims()
    }

    /// Number of cells in the box.
    pub fn num_cells(&self) -> u64 {
        self.shape.num_cells()
    }

    /// True if the coordinate lies within the box.
    pub fn contains(&self, coord: &Coord) -> bool {
        coord.ndims() == self.ndims()
            && coord
                .components()
                .iter()
                .zip(self.corner.components())
                .zip(self.shape.extents())
                .all(|((c, lo), e)| *c >= *lo && *c < lo + *e as i32)
    }

    /// Grow the box by `margin` cells in every direction (the halo a
    /// sliding-window query writes into, §IV-C).
    pub fn dilate(&self, margin: i32) -> BoundingBox {
        assert!(margin >= 0, "dilate takes a non-negative margin");
        BoundingBox {
            corner: self.corner.offset_all(-margin),
            shape: Shape::new(
                self.shape
                    .extents()
                    .iter()
                    .map(|&e| e + 2 * margin as u32)
                    .collect(),
            ),
        }
    }

    /// Split the box into roughly equal chunks along its longest dimension.
    /// Used to carve input splits for mappers.
    pub fn split_longest(&self, parts: usize) -> Vec<BoundingBox> {
        let cut = self.shape.longest_cut(parts);
        if cut.parts == 1 {
            return vec![self.clone()];
        }
        (0..cut.parts)
            .map(|p| {
                let along = cut.part(p);
                let mut corner = self.corner.clone();
                corner[cut.dim] += along.start as i32;
                let mut ext = self.shape.extents().to_vec();
                ext[cut.dim] = along.len() as u32;
                BoundingBox {
                    corner,
                    shape: Shape::new(ext),
                }
            })
            .collect()
    }

    /// Iterate the cells of the box in row-major order.
    pub fn cells(&self) -> Odometer<'_> {
        Odometer {
            bounds: self,
            next: (!self.shape.is_empty()).then(|| self.corner.clone()),
        }
    }

    /// The row-major walk of the box as big-endian 32-bit integers — the
    /// raw key stream of the paper's Fig. 3, "a raw stream of triples of
    /// 32-bit integers, taken by walking a grid".
    pub fn key_stream_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.num_cells() as usize * 4 * self.ndims());
        for c in self.cells() {
            out.extend(c.components().iter().flat_map(|x| x.to_be_bytes()));
        }
        out
    }
}

/// Row-major walk over the cells of a box ([`BoundingBox::cells`]).
#[derive(Debug, Clone)]
pub struct Odometer<'a> {
    bounds: &'a BoundingBox,
    next: Option<Coord>,
}

impl Iterator for Odometer<'_> {
    type Item = Coord;

    fn next(&mut self) -> Option<Coord> {
        let current = self.next.take()?;
        let corner = self.bounds.corner.components();
        let extents = self.bounds.shape.extents();
        // Step the fastest walked dimension; carry leftwards. Falling off
        // the front leaves `next` empty: the walk is over.
        let mut following = current.clone();
        for d in (0..extents.len()).rev() {
            if following[d] as i64 - corner[d] as i64 + 1 < extents[d] as i64 {
                following[d] += 1;
                self.next = Some(following);
                break;
            }
            following[d] = corner[d];
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bb(corner: Vec<i32>, shape: Vec<u32>) -> BoundingBox {
        BoundingBox::new(Coord::new(corner), Shape::new(shape)).unwrap()
    }

    #[test]
    fn contains_respects_corner_and_shape() {
        let b = bb(vec![2, 3], vec![4, 5]);
        assert!(b.contains(&Coord::new(vec![2, 3])));
        assert!(b.contains(&Coord::new(vec![5, 7])));
        assert!(!b.contains(&Coord::new(vec![6, 7])));
        assert!(!b.contains(&Coord::new(vec![1, 3])));
        assert!(!b.contains(&Coord::new(vec![2, 3, 0])));
    }

    #[test]
    fn dilate_grows_symmetrically() {
        let b = bb(vec![0, 0], vec![10, 10]).dilate(1);
        assert_eq!(b.corner().components(), &[-1, -1]);
        assert_eq!(b.num_cells(), 144);
    }

    #[test]
    fn split_longest_covers_exactly() {
        let b = bb(vec![0, 0], vec![10, 3]);
        let parts = b.split_longest(4);
        assert_eq!(parts.len(), 4);
        let total: u64 = parts.iter().map(|p| p.num_cells()).sum();
        assert_eq!(total, b.num_cells());
        // Parts are disjoint and cover: check by membership counting.
        for c in b.cells() {
            let n = parts.iter().filter(|p| p.contains(&c)).count();
            assert_eq!(n, 1, "cell {c} covered {n} times");
        }
    }

    #[test]
    fn split_more_parts_than_extent_clamps() {
        let b = bb(vec![0], vec![3]);
        let parts = b.split_longest(10);
        assert_eq!(parts.len(), 3);
    }

    #[test]
    fn key_stream_length_matches_fig3_arithmetic() {
        // 100^3 grid walked as triples of 32-bit ints = 12,000,000 bytes.
        // Use 20^3 here to keep the test fast: 8000 * 12 = 96,000.
        let cube = BoundingBox::at_origin(Shape::cube(20, 3));
        assert_eq!(cube.key_stream_be().len(), 96_000);
    }

    #[test]
    fn key_stream_bytes_are_big_endian() {
        // Coordinates 0 then 1.
        let line = BoundingBox::at_origin(Shape::cube(2, 1));
        assert_eq!(line.key_stream_be(), vec![0, 0, 0, 0, 0, 0, 0, 1]);
        let moved = bb(vec![-1, 258], vec![1, 1]);
        assert_eq!(moved.key_stream_be(), vec![255, 255, 255, 255, 0, 0, 1, 2]);
    }

    #[test]
    fn cells_iterates_row_major() {
        let b = bb(vec![1, 1], vec![2, 2]);
        let cells: Vec<_> = b.cells().collect();
        assert_eq!(
            cells,
            vec![
                Coord::new(vec![1, 1]),
                Coord::new(vec![1, 2]),
                Coord::new(vec![2, 1]),
                Coord::new(vec![2, 2]),
            ]
        );
    }

    #[test]
    fn from_corners_normalizes_order() {
        let b =
            BoundingBox::from_corners(&Coord::new(vec![5, 1]), &Coord::new(vec![2, 4])).unwrap();
        assert_eq!(b.corner().components(), &[2, 1]);
        assert_eq!(b.shape().extents(), &[4, 4]);
    }
}
