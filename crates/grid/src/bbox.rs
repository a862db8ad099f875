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

    /// Inclusive upper corner. Panics on an empty box.
    pub fn upper_corner(&self) -> Coord {
        assert!(!self.shape.is_empty(), "upper_corner of empty box");
        Coord::new(
            self.corner
                .components()
                .iter()
                .zip(self.shape.extents())
                .map(|(c, e)| c + *e as i32 - 1)
                .collect(),
        )
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
        assert!(parts > 0);
        if parts == 1 || self.shape.is_empty() {
            return vec![self.clone()];
        }
        let (dim, &extent) = self
            .shape
            .extents()
            .iter()
            .enumerate()
            .max_by_key(|(_, e)| **e)
            .expect("non-empty shape");
        let parts = parts.min(extent as usize).max(1);
        let mut out = Vec::with_capacity(parts);
        let base = extent / parts as u32;
        let rem = extent % parts as u32;
        let mut start = self.corner[dim];
        for p in 0..parts {
            let len = base + if (p as u32) < rem { 1 } else { 0 };
            let mut corner = self.corner.clone();
            corner[dim] = start;
            let mut ext = self.shape.extents().to_vec();
            ext[dim] = len;
            out.push(BoundingBox {
                corner,
                shape: Shape::new(ext),
            });
            start += len as i32;
        }
        out
    }

    /// The first cell of every row — a run of cells along the last
    /// dimension — in row-major order. Bulk readers take one contiguous
    /// slice of a variable's data per row instead of looking cells up
    /// one at a time.
    pub fn row_starts(&self) -> Odometer<'_> {
        self.odometer(self.ndims().saturating_sub(1))
    }

    /// Iterate the cells of the box in row-major order.
    pub fn cells(&self) -> Odometer<'_> {
        self.odometer(self.ndims())
    }

    fn odometer(&self, dims: usize) -> Odometer<'_> {
        Odometer {
            bounds: self,
            dims,
            next: (!self.shape.is_empty()).then(|| self.corner.clone()),
        }
    }
}

/// Row-major walk over the first `dims` dimensions of a box, the
/// remaining ones held at the corner: [`BoundingBox::cells`] walks all of
/// them, [`BoundingBox::row_starts`] all but the last.
#[derive(Debug, Clone)]
pub struct Odometer<'a> {
    bounds: &'a BoundingBox,
    dims: usize,
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
        for d in (0..self.dims).rev() {
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
        assert_eq!(b.upper_corner().components(), &[10, 10]);
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
