//! Grid shapes (extents) and row-major linearization.

use crate::coord::Coord;
use crate::error::GridError;
use std::ops::Range;

/// The extent of an n-dimensional grid: the number of cells along each
/// dimension.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<u32>);

impl Shape {
    /// Create a shape from per-dimension extents.
    pub fn new(extents: Vec<u32>) -> Self {
        Shape(extents)
    }

    /// A cube: `n` cells along each of `ndims` dimensions.
    pub fn cube(n: u32, ndims: usize) -> Self {
        Shape(vec![n; ndims])
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.0.len()
    }

    /// Per-dimension extents.
    pub fn extents(&self) -> &[u32] {
        &self.0
    }

    /// Total number of cells (product of extents).
    pub fn num_cells(&self) -> u64 {
        self.0.iter().map(|&e| e as u64).product()
    }

    /// True if any dimension has zero extent.
    pub fn is_empty(&self) -> bool {
        self.0.contains(&0)
    }

    /// Row-major strides: the linear-index step of +1 along each dimension.
    /// The last dimension varies fastest, matching C array layout and the
    /// order NetCDF (and the paper's grid walks) store data in.
    pub fn strides(&self) -> Vec<u64> {
        let mut strides = vec![1u64; self.ndims()];
        for d in (0..self.ndims().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * self.0[d + 1] as u64;
        }
        strides
    }

    /// Row-major linear index of a coordinate within this shape. Horner's
    /// rule over the extents, so no stride vector is allocated.
    pub fn linearize(&self, coord: &Coord) -> Result<u64, GridError> {
        if coord.ndims() != self.ndims() {
            return Err(GridError::DimensionMismatch {
                expected: self.ndims(),
                actual: coord.ndims(),
            });
        }
        let mut idx = 0u64;
        for (&c, &extent) in coord.components().iter().zip(&self.0) {
            if c < 0 || c as u32 >= extent {
                return Err(GridError::OutOfBounds {
                    coord: coord.components().to_vec(),
                    context: format!("shape {:?}", self.0),
                });
            }
            idx = idx * extent as u64 + c as u64;
        }
        Ok(idx)
    }

    /// Inverse of [`Shape::linearize`].
    pub fn delinearize(&self, mut idx: u64) -> Result<Coord, GridError> {
        if idx >= self.num_cells() {
            return Err(GridError::OutOfBounds {
                coord: vec![],
                context: format!("linear index {idx} in shape {:?}", self.0),
            });
        }
        let strides = self.strides();
        let mut comps = vec![0i32; self.ndims()];
        for d in 0..self.ndims() {
            comps[d] = (idx / strides[d]) as i32;
            idx %= strides[d];
        }
        Ok(Coord::new(comps))
    }
}

/// How [`BoundingBox::split_longest`](crate::BoundingBox::split_longest)
/// cuts a box of some shape: along one dimension, into parts of nearly
/// equal length, the longer ones first. Taken from the shape alone, so a
/// builder can walk each part's cells without making its box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LongestCut {
    /// The dimension cut: the longest, the last of several tied.
    pub dim: usize,
    /// Number of parts.
    pub parts: usize,
    extent: u32,
}

impl LongestCut {
    /// Part `p`'s cells along [`LongestCut::dim`], as offsets from the
    /// box's corner.
    pub fn part(&self, p: usize) -> Range<u32> {
        let parts = self.parts as u32;
        let (base, rem) = (self.extent / parts, self.extent % parts);
        let p = p as u32;
        let start = p * base + p.min(rem);
        start..start + base + u32::from(p < rem)
    }
}

impl Shape {
    /// Where [`BoundingBox::split_longest`](crate::BoundingBox::split_longest)
    /// cuts a box of this shape into at most `parts` parts: a part is at
    /// least one cell thick, and a shape with a zero extent is not cut.
    pub fn longest_cut(&self, parts: usize) -> LongestCut {
        assert!(parts > 0);
        let (dim, extent) = self
            .0
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, e)| e)
            .unwrap_or((0, 0));
        let parts = if self.is_empty() {
            1
        } else {
            parts.min(extent as usize).max(1)
        };
        LongestCut { dim, parts, extent }
    }
}

impl From<Vec<u32>> for Shape {
    fn from(v: Vec<u32>) -> Self {
        Shape(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_shape_has_expected_cells() {
        let s = Shape::cube(100, 3);
        assert_eq!(s.num_cells(), 1_000_000);
        assert_eq!(s.ndims(), 3);
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn linearize_roundtrips_with_delinearize() {
        let s = Shape::new(vec![3, 4, 5]);
        for i in 0..s.num_cells() {
            let c = s.delinearize(i).unwrap();
            assert_eq!(s.linearize(&c).unwrap(), i);
        }
    }

    #[test]
    fn linearize_rejects_out_of_bounds() {
        let s = Shape::new(vec![3, 3]);
        assert!(s.linearize(&Coord::new(vec![3, 0])).is_err());
        assert!(s.linearize(&Coord::new(vec![-1, 0])).is_err());
        assert!(s.linearize(&Coord::new(vec![0, 0, 0])).is_err());
        assert!(s.delinearize(9).is_err());
    }

    #[test]
    fn empty_shape_detection() {
        assert!(Shape::new(vec![3, 0]).is_empty());
        assert!(!Shape::new(vec![3, 1]).is_empty());
        assert_eq!(Shape::new(vec![3, 0]).num_cells(), 0);
    }

    #[test]
    fn last_dimension_varies_fastest() {
        let s = Shape::new(vec![2, 3]);
        assert_eq!(s.delinearize(0).unwrap().components(), &[0, 0]);
        assert_eq!(s.delinearize(1).unwrap().components(), &[0, 1]);
        assert_eq!(s.delinearize(3).unwrap().components(), &[1, 0]);
    }
}
