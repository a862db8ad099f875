//! Grid coordinates.
//!
//! A [`Coord`] is a point in an n-dimensional integer grid. The paper's
//! intermediate keys are exactly these coordinates (plus a variable
//! identifier), which is why they dominate intermediate-data volume.

use crate::error::GridError;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, Index, IndexMut, Sub};

/// Dimensions a [`Coord`] holds without touching the allocator. The
/// paper's grids are 2-D to 4-D; anything wider spills to the heap.
pub const INLINE_DIMS: usize = 4;

/// Component storage. Coordinates of up to [`INLINE_DIMS`] dimensions
/// are always `Inline`, so building, cloning, adding and dropping one
/// costs no allocation. `Box<[i32]>` rather than `Vec<i32>` keeps the
/// whole coordinate at 24 bytes, the size of the `Vec` it replaced.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [i32; INLINE_DIMS] },
    Heap(Box<[i32]>),
}

/// A point in an n-dimensional integer grid.
///
/// Coordinates are signed because windowed queries (e.g. the paper's
/// sliding 3×3 median, §IV-C) legitimately produce out-of-range keys such
/// as `(-1, -1)` at grid edges.
///
/// Equality, ordering and hashing are those of the component slice:
/// lexicographic, a strict prefix sorting first.
#[derive(Clone)]
pub struct Coord(Repr);

impl Coord {
    /// Create a coordinate from its components.
    pub fn new(components: Vec<i32>) -> Self {
        if components.len() <= INLINE_DIMS {
            Coord::from(components.as_slice())
        } else {
            Coord(Repr::Heap(components.into_boxed_slice()))
        }
    }

    /// The origin (all zeros) in `ndims` dimensions.
    #[inline]
    pub fn origin(ndims: usize) -> Self {
        if ndims <= INLINE_DIMS {
            Coord(Repr::Inline {
                len: ndims as u8,
                buf: [0; INLINE_DIMS],
            })
        } else {
            Coord(Repr::Heap(vec![0; ndims].into_boxed_slice()))
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndims(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(b) => b.len(),
        }
    }

    /// Component slice.
    #[inline]
    pub fn components(&self) -> &[i32] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(b) => b,
        }
    }

    /// Mutable component slice.
    #[inline]
    pub(crate) fn components_mut(&mut self) -> &mut [i32] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(b) => b,
        }
    }

    /// A coordinate of the same dimensionality with `f` applied to every
    /// component.
    fn map(&self, f: impl Fn(i32) -> i32) -> Coord {
        let mut out = self.clone();
        for c in out.components_mut() {
            *c = f(*c);
        }
        out
    }

    /// A coordinate with `f` applied to every pair of components. The
    /// caller has checked that the dimensions agree.
    #[inline]
    fn zip_with(&self, other: &Coord, f: impl Fn(i32, i32) -> i32) -> Coord {
        let mut out = self.clone();
        for (a, b) in out.components_mut().iter_mut().zip(other.components()) {
            *a = f(*a, *b);
        }
        out
    }

    /// Checked element-wise addition; errors on dimension mismatch.
    #[inline]
    pub fn checked_add(&self, other: &Coord) -> Result<Coord, GridError> {
        if self.ndims() != other.ndims() {
            return Err(GridError::DimensionMismatch {
                expected: self.ndims(),
                actual: other.ndims(),
            });
        }
        Ok(self.zip_with(other, i32::wrapping_add))
    }

    /// Offset by a delta applied to every component.
    pub fn offset_all(&self, delta: i32) -> Coord {
        self.map(|c| c.wrapping_add(delta))
    }

    /// Element-wise minimum of two coordinates.
    pub fn elementwise_min(&self, other: &Coord) -> Coord {
        debug_assert_eq!(self.ndims(), other.ndims());
        self.zip_with(other, i32::min)
    }

    /// Element-wise maximum of two coordinates.
    pub fn elementwise_max(&self, other: &Coord) -> Coord {
        debug_assert_eq!(self.ndims(), other.ndims());
        self.zip_with(other, i32::max)
    }

    /// Convert to unsigned components, failing if any is negative.
    pub fn to_unsigned(&self) -> Result<Vec<u32>, GridError> {
        let mut out = vec![0; self.ndims()];
        self.to_unsigned_into(&mut out)?;
        Ok(out)
    }

    /// [`Coord::to_unsigned`] into a caller-provided buffer of one slot
    /// per dimension.
    pub fn to_unsigned_into(&self, out: &mut [u32]) -> Result<(), GridError> {
        assert_eq!(out.len(), self.ndims(), "one slot per dimension");
        for (slot, &c) in out.iter_mut().zip(self.components()) {
            *slot = u32::try_from(c).map_err(|_| GridError::OutOfBounds {
                coord: self.components().to_vec(),
                context: "to_unsigned".into(),
            })?;
        }
        Ok(())
    }
}

impl PartialEq for Coord {
    #[inline]
    fn eq(&self, other: &Coord) -> bool {
        self.components() == other.components()
    }
}

impl Eq for Coord {}

impl PartialOrd for Coord {
    fn partial_cmp(&self, other: &Coord) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Coord {
    fn cmp(&self, other: &Coord) -> Ordering {
        self.components().cmp(other.components())
    }
}

impl Hash for Coord {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.components().hash(state);
    }
}

impl fmt::Debug for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Coord").field(&self.components()).finish()
    }
}

impl Index<usize> for Coord {
    type Output = i32;
    #[inline]
    fn index(&self, i: usize) -> &i32 {
        &self.components()[i]
    }
}

impl IndexMut<usize> for Coord {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut i32 {
        &mut self.components_mut()[i]
    }
}

impl Add for &Coord {
    type Output = Coord;
    #[inline]
    fn add(self, other: &Coord) -> Coord {
        self.checked_add(other).expect("dimension mismatch in +")
    }
}

impl Sub for &Coord {
    type Output = Coord;
    fn sub(self, other: &Coord) -> Coord {
        assert_eq!(self.ndims(), other.ndims(), "dimension mismatch in -");
        self.zip_with(other, i32::wrapping_sub)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.components().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<i32>> for Coord {
    fn from(v: Vec<i32>) -> Self {
        Coord::new(v)
    }
}

impl From<&[i32]> for Coord {
    fn from(v: &[i32]) -> Self {
        if v.len() <= INLINE_DIMS {
            let mut buf = [0; INLINE_DIMS];
            buf[..v.len()].copy_from_slice(v);
            Coord(Repr::Inline {
                len: v.len() as u8,
                buf,
            })
        } else {
            Coord(Repr::Heap(v.into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_sub_are_elementwise() {
        let a = Coord::new(vec![1, 2, 3]);
        let b = Coord::new(vec![10, 20, 30]);
        assert_eq!((&a + &b).components(), &[11, 22, 33]);
        assert_eq!((&b - &a).components(), &[9, 18, 27]);
    }

    #[test]
    fn checked_add_rejects_dimension_mismatch() {
        let a = Coord::new(vec![1, 2]);
        let b = Coord::new(vec![1, 2, 3]);
        assert!(matches!(
            a.checked_add(&b),
            Err(GridError::DimensionMismatch {
                expected: 2,
                actual: 3
            })
        ));
    }

    #[test]
    fn min_max_are_elementwise() {
        let a = Coord::new(vec![1, 20, 3]);
        let b = Coord::new(vec![10, 2, 30]);
        assert_eq!(a.elementwise_min(&b).components(), &[1, 2, 3]);
        assert_eq!(a.elementwise_max(&b).components(), &[10, 20, 30]);
    }

    #[test]
    fn to_unsigned_rejects_negative_components() {
        assert!(Coord::new(vec![0, 5]).to_unsigned().is_ok());
        assert!(Coord::new(vec![-1, 5]).to_unsigned().is_err());
    }

    #[test]
    fn display_is_tuple_like() {
        assert_eq!(Coord::new(vec![3, -1, 2]).to_string(), "(3, -1, 2)");
    }

    #[test]
    fn wide_coordinates_spill_to_the_heap_and_small_ones_stay_small() {
        let wide: Vec<i32> = (0..INLINE_DIMS as i32 + 3).collect();
        let c = Coord::new(wide.clone());
        assert_eq!(c.components(), wide.as_slice());
        assert_eq!(c.offset_all(1)[INLINE_DIMS + 2], wide[INLINE_DIMS + 2] + 1);
        assert_eq!(Coord::origin(wide.len()).ndims(), wide.len());
        // No bigger than the `Vec<i32>` it replaced: result maps keyed by
        // coordinate keep their footprint and lose the heap block.
        assert!(std::mem::size_of::<Coord>() <= std::mem::size_of::<Vec<i32>>());
    }

    #[test]
    fn offset_all_shifts_every_component() {
        assert_eq!(Coord::new(vec![0, 9]).offset_all(-1).components(), &[-1, 8]);
    }

    #[test]
    fn ordering_is_lexicographic() {
        // Sorting coordinates lexicographically is exactly the row-major
        // key order Hadoop's default comparator produces for packed keys.
        let mut v = vec![
            Coord::new(vec![1, 0]),
            Coord::new(vec![0, 9]),
            Coord::new(vec![0, 1]),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Coord::new(vec![0, 1]),
                Coord::new(vec![0, 9]),
                Coord::new(vec![1, 0]),
            ]
        );
    }
}
