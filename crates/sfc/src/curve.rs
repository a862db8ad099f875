//! The curve abstraction shared by all space-filling curves.

use scihadoop_grid::{Coord, GridError, INLINE_DIMS};

/// A position on a space-filling curve.
///
/// 128 bits accommodate up to 4 dimensions of 32-bit coordinates (the
/// paper's keys are `n` 32-bit integers mapped to "a single 32n-bit
/// integer", §IV-A).
pub type CurveIndex = u128;

/// A bijection between n-dimensional non-negative grid coordinates and a
/// one-dimensional curve index.
pub trait Curve: Send + Sync {
    /// Number of dimensions this curve instance is configured for.
    fn ndims(&self) -> usize;

    /// Bits of resolution per dimension.
    fn bits_per_dim(&self) -> u32;

    /// Human-readable curve name (for reports and benches).
    fn name(&self) -> &'static str;

    /// Map unsigned coordinates to a curve index.
    ///
    /// Every coordinate must fit in [`Curve::bits_per_dim`] bits.
    fn index_of(&self, coords: &[u32]) -> Result<CurveIndex, GridError>;

    /// Inverse of [`Curve::index_of`], written into `out`, which has one
    /// slot per dimension.
    fn coords_into(&self, index: CurveIndex, out: &mut [u32]) -> Result<(), GridError>;

    /// Inverse of [`Curve::index_of`].
    fn coords_of(&self, index: CurveIndex) -> Result<Vec<u32>, GridError> {
        let mut coords = vec![0; self.ndims()];
        self.coords_into(index, &mut coords)?;
        Ok(coords)
    }

    /// Append to `out` the indices of a row of `len` cells: the cell at
    /// `start` and those after it along the last dimension, the inner
    /// loop of a row-major walk. Every cell must be on the curve. A curve
    /// that steps an index from one cell to the next overrides this
    /// default, which encodes each cell.
    fn row_indices(
        &self,
        start: &[u32],
        len: u32,
        out: &mut Vec<CurveIndex>,
    ) -> Result<(), GridError> {
        let Some((first, _)) = row_ends(self, start, len)? else {
            return Ok(());
        };
        out.push(first);
        with_scratch(start.len(), |at| {
            at.copy_from_slice(start);
            for _ in 1..len {
                *at.last_mut().expect("a row has a last dimension") += 1;
                out.push(self.index_of(at)?);
            }
            Ok(())
        })
    }

    /// Map a signed grid coordinate (must be non-negative) to an index.
    fn index_of_coord(&self, coord: &Coord) -> Result<CurveIndex, GridError> {
        index_of_coord_checked(self, coord)
    }

    /// Inverse of [`Curve::index_of_coord`].
    fn coord_of_index(&self, index: CurveIndex) -> Result<Coord, GridError> {
        with_scratch(self.ndims(), |coords| {
            self.coords_into(index, coords)?;
            let mut coord = Coord::origin(coords.len());
            for (d, &c) in coords.iter().enumerate() {
                coord[d] = c as i32;
            }
            Ok(coord)
        })
    }
}

/// [`Curve::index_of_coord`] through [`Curve::index_of`]: the coordinate
/// is checked for arity and sign, converted, and checked again against
/// the curve's bits. A curve with a faster path falls back to this one
/// to name the error.
pub(crate) fn index_of_coord_checked<C: Curve + ?Sized>(
    curve: &C,
    coord: &Coord,
) -> Result<CurveIndex, GridError> {
    if coord.ndims() != curve.ndims() {
        return Err(GridError::DimensionMismatch {
            expected: curve.ndims(),
            actual: coord.ndims(),
        });
    }
    with_scratch(curve.ndims(), |unsigned| {
        coord.to_unsigned_into(unsigned)?;
        curve.index_of(unsigned)
    })
}

/// The indices of the first and last cells of the row
/// [`Curve::row_indices`] is asked for, `None` for an empty row. Encoding
/// both ends checks the whole row: its cells differ from the ends only in
/// the last coordinate, which lies between theirs.
pub(crate) fn row_ends<C: Curve + ?Sized>(
    curve: &C,
    start: &[u32],
    len: u32,
) -> Result<Option<(CurveIndex, CurveIndex)>, GridError> {
    if len == 0 {
        return Ok(None);
    }
    let first = curve.index_of(start)?;
    with_scratch(start.len(), |end| {
        end.copy_from_slice(start);
        let last = end
            .last_mut()
            .expect("a coordinate on the curve has a dimension");
        *last = last
            .checked_add(len - 1)
            .ok_or_else(|| GridError::OutOfBounds {
                coord: start.iter().map(|&c| c as i32).collect(),
                context: format!("a row of {len} cells"),
            })?;
        Ok(Some((first, curve.index_of(end)?)))
    })
}

/// Run `f` over `ndims` zeroed components: on the stack for as many
/// dimensions as a [`Coord`] holds inline, on the heap beyond, so the
/// per-cell curve calls of the paper's 2-D to 4-D grids never allocate.
pub(crate) fn with_scratch<R>(ndims: usize, f: impl FnOnce(&mut [u32]) -> R) -> R {
    if ndims <= INLINE_DIMS {
        f(&mut [0; INLINE_DIMS][..ndims])
    } else {
        f(&mut vec![0; ndims])
    }
}

/// Order-preserving 48-bit compression of a curve index: indices below
/// 2⁴⁸ map to themselves, larger ones clamp to 2⁴⁸ − 1. Monotone
/// non-decreasing over the whole `u128` range, so it can seed a sort
/// prefix (the high word of `KeySemantics::sort_prefix_wide` in the
/// engine) whose low 48 bits order aggregate keys by curve position — 48 bits cover a full 2-D
/// 32-bit-per-dim curve plus 16 spare, and clamped indices simply fall
/// back to the full comparator on ties.
pub fn index_prefix48(index: CurveIndex) -> u64 {
    const MAX48: u128 = (1 << 48) - 1;
    index.min(MAX48) as u64
}

/// Validate that `coords` has the right arity and each component fits in
/// `bits` bits. Shared by all curve implementations.
pub(crate) fn check_coords(coords: &[u32], ndims: usize, bits: u32) -> Result<(), GridError> {
    if coords.len() != ndims {
        return Err(GridError::DimensionMismatch {
            expected: ndims,
            actual: coords.len(),
        });
    }
    let limit = if bits >= 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    };
    for &c in coords {
        if c > limit {
            return Err(GridError::OutOfBounds {
                coord: coords.iter().map(|&x| x as i32).collect(),
                context: format!("curve with {bits} bits/dim"),
            });
        }
    }
    Ok(())
}

/// Validate that a curve index fits in `ndims * bits` bits.
pub(crate) fn check_index(index: CurveIndex, ndims: usize, bits: u32) -> Result<(), GridError> {
    let total_bits = ndims as u32 * bits;
    if total_bits < 128 && index >> total_bits != 0 {
        return Err(GridError::Deserialize(format!(
            "curve index {index} exceeds {total_bits} bits"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_coords_enforces_arity_and_range() {
        assert!(check_coords(&[1, 2], 2, 8).is_ok());
        assert!(check_coords(&[1], 2, 8).is_err());
        assert!(check_coords(&[256, 0], 2, 8).is_err());
        assert!(check_coords(&[255, 255], 2, 8).is_ok());
        assert!(check_coords(&[u32::MAX], 1, 32).is_ok());
    }

    #[test]
    fn index_prefix48_is_monotone_and_identity_below_clamp() {
        const MAX48: u128 = (1 << 48) - 1;
        assert_eq!(index_prefix48(0), 0);
        assert_eq!(index_prefix48(12345), 12345);
        assert_eq!(index_prefix48(MAX48), MAX48 as u64);
        assert_eq!(index_prefix48(MAX48 + 1), MAX48 as u64);
        assert_eq!(index_prefix48(u128::MAX), MAX48 as u64);
        let probes = [
            0u128,
            1,
            255,
            MAX48 - 1,
            MAX48,
            MAX48 + 1,
            1 << 64,
            u128::MAX - 1,
            u128::MAX,
        ];
        for w in probes.windows(2) {
            assert!(index_prefix48(w[0]) <= index_prefix48(w[1]));
        }
    }

    #[test]
    fn check_index_enforces_total_bits() {
        assert!(check_index(255, 2, 4).is_ok());
        assert!(check_index(256, 2, 4).is_err());
        assert!(check_index(u128::MAX, 4, 32).is_ok());
    }
}
