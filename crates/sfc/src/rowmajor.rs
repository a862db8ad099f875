//! Row-major "curve": the trivial linearization baseline.
//!
//! Row-major order is what a naive mapper already walks, so it aggregates
//! perfectly along the fastest-varying dimension but fragments the moment
//! a query touches a multi-row region. It is the natural baseline for the
//! curve ablation bench.

use crate::curve::{check_coords, check_index, row_ends, Curve, CurveIndex};
use scihadoop_grid::GridError;

/// Row-major linearization over a fixed power-of-two virtual extent.
///
/// Like the other curves it operates on a `2^bits`-sided virtual grid so
/// indices are comparable across curves.
#[derive(Debug, Clone)]
pub struct RowMajorCurve {
    ndims: usize,
    bits: u32,
}

impl RowMajorCurve {
    /// Row-major order over `ndims` dimensions of 32-bit coordinates.
    pub fn new(ndims: usize) -> Self {
        Self::with_bits(ndims, 32)
    }

    /// Row-major order with reduced per-dimension resolution.
    pub fn with_bits(ndims: usize, bits: u32) -> Self {
        assert!(ndims >= 1, "need at least one dimension");
        assert!((1..=32).contains(&bits), "bits per dim must be 1..=32");
        assert!(
            ndims as u32 * bits <= 128,
            "total index width exceeds 128 bits"
        );
        RowMajorCurve { ndims, bits }
    }
}

impl Curve for RowMajorCurve {
    fn ndims(&self) -> usize {
        self.ndims
    }

    fn bits_per_dim(&self) -> u32 {
        self.bits
    }

    fn name(&self) -> &'static str {
        "row-major"
    }

    fn index_of(&self, coords: &[u32]) -> Result<CurveIndex, GridError> {
        check_coords(coords, self.ndims, self.bits)?;
        let mut index: CurveIndex = 0;
        for &c in coords {
            index = (index << self.bits) | c as CurveIndex;
        }
        Ok(index)
    }

    /// The last dimension is the index's lowest bits: a row is a run of
    /// consecutive indices.
    fn row_indices(
        &self,
        start: &[u32],
        len: u32,
        out: &mut Vec<CurveIndex>,
    ) -> Result<(), GridError> {
        if let Some((first, last)) = row_ends(self, start, len)? {
            out.extend(first..=last);
        }
        Ok(())
    }

    fn coords_into(&self, index: CurveIndex, out: &mut [u32]) -> Result<(), GridError> {
        check_index(index, self.ndims, self.bits)?;
        assert_eq!(out.len(), self.ndims, "one slot per dimension");
        let mask: CurveIndex = if self.bits >= 32 {
            u32::MAX as CurveIndex
        } else {
            (1 << self.bits) - 1
        };
        let mut idx = index;
        for c in out.iter_mut().rev() {
            *c = (idx & mask) as u32;
            idx >>= self.bits;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_row_major() {
        let r = RowMajorCurve::with_bits(2, 4);
        assert_eq!(r.index_of(&[0, 0]).unwrap(), 0);
        assert_eq!(r.index_of(&[0, 1]).unwrap(), 1);
        assert_eq!(r.index_of(&[1, 0]).unwrap(), 16);
        assert_eq!(r.index_of(&[2, 3]).unwrap(), 35);
    }

    #[test]
    fn roundtrip_exhaustive_small() {
        let r = RowMajorCurve::with_bits(3, 2);
        for idx in 0..64u128 {
            let c = r.coords_of(idx).unwrap();
            assert_eq!(r.index_of(&c).unwrap(), idx);
        }
    }

    #[test]
    fn full_width_roundtrip() {
        let r = RowMajorCurve::new(4);
        let coords = [u32::MAX, 1, 0, 0xABCD_EF01];
        let idx = r.index_of(&coords).unwrap();
        assert_eq!(r.coords_of(idx).unwrap(), coords);
    }

    #[test]
    fn rejects_bad_input() {
        let r = RowMajorCurve::with_bits(2, 4);
        assert!(r.index_of(&[16, 0]).is_err());
        assert!(r.index_of(&[0, 0, 0]).is_err());
        assert!(r.coords_of(256).is_err());
    }
}
