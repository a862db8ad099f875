//! Z-order (Morton) curve: bit interleaving.
//!
//! The paper's choice (§IV-A): "Currently, a Z-order curve is used due to
//! speed and ease of implementation." The index of a point is formed by
//! interleaving the bits of its coordinates, most significant first, with
//! dimension 0 occupying the most significant position of each group.

use crate::curve::{check_coords, check_index, Curve, CurveIndex};
use scihadoop_grid::GridError;

/// n-dimensional Z-order (Morton) curve.
#[derive(Debug, Clone)]
pub struct ZOrderCurve {
    ndims: usize,
    bits: u32,
}

impl ZOrderCurve {
    /// A Z-order curve over `ndims` dimensions with full 32-bit
    /// coordinates (as the paper uses: "the mapping is from n 32-bit
    /// integers to a single 32n-bit integer").
    pub fn new(ndims: usize) -> Self {
        Self::with_bits(ndims, 32)
    }

    /// A Z-order curve with reduced per-dimension resolution; useful when
    /// the grid is small and shorter indices are desirable.
    pub fn with_bits(ndims: usize, bits: u32) -> Self {
        assert!(ndims >= 1, "need at least one dimension");
        assert!((1..=32).contains(&bits), "bits per dim must be 1..=32");
        assert!(
            ndims as u32 * bits <= 128,
            "total index width exceeds 128 bits"
        );
        ZOrderCurve { ndims, bits }
    }

    /// Interleave the low `bits` bits of each coordinate.
    pub(crate) fn interleave(coords: &[u32], bits: u32) -> CurveIndex {
        let mut index: CurveIndex = 0;
        for bit in (0..bits).rev() {
            for &c in coords {
                index = (index << 1) | (((c >> bit) & 1) as CurveIndex);
            }
        }
        index
    }

    /// Inverse of [`ZOrderCurve::interleave`], one slot of `coords` per
    /// dimension.
    pub(crate) fn deinterleave(index: CurveIndex, coords: &mut [u32], bits: u32) {
        coords.fill(0);
        let mut idx = index;
        for bit in 0..bits {
            for c in coords.iter_mut().rev() {
                *c |= ((idx & 1) as u32) << bit;
                idx >>= 1;
            }
        }
    }
}

impl Curve for ZOrderCurve {
    fn ndims(&self) -> usize {
        self.ndims
    }

    fn bits_per_dim(&self) -> u32 {
        self.bits
    }

    fn name(&self) -> &'static str {
        "z-order"
    }

    fn index_of(&self, coords: &[u32]) -> Result<CurveIndex, GridError> {
        check_coords(coords, self.ndims, self.bits)?;
        Ok(Self::interleave(coords, self.bits))
    }

    fn coords_into(&self, index: CurveIndex, out: &mut [u32]) -> Result<(), GridError> {
        check_index(index, self.ndims, self.bits)?;
        assert_eq!(out.len(), self.ndims, "one slot per dimension");
        Self::deinterleave(index, out, self.bits);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_dim_interleave_matches_hand_computation() {
        let z = ZOrderCurve::with_bits(2, 4);
        // (x=0b10, y=0b11): interleaved MSB-first x,y -> 0b1101 = 13.
        assert_eq!(z.index_of(&[0b10, 0b11]).unwrap(), 0b1101);
        // Unit square walk: (0,0)=0 (0,1)=1 (1,0)=2 (1,1)=3.
        assert_eq!(z.index_of(&[0, 0]).unwrap(), 0);
        assert_eq!(z.index_of(&[0, 1]).unwrap(), 1);
        assert_eq!(z.index_of(&[1, 0]).unwrap(), 2);
        assert_eq!(z.index_of(&[1, 1]).unwrap(), 3);
    }

    #[test]
    fn fig6_numbering_of_paper() {
        // Paper Fig. 6 numbers a 4x4 grid with a Z-order curve; cell
        // indices 6-7, 9-10, 13 form the shaded region. Verify the curve
        // produces the canonical 4x4 Z numbering.
        let z = ZOrderCurve::with_bits(2, 2);
        // Canonical Z-order on 4x4 with (row, col):
        assert_eq!(z.index_of(&[1, 1]).unwrap(), 3);
        assert_eq!(z.index_of(&[3, 3]).unwrap(), 15);
        assert_eq!(z.index_of(&[0, 2]).unwrap(), 4);
        assert_eq!(z.index_of(&[2, 0]).unwrap(), 8);
    }

    #[test]
    fn roundtrip_exhaustive_small() {
        for ndims in 1..=4 {
            let z = ZOrderCurve::with_bits(ndims, 3);
            let side = 1u32 << 3;
            let cells = (side as u128).pow(ndims as u32);
            for idx in 0..cells {
                let c = z.coords_of(idx).unwrap();
                assert_eq!(z.index_of(&c).unwrap(), idx);
            }
        }
    }

    #[test]
    fn full_32bit_coords_roundtrip() {
        let z = ZOrderCurve::new(4);
        let coords = [u32::MAX, 0, 0xDEAD_BEEF, 0x1234_5678];
        let idx = z.index_of(&coords).unwrap();
        assert_eq!(z.coords_of(idx).unwrap(), coords);
    }

    #[test]
    fn rejects_out_of_range() {
        let z = ZOrderCurve::with_bits(2, 4);
        assert!(z.index_of(&[16, 0]).is_err());
        assert!(z.index_of(&[0]).is_err());
        assert!(z.coords_of(256).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds 128 bits")]
    fn too_many_total_bits_panics() {
        let _ = ZOrderCurve::with_bits(5, 32);
    }

    #[test]
    fn locality_within_aligned_quadrants() {
        // All cells of an aligned 2^k-cube occupy one contiguous index
        // range — the property aggregation exploits.
        let z = ZOrderCurve::with_bits(2, 4);
        let mut indices: Vec<_> = (4..8)
            .flat_map(|x| (4..8).map(move |y| (x, y)))
            .map(|(x, y)| z.index_of(&[x, y]).unwrap())
            .collect();
        indices.sort_unstable();
        for w in indices.windows(2) {
            assert_eq!(w[1], w[0] + 1, "aligned quadrant must be contiguous");
        }
    }
}
