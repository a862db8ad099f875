//! n-dimensional Hilbert curve via Skilling's transpose algorithm.
//!
//! Paper §IV-A: "Moon et al. have shown the Hilbert curve to have better
//! clustering properties than the Z-order curve, but the Hilbert curve
//! has more overhead." We implement it so the clustering/CPU trade-off is
//! measurable (`repro curves`).
//!
//! The implementation follows John Skilling, *"Programming the Hilbert
//! curve"*, AIP Conf. Proc. 707 (2004): coordinates are converted to/from
//! a "transpose" form in place, and the Hilbert index is the bit
//! interleave of the transpose.

use crate::curve::{check_coords, check_index, with_scratch, Curve, CurveIndex};
use crate::zorder::ZOrderCurve;
use scihadoop_grid::GridError;

/// n-dimensional Hilbert curve.
#[derive(Debug, Clone)]
pub struct HilbertCurve {
    ndims: usize,
    bits: u32,
    /// Packs the transpose form into an index.
    zorder: ZOrderCurve,
}

impl HilbertCurve {
    /// A Hilbert curve over `ndims` dimensions with 32-bit coordinates.
    pub fn new(ndims: usize) -> Self {
        Self::with_bits(ndims, 32)
    }

    /// A Hilbert curve with reduced per-dimension resolution.
    pub fn with_bits(ndims: usize, bits: u32) -> Self {
        assert!(ndims >= 1, "need at least one dimension");
        assert!((1..=32).contains(&bits), "bits per dim must be 1..=32");
        assert!(
            ndims as u32 * bits <= 128,
            "total index width exceeds 128 bits"
        );
        HilbertCurve {
            ndims,
            bits,
            zorder: ZOrderCurve::with_bits(ndims, bits),
        }
    }

    /// Skilling's `AxestoTranspose`: convert coordinates into the Hilbert
    /// transpose form, in place.
    fn axes_to_transpose(x: &mut [u32], bits: u32) {
        let n = x.len();
        let m = 1u32 << (bits - 1);
        // Inverse undo.
        let mut q = m;
        while q > 1 {
            let p = q - 1;
            for i in 0..n {
                if x[i] & q != 0 {
                    x[0] ^= p; // invert low bits of x[0]
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q >>= 1;
        }
        // Gray encode.
        for i in 1..n {
            x[i] ^= x[i - 1];
        }
        let mut t = 0u32;
        let mut q = m;
        while q > 1 {
            if x[n - 1] & q != 0 {
                t ^= q - 1;
            }
            q >>= 1;
        }
        for xi in x.iter_mut() {
            *xi ^= t;
        }
    }

    /// Skilling's `TransposetoAxes`: inverse of
    /// [`HilbertCurve::axes_to_transpose`].
    fn transpose_to_axes(x: &mut [u32], bits: u32) {
        let n = x.len();
        // Gray decode by H ^ (H/2).
        let mut t = x[n - 1] >> 1;
        for i in (1..n).rev() {
            x[i] ^= x[i - 1];
        }
        x[0] ^= t;
        // Undo excess work. q ranges over powers of two below 2^bits;
        // u64 arithmetic keeps the bits=32 endpoint representable.
        let end: u64 = 1u64 << bits;
        let mut q: u64 = 2;
        while q != end {
            let p = (q - 1) as u32;
            let qb = q as u32;
            for i in (0..n).rev() {
                if x[i] & qb != 0 {
                    x[0] ^= p;
                } else {
                    t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q <<= 1;
        }
    }

    /// Pack the transpose form into a single index: interleave the bits of
    /// the transpose, dimension 0 most significant.
    fn pack(&self, transpose: &[u32]) -> CurveIndex {
        self.zorder.interleave(transpose.iter().copied())
    }

    /// Inverse of [`HilbertCurve::pack`].
    fn unpack(&self, index: CurveIndex, transpose: &mut [u32]) {
        self.zorder.deinterleave(index, |d, c| transpose[d] = c)
    }
}

impl Curve for HilbertCurve {
    fn ndims(&self) -> usize {
        self.ndims
    }

    fn bits_per_dim(&self) -> u32 {
        self.bits
    }

    fn name(&self) -> &'static str {
        "hilbert"
    }

    fn index_of(&self, coords: &[u32]) -> Result<CurveIndex, GridError> {
        check_coords(coords, self.ndims, self.bits)?;
        if self.ndims == 1 {
            return Ok(coords[0] as CurveIndex);
        }
        Ok(with_scratch(self.ndims, |x| {
            x.copy_from_slice(coords);
            Self::axes_to_transpose(x, self.bits);
            self.pack(x)
        }))
    }

    fn coords_into(&self, index: CurveIndex, out: &mut [u32]) -> Result<(), GridError> {
        check_index(index, self.ndims, self.bits)?;
        assert_eq!(out.len(), self.ndims, "one slot per dimension");
        if self.ndims == 1 {
            out[0] = index as u32;
            return Ok(());
        }
        self.unpack(index, out);
        Self::transpose_to_axes(out, self.bits);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bit_2d_curve_is_the_classic_u() {
        // The order-2, 2-D Hilbert curve visits the canonical sequence.
        let h = HilbertCurve::with_bits(2, 2);
        let visited: Vec<Vec<u32>> = (0..16).map(|i| h.coords_of(i).unwrap()).collect();
        // Start and end at opposite bottom corners (standard orientation).
        assert_eq!(visited[0], vec![0, 0]);
        assert_eq!(visited[15], vec![3, 0]);
        // Every cell visited exactly once.
        let mut sorted = visited.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);
    }

    #[test]
    fn consecutive_indices_are_grid_neighbours() {
        // The defining property of the Hilbert curve: successive points
        // differ by exactly 1 in exactly one coordinate.
        for ndims in 2..=3 {
            let h = HilbertCurve::with_bits(ndims, 3);
            let side = 1u32 << 3;
            let total = (side as u128).pow(ndims as u32);
            let mut prev = h.coords_of(0).unwrap();
            for i in 1..total {
                let cur = h.coords_of(i).unwrap();
                let dist: u32 = prev.iter().zip(&cur).map(|(a, b)| a.abs_diff(*b)).sum();
                assert_eq!(dist, 1, "index {i}: {prev:?} -> {cur:?}");
                prev = cur;
            }
        }
    }

    #[test]
    fn roundtrip_exhaustive_small() {
        for ndims in 1..=4 {
            let h = HilbertCurve::with_bits(ndims, 2);
            let total = 1u128 << (2 * ndims as u32);
            for idx in 0..total {
                let c = h.coords_of(idx).unwrap();
                assert_eq!(h.index_of(&c).unwrap(), idx, "ndims={ndims} idx={idx}");
            }
        }
    }

    #[test]
    fn full_width_roundtrip() {
        let h = HilbertCurve::new(3);
        for coords in [
            [0u32, 0, 0],
            [u32::MAX, 0, 1],
            [0xDEAD_BEEF, 0xCAFE_F00D, 7],
        ] {
            let idx = h.index_of(&coords).unwrap();
            assert_eq!(h.coords_of(idx).unwrap(), coords);
        }
    }

    #[test]
    fn rejects_bad_input() {
        let h = HilbertCurve::with_bits(2, 4);
        assert!(h.index_of(&[16, 0]).is_err());
        assert!(h.index_of(&[1]).is_err());
        assert!(h.coords_of(1 << 9).is_err());
    }
}
