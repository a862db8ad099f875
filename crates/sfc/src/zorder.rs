//! Z-order (Morton) curve: bit interleaving.
//!
//! The paper's choice (§IV-A): "Currently, a Z-order curve is used due to
//! speed and ease of implementation." The index of a point is formed by
//! interleaving the bits of its coordinates, most significant first, with
//! dimension 0 occupying the most significant position of each group: in
//! `n` dimensions, bit `b` of coordinate `d` is index bit
//! `b·n + (n − 1 − d)`.
//!
//! A coordinate is spread into that layout, and compacted back out of it,
//! by magic masks: each step moves the upper half of every group of bits
//! still to be separated in one shift, OR and AND, so a `bits`-bit
//! coordinate takes ⌈log₂ bits⌉ steps rather than one step per bit. The
//! steps run on 64-bit words: a coordinate is spread in pieces of as many
//! bits as fit one word once spread (all of them in 2-D), and the pieces
//! are placed in the 128-bit index. The masks depend only on `n` and
//! `bits` and are made with the curve; one code path serves every shape
//! whose index fits 128 bits.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::curve::{
    check_coords, check_index, index_of_coord_checked, row_ends, Curve, CurveIndex,
};
use scihadoop_grid::{Coord, GridError};

/// Steps for the widest piece, 32 bits: groups of 16, 8, 4, 2, 1.
const MAX_STEPS: usize = 5;

/// n-dimensional Z-order (Morton) curve.
#[derive(Debug, Clone)]
pub struct ZOrderCurve {
    ndims: usize,
    bits: u32,
    /// Coordinate bits spread at a time: as many as fit 64 bits once
    /// spread.
    piece_bits: u32,
    /// Pieces per coordinate.
    pieces: u32,
    /// Spread steps per piece: ⌈log₂ piece_bits⌉.
    steps: usize,
    /// `layouts[k]` holds a piece's bits once they are separated down to
    /// groups of `2^k`: bit `b` at `(b − b mod 2^k)·n + b mod 2^k`.
    /// `layouts[0]` is the fully spread piece, `layouts[steps]` its low
    /// `piece_bits` bits.
    layouts: [u64; MAX_STEPS + 1],
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
        let n = ndims as u32;
        let piece_bits = bits.min((u64::BITS / n).max(1));
        let steps = (u32::BITS - (piece_bits - 1).leading_zeros()) as usize;
        let mut layouts = [0; MAX_STEPS + 1];
        for (k, layout) in layouts.iter_mut().enumerate().take(steps + 1) {
            let group = 1 << k;
            for b in 0..piece_bits {
                *layout |= 1 << ((b - b % group) * n + b % group);
            }
        }
        ZOrderCurve {
            ndims,
            bits,
            piece_bits,
            pieces: bits.div_ceil(piece_bits),
            steps,
            layouts,
        }
    }

    /// The largest coordinate the curve takes.
    fn max_coord(&self) -> u32 {
        u32::MAX >> (32 - self.bits)
    }

    /// Index bits between one piece of a coordinate and the next.
    fn piece_stride(&self) -> u32 {
        self.piece_bits * self.ndims as u32
    }

    /// `c` with bit `b` moved to bit `b·n`.
    #[inline]
    fn spread(&self, c: u32) -> CurveIndex {
        let gap = self.ndims as u32 - 1;
        (0..self.pieces).fold(0, |index, j| {
            let mut x = (c >> (j * self.piece_bits)) as u64 & self.layouts[self.steps];
            for k in (0..self.steps).rev() {
                x = (x | x << (gap << k)) & self.layouts[k];
            }
            index | ((x as CurveIndex) << (j * self.piece_stride()))
        })
    }

    /// Inverse of [`ZOrderCurve::spread`]; bits of `index` at no
    /// position `b·n` are ignored.
    #[inline]
    fn compact(&self, index: CurveIndex) -> u32 {
        let gap = self.ndims as u32 - 1;
        (0..self.pieces).fold(0, |c, j| {
            let mut x = (index >> (j * self.piece_stride())) as u64 & self.layouts[0];
            for k in 0..self.steps {
                x = (x | x >> (gap << k)) & self.layouts[k + 1];
            }
            c | ((x as u32) << (j * self.piece_bits))
        })
    }

    /// Interleave one coordinate per dimension, each already within
    /// the curve's bits.
    #[inline]
    pub(crate) fn interleave(&self, coords: impl IntoIterator<Item = u32>) -> CurveIndex {
        coords
            .into_iter()
            .fold(0, |index, c| (index << 1) | self.spread(c))
    }

    /// Inverse of [`ZOrderCurve::interleave`]: hands `put` each
    /// dimension and its coordinate, last dimension first.
    #[inline]
    pub(crate) fn deinterleave(&self, index: CurveIndex, mut put: impl FnMut(usize, u32)) {
        let mut rest = index;
        for d in (0..self.ndims).rev() {
            put(d, self.compact(rest));
            rest >>= 1;
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
        Ok(self.interleave(coords.iter().copied()))
    }

    fn coords_into(&self, index: CurveIndex, out: &mut [u32]) -> Result<(), GridError> {
        check_index(index, self.ndims, self.bits)?;
        assert_eq!(out.len(), self.ndims, "one slot per dimension");
        self.deinterleave(index, |d, c| out[d] = c);
        Ok(())
    }

    /// The row's ends are encoded (which checks the row), and each cell
    /// in between is its predecessor's index with the last dimension's
    /// bits incremented in place: the other bits are set so the carry
    /// runs through them, then restored.
    fn row_indices(
        &self,
        start: &[u32],
        len: u32,
        out: &mut Vec<CurveIndex>,
    ) -> Result<(), GridError> {
        let Some((mut index, _)) = row_ends(self, start, len)? else {
            return Ok(());
        };
        let last = self.spread(self.max_coord());
        out.push(index);
        for _ in 1..len {
            index = (((index | !last) + 1) & last) | (index & !last);
            out.push(index);
        }
        Ok(())
    }

    /// One pass over the components checks and encodes them; only a
    /// coordinate off the curve takes the checked path, which names the
    /// error.
    fn index_of_coord(&self, coord: &Coord) -> Result<CurveIndex, GridError> {
        let components = coord.components();
        let max = self.max_coord();
        let mut index = 0;
        for &c in components {
            if c < 0 || c as u32 > max {
                return index_of_coord_checked(self, coord);
            }
            index = (index << 1) | self.spread(c as u32);
        }
        if components.len() != self.ndims {
            return index_of_coord_checked(self, coord);
        }
        Ok(index)
    }

    fn coord_of_index(&self, index: CurveIndex) -> Result<Coord, GridError> {
        check_index(index, self.ndims, self.bits)?;
        let mut coord = Coord::origin(self.ndims);
        self.deinterleave(index, |d, c| coord[d] = c as i32);
        Ok(coord)
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
        // The coordinate path refuses what the slice path refuses,
        // negative components among them, whatever the bit width.
        assert!(z.index_of_coord(&Coord::new(vec![16, 0])).is_err());
        assert!(ZOrderCurve::new(2)
            .index_of_coord(&Coord::new(vec![-1, 0]))
            .is_err());
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
