//! Grid walkers: deterministic traversals that generate key streams.
//!
//! The paper's byte-level experiments (Figs. 2–4) operate on "a raw stream
//! of triples of 32-bit integers, taken by walking a grid". A walker
//! produces exactly that: a sequence of coordinates in a fixed traversal
//! order, which the caller serializes into the byte stream handed to the
//! transform.

use crate::bbox::BoundingBox;
use crate::coord::Coord;
use crate::shape::Shape;

/// A deterministic traversal of the cells of a box.
pub trait GridWalker {
    /// The box being walked.
    fn bounds(&self) -> &BoundingBox;

    /// The coordinates, in traversal order.
    fn walk(&self) -> Box<dyn Iterator<Item = Coord> + '_>;

    /// Serialize the walk as big-endian 32-bit integers — the raw key
    /// stream of the paper's Fig. 3 ("triples of 32-bit integers").
    fn key_stream_be(&self) -> Vec<u8> {
        let ndims = self.bounds().ndims();
        let mut out = Vec::with_capacity(self.bounds().num_cells() as usize * 4 * ndims);
        for c in self.walk() {
            for &x in c.components() {
                out.extend_from_slice(&x.to_be_bytes());
            }
        }
        out
    }

    /// Serialize the walk as little-endian 32-bit integers. The stride
    /// detector is byte-order agnostic; having both lets tests prove it.
    fn key_stream_le(&self) -> Vec<u8> {
        let ndims = self.bounds().ndims();
        let mut out = Vec::with_capacity(self.bounds().num_cells() as usize * 4 * ndims);
        for c in self.walk() {
            for &x in c.components() {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        out
    }
}

/// Row-major traversal (last dimension fastest) — Hadoop's natural order
/// when mappers scan NetCDF arrays.
#[derive(Debug, Clone)]
pub struct RowMajorWalker {
    bounds: BoundingBox,
}

impl RowMajorWalker {
    /// Walk the given box.
    pub fn new(bounds: BoundingBox) -> Self {
        RowMajorWalker { bounds }
    }

    /// Walk an `n`×…×`n` cube at the origin.
    pub fn cube(n: u32, ndims: usize) -> Self {
        RowMajorWalker {
            bounds: BoundingBox::at_origin(Shape::cube(n, ndims)),
        }
    }
}

impl GridWalker for RowMajorWalker {
    fn bounds(&self) -> &BoundingBox {
        &self.bounds
    }

    fn walk(&self) -> Box<dyn Iterator<Item = Coord> + '_> {
        Box::new(self.bounds.cells())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_walk_is_complete_and_ordered() {
        let w = RowMajorWalker::cube(3, 2);
        let cells: Vec<_> = w.walk().collect();
        assert_eq!(cells.len(), 9);
        assert_eq!(cells[0].components(), &[0, 0]);
        assert_eq!(cells[1].components(), &[0, 1]);
        assert_eq!(cells[8].components(), &[2, 2]);
    }

    #[test]
    fn key_stream_length_matches_fig3_arithmetic() {
        // 100^3 grid walked as triples of 32-bit ints = 12,000,000 bytes.
        // Use 20^3 here to keep the test fast: 8000 * 12 = 96,000.
        let w = RowMajorWalker::cube(20, 3);
        assert_eq!(w.key_stream_be().len(), 96_000);
        assert_eq!(w.key_stream_le().len(), 96_000);
    }

    #[test]
    fn key_stream_be_bytes_are_big_endian() {
        let w = RowMajorWalker::cube(2, 1);
        // Coordinates 0 then 1.
        assert_eq!(w.key_stream_be(), vec![0, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(w.key_stream_le(), vec![0, 0, 0, 0, 1, 0, 0, 0]);
    }
}
