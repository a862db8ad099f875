//! Key layouts and curve spaces shared by the queries.

use scihadoop_grid::writable::{read_coord, read_text, text_len, write_text};
use scihadoop_grid::{Coord, GridError};
use scihadoop_sfc::{Curve, CurveIndex};
use std::sync::Arc;

/// How simple (per-cell) intermediate keys are serialized.
///
/// The paper's §I measures both spellings: the integer variable index
/// (16-byte keys for 3-D) and the `windspeed1` name (23-byte keys).
#[derive(Debug, Clone)]
pub enum KeyLayout {
    /// 4-byte variable index + 4 bytes per dimension.
    Indexed {
        /// Variable index stored in every key.
        index: i32,
        /// Dimensions per coordinate.
        ndims: usize,
    },
    /// Variable name (Hadoop `Text`) + 4 bytes per dimension.
    Named {
        /// Variable name stored in every key.
        name: String,
        /// Dimensions per coordinate.
        ndims: usize,
    },
}

impl KeyLayout {
    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        match self {
            KeyLayout::Indexed { ndims, .. } | KeyLayout::Named { ndims, .. } => *ndims,
        }
    }

    /// Bytes every key of this layout starts with: the variable
    /// identifier, before the coordinates.
    #[inline]
    pub(crate) fn header_len(&self) -> usize {
        match self {
            KeyLayout::Indexed { .. } => 4,
            KeyLayout::Named { name, .. } => text_len(name),
        }
    }

    /// Append the variable identifier every key of this layout starts
    /// with.
    #[inline]
    pub(crate) fn write_header(&self, out: &mut Vec<u8>) {
        match self {
            KeyLayout::Indexed { index, .. } => out.extend_from_slice(&index.to_be_bytes()),
            KeyLayout::Named { name, .. } => write_text(out, name),
        }
    }

    /// Serialize a coordinate under this layout.
    #[inline]
    pub fn encode(&self, coord: &Coord) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.header_len() + 4 * coord.ndims());
        self.write_header(&mut out);
        for c in coord.components() {
            out.extend_from_slice(&c.to_be_bytes());
        }
        out
    }

    /// Parse a coordinate back out of a serialized key.
    #[inline]
    pub fn decode(&self, bytes: &[u8]) -> Result<Coord, GridError> {
        let header = match self {
            KeyLayout::Indexed { .. } => 4,
            KeyLayout::Named { .. } => read_text(bytes)?.1,
        };
        let coords = bytes
            .get(header..)
            .ok_or_else(|| GridError::Deserialize("short read in variable index".into()))?;
        Ok(read_coord(coords, self.ndims())?.0)
    }

    /// Serialized key size for this layout.
    #[inline]
    pub fn key_len(&self) -> usize {
        self.header_len() + 4 * self.ndims()
    }
}

/// A space-filling curve over a coordinate space shifted by a bias, so
/// that window halos with negative coordinates (the paper's `(-1,-1)`)
/// still map to non-negative curve space.
#[derive(Clone)]
pub struct BiasedCurve {
    curve: Arc<dyn Curve>,
    bias: i32,
}

impl BiasedCurve {
    /// Wrap `curve`, adding `bias` to every coordinate component before
    /// encoding.
    pub fn new(curve: Arc<dyn Curve>, bias: i32) -> Self {
        assert!(bias >= 0, "bias must be non-negative");
        BiasedCurve { curve, bias }
    }

    /// The underlying curve.
    pub fn curve(&self) -> &Arc<dyn Curve> {
        &self.curve
    }

    /// The bias.
    pub fn bias(&self) -> i32 {
        self.bias
    }

    /// Curve index of a (possibly negative) coordinate.
    pub fn index_of(&self, coord: &Coord) -> Result<CurveIndex, GridError> {
        self.curve.index_of_coord(&coord.offset_all(self.bias))
    }

    /// Inverse of [`BiasedCurve::index_of`].
    pub fn coord_of(&self, index: CurveIndex) -> Result<Coord, GridError> {
        let mut coord = self.curve.coord_of_index(index)?;
        for d in 0..coord.ndims() {
            coord[d] = coord[d].wrapping_sub(self.bias);
        }
        Ok(coord)
    }

    /// Total number of curve indices (the partitioner's span).
    pub fn span(&self) -> CurveIndex {
        let bits = self.curve.bits_per_dim() * self.curve.ndims() as u32;
        if bits >= 128 {
            CurveIndex::MAX
        } else {
            1u128 << bits
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scihadoop_sfc::ZOrderCurve;

    #[test]
    fn layouts_roundtrip() {
        let coord = Coord::new(vec![3, -1, 7]);
        for layout in [
            KeyLayout::Indexed { index: 2, ndims: 3 },
            KeyLayout::Named {
                name: "windspeed1".into(),
                ndims: 3,
            },
        ] {
            let bytes = layout.encode(&coord);
            assert_eq!(bytes.len(), layout.key_len());
            assert_eq!(layout.decode(&bytes).unwrap(), coord);
        }
    }

    #[test]
    fn long_names_take_a_multi_byte_length() {
        // Names over 127 bytes need a 2- or 3-byte vint for their length.
        let layout = KeyLayout::Named {
            name: "v".repeat(200),
            ndims: 2,
        };
        let coord = Coord::new(vec![-4, 9]);
        let bytes = layout.encode(&coord);
        assert_eq!(bytes.len(), layout.key_len());
        assert_eq!(layout.key_len(), 2 + 200 + 8);
        assert_eq!(layout.decode(&bytes).unwrap(), coord);
    }

    #[test]
    fn layouts_match_paper() {
        // variable index + 3 coords = 4 + 12 = 16 bytes; windspeed1
        // (10 chars) + 3 coords = 1 + 10 + 12 = 23 bytes.
        let indexed = KeyLayout::Indexed { index: 7, ndims: 3 };
        let named = KeyLayout::Named {
            name: "windspeed1".into(),
            ndims: 3,
        };
        assert_eq!(indexed.key_len(), 16);
        assert_eq!(named.key_len(), 23);
        let coord = Coord::new(vec![1, 2, -3]);
        let bytes = indexed.encode(&coord);
        assert_eq!(bytes[..4], 7i32.to_be_bytes());
        assert_eq!(bytes[12..], (-3i32).to_be_bytes());
        let bytes = named.encode(&coord);
        assert_eq!(bytes[0], 10); // vint length of the name
        assert_eq!(&bytes[1..11], b"windspeed1");
        // Hadoop sorts serialized keys bytewise; for non-negative
        // coordinates the BE layout agrees with coordinate order.
        assert!(indexed.encode(&Coord::new(vec![0, 200, 0])) < indexed.encode(&coord));
    }

    #[test]
    fn decode_rejects_malformed_keys() {
        let indexed = KeyLayout::Indexed { index: 2, ndims: 3 };
        let named = KeyLayout::Named {
            name: "windspeed1".into(),
            ndims: 3,
        };
        assert!(indexed.decode(&[0, 0, 0]).is_err());
        assert!(indexed.decode(&[0; 15]).is_err());
        assert!(named.decode(&[]).is_err());
        assert!(named.decode(&[5, b'a', b'b']).is_err()); // short name
        let mut buf = vec![2, 0xff, 0xfe]; // invalid UTF-8 name
        buf.extend_from_slice(&[0; 12]);
        assert!(named.decode(&buf).is_err());
    }

    #[test]
    fn biased_curve_handles_negative_halo() {
        let bc = BiasedCurve::new(Arc::new(ZOrderCurve::with_bits(2, 6)), 1);
        let coord = Coord::new(vec![-1, -1]);
        let idx = bc.index_of(&coord).unwrap();
        assert_eq!(bc.coord_of(idx).unwrap(), coord);
        // Without bias the same coordinate errors.
        let raw = BiasedCurve::new(Arc::new(ZOrderCurve::with_bits(2, 6)), 0);
        assert!(raw.index_of(&coord).is_err());
    }

    #[test]
    fn span_covers_the_virtual_grid() {
        let bc = BiasedCurve::new(Arc::new(ZOrderCurve::with_bits(2, 6)), 1);
        assert_eq!(bc.span(), 1 << 12);
    }
}
