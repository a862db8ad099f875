//! The pluggable codec interface (Hadoop's `CompressionCodec` analogue)
//! and the identity codec.

use crate::error::CompressError;
use std::sync::Arc;

/// A whole-buffer compression codec.
///
/// The MapReduce engine applies a codec to every intermediate-data segment
/// it materializes, exactly where Hadoop's pluggable compression sits —
/// the hook the paper's §III approach uses ("our first approach was to
/// take advantage of Hadoop's pluggable compression and write a custom
/// compression module").
pub trait Codec: Send + Sync {
    /// Short name used in reports ("gzip-equivalent" codecs report
    /// "deflate", etc.). Wrapper codecs compose names dynamically
    /// ("transform+deflate", "transform+lz"), so the name
    /// borrows from the codec rather than from static storage.
    fn name(&self) -> &str;

    /// Compress `input` into a fresh buffer. Compression is total: any
    /// input has a valid compressed form.
    fn compress(&self, input: &[u8]) -> Vec<u8>;

    /// Decompress a buffer produced by [`Codec::compress`].
    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CompressError>;
}

/// A shared, dynamically-typed codec handle.
pub type CodecHandle = Arc<dyn Codec>;

/// Cap on the output a decoder preallocates on a header's say-so: a
/// forged length must not size an allocation, so anything larger grows
/// as decoded bytes demand.
pub(crate) const PREALLOC_CAP: usize = 1 << 20;

/// The identity codec: no compression (Hadoop with compression disabled —
/// the paper's baseline configuration).
#[derive(Debug, Clone, Default)]
pub struct IdentityCodec;

impl Codec for IdentityCodec {
    fn name(&self) -> &str {
        "identity"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        input.to_vec()
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CompressError> {
        Ok(input.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let c = IdentityCodec;
        let data = b"unchanged";
        assert_eq!(c.compress(data), data);
        assert_eq!(c.decompress(data).unwrap(), data);
        assert_eq!(c.name(), "identity");
    }

    #[test]
    fn codecs_are_object_safe() {
        let c: CodecHandle = Arc::new(IdentityCodec);
        let z = c.compress(b"object safety");
        assert_eq!(c.decompress(&z).unwrap(), b"object safety");
    }
}
