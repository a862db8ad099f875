//! The pluggable codec interface (Hadoop's `CompressionCodec` analogue)
//! and two trivial codecs.

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

/// Simple byte-level run-length codec: `(count, byte)` pairs with a
/// 255-cap. Useful as a cheap codec baseline and for tests.
#[derive(Debug, Clone, Default)]
pub struct RleCodec;

impl Codec for RleCodec {
    fn name(&self) -> &str {
        "rle"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 8);
        out.extend_from_slice(&(input.len() as u64).to_le_bytes());
        let mut i = 0;
        while i < input.len() {
            let b = input[i];
            let mut run = 1usize;
            while i + run < input.len() && input[i + run] == b && run < 255 {
                run += 1;
            }
            out.push(run as u8);
            out.push(b);
            i += run;
        }
        out
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CompressError> {
        if input.len() < 8 {
            return Err(CompressError::Truncated("rle header".into()));
        }
        let orig_len = u64::from_le_bytes(input[..8].try_into().unwrap()) as usize;
        let body = &input[8..];
        if !body.len().is_multiple_of(2) {
            return Err(CompressError::Corrupt("odd rle body".into()));
        }
        // The declared length is attacker-controlled; validate it against
        // what the body can actually produce (each pair emits 1..=255
        // bytes) before trusting it, and cap the pre-allocation so a
        // corrupt header can never reserve more than a bounded multiple
        // of the input actually presented.
        let max_possible = (body.len() / 2) * 255;
        if orig_len > max_possible {
            return Err(CompressError::Corrupt(format!(
                "rle declared {orig_len} bytes but {} pairs can produce at most {max_possible}",
                body.len() / 2
            )));
        }
        let mut out = Vec::with_capacity(orig_len.min(PREALLOC_CAP));
        for pair in body.chunks_exact(2) {
            let (run, b) = (pair[0] as usize, pair[1]);
            if run == 0 {
                return Err(CompressError::Corrupt("zero-length run".into()));
            }
            out.resize(out.len() + run, b);
        }
        if out.len() != orig_len {
            return Err(CompressError::Corrupt(format!(
                "rle length mismatch: declared {orig_len}, got {}",
                out.len()
            )));
        }
        Ok(out)
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
    fn rle_roundtrip_runs_and_noise() {
        let c = RleCodec;
        for data in [
            Vec::new(),
            vec![7u8],
            vec![0u8; 1000],
            b"abcdef".to_vec(),
            [vec![1u8; 300], vec![2u8; 5], vec![3u8; 1]].concat(),
        ] {
            let z = c.compress(&data);
            assert_eq!(c.decompress(&z).unwrap(), data);
        }
    }

    #[test]
    fn rle_compresses_long_runs() {
        let c = RleCodec;
        let data = vec![9u8; 10_000];
        let z = c.compress(&data);
        assert!(z.len() < 100, "rle output {}", z.len());
    }

    #[test]
    fn rle_rejects_corruption() {
        let c = RleCodec;
        let mut z = c.compress(&[5u8; 100]);
        assert!(c.decompress(&z[..7]).is_err()); // short header
        z.truncate(z.len() - 1); // odd body
        assert!(c.decompress(&z).is_err());
        let z2 = c.compress(&[5u8; 100]);
        let mut z3 = z2.clone();
        z3[0] ^= 1; // wrong declared length
        assert!(c.decompress(&z3).is_err());
        let mut z4 = z2;
        let last = z4.len() - 2;
        z4[last] = 0; // zero-length run
        assert!(c.decompress(&z4).is_err());
    }

    #[test]
    fn rle_rejects_adversarial_declared_length() {
        let c = RleCodec;
        // Header claims u64::MAX bytes but the body holds a single pair:
        // decompress must reject before allocating anything like that.
        let mut z = u64::MAX.to_le_bytes().to_vec();
        z.extend_from_slice(&[255u8, 0xAB]);
        assert!(c.decompress(&z).is_err());
        // Declared length just above what the body can produce.
        let mut z2 = (256u64).to_le_bytes().to_vec();
        z2.extend_from_slice(&[255u8, 1]);
        assert!(c.decompress(&z2).is_err());
    }

    #[test]
    fn codecs_are_object_safe() {
        let codecs: Vec<CodecHandle> = vec![Arc::new(IdentityCodec), Arc::new(RleCodec)];
        for c in codecs {
            let z = c.compress(b"object safety");
            assert_eq!(c.decompress(&z).unwrap(), b"object safety");
        }
    }
}
