//! The pluggable codec interface (Hadoop's `CompressionCodec` analogue),
//! the identity codec, and the one frame every compressing codec writes:
//! `magic | method u8 | orig_len u64 LE | crc u32 LE | payload`.
//!
//! Method 0 stores the input verbatim (so a frame never exceeds input +
//! [`HEADER_LEN`] bytes), 1 holds the codec's coded body. `crc` is
//! CRC-32C over the method, `orig_len` and the payload, and `open`
//! checks it before any decoder reads a byte: a frame damaged on the
//! wire or in a spill file fails as [`CompressError::ChecksumMismatch`],
//! not inside a Huffman table. Each codec keeps only its magic and its
//! body coder.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::checksum::Crc32c;
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

/// Frame header size: magic, method, `orig_len` and CRC.
pub const HEADER_LEN: usize = 4 + 1 + 8 + 4;
/// Method byte: the payload is the input verbatim.
const STORED: u8 = 0;
/// Method byte: the payload is the codec's coded body.
pub(crate) const CODED: u8 = 1;

/// CRC-32C over the method byte, `orig_len` and the payload.
fn frame_crc(fields: &[u8], payload: &[u8]) -> u32 {
    let mut crc = Crc32c::new();
    crc.update(fields);
    crc.update(payload);
    crc.finish()
}

/// Frame `input` under `magic`: the coded `body` when it is shorter
/// than the input, the input itself otherwise.
pub(crate) fn seal(magic: &str, input: &[u8], body: &[u8]) -> Vec<u8> {
    let orig_len = input.len() as u64;
    if body.len() < input.len() {
        frame(magic, CODED, orig_len, body)
    } else {
        frame(magic, STORED, orig_len, input)
    }
}

/// A frame with these fields and a CRC that holds over them (the
/// decoder tests forge headers through it).
pub(crate) fn frame(magic: &str, method: u8, orig_len: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(magic.as_bytes());
    out.push(method);
    out.extend_from_slice(&orig_len.to_le_bytes());
    let crc = frame_crc(&out[4..], payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Check a frame's magic, header and CRC, then recover its input: a
/// stored payload as is, a coded one through `decode(body, orig_len)`.
/// Only a frame whose CRC holds reaches `decode`, which must still
/// bound what it allocates by the body, not by `orig_len`.
pub(crate) fn open(
    magic: &'static str,
    frame: &[u8],
    decode: impl FnOnce(&[u8], usize) -> Result<Vec<u8>, CompressError>,
) -> Result<Vec<u8>, CompressError> {
    if !frame.starts_with(magic.as_bytes()) {
        return Err(CompressError::BadMagic { expected: magic });
    }
    let Some((head, payload)) = frame.split_first_chunk::<HEADER_LEN>() else {
        return Err(CompressError::Truncated(format!("{magic} frame header")));
    };
    let [_, _, _, _, method, declared @ .., c0, c1, c2, c3] = *head;
    let declared = u64::from_le_bytes(declared);
    let stored = u32::from_le_bytes([c0, c1, c2, c3]);
    let computed = frame_crc(&head[4..13], payload);
    if computed != stored {
        return Err(CompressError::ChecksumMismatch { stored, computed });
    }
    let orig_len = usize::try_from(declared)
        .map_err(|_| CompressError::Corrupt(format!("{magic} frame declares {declared} bytes")))?;
    match method {
        STORED if payload.len() == orig_len => Ok(payload.to_vec()),
        STORED => Err(CompressError::Corrupt(format!(
            "stored {magic} payload is {} of declared {orig_len} bytes",
            payload.len()
        ))),
        CODED => decode(payload, orig_len),
        other => Err(CompressError::Corrupt(format!(
            "unknown {magic} frame method {other}"
        ))),
    }
}

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
    fn no_damaged_frame_reaches_the_decoder() {
        let input = b"a coded body stands in for the input".repeat(3);
        let frame = seal("TEST", &input, b"body");
        let decode = |body: &[u8], orig_len| {
            assert_eq!((body, orig_len), (&b"body"[..], input.len()));
            Ok(input.clone())
        };
        assert_eq!(open("TEST", &frame, decode).unwrap(), input);
        for i in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[i] ^= 1 << bit;
                let reached = open("TEST", &bad, |_, _| panic!("byte {i} bit {bit}"));
                assert!(reached.is_err(), "byte {i} bit {bit}");
            }
        }
        for cut in 0..frame.len() {
            assert!(open("TEST", &frame[..cut], |_, _| panic!("cut {cut}")).is_err());
        }
    }

    #[test]
    fn codecs_are_object_safe() {
        let c: CodecHandle = Arc::new(IdentityCodec);
        let z = c.compress(b"object safety");
        assert_eq!(c.decompress(&z).unwrap(), b"object safety");
    }
}
