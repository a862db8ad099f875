//! A bzip2-style block codec: RLE1 → BWT → MTF → zero-run coding →
//! canonical Huffman.
//!
//! Differences from real bzip2 are deliberate simplifications that do not
//! change the algorithm family: one Huffman table per block instead of
//! six with selectors, and a plain 4-bit length table instead of the
//! delta-coded one. Block size is `level × 100 KiB`, like bzip2's `-1`
//! through `-9`. The container is the crate's one codec frame
//! (`codec::seal`, magic "SBZ1").

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::bitio::{BitReader, BitWriter};
use crate::bwt::{bwt_decode, bwt_encode};
use crate::codec::{open, seal, Codec, PREALLOC_CAP};
use crate::error::CompressError;
use crate::huffman::{build_lengths, read_lengths, write_lengths, Decoder, Encoder, MAX_CODE_LEN};
use crate::mtf::{mtf_decode, mtf_encode};
use crate::rle::{rle1_decode, rle1_encode, zrle_decode, zrle_encode, SYM_EOB, ZRLE_ALPHABET};

const MAGIC: &str = "SBZ1";
/// The largest block any level writes (level 9), hence the largest a
/// decoder has to believe.
const MAX_BLOCK_SIZE: usize = 900_000;

/// Bzip-style codec.
#[derive(Debug, Clone)]
pub struct BzipCodec {
    block_size: usize,
}

impl BzipCodec {
    /// Default: 900 KiB blocks (bzip2 `-9`).
    pub fn new() -> Self {
        Self::with_level(9)
    }

    /// Block size `level × 100 KiB`, `level` in 1..=9.
    pub fn with_level(level: u32) -> Self {
        assert!((1..=9).contains(&level), "level must be 1..=9");
        BzipCodec {
            block_size: level as usize * 100_000,
        }
    }
}

impl Default for BzipCodec {
    fn default() -> Self {
        BzipCodec::new()
    }
}

impl Codec for BzipCodec {
    fn name(&self) -> &str {
        "bzip"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut w = BitWriter::new();
        // The RLE1 pre-pass runs over the whole input; its output is then
        // carved into BWT blocks.
        let rled = rle1_encode(input);
        let nblocks = rled.len().div_ceil(self.block_size);
        w.write_bits(nblocks as u64, 32);
        w.write_bits(rled.len() as u64, 48);
        for chunk in rled.chunks(self.block_size) {
            let (last, primary) = bwt_encode(chunk);
            let mtfed = mtf_encode(&last);
            let symbols = zrle_encode(&mtfed);

            let mut freqs = vec![0u64; ZRLE_ALPHABET];
            for &s in &symbols {
                freqs[s as usize] += 1;
            }
            let lengths = build_lengths(&freqs, MAX_CODE_LEN);
            let enc = Encoder::from_lengths(&lengths);

            w.write_bits(chunk.len() as u64, 32);
            w.write_bits(primary as u64, 32);
            write_lengths(&mut w, &lengths);
            for &s in &symbols {
                enc.encode(&mut w, s as usize);
            }
        }
        seal(MAGIC, input, &w.finish())
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CompressError> {
        open(MAGIC, input, decode)
    }
}

/// Decode a coded body that must produce exactly `orig_len` bytes.
fn decode(body: &[u8], orig_len: usize) -> Result<Vec<u8>, CompressError> {
    let mut r = BitReader::new(body);
    let nblocks = r.read_bits(32)? as usize;
    let rled_len = r.read_bits(48)? as usize;
    if nblocks > rled_len.max(1) {
        return Err(CompressError::Corrupt(format!(
            "{nblocks} blocks for {rled_len} rle bytes"
        )));
    }
    let mut rled = Vec::with_capacity(rled_len.min(PREALLOC_CAP));
    for _ in 0..nblocks {
        let block_len = r.read_bits(32)? as usize;
        let primary = r.read_bits(32)? as u32;
        if block_len == 0 {
            continue;
        }
        if block_len > rled_len.min(MAX_BLOCK_SIZE) {
            return Err(CompressError::Corrupt("block longer than stream".into()));
        }
        let lengths = read_lengths(&mut r)?;
        if lengths.len() != ZRLE_ALPHABET {
            return Err(CompressError::Corrupt("bad zrle alphabet size".into()));
        }
        let dec = Decoder::from_lengths(&lengths)?;
        let mut symbols = Vec::with_capacity(block_len.min(PREALLOC_CAP));
        loop {
            let s = dec.decode(&mut r)? as u16;
            let done = s == SYM_EOB;
            symbols.push(s);
            if done {
                break;
            }
            if symbols.len() > 4 * block_len + 64 {
                return Err(CompressError::Corrupt("runaway block".into()));
            }
        }
        let mtfed = zrle_decode(&symbols, block_len)?;
        if mtfed.len() != block_len {
            return Err(CompressError::Corrupt(format!(
                "block decoded to {} of {block_len} bytes",
                mtfed.len()
            )));
        }
        let last = mtf_decode(&mtfed);
        let chunk = bwt_decode(&last, primary)?;
        rled.extend_from_slice(&chunk);
    }
    if rled.len() != rled_len {
        return Err(CompressError::Corrupt(format!(
            "rle stream {} of declared {rled_len} bytes",
            rled.len()
        )));
    }
    let out = rle1_decode(&rled)?;
    if out.len() != orig_len {
        return Err(CompressError::Corrupt(format!(
            "size mismatch: declared {orig_len}, produced {}",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let c = BzipCodec::with_level(1);
        let z = c.compress(data);
        assert_eq!(c.decompress(&z).unwrap(), data, "len {}", data.len());
        z.len()
    }

    #[test]
    fn trivial_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abcabc");
        roundtrip(&[0u8; 5000]);
    }

    #[test]
    fn text_compresses_better_than_half() {
        let data = b"compressing the incompressible with isabela, in situ. ".repeat(200);
        let z = roundtrip(&data);
        assert!(z < data.len() / 2, "bzip output {z} of {}", data.len());
    }

    #[test]
    fn grid_key_stream_compresses() {
        let mut data = Vec::new();
        for x in 0..25i32 {
            for y in 0..25i32 {
                for z in 0..25i32 {
                    data.extend_from_slice(&x.to_be_bytes());
                    data.extend_from_slice(&y.to_be_bytes());
                    data.extend_from_slice(&z.to_be_bytes());
                }
            }
        }
        let z = roundtrip(&data);
        // The paper's bzip2 gets 512 kB from 12 MB (4.3%). Ours should at
        // least quarter the stream.
        assert!(z < data.len() / 4, "bzip output {z} of {}", data.len());
    }

    #[test]
    fn multi_block_inputs_roundtrip() {
        // Force multiple 100 kB blocks.
        let mut data = Vec::new();
        let mut state = 3u64;
        for i in 0..350_000usize {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            data.push(if i % 3 == 0 {
                (state >> 33) as u8
            } else {
                b'x'
            });
        }
        roundtrip(&data);
    }

    #[test]
    fn corruption_is_detected() {
        let c = BzipCodec::with_level(1);
        let data = b"a block of data that goes through all five stages ".repeat(50);
        let z = c.compress(&data);
        // Magic.
        let mut bad = z.clone();
        bad[1] = b'!';
        assert!(matches!(
            c.decompress(&bad),
            Err(CompressError::BadMagic { .. })
        ));
        // Truncation.
        assert!(c.decompress(&z[..z.len() / 2]).is_err());
        // Bit flip in the entropy-coded body.
        let mut bad = z.clone();
        let i = z.len() - 2;
        bad[i] ^= 0x40;
        assert!(c.decompress(&bad).is_err());
    }

    #[test]
    fn levels_change_block_size_not_correctness() {
        let data = b"level test ".repeat(30_000); // 330 kB
        let z1 = BzipCodec::with_level(1).compress(&data);
        let z9 = BzipCodec::with_level(9).compress(&data);
        assert_eq!(BzipCodec::with_level(1).decompress(&z1).unwrap(), data);
        assert_eq!(BzipCodec::with_level(9).decompress(&z9).unwrap(), data);
    }

    #[test]
    #[should_panic(expected = "level must be 1..=9")]
    fn level_zero_panics() {
        let _ = BzipCodec::with_level(0);
    }
}
