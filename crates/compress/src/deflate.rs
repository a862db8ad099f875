//! A DEFLATE-style codec: LZ77 + canonical Huffman.
//!
//! Stands in for the paper's gzip/zlib codec. The container is the
//! crate's one codec frame (`codec::seal`, magic "SDZ1"), but the
//! compression machinery is DEFLATE's: a 32 KiB LZ77 window, the
//! DEFLATE length/distance alphabets with extra bits, and canonical
//! Huffman tables transmitted as code lengths.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::bitio::{BitReader, BitWriter};
use crate::codec::{open, seal, Codec, PREALLOC_CAP};
use crate::error::CompressError;
use crate::huffman::{build_lengths, read_lengths, write_lengths, Decoder, Encoder, MAX_CODE_LEN};
use crate::lz77::{tokenize, Token, MAX_MATCH, MIN_MATCH, WINDOW_SIZE};

const MAGIC: &str = "SDZ1";
/// End-of-block symbol in the literal/length alphabet.
const EOB: usize = 256;
/// Size of the literal/length alphabet (DEFLATE's 286).
const NUM_LITLEN: usize = 286;
/// Size of the distance alphabet (DEFLATE's 30).
const NUM_DIST: usize = 30;
/// Marks a packed token as a match (see `compress`).
const MATCH: u32 = 1 << 31;

/// (base length, extra bits) for length codes 257..=285.
const LENGTH_TABLE: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// (base distance, extra bits) for distance codes 0..=29.
const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// `len - MIN_MATCH` → length-code index, replacing the per-token linear
/// scan of `LENGTH_TABLE`. Built at compile time from the table so the
/// two can never drift.
const LENGTH_CODE_LUT: [u8; MAX_MATCH - MIN_MATCH + 1] = {
    let mut lut = [0u8; MAX_MATCH - MIN_MATCH + 1];
    let mut code = 0;
    while code < LENGTH_TABLE.len() {
        let base = LENGTH_TABLE[code].0 as usize;
        let top = if code + 1 < LENGTH_TABLE.len() {
            LENGTH_TABLE[code + 1].0 as usize
        } else {
            MAX_MATCH + 1
        };
        let mut len = base;
        while len < top {
            lut[len - MIN_MATCH] = code as u8;
            len += 1;
        }
        code += 1;
    }
    lut
};

const fn dist_code_index(dist: usize) -> u8 {
    let mut code = 0;
    let mut i = 0;
    while i < DIST_TABLE.len() {
        if dist >= DIST_TABLE[i].0 as usize {
            code = i;
        }
        i += 1;
    }
    code as u8
}

/// `dist - 1` → distance-code index for distances 1..=256.
const DIST_LUT_SMALL: [u8; 256] = {
    let mut lut = [0u8; 256];
    let mut d = 1;
    while d <= 256 {
        lut[d - 1] = dist_code_index(d);
        d += 1;
    }
    lut
};

/// `(dist - 1) >> 7` → distance-code index for distances 257..=32768.
/// Valid because every distance code ≥ 16 spans whole 128-byte-aligned
/// ranges (zlib's classic two-level trick).
const DIST_LUT_LARGE: [u8; 256] = {
    let mut lut = [0u8; 256];
    let mut idx = 2;
    while idx < 256 {
        lut[idx] = dist_code_index((idx << 7) + 1);
        idx += 1;
    }
    lut
};

#[inline]
fn length_code(len: usize) -> (usize, u16, u8) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    let code = LENGTH_CODE_LUT[len - MIN_MATCH] as usize;
    let (base, extra) = LENGTH_TABLE[code];
    (257 + code, len as u16 - base, extra)
}

#[inline]
fn dist_code(dist: usize) -> (usize, u16, u8) {
    debug_assert!((1..=WINDOW_SIZE).contains(&dist));
    let code = if dist <= 256 {
        DIST_LUT_SMALL[dist - 1]
    } else {
        DIST_LUT_LARGE[(dist - 1) >> 7]
    } as usize;
    let (base, extra) = DIST_TABLE[code];
    (code, (dist - base as usize) as u16, extra)
}

/// Deflate-style codec: `lz77::tokenize`'s matches and literals under
/// two canonical Huffman tables built for the input.
#[derive(Debug, Clone, Default)]
pub struct DeflateCodec;

impl DeflateCodec {
    /// The codec (comparable to zlib level 6).
    pub fn new() -> Self {
        DeflateCodec
    }
}

impl Codec for DeflateCodec {
    fn name(&self) -> &str {
        "deflate"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        // One pass finds the tokens, packs each into a word — a literal
        // is its byte; a match is `MATCH | dist extra << 15 | dist code
        // << 10 | length extra << 5 | length code` — and counts the
        // symbol frequencies the Huffman tables need.
        let mut tokens: Vec<u32> = Vec::with_capacity(input.len() / 2 + 16);
        let mut lit_freq = [0u64; NUM_LITLEN];
        let mut dist_freq = [0u64; NUM_DIST];
        tokenize(input, |t| match t {
            Token::Literal(b) => {
                lit_freq[b as usize] += 1;
                tokens.push(b as u32);
            }
            Token::Match { len, dist } => {
                let (lc, lextra, _) = length_code(len as usize);
                let (dc, dextra, _) = dist_code(dist as usize);
                lit_freq[lc] += 1;
                dist_freq[dc] += 1;
                tokens.push(
                    MATCH
                        | (dextra as u32) << 15
                        | (dc as u32) << 10
                        | (lextra as u32) << 5
                        | (lc - 257) as u32,
                );
            }
        });
        lit_freq[EOB] += 1;

        let lit_lengths = build_lengths(&lit_freq, MAX_CODE_LEN);
        let dist_lengths = build_lengths(&dist_freq, MAX_CODE_LEN);
        let lit_enc = Encoder::from_lengths(&lit_lengths);
        let dist_enc = Encoder::from_lengths(&dist_lengths);

        let mut w = BitWriter::with_capacity(input.len() / 3 + 64);
        write_lengths(&mut w, &lit_lengths);
        write_lengths(&mut w, &dist_lengths);
        for &t in &tokens {
            if t & MATCH == 0 {
                lit_enc.encode(&mut w, t as usize);
                continue;
            }
            // Length code, its extra bits, distance code, its extra bits:
            // at most 15 + 5 + 15 + 13 bits, one write.
            let (lc, dc) = ((t & 31) as usize, (t >> 10 & 31) as usize);
            let (mut bits, mut n) = lit_enc.code(257 + lc);
            bits |= (t as u64 >> 5 & 31) << n;
            n += LENGTH_TABLE[lc].1 as u32;
            let (dbits, dn) = dist_enc.code(dc);
            bits |= dbits << n;
            n += dn;
            bits |= (t as u64 >> 15 & 0x1FFF) << n;
            n += DIST_TABLE[dc].1 as u32;
            w.write_bits(bits, n);
        }
        lit_enc.encode(&mut w, EOB);
        seal(MAGIC, input, &w.finish())
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CompressError> {
        open(MAGIC, input, inflate)
    }
}

/// Bytes a match copy may write past the match's end (it moves whole
/// 8-byte words); the output buffer keeps that much room behind
/// `orig_len`.
const COPY_SLACK: usize = 8;

/// Copy `len` bytes from `dist` bytes behind `pos` to `pos`, LZ77-style:
/// the source may overlap the destination (`dist < len`), in which case
/// the bytes just written are read again.
#[inline]
fn copy_match(out: &mut [u8], pos: usize, dist: usize, len: usize) {
    let start = pos - dist;
    if dist >= 8 {
        // Word by word; a word never overlaps its own destination, and
        // what it writes past `len` is overwritten or cut off later.
        let (mut from, mut to) = (start, pos);
        while to < pos + len {
            out.copy_within(from..from + 8, to);
            from += 8;
            to += 8;
        }
    } else if dist == 1 {
        let b = out[start];
        out[pos..pos + len].fill(b);
    } else {
        for k in 0..len {
            out[pos + k] = out[start + k];
        }
    }
}

/// Decode a Huffman-coded body that must produce exactly `orig_len` bytes.
fn inflate(body: &[u8], orig_len: usize) -> Result<Vec<u8>, CompressError> {
    // A match symbol and its distance symbol take at least one bit
    // each and yield at most MAX_MATCH bytes: a length past that is
    // corrupt, and is caught before it sizes any allocation.
    if orig_len > body.len().saturating_mul(4 * MAX_MATCH) {
        return Err(CompressError::Corrupt(format!(
            "declared size {orig_len} exceeds what {} body bytes can hold",
            body.len()
        )));
    }
    let mut r = BitReader::new(body);
    let lit_lengths = read_lengths(&mut r)?;
    let dist_lengths = read_lengths(&mut r)?;
    if lit_lengths.len() != NUM_LITLEN || dist_lengths.len() != NUM_DIST {
        return Err(CompressError::Corrupt("bad alphabet sizes".into()));
    }
    let lit_dec = Decoder::from_lengths(&lit_lengths)?;
    let dist_dec = if dist_lengths.iter().any(|&l| l > 0) {
        Some(Decoder::from_lengths(&dist_lengths)?)
    } else {
        None
    };
    let invalid = || CompressError::Corrupt("invalid huffman code".into());
    let overrun = || CompressError::Corrupt("output exceeds declared size".into());

    // Sized once for every honest stream; one that declares more than
    // PREALLOC_CAP grows as decoded bytes — not the header — demand.
    let room = MAX_MATCH + COPY_SLACK;
    let mut out = vec![0u8; orig_len.min(PREALLOC_CAP) + room];
    let mut pos = 0usize;
    loop {
        if out.len() - pos < room {
            let grown = (2 * out.len()).min(orig_len + room);
            out.resize(grown, 0);
        }
        // One refill serves a whole literal/length symbol, its extra
        // bits, the distance symbol and its extra bits (≤ 48 bits);
        // `consume` then checks that many bits really were input.
        let mut bits = r.peek();
        let (sym, n) = lit_dec.lookup(bits);
        if n == 0 {
            return Err(invalid());
        }
        if sym < EOB {
            r.consume(n)?;
            if pos == orig_len {
                return Err(overrun());
            }
            out[pos] = sym as u8;
            pos += 1;
            continue;
        }
        if sym == EOB {
            r.consume(n)?;
            break;
        }
        let &(base, extra) = LENGTH_TABLE
            .get(sym - 257)
            .ok_or_else(|| CompressError::Corrupt(format!("bad symbol {sym}")))?;
        bits >>= n;
        let len = base as usize + (bits & ((1 << extra) - 1)) as usize;
        bits >>= extra;
        let dd = dist_dec
            .as_ref()
            .ok_or_else(|| CompressError::Corrupt("match without distances".into()))?;
        let (dc, dn) = dd.lookup(bits);
        if dn == 0 {
            return Err(invalid());
        }
        let &(dbase, dextra) = DIST_TABLE
            .get(dc)
            .ok_or_else(|| CompressError::Corrupt("bad distance code".into()))?;
        bits >>= dn;
        let dist = dbase as usize + (bits & ((1 << dextra) - 1)) as usize;
        r.consume(n + extra as u32 + dn + dextra as u32)?;
        if dist > pos {
            return Err(CompressError::Corrupt(format!(
                "distance {dist} exceeds output {pos}"
            )));
        }
        if len > orig_len - pos {
            return Err(overrun());
        }
        copy_match(&mut out, pos, dist, len);
        pos += len;
    }
    if pos != orig_len {
        return Err(CompressError::Corrupt(format!(
            "size mismatch: declared {orig_len}, produced {pos}"
        )));
    }
    out.truncate(pos);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let c = DeflateCodec::new();
        let z = c.compress(data);
        assert_eq!(c.decompress(&z).unwrap(), data);
        z.len()
    }

    #[test]
    fn empty_input() {
        roundtrip(b"");
    }

    #[test]
    fn short_inputs() {
        roundtrip(b"a");
        roundtrip(b"abcde");
        roundtrip(&[0, 0, 0]);
    }

    #[test]
    fn text_compresses() {
        let data = b"the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog."
            .repeat(20);
        let z = roundtrip(&data);
        assert!(z < data.len() / 4, "compressed {z} of {}", data.len());
    }

    #[test]
    fn grid_key_stream_compresses() {
        // The Fig. 3 workload shape (scaled down): triples of BE i32.
        let mut data = Vec::new();
        for x in 0..30i32 {
            for y in 0..30i32 {
                for z in 0..30i32 {
                    data.extend_from_slice(&x.to_be_bytes());
                    data.extend_from_slice(&y.to_be_bytes());
                    data.extend_from_slice(&z.to_be_bytes());
                }
            }
        }
        let z = roundtrip(&data);
        // gzip achieves ~13.6% on this stream in the paper (1.63MB/12MB).
        assert!(
            (z as f64) < data.len() as f64 * 0.25,
            "compressed {z} of {}",
            data.len()
        );
    }

    #[test]
    fn stored_fallback_bounds_expansion() {
        // Random bytes must cost at most the frame header extra.
        let c = DeflateCodec::new();
        let mut state = 11u64;
        let data: Vec<u8> = (0..5000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let z = c.compress(&data);
        assert!(z.len() <= data.len() + 17, "expanded to {}", z.len());
        assert_eq!(z[4], 0, "random data should take the stored path");
        assert_eq!(c.decompress(&z).unwrap(), data);
        // Stored blocks still verify CRC and length.
        let mut bad = z.clone();
        bad[40] ^= 1;
        assert!(c.decompress(&bad).is_err());
        assert!(c.decompress(&z[..z.len() - 1]).is_err());
    }

    #[test]
    fn incompressible_data_does_not_explode() {
        let mut state = 7u64;
        let data: Vec<u8> = (0..20_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        let z = roundtrip(&data);
        assert!(z < data.len() + data.len() / 8 + 600);
    }

    #[test]
    fn length_code_boundaries() {
        assert_eq!(length_code(3).0, 257);
        assert_eq!(length_code(10).0, 264);
        assert_eq!(length_code(11).0, 265);
        assert_eq!(length_code(12).0, 265);
        assert_eq!(length_code(257).0, 284);
        assert_eq!(length_code(258).0, 285);
        // Extra bits reconstruct exactly.
        for len in MIN_MATCH..=MAX_MATCH {
            let (code, extra, bits) = length_code(len);
            let (base, tbits) = LENGTH_TABLE[code - 257];
            assert_eq!(bits, tbits);
            assert_eq!(base as usize + extra as usize, len);
        }
    }

    #[test]
    fn dist_code_boundaries() {
        for dist in 1..=WINDOW_SIZE {
            let (code, extra, bits) = dist_code(dist);
            let (base, tbits) = DIST_TABLE[code];
            assert_eq!(bits, tbits, "dist {dist}");
            assert_eq!(base as usize + extra as usize, dist);
        }
    }

    #[test]
    fn corrupt_magic_rejected() {
        let c = DeflateCodec::new();
        let mut z = c.compress(b"hello world hello world");
        z[0] = b'X';
        assert!(matches!(
            c.decompress(&z),
            Err(CompressError::BadMagic { .. })
        ));
    }

    #[test]
    fn corrupt_payload_detected() {
        let c = DeflateCodec::new();
        let data = b"some reasonably long payload that actually compresses, repeated \
                     some reasonably long payload that actually compresses";
        let mut z = c.compress(data);
        // Flip a bit in the bitstream body (past the frame header and
        // the Huffman tables which start right after).
        let i = z.len() - 3;
        z[i] ^= 0x10;
        assert!(c.decompress(&z).is_err());
    }

    #[test]
    fn truncated_stream_detected() {
        let c = DeflateCodec::new();
        let z = c.compress(&b"abcdefgh".repeat(100));
        assert!(c.decompress(&z[..z.len() - 4]).is_err());
        assert!(c.decompress(&z[..10]).is_err());
    }
}
