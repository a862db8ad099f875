//! LZ-class speed-first codec: an LZ4-style block format with a
//! hash-table greedy matcher and no entropy stage.
//!
//! This fills the tier between [`IdentityCodec`](crate::IdentityCodec)
//! (fast, 1.0×) and [`DeflateCodec`](crate::DeflateCodec) (small,
//! slow): the token stream stores literal runs and back-references
//! verbatim — no Huffman pass — so compression is a single greedy scan
//! and decompression is pure byte copying. On IFile segment bytes the
//! target is ≥3× deflate's compression throughput at a still-useful
//! ratio, which is what makes it cheap enough to run on the shuffle
//! wire and spill path by default.
//!
//! # Token stream
//!
//! The classic LZ4 sequence layout: a token byte whose high nibble is
//! the literal-run length and low nibble the match length minus
//! [`MIN_MATCH`] (each nibble saturates at 15 and continues in 255-run
//! extension bytes), then the literals, then a 2-byte little-endian
//! back-reference offset (1..=65535), then any match-length extension
//! bytes. The final sequence is literals only — the stream ends after
//! them, with no offset. Matches never extend into the last
//! `LAST_LITERALS` bytes and the scan stops `MFLIMIT` bytes before
//! the end, so every stream terminates in a literal run.
//!
//! # Frame
//!
//! The crate's one codec frame (`codec::seal`, magic "SLZ1"): method 0
//! stores the input verbatim, 1 is the token stream, and the frame's
//! CRC-32C is checked before the token decoder runs, so a frame that
//! crossed a wire or a spill file fails loudly without relying on the
//! decoder stumbling over it structurally.
//!
//! The matcher shares [`crate::lz77`]'s four-byte hash and copies its
//! u64 wide-compare prefix extender (eight bytes per probe via XOR
//! trailing zeros), with a flat hash table instead of hash chains —
//! sized to the input (2^8..2^14 slots, roughly one per four
//! positions, so compressing a few-KiB shuffle segment does not pay a
//! fixed 64 KiB table init) — one candidate per position, greedy emit,
//! plus LZ4-style skip acceleration so incompressible regions are
//! scanned at increasing stride instead of probing every byte.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::codec::{open, seal, Codec, PREALLOC_CAP};
use crate::error::CompressError;
use crate::lz77::hash4;

const MAGIC: &str = "SLZ1";

/// Minimum back-reference length (LZ4's 4; shorter matches cost more
/// to encode than the literals they replace).
pub const MIN_MATCH: usize = 4;
/// Maximum back-reference offset (2-byte field).
pub const MAX_OFFSET: usize = 65_535;
/// Matches never cover the last bytes of the input; the stream always
/// ends in a literal run.
const LAST_LITERALS: usize = 5;
/// The match scan stops this close to the end (LZ4's `mflimit`): the
/// tail is cheaper as literals than as bounds checks in the hot loop.
const MFLIMIT: usize = 12;

/// Hash-table size ceiling (64 KiB of `u32` slots at 14 bits).
const MAX_HASH_BITS: u32 = 14;
/// Hash-table size floor: small tables still need enough slots that
/// nearby positions don't evict each other constantly.
const MIN_HASH_BITS: u32 = 8;
/// After `2^SKIP_TRIGGER` failed probes the scan stride starts growing,
/// so incompressible input degrades toward a memcpy instead of a
/// per-byte hash probe.
const SKIP_TRIGGER: u32 = 6;

/// Hash-table bits for an `n`-byte input: roughly one slot per four
/// input positions, clamped to `[MIN_HASH_BITS, MAX_HASH_BITS]`.
/// Shuffle segments are typically a few KiB — initializing a fixed
/// 64 KiB table per segment would cost more than scanning the segment
/// itself, so the table scales with the input instead.
#[inline]
fn table_bits(n: usize) -> u32 {
    (usize::BITS - n.leading_zeros())
        .saturating_sub(2)
        .clamp(MIN_HASH_BITS, MAX_HASH_BITS)
}

/// The `N` bytes of `data` at `at`.
#[inline]
fn bytes<const N: usize>(data: &[u8], at: usize) -> [u8; N] {
    let mut word = [0; N];
    word.copy_from_slice(&data[at..at + N]);
    word
}

/// Length of the common prefix of `data[cand..]` and `data[i..]`,
/// capped at `max_len` — the same u64 wide compare as
/// [`crate::lz77`]'s extender: eight bytes per step, the first
/// differing byte read out of the XOR's trailing zeros.
#[inline]
fn match_len(data: &[u8], cand: usize, i: usize, max_len: usize) -> usize {
    debug_assert!(cand < i);
    let mut l = 0usize;
    // In bounds: `l + 8 <= max_len <= data.len() - i` keeps the `i`
    // side inside `data`, and `cand < i` keeps the candidate side
    // strictly before it.
    while l + 8 <= max_len {
        let a = u64::from_le_bytes(bytes(data, cand + l));
        let b = u64::from_le_bytes(bytes(data, i + l));
        let x = a ^ b;
        if x != 0 {
            return l + (x.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max_len && data[cand + l] == data[i + l] {
        l += 1;
    }
    l
}

fn put_len_ext(out: &mut Vec<u8>, mut v: usize) {
    while v >= 255 {
        out.push(255);
        v -= 255;
    }
    out.push(v as u8);
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], offset: usize, mlen: usize) {
    debug_assert!((1..=MAX_OFFSET).contains(&offset) && mlen >= MIN_MATCH);
    let ml = mlen - MIN_MATCH;
    let lit_nibble = literals.len().min(15);
    let ml_nibble = ml.min(15);
    out.push(((lit_nibble as u8) << 4) | ml_nibble as u8);
    if lit_nibble == 15 {
        put_len_ext(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    out.extend_from_slice(&(offset as u16).to_le_bytes());
    if ml_nibble == 15 {
        put_len_ext(out, ml - 15);
    }
}

fn emit_last_literals(out: &mut Vec<u8>, literals: &[u8]) {
    let lit_nibble = literals.len().min(15);
    out.push((lit_nibble as u8) << 4);
    if lit_nibble == 15 {
        put_len_ext(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
}

/// Single-pass tokenizer: flat hash table, one candidate per position,
/// forward extension via the wide compare, backward extension into the
/// pending literal run, one-step lazy lookahead (a longer match
/// starting one byte later wins, zlib's default strategy — record
/// streams otherwise fragment into short stride matches), and skip
/// acceleration over incompressible stretches.
fn compress_tokens(input: &[u8]) -> Vec<u8> {
    let n = input.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    let search_end = n.saturating_sub(MFLIMIT);
    let mut anchor = 0usize;
    if search_end > 0 {
        let match_cap = n - LAST_LITERALS;
        let bits = table_bits(n);
        let mut table = vec![u32::MAX; 1 << bits];
        // Probe position `p`: record it in the table and return its
        // candidate with the forward match length, if it has one.
        let probe = |table: &mut [u32], p: usize| -> Option<(usize, usize)> {
            let h = hash4(input, p, bits);
            let cand = table[h] as usize;
            table[h] = p as u32;
            if cand != u32::MAX as usize
                && p - cand <= MAX_OFFSET
                && input[cand..cand + 4] == input[p..p + 4]
            {
                Some((cand, match_len(input, cand, p, match_cap - p)))
            } else {
                None
            }
        };
        let mut i = 0usize;
        let mut probes = 0u32;
        while i < search_end {
            let Some((cand, flen)) = probe(&mut table, i) else {
                i += 1 + (probes >> SKIP_TRIGGER) as usize;
                probes += 1;
                continue;
            };
            let (mut mi, mut mcand, mut mlen) = (i, cand, flen);
            if mi + 1 < search_end {
                if let Some((c2, l2)) = probe(&mut table, mi + 1) {
                    if l2 > mlen {
                        (mi, mcand, mlen) = (mi + 1, c2, l2);
                    }
                }
            }
            // Extend backward into the literal run — bytes already
            // covered by the match are cheaper as match length.
            let mut start = mi;
            let mut mstart = mcand;
            while start > anchor && mstart > 0 && input[start - 1] == input[mstart - 1] {
                start -= 1;
                mstart -= 1;
            }
            let mlen = mlen + (mi - start);
            emit_sequence(&mut out, &input[anchor..start], mi - mcand, mlen);
            i = start + mlen;
            anchor = i;
            probes = 0;
            // Seed the last in-match position so adjacent repeats chain
            // (the bulk of the matched region is skipped, as in LZ4).
            if i >= 2 && i < search_end {
                table[hash4(input, i - 2, bits)] = (i - 2) as u32;
            }
        }
    }
    emit_last_literals(&mut out, &input[anchor..]);
    out
}

fn read_ext(payload: &[u8], p: &mut usize) -> Result<usize, CompressError> {
    let mut total = 0usize;
    loop {
        let Some(&b) = payload.get(*p) else {
            return Err(CompressError::Truncated(
                "lz length extension ran off the stream".into(),
            ));
        };
        *p += 1;
        total = total
            .checked_add(b as usize)
            .ok_or_else(|| CompressError::Corrupt("lz length extension overflows".into()))?;
        if b < 255 {
            return Ok(total);
        }
    }
}

/// Decode a token stream into exactly `orig_len` bytes. Every read is
/// bounds-checked and every length validated against `orig_len`, so a
/// malformed stream errors without panicking or over-allocating.
fn decompress_tokens(payload: &[u8], orig_len: usize) -> Result<Vec<u8>, CompressError> {
    let mut out = Vec::with_capacity(orig_len.min(PREALLOC_CAP));
    let mut p = 0usize;
    loop {
        let Some(&token) = payload.get(p) else {
            return Err(CompressError::Truncated(
                "lz token stream ended without a final literal run".into(),
            ));
        };
        p += 1;
        let mut lit = (token >> 4) as usize;
        if lit == 15 {
            lit = lit
                .checked_add(read_ext(payload, &mut p)?)
                .ok_or_else(|| CompressError::Corrupt("lz literal length overflows".into()))?;
        }
        let end = p
            .checked_add(lit)
            .filter(|&e| e <= payload.len())
            .ok_or_else(|| {
                CompressError::Truncated(format!(
                    "lz literal run of {lit} bytes exceeds the stream"
                ))
            })?;
        if out.len().checked_add(lit).is_none_or(|v| v > orig_len) {
            return Err(CompressError::Corrupt(format!(
                "lz output exceeds the declared {orig_len} bytes"
            )));
        }
        out.extend_from_slice(&payload[p..end]);
        p = end;
        if p == payload.len() {
            break; // final sequence: literals only, no offset
        }
        if p + 2 > payload.len() {
            return Err(CompressError::Truncated("lz match offset".into()));
        }
        let offset = u16::from_le_bytes(bytes(payload, p)) as usize;
        p += 2;
        if offset == 0 || offset > out.len() {
            return Err(CompressError::Corrupt(format!(
                "lz offset {offset} outside the {} decoded bytes",
                out.len()
            )));
        }
        let mut mlen = (token & 0x0F) as usize;
        if mlen == 15 {
            mlen = mlen
                .checked_add(read_ext(payload, &mut p)?)
                .ok_or_else(|| CompressError::Corrupt("lz match length overflows".into()))?;
        }
        let mlen = mlen + MIN_MATCH;
        if out.len().checked_add(mlen).is_none_or(|v| v > orig_len) {
            return Err(CompressError::Corrupt(format!(
                "lz output exceeds the declared {orig_len} bytes"
            )));
        }
        // Overlap-safe copy: each step copies at most the bytes that
        // already exist past `src`, doubling the available span, so
        // offset-1 runs expand correctly.
        let start = out.len() - offset;
        let mut copied = 0usize;
        while copied < mlen {
            let src = start + copied;
            let take = (mlen - copied).min(out.len() - src);
            out.extend_from_within(src..src + take);
            copied += take;
        }
    }
    if out.len() != orig_len {
        return Err(CompressError::Corrupt(format!(
            "lz stream decoded {} bytes, frame declared {orig_len}",
            out.len()
        )));
    }
    Ok(out)
}

/// Compress `input` into one framed lz block. Falls back to stored mode
/// when the token stream would not shrink the input.
pub fn compress(input: &[u8]) -> Vec<u8> {
    seal(MAGIC, input, &compress_tokens(input))
}

/// Decompress one framed lz block. The frame CRC is verified before
/// any decoding.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, CompressError> {
    open(MAGIC, input, decompress_tokens)
}

/// The lz format as a pluggable [`Codec`]: `lz` in the factory grammar,
/// composable as `transform+lz` (stride transform over residuals).
#[derive(Debug, Clone, Copy, Default)]
pub struct LzCodec;

impl Codec for LzCodec {
    fn name(&self) -> &str {
        "lz"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        compress(input)
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CompressError> {
        decompress(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let z = compress(data);
        assert_eq!(decompress(&z).unwrap(), data, "len {}", data.len());
        z.len()
    }

    fn grid_stream(n: i32) -> Vec<u8> {
        let mut data = Vec::new();
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    data.extend_from_slice(&x.to_be_bytes());
                    data.extend_from_slice(&y.to_be_bytes());
                    data.extend_from_slice(&z.to_be_bytes());
                }
            }
        }
        data
    }

    fn lcg_bytes(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abcd");
        roundtrip(b"abcdabcdabcd");
    }

    #[test]
    fn runs_and_grids_compress() {
        let run = vec![7u8; 100_000];
        assert!(roundtrip(&run) < 1000, "long run must collapse");
        // Raw grid keys land near 34% (≈2.9×) — the big ratios come
        // from composing transform+lz; here we pin the matcher finds
        // the stride structure at all.
        let grid = grid_stream(20);
        let z = roundtrip(&grid);
        assert!(
            z * 5 < grid.len() * 2,
            "grid keys should compress to <40%: {z} of {}",
            grid.len()
        );
    }

    #[test]
    fn incompressible_input_stays_stored_and_bounded() {
        let data = lcg_bytes(50_000, 0x1234_5678);
        let z = compress(&data);
        assert!(z.len() <= data.len() + crate::codec::HEADER_LEN);
        assert_eq!(z[4], 0, "random bytes must take the escape");
        assert_eq!(decompress(&z).unwrap(), data);
    }

    #[test]
    fn mixed_and_boundary_shapes_roundtrip() {
        // Long literal runs needing extension bytes, matches right at
        // the mflimit tail, and every small size near the cutoffs.
        for n in 0..40 {
            roundtrip(&vec![b'x'; n]);
            roundtrip(&lcg_bytes(n, n as u64 + 1));
        }
        let mut data = lcg_bytes(300, 9); // 300 literals: 15 + ext
        data.extend_from_slice(&data.clone()); // then one big match
        roundtrip(&data);
        let mut tail = vec![0u8; 1000];
        tail.extend_from_slice(&lcg_bytes(13, 3)); // run ends near mflimit
        roundtrip(&tail);
    }

    #[test]
    fn adversarial_token_streams_error_cleanly() {
        use crate::codec::CODED;
        let frame = |payload: &[u8], orig_len| crate::codec::frame(MAGIC, CODED, orig_len, payload);
        // Offset pointing before the start of the output.
        assert!(decompress(&frame(&[0x14, b'z', 9, 0, 0], 100)).is_err());
        // Zero offset.
        assert!(decompress(&frame(&[0x14, b'z', 0, 0, 0], 100)).is_err());
        // Declared length never reached.
        assert!(decompress(&frame(&[0x10, b'z'], 50)).is_err());
        // Output overrunning the declared length.
        assert!(decompress(&frame(&[0x1F, b'z', 1, 0, 200, 0, 0], 3)).is_err());
        // Length extension running off the stream.
        assert!(decompress(&frame(&[0xF0, 255, 255], 10)).is_err());
        // Giant forged orig_len must not allocate before erroring.
        assert!(decompress(&frame(&[0x10, b'z'], u64::MAX)).is_err());
    }

    #[test]
    fn compresses_faster_than_deflate_on_segment_shaped_bytes() {
        // The design target: ≥3× deflate compression throughput on the
        // paper's grid-key workload. Enforced with margin by the gated
        // bench; asserted loosely here so a matcher regression fails
        // fast in unit tests too (debug builds: require >1×).
        let data = grid_stream(24);
        let deflate = crate::DeflateCodec::new();
        let t0 = std::time::Instant::now();
        let _ = compress(&data);
        let lz_t = t0.elapsed();
        let t0 = std::time::Instant::now();
        let _ = deflate.compress(&data);
        let deflate_t = t0.elapsed();
        assert!(
            lz_t < deflate_t,
            "lz compress ({lz_t:?}) should beat deflate ({deflate_t:?})"
        );
    }

    #[test]
    fn codec_trait_roundtrips_and_names() {
        let c = LzCodec;
        assert_eq!(c.name(), "lz");
        let data = grid_stream(10);
        assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data);
    }
}
