//! Canonical Huffman coding with length-limited codes.
//!
//! Shared by the Deflate- and Bzip-style codecs. Codes are canonical
//! (assigned in (length, symbol) order) so only the code *lengths* need to
//! be transmitted.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::bitio::{BitReader, BitWriter};
use crate::error::CompressError;

/// Maximum code length either codec ever uses.
pub const MAX_CODE_LEN: u32 = 15;

/// Compute length-limited Huffman code lengths for the given symbol
/// frequencies. Symbols with zero frequency get length 0 (no code).
///
/// Lengths are limited to `max_len` bits; if the optimal tree is deeper,
/// codes are demoted until the Kraft inequality holds again (slightly
/// suboptimal, always valid).
pub fn build_lengths(freqs: &[u64], max_len: u32) -> Vec<u32> {
    assert!((1..=MAX_CODE_LEN).contains(&max_len));
    let n = freqs.len();
    let live: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    let mut lengths = vec![0u32; n];
    match live.len() {
        0 => return lengths,
        1 => {
            lengths[live[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Heap-based Huffman over (freq, node). Internal nodes get indices
    // >= n. parent[] lets us read off depths afterwards.
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> = live
        .iter()
        .map(|&i| std::cmp::Reverse((freqs[i], i)))
        .collect();
    let mut parent = vec![usize::MAX; n + live.len()];
    let mut next = n;
    while let (Some(std::cmp::Reverse((fa, a))), Some(std::cmp::Reverse((fb, b)))) =
        (heap.pop(), heap.pop())
    {
        parent[a] = next;
        parent[b] = next;
        heap.push(std::cmp::Reverse((fa + fb, next)));
        next += 1;
    }
    // Two or more leaves: the last node merged is the root.
    let root = next - 1;
    for &i in &live {
        let mut d = 0u32;
        let mut node = i;
        while node != root {
            node = parent[node];
            d += 1;
        }
        lengths[i] = d.max(1);
    }

    limit_lengths(freqs, &mut lengths, max_len);
    lengths
}

/// Enforce `max_len` on a set of code lengths, preserving validity of the
/// Kraft inequality.
fn limit_lengths(freqs: &[u64], lengths: &mut [u32], max_len: u32) {
    let mut over = false;
    for l in lengths.iter_mut() {
        if *l > max_len {
            *l = max_len;
            over = true;
        }
    }
    if !over {
        return;
    }
    // Kraft sum in units of 2^-max_len.
    let one: u64 = 1 << max_len;
    let kraft = |lengths: &[u32]| -> u64 {
        lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (max_len - l))
            .sum()
    };
    let mut k = kraft(lengths);
    while k > one {
        // Demote the least-frequent symbol that still has room to grow;
        // one does while k > one and the alphabet is under 2^max_len.
        let Some(victim) = (0..lengths.len())
            .filter(|&i| lengths[i] > 0 && lengths[i] < max_len)
            .min_by_key(|&i| (freqs[i], std::cmp::Reverse(lengths[i])))
        else {
            break;
        };
        k -= 1 << (max_len - lengths[victim] - 1);
        lengths[victim] += 1;
    }
}

/// Assign canonical codes (MSB-first) for the given lengths.
pub fn canonical_codes(lengths: &[u32]) -> Vec<u32> {
    let max = lengths.iter().copied().max().unwrap_or(0);
    let mut bl_count = vec![0u32; (max + 1) as usize];
    for &l in lengths {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u32; (max + 2) as usize];
    let mut code = 0u32;
    for bits in 1..=max {
        code = (code + bl_count[(bits - 1) as usize]) << 1;
        next_code[bits as usize] = code;
    }
    lengths
        .iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                c
            }
        })
        .collect()
}

/// An encoder: symbol → code, stored the way the stream wants it.
#[derive(Debug, Clone)]
pub struct Encoder {
    /// Per symbol, the code bit-reversed (codes are built MSB-first;
    /// DEFLATE streams them LSB-first) in the low 16 bits and its length
    /// above them.
    codes: Vec<u32>,
}

impl Encoder {
    /// Build an encoder from code lengths.
    pub fn from_lengths(lengths: &[u32]) -> Self {
        let codes = canonical_codes(lengths)
            .iter()
            .zip(lengths)
            .map(|(&code, &len)| match len {
                0 => 0,
                _ => (code.reverse_bits() >> (32 - len)) | (len << 16),
            })
            .collect();
        Encoder { codes }
    }

    /// The bits to stream for `symbol` and how many they are.
    #[inline]
    pub fn code(&self, symbol: usize) -> (u64, u32) {
        let packed = self.codes[symbol];
        debug_assert!(packed != 0, "symbol {symbol} has no code");
        ((packed & 0xFFFF) as u64, packed >> 16)
    }

    /// Emit the code for `symbol`.
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, symbol: usize) {
        let (bits, len) = self.code(symbol);
        w.write_bits(bits, len);
    }
}

/// Width of the decoder's first-level table: codes this short (all of
/// them, for most tables) resolve in one probe.
const PRIMARY_BITS: u32 = 10;
/// Marks a first-level entry that points at a second-level table.
const LINK: u32 = 1 << 31;

/// A two-level table decoder for canonical codes.
#[derive(Debug, Clone)]
pub struct Decoder {
    /// Entries are `symbol << 4 | code length`; 0 means no code has this
    /// prefix. The first `1 << primary_bits` entries are indexed by the
    /// next bits of the stream; where longer codes share that prefix the
    /// entry is `LINK | offset` of a `1 << sub_bits` table indexed by the
    /// bits after it.
    table: Vec<u32>,
    primary_bits: u32,
    sub_bits: u32,
}

impl Decoder {
    /// Build a decoder from code lengths.
    pub fn from_lengths(lengths: &[u32]) -> Result<Self, CompressError> {
        let max = lengths.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return Err(CompressError::BadHuffmanTable("no symbols".into()));
        }
        if max > MAX_CODE_LEN {
            return Err(CompressError::BadHuffmanTable(format!(
                "length {max} exceeds {MAX_CODE_LEN}"
            )));
        }
        if lengths.len() > u16::MAX as usize {
            return Err(CompressError::BadHuffmanTable("alphabet too large".into()));
        }
        // Validate Kraft (over-subscribed tables are corrupt; incomplete
        // tables are accepted — single-symbol streams produce them).
        let kraft: u64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (max - l))
            .sum();
        if kraft > 1u64 << max {
            return Err(CompressError::BadHuffmanTable("over-subscribed".into()));
        }
        let primary_bits = max.min(PRIMARY_BITS);
        let sub_bits = max - primary_bits;
        let mut table = vec![0u32; 1 << primary_bits];
        for (sym, (&len, &code)) in lengths.iter().zip(&canonical_codes(lengths)).enumerate() {
            if len == 0 {
                continue;
            }
            // The writer streams codes bit-reversed, so the reader sees
            // the reversed code in its low bits.
            let rev = (code.reverse_bits() >> (32 - len)) as usize;
            let entry = (sym as u32) << 4 | len;
            // A code owns every index whose low `len` bits equal it.
            let (base, end, step) = if len <= primary_bits {
                (rev, 1 << primary_bits, 1 << len)
            } else {
                let prefix = rev & ((1 << primary_bits) - 1);
                if table[prefix] == 0 {
                    table[prefix] = LINK | table.len() as u32;
                    table.resize(table.len() + (1 << sub_bits), 0);
                }
                // Codes are prefix-free (canonical, Kraft ≤ 1), so a
                // long code's prefix is never a short code's entry.
                debug_assert!(table[prefix] & LINK != 0);
                let sub = (table[prefix] & !LINK) as usize;
                (
                    sub + (rev >> primary_bits),
                    sub + (1 << sub_bits),
                    1 << (len - primary_bits),
                )
            };
            for slot in table[..end][base..].iter_mut().step_by(step) {
                *slot = entry;
            }
        }
        Ok(Decoder {
            table,
            primary_bits,
            sub_bits,
        })
    }

    /// The symbol whose code starts `bits` (LSB-first, as
    /// [`BitReader::peek`] returns them) and that code's length; length 0
    /// when no code does.
    #[inline]
    pub fn lookup(&self, bits: u64) -> (usize, u32) {
        let mut entry = self.table[(bits & ((1 << self.primary_bits) - 1)) as usize];
        if entry & LINK != 0 {
            let sub = (bits >> self.primary_bits) & ((1 << self.sub_bits) - 1);
            entry = self.table[(entry & !LINK) as usize + sub as usize];
        }
        ((entry >> 4) as usize, entry & 0xF)
    }

    /// Decode one symbol, consuming exactly its code length in bits.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<usize, CompressError> {
        let (sym, len) = self.lookup(r.peek());
        if len == 0 {
            return Err(CompressError::Corrupt("invalid huffman code".into()));
        }
        r.consume(len)?;
        Ok(sym)
    }
}

/// Serialize code lengths as 4-bit nibbles, preceded by a u16 symbol
/// count.
pub fn write_lengths(w: &mut BitWriter, lengths: &[u32]) {
    w.write_bits(lengths.len() as u64, 16);
    for &l in lengths {
        debug_assert!(l <= MAX_CODE_LEN);
        w.write_bits(l as u64, 4);
    }
}

/// Inverse of [`write_lengths`].
pub fn read_lengths(r: &mut BitReader<'_>) -> Result<Vec<u32>, CompressError> {
    let n = r.read_bits(16)? as usize;
    let mut lengths = Vec::with_capacity(n);
    for _ in 0..n {
        lengths.push(r.read_bits(4)? as u32);
    }
    Ok(lengths)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_symbols(freqs: &[u64], stream: &[usize]) {
        let lengths = build_lengths(freqs, MAX_CODE_LEN);
        let enc = Encoder::from_lengths(&lengths);
        let mut w = BitWriter::new();
        for &s in stream {
            enc.encode(&mut w, s);
        }
        let bytes = w.finish();
        let dec = Decoder::from_lengths(&lengths).unwrap();
        let mut r = BitReader::new(&bytes);
        for &s in stream {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn codes_are_streamed_bit_reversed() {
        // Lengths [2, 2, 2, 3, 3] give symbol 3 the canonical code 0b110,
        // which must appear as 0b011 LSB-first.
        let enc = Encoder::from_lengths(&[2, 2, 2, 3, 3]);
        assert_eq!(enc.code(3), (0b011, 3));
        let mut w = BitWriter::new();
        enc.encode(&mut w, 3);
        assert_eq!(w.finish(), vec![0b0000_0011]);
    }

    #[test]
    fn long_codes_resolve_through_the_second_level() {
        // Fibonacci-like frequencies force a 15-bit-deep tree, so the
        // rare symbols' codes are longer than the first-level table.
        let freqs: Vec<u64> = (0..24).map(|i| 1u64 << i).collect();
        let lengths = build_lengths(&freqs, MAX_CODE_LEN);
        assert_eq!(lengths.iter().copied().max(), Some(MAX_CODE_LEN));
        let stream: Vec<usize> = (0..24).chain((0..24).rev()).collect();
        roundtrip_symbols(&freqs, &stream);
    }

    #[test]
    fn two_symbol_alphabet() {
        roundtrip_symbols(&[5, 3], &[0, 1, 0, 0, 1, 1, 0]);
    }

    #[test]
    fn single_symbol_alphabet_gets_one_bit() {
        let lengths = build_lengths(&[0, 42, 0], MAX_CODE_LEN);
        assert_eq!(lengths, vec![0, 1, 0]);
        roundtrip_symbols(&[0, 42, 0], &[1, 1, 1]);
    }

    #[test]
    fn skewed_frequencies_give_short_codes_to_common_symbols() {
        let freqs = [1000, 10, 10, 1];
        let lengths = build_lengths(&freqs, MAX_CODE_LEN);
        assert!(lengths[0] <= lengths[1]);
        assert!(lengths[1] <= lengths[3]);
        roundtrip_symbols(&freqs, &[0, 0, 1, 2, 3, 0]);
    }

    #[test]
    fn kraft_inequality_holds_after_limiting() {
        // Fibonacci-ish frequencies force deep trees; limit to 6 bits.
        let freqs: Vec<u64> = (0..30).map(|i| 1u64 << (i / 2)).collect();
        let lengths = build_lengths(&freqs, 6);
        assert!(lengths.iter().all(|&l| (1..=6).contains(&l)));
        let kraft: f64 = lengths.iter().map(|&l| (2f64).powi(-(l as i32))).sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft = {kraft}");
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let lengths = build_lengths(&[7, 7, 7, 7, 2, 2, 1], MAX_CODE_LEN);
        let codes = canonical_codes(&lengths);
        for i in 0..lengths.len() {
            for j in 0..lengths.len() {
                if i == j || lengths[i] == 0 || lengths[j] == 0 {
                    continue;
                }
                if lengths[i] <= lengths[j] {
                    let shift = lengths[j] - lengths[i];
                    assert!(codes[i] != codes[j] >> shift, "code {i} is a prefix of {j}");
                }
            }
        }
    }

    #[test]
    fn decoder_rejects_oversubscribed_table() {
        // Three codes of length 1 is over-subscribed.
        assert!(Decoder::from_lengths(&[1, 1, 1]).is_err());
        assert!(Decoder::from_lengths(&[0, 0]).is_err());
    }

    #[test]
    fn lengths_serialization_roundtrip() {
        let lengths = vec![0u32, 3, 5, 15, 1, 0, 7];
        let mut w = BitWriter::new();
        write_lengths(&mut w, &lengths);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(read_lengths(&mut r).unwrap(), lengths);
    }

    #[test]
    fn large_alphabet_roundtrip() {
        // Deflate-sized alphabet with uneven use.
        let mut freqs = vec![0u64; 286];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = ((i * 37) % 97) as u64;
        }
        freqs[256] = 1; // EOB always present
        let stream: Vec<usize> = (0..2000)
            .map(|i| (i * 31) % 286)
            .filter(|&s| freqs[s] > 0)
            .collect();
        roundtrip_symbols(&freqs, &stream);
    }
}
