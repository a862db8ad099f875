//! Bit-granular I/O, LSB-first (the DEFLATE convention).

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::error::CompressError;

/// Accumulates bits LSB-first into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Pending bits; fewer than 8 between calls.
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// An empty writer with room for `bytes` output bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            out: Vec::with_capacity(bytes),
            ..BitWriter::default()
        }
    }

    /// Append the low `n` bits of `bits` (LSB emitted first). `n <= 56`.
    #[inline]
    pub fn write_bits(&mut self, bits: u64, n: u32) {
        debug_assert!(n <= 56, "write_bits limited to 56 bits per call");
        debug_assert!(bits >> n == 0, "value wider than bit count");
        self.acc |= bits << self.nbits;
        self.nbits += n;
        // Store the whole accumulator as one word and keep only the
        // complete bytes: no per-byte loop, one capacity check.
        let whole = self.nbits / 8;
        self.out.extend_from_slice(&self.acc.to_le_bytes());
        self.out.truncate(self.out.len() - 8 + whole as usize);
        self.acc >>= 8 * whole;
        self.nbits %= 8;
    }

    /// Pad to a byte boundary with zero bits.
    pub fn align_byte(&mut self) {
        if self.nbits > 0 {
            self.out.push(self.acc as u8);
            self.acc = 0;
            self.nbits = 0;
        }
    }

    /// Finish (byte-aligning) and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_byte();
        self.out
    }
}

/// Reads bits LSB-first from a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    /// The low `nbits` bits are unread input. Bits above them are zero
    /// or a preview of the input after `pos`; no caller may rely on them.
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Read from `data`, starting at its first byte.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Top the accumulator up to at least 56 bits (fewer only when the
    /// input ends): one unaligned 8-byte load while 8 bytes remain.
    #[inline]
    fn refill(&mut self) {
        if let Some(word) = self.data.get(self.pos..).and_then(<[u8]>::first_chunk) {
            let word = u64::from_le_bytes(*word);
            self.acc |= word << self.nbits;
            let bytes = (63 - self.nbits) / 8;
            self.pos += bytes as usize;
            self.nbits += 8 * bytes;
        } else {
            while self.nbits <= 56 && self.pos < self.data.len() {
                self.acc |= (self.data[self.pos] as u64) << self.nbits;
                self.pos += 1;
                self.nbits += 8;
            }
        }
    }

    /// Refill and return the accumulator without consuming anything:
    /// the next bits of the stream, LSB-first. At least 56 of them are
    /// input unless the input ends sooner; [`consume`](Self::consume)
    /// is what checks that the bits a caller used really existed.
    #[inline]
    pub fn peek(&mut self) -> u64 {
        self.refill();
        self.acc
    }

    /// Drop `n` bits of the last [`peek`](Self::peek).
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<(), CompressError> {
        if self.nbits < n {
            return Err(CompressError::Truncated(format!(
                "wanted {n} bits, {} left",
                self.nbits
            )));
        }
        self.acc >>= n;
        self.nbits -= n;
        Ok(())
    }

    /// Read `n` bits (`n <= 56`), LSB-first.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, CompressError> {
        debug_assert!(n <= 56);
        let v = self.peek() & ((1u64 << n) - 1);
        self.consume(n)?;
        Ok(v)
    }

    /// Discard bits up to the next byte boundary.
    pub fn align_byte(&mut self) {
        let drop = self.nbits % 8;
        self.acc >>= drop;
        self.nbits -= drop;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(0b1010, 4);
        w.write_bits(0x3FFF, 14);
        w.write_bits(0, 3);
        w.write_bits(0x1FFFFF, 21);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 0b1);
        assert_eq!(r.read_bits(4).unwrap(), 0b1010);
        assert_eq!(r.read_bits(14).unwrap(), 0x3FFF);
        assert_eq!(r.read_bits(3).unwrap(), 0);
        assert_eq!(r.read_bits(21).unwrap(), 0x1FFFFF);
    }

    #[test]
    fn lsb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1); // bit 0 of byte 0
        w.write_bits(0b11, 2); // bits 1-2
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0000_0111]);
    }

    #[test]
    fn truncation_is_an_error() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn align_byte_discards_partial() {
        let mut r = BitReader::new(&[0xFF, 0x01]);
        r.read_bits(3).unwrap();
        r.align_byte();
        assert_eq!(r.read_bits(8).unwrap(), 0x01);
    }
}
