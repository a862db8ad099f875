//! CRC-32C (Castagnoli, reflected polynomial 0x82F63B78): the
//! workspace's one checksum.
//!
//! Every codec frame, every IFile segment trailer and every shuffle
//! slot carries one, so that a corrupted intermediate byte fails loudly
//! at the reducer instead of silently producing wrong query answers.
//! The shuffle verifies a trailer per fetched segment on the merge hot
//! path, so throughput matters: on x86-64 with SSE 4.2 this runs three
//! interleaved streams of the `crc32q` instruction and recombines them
//! with compile-time GF(2) shift tables (Adler's scheme); elsewhere it
//! falls back to slice-by-16, which folds sixteen bytes per step
//! through sixteen precomputed tables instead of one byte through one
//! table.
//!
//! Either way a given input has exactly one CRC-32C value — the
//! hardware path is an implementation detail, not a format change.

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78), hardware
/// accelerated where the CPU provides it.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(data);
    c.finish()
}

/// Incremental CRC-32C state.
#[derive(Debug, Clone)]
pub struct Crc32c {
    state: u32,
}

const CASTAGNOLI: u32 = 0x82F6_3B78;

/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes;
/// XORing the sixteen per-lane lookups advances the CRC sixteen bytes.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CASTAGNOLI
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Slice-by-16 kernel: the fallback where no CRC instruction exists.
fn update_sliced(state: u32, data: &[u8]) -> u32 {
    let mut s = state;
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let a = u32::from_le_bytes(chunk[0..4].try_into().expect("4 bytes")) ^ s;
        let b = u32::from_le_bytes(chunk[4..8].try_into().expect("4 bytes"));
        let c = u32::from_le_bytes(chunk[8..12].try_into().expect("4 bytes"));
        let d = u32::from_le_bytes(chunk[12..16].try_into().expect("4 bytes"));
        s = TABLES[15][(a & 0xFF) as usize]
            ^ TABLES[14][((a >> 8) & 0xFF) as usize]
            ^ TABLES[13][((a >> 16) & 0xFF) as usize]
            ^ TABLES[12][(a >> 24) as usize]
            ^ TABLES[11][(b & 0xFF) as usize]
            ^ TABLES[10][((b >> 8) & 0xFF) as usize]
            ^ TABLES[9][((b >> 16) & 0xFF) as usize]
            ^ TABLES[8][(b >> 24) as usize]
            ^ TABLES[7][(c & 0xFF) as usize]
            ^ TABLES[6][((c >> 8) & 0xFF) as usize]
            ^ TABLES[5][((c >> 16) & 0xFF) as usize]
            ^ TABLES[4][(c >> 24) as usize]
            ^ TABLES[3][(d & 0xFF) as usize]
            ^ TABLES[2][((d >> 8) & 0xFF) as usize]
            ^ TABLES[1][((d >> 16) & 0xFF) as usize]
            ^ TABLES[0][(d >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        s = TABLES[0][((s ^ byte as u32) & 0xFF) as usize] ^ (s >> 8);
    }
    s
}

impl Crc32c {
    /// Fresh state.
    pub fn new() -> Self {
        Crc32c { state: 0xFFFF_FFFF }
    }

    /// Feed bytes.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("sse4.2") {
            // SAFETY: the sse4.2 requirement was just checked.
            self.state = unsafe { hw::update(self.state, data) };
            return;
        }
        self.state = update_sliced(self.state, data);
    }

    /// Final CRC value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Crc32c::new()
    }
}

// ---------------------------------------------------------------------
// GF(2) shift operators: the CRC of `data ++ [0u8; n]` is a linear
// function of the CRC of `data`, so appending n zero bytes is a 32×32
// bit-matrix product. The hardware path runs three independent streams
// and needs "shift by one stream's length" to stitch them back
// together; the matrices (and the 4×256 lookup tables that apply them a
// byte at a time) are computed at compile time.
// ---------------------------------------------------------------------

/// Apply a GF(2) operator (`mat[i]` = image of bit `i`) to a state.
const fn gf2_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

/// Operator composition `a ∘ b` (apply `b`, then `a`).
const fn gf2_compose(a: &[u32; 32], b: &[u32; 32]) -> [u32; 32] {
    let mut out = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        out[i] = gf2_times(a, b[i]);
        i += 1;
    }
    out
}

/// The operator for appending `nbytes` zero bytes to a reflected CRC.
const fn zeros_op(nbytes: usize) -> [u32; 32] {
    // One zero bit: s' = (s >> 1) ^ (poly if s & 1).
    let mut bit_op = [0u32; 32];
    bit_op[0] = CASTAGNOLI;
    let mut i = 1;
    while i < 32 {
        bit_op[i] = 1 << (i - 1);
        i += 1;
    }
    // One zero byte = bit operator squared three times.
    let mut byte_op = bit_op;
    let mut s = 0;
    while s < 3 {
        byte_op = gf2_compose(&byte_op, &byte_op);
        s += 1;
    }
    // byte_op^nbytes by binary exponentiation.
    let mut result = [0u32; 32]; // identity
    let mut i = 0;
    while i < 32 {
        result[i] = 1 << i;
        i += 1;
    }
    let mut base = byte_op;
    let mut n = nbytes;
    while n > 0 {
        if n & 1 != 0 {
            result = gf2_compose(&base, &result);
        }
        base = gf2_compose(&base, &base);
        n >>= 1;
    }
    result
}

/// 4×256 tables applying a zero-shift operator one state byte at a time.
const fn shift_tables(nbytes: usize) -> [[u32; 256]; 4] {
    let op = zeros_op(nbytes);
    let mut t = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            t[k][b] = gf2_times(&op, (b as u32) << (8 * k));
            b += 1;
        }
        k += 1;
    }
    t
}

#[cfg(target_arch = "x86_64")]
mod hw {
    use super::shift_tables;

    /// Bytes per interleaved stream in the long and short block kernels.
    const LONG: usize = 8192;
    const SHORT: usize = 256;

    static SHIFT_LONG: [[u32; 256]; 4] = shift_tables(LONG);
    static SHIFT_SHORT: [[u32; 256]; 4] = shift_tables(SHORT);

    /// Advance `crc` past one stream's worth of zero bytes.
    fn shift(t: &[[u32; 256]; 4], crc: u32) -> u32 {
        t[0][(crc & 0xFF) as usize]
            ^ t[1][((crc >> 8) & 0xFF) as usize]
            ^ t[2][((crc >> 16) & 0xFF) as usize]
            ^ t[3][(crc >> 24) as usize]
    }

    /// Three `crc32q` streams + GF(2) recombination.
    ///
    /// # Safety
    /// The caller must have verified SSE 4.2 support.
    #[target_feature(enable = "sse4.2")]
    pub(super) unsafe fn update(state: u32, mut data: &[u8]) -> u32 {
        use core::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
        let word = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("8 bytes"));
        let mut crc = state;
        for (block_len, tables) in [(LONG, &SHIFT_LONG), (SHORT, &SHIFT_SHORT)] {
            while data.len() >= 3 * block_len {
                let (a, rest) = data.split_at(block_len);
                let (b, rest) = rest.split_at(block_len);
                let (c, rest) = rest.split_at(block_len);
                let mut c0 = crc as u64;
                let mut c1 = 0u64;
                let mut c2 = 0u64;
                for ((wa, wb), wc) in a
                    .chunks_exact(8)
                    .zip(b.chunks_exact(8))
                    .zip(c.chunks_exact(8))
                {
                    c0 = _mm_crc32_u64(c0, word(wa));
                    c1 = _mm_crc32_u64(c1, word(wb));
                    c2 = _mm_crc32_u64(c2, word(wc));
                }
                crc = shift(tables, c0 as u32) ^ c1 as u32;
                crc = shift(tables, crc) ^ c2 as u32;
                data = rest;
            }
        }
        let mut c64 = crc as u64;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            c64 = _mm_crc32_u64(c64, word(chunk));
        }
        crc = c64 as u32;
        for &byte in chunks.remainder() {
            crc = _mm_crc32_u8(crc, byte);
        }
        crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliced_kernel_matches_bytewise_reference_at_every_length() {
        // Cross-check the slice-by-16 fast path (and every remainder
        // length around its 16-byte boundary) against the one-table
        // byte-at-a-time recurrence.
        let bytewise = |data: &[u8]| -> u32 {
            let mut s = 0xFFFF_FFFFu32;
            for &b in data {
                s = TABLES[0][((s ^ b as u32) & 0xFF) as usize] ^ (s >> 8);
            }
            s ^ 0xFFFF_FFFF
        };
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            let sliced = update_sliced(0xFFFF_FFFF, &data[..len]) ^ 0xFFFF_FFFF;
            assert_eq!(sliced, bytewise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 appendix B.4 test vectors.
        assert_eq!(crc32c(b""), 0x0000_0000);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn crc32c_hardware_and_software_paths_agree() {
        // Exercise every kernel regime: sub-word tails, single-stream
        // words, the 3×256 short blocks, and the 3×8192 long blocks with
        // their GF(2) recombination shifts.
        let data: Vec<u8> = (0..40_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in [
            0, 1, 7, 8, 9, 255, 256, 767, 768, 769, 24_575, 24_576, 40_000,
        ] {
            let sw = update_sliced(0xFFFF_FFFF, &data[..len]) ^ 0xFFFF_FFFF;
            assert_eq!(crc32c(&data[..len]), sw, "len {len}");
        }
    }

    #[test]
    fn crc32c_incremental_equals_oneshot_across_block_boundaries() {
        let data: Vec<u8> = (0..30_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let oneshot = crc32c(&data);
        for split in [1usize, 255, 4096, 24_576, 29_999] {
            let mut c = Crc32c::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), oneshot, "split {split}");
        }
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(crc32c(b"a"), crc32c(b"b"));
        assert_ne!(crc32c(&[0]), crc32c(&[0, 0]));
    }
}
