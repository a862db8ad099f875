//! Run-length stages used by the Bzip-style codec.
//!
//! * RLE1 — bzip2's input pre-pass: runs of 4..=259 equal bytes become the
//!   4 bytes plus a count byte. Protects the BWT sorter from degenerate
//!   inputs.
//! * Zero-run (RUNA/RUNB) coding — bzip2's post-MTF stage: runs of zeros
//!   are written in bijective base 2 using two dedicated symbols.

use crate::error::CompressError;

/// bzip2-style RLE1: any run of 4..=259 identical bytes is emitted as four
/// copies plus a count byte (0..=255 extra repetitions).
pub fn rle1_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + 8);
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        let mut run = 1usize;
        while i + run < data.len() && data[i + run] == b && run < 259 {
            run += 1;
        }
        if run >= 4 {
            out.extend_from_slice(&[b, b, b, b]);
            out.push((run - 4) as u8);
        } else {
            out.resize(out.len() + run, b);
        }
        i += run;
    }
    out
}

/// Inverse of [`rle1_encode`].
pub fn rle1_decode(data: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut out = Vec::with_capacity(data.len());
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        // Count identical bytes from i, up to 4.
        let mut run = 1usize;
        while run < 4 && i + run < data.len() && data[i + run] == b {
            run += 1;
        }
        if run == 4 {
            let extra = *data
                .get(i + 4)
                .ok_or_else(|| CompressError::Truncated("rle1 count byte".into()))?
                as usize;
            out.resize(out.len() + 4 + extra, b);
            i += 5;
        } else {
            out.resize(out.len() + run, b);
            i += run;
        }
    }
    Ok(out)
}

/// Symbols of the zero-run alphabet: RUNA and RUNB encode zero-run lengths
/// in bijective base 2; other bytes shift up by 1. EOB terminates.
pub const SYM_RUNA: u16 = 0;
/// Second zero-run digit.
pub const SYM_RUNB: u16 = 1;
/// Offset added to non-zero MTF bytes.
pub const SYM_BYTE_OFFSET: u16 = 1;
/// Number of symbols including EOB for a byte alphabet.
pub const ZRLE_ALPHABET: usize = 258;
/// End-of-block symbol.
pub const SYM_EOB: u16 = 257;

/// Encode an MTF byte stream into the RUNA/RUNB symbol stream
/// (bzip2-style), terminated by EOB.
pub fn zrle_encode(data: &[u8]) -> Vec<u16> {
    let mut out = Vec::with_capacity(data.len() / 2 + 8);
    let mut zero_run = 0u64;
    let flush = |out: &mut Vec<u16>, mut run: u64| {
        // Bijective base 2: digits are RUNA (=1) and RUNB (=2).
        while run > 0 {
            if run & 1 == 1 {
                out.push(SYM_RUNA);
                run = (run - 1) >> 1;
            } else {
                out.push(SYM_RUNB);
                run = (run - 2) >> 1;
            }
        }
    };
    for &b in data {
        if b == 0 {
            zero_run += 1;
        } else {
            if zero_run > 0 {
                flush(&mut out, zero_run);
                zero_run = 0;
            }
            out.push(b as u16 + SYM_BYTE_OFFSET);
        }
    }
    if zero_run > 0 {
        flush(&mut out, zero_run);
    }
    out.push(SYM_EOB);
    out
}

/// Inverse of [`zrle_encode`]; stops at EOB. A zero run's length grows
/// exponentially with the symbols that spell it, so the caller states
/// how many bytes the symbols may expand to and anything longer is
/// corrupt — before it is allocated.
pub fn zrle_decode(symbols: &[u16], max_len: usize) -> Result<Vec<u8>, CompressError> {
    let too_long = || CompressError::Corrupt(format!("zrle block exceeds {max_len} bytes"));
    let mut out = Vec::with_capacity((symbols.len() * 2).min(max_len));
    let mut run = 0usize;
    let mut digit = 1usize;
    let mut saw_eob = false;
    for &s in symbols {
        match s {
            SYM_RUNA | SYM_RUNB => {
                run += if s == SYM_RUNA { digit } else { 2 * digit };
                digit <<= 1;
                if run > max_len - out.len() {
                    return Err(too_long());
                }
            }
            SYM_EOB => {
                saw_eob = true;
                break;
            }
            _ => {
                out.resize(out.len() + run, 0);
                run = 0;
                digit = 1;
                let b = s - SYM_BYTE_OFFSET;
                if b > 255 {
                    return Err(CompressError::Corrupt(format!("bad zrle symbol {s}")));
                }
                if out.len() == max_len {
                    return Err(too_long());
                }
                out.push(b as u8);
            }
        }
    }
    out.resize(out.len() + run, 0);
    if !saw_eob {
        return Err(CompressError::Truncated("missing EOB".into()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle1_roundtrip() {
        for data in [
            Vec::new(),
            b"abc".to_vec(),
            vec![7u8; 3],
            vec![7u8; 4],
            vec![7u8; 259],
            vec![7u8; 260],
            vec![7u8; 1000],
            [vec![1u8; 6], b"xy".to_vec(), vec![2u8; 300]].concat(),
        ] {
            let enc = rle1_encode(&data);
            assert_eq!(rle1_decode(&enc).unwrap(), data, "len {}", data.len());
        }
    }

    #[test]
    fn rle1_truncation_detected() {
        // Four equal bytes with the count byte missing.
        assert!(rle1_decode(&[9, 9, 9, 9]).is_err());
    }

    #[test]
    fn rle1_shrinks_long_runs() {
        let enc = rle1_encode(&vec![0u8; 259]);
        assert_eq!(enc.len(), 5);
    }

    #[test]
    fn zrle_roundtrip() {
        for data in [
            Vec::new(),
            vec![0u8],
            vec![0u8; 1],
            vec![0u8; 2],
            vec![0u8; 3],
            vec![0u8; 1000],
            b"ab".to_vec(),
            [vec![0u8; 5], vec![9u8], vec![0u8; 7]].concat(),
            (0u8..=255).collect(),
        ] {
            let sym = zrle_encode(&data);
            assert_eq!(
                zrle_decode(&sym, data.len()).unwrap(),
                data,
                "data {data:?}"
            );
        }
    }

    #[test]
    fn zrle_zero_runs_are_logarithmic() {
        // A run of 2^20 zeros needs ~20 symbols, not a million.
        let sym = zrle_encode(&vec![0u8; 1 << 20]);
        assert!(sym.len() < 25, "got {} symbols", sym.len());
    }

    #[test]
    fn zrle_missing_eob_detected() {
        let mut sym = zrle_encode(b"xyz");
        sym.pop();
        assert!(zrle_decode(&sym, 100).is_err());
    }

    #[test]
    fn zrle_run_longer_than_the_block_is_corrupt_not_allocated() {
        // 70 RUNB digits spell a run of ~2^71 zeros.
        let mut sym = vec![SYM_RUNB; 70];
        sym.push(SYM_EOB);
        assert!(matches!(
            zrle_decode(&sym, 900_000),
            Err(CompressError::Corrupt(_))
        ));
        // One byte over the limit, by run and by literal.
        assert!(zrle_decode(&zrle_encode(&[0; 8]), 7).is_err());
        assert!(zrle_decode(&zrle_encode(b"abc"), 2).is_err());
    }

    #[test]
    fn zrle_ignores_symbols_after_eob() {
        let mut sym = zrle_encode(b"q");
        sym.push(SYM_RUNA);
        assert_eq!(zrle_decode(&sym, 1).unwrap(), b"q");
    }
}
