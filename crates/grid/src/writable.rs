//! Hadoop-"Writable"-style serialization primitives for grid keys.
//!
//! Hadoop serializes every intermediate key independently, the moment the
//! mapper emits it (paper §II-B assumption *b*). For scientific grids the
//! serialized key is a variable identifier plus one 32-bit integer per
//! dimension, big-endian. The key layout itself is written once, in
//! `scihadoop_queries::KeyLayout`; this module holds the pieces it is
//! made of:
//!
//! * `Text`    — variable-length int (vint) byte count + UTF-8 bytes
//! * `IntWritable` — 4-byte big-endian two's-complement
//! * vint      — Hadoop's `WritableUtils.writeVInt` wire format
//!
//! With the variable name `windspeed1` a 3-D key costs
//! `1 + 10 + 3×4 = 23` bytes for a 4-byte value; with an integer variable
//! index it costs `4 + 3×4 = 16` bytes. Together with the engine's 6-byte
//! per-record framing this reproduces the paper's 33- and 26-byte records
//! (§I) and the 6.75× key/value ratio.

use crate::coord::Coord;
use crate::error::GridError;

/// Serialized size of a Hadoop `Text`: vint byte count + UTF-8 bytes.
pub fn text_len(text: &str) -> usize {
    vint_len(text.len() as i64) + text.len()
}

/// Append a Hadoop `Text`.
pub fn write_text(out: &mut Vec<u8>, text: &str) {
    write_vint(out, text.len() as i64);
    out.extend_from_slice(text.as_bytes());
}

/// Read a Hadoop `Text` (vint byte count + UTF-8 bytes) from the front of
/// `buf`; returns the string, borrowed, and the bytes consumed.
pub fn read_text(buf: &[u8]) -> Result<(&str, usize), GridError> {
    let (len, pos) = read_vint(buf)?;
    let len =
        usize::try_from(len).map_err(|_| GridError::Deserialize("negative name length".into()))?;
    let bytes = pos
        .checked_add(len)
        .and_then(|end| buf.get(pos..end))
        .ok_or_else(|| GridError::Deserialize("short read in variable name".into()))?;
    let text = std::str::from_utf8(bytes)
        .map_err(|_| GridError::Deserialize("variable name not UTF-8".into()))?;
    Ok((text, pos + len))
}

/// Read `ndims` big-endian 32-bit components from the front of `buf`;
/// returns the coordinate and the bytes consumed.
#[inline]
pub fn read_coord(buf: &[u8], ndims: usize) -> Result<(Coord, usize), GridError> {
    let bytes = ndims
        .checked_mul(4)
        .and_then(|n| buf.get(..n))
        .ok_or_else(|| {
            GridError::Deserialize(format!(
                "need 4 bytes per dimension for a {ndims}-d coordinate, have {}",
                buf.len()
            ))
        })?;
    let mut coord = Coord::origin(ndims);
    for (c, be) in coord.components_mut().iter_mut().zip(bytes.chunks_exact(4)) {
        *c = i32::from_be_bytes([be[0], be[1], be[2], be[3]]);
    }
    Ok((coord, bytes.len()))
}

/// Number of bytes Hadoop's vint encoding uses for `v`.
pub fn vint_len(v: i64) -> usize {
    if (-112..=127).contains(&v) {
        return 1;
    }
    let v = if v < 0 { !v } else { v };
    let data_bytes = 8 - (v.leading_zeros() as usize) / 8;
    1 + data_bytes
}

/// Hadoop `WritableUtils.writeVInt`/`writeVLong` wire format.
///
/// Values in `[-112, 127]` are one byte. Otherwise the first byte encodes
/// sign and byte count (`-113..-120` positive, `-121..-128` negative) and
/// the magnitude follows big-endian with leading zeros trimmed.
pub fn write_vint(out: &mut Vec<u8>, v: i64) {
    if (-112..=127).contains(&v) {
        out.push(v as u8);
        return;
    }
    let (mut tag, mag) = if v < 0 { (-120i64, !v) } else { (-112i64, v) };
    let data_bytes = (8 - (mag.leading_zeros() as usize) / 8).max(1);
    tag -= data_bytes as i64;
    out.push(tag as u8);
    for i in (0..data_bytes).rev() {
        out.push((mag >> (8 * i)) as u8);
    }
}

/// Inverse of [`write_vint`]; returns the value and bytes consumed.
pub fn read_vint(buf: &[u8]) -> Result<(i64, usize), GridError> {
    let first = *buf
        .first()
        .ok_or_else(|| GridError::Deserialize("empty vint".into()))? as i8;
    if first >= -112 {
        return Ok((first as i64, 1));
    }
    let (negative, data_bytes) = if first >= -120 {
        (false, (-113 - first as i64) as usize + 1)
    } else {
        (true, (-121 - first as i64) as usize + 1)
    };
    if buf.len() < 1 + data_bytes {
        return Err(GridError::Deserialize("short vint".into()));
    }
    // Accumulate in u64 — 8 data bytes fill exactly 64 bits, so the shift
    // cannot overflow — and reject magnitudes with no i64 representation
    // (the encoder writes at most `!i64::MIN == i64::MAX`).
    let mut mag = 0u64;
    for &b in &buf[1..1 + data_bytes] {
        mag = (mag << 8) | b as u64;
    }
    if mag > i64::MAX as u64 {
        return Err(GridError::Deserialize(format!(
            "vint magnitude {mag:#x} out of i64 range"
        )));
    }
    let mag = mag as i64;
    let v = if negative { !mag } else { mag };
    Ok((v, 1 + data_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vint_small_values_are_one_byte() {
        for v in [-112i64, -1, 0, 1, 127] {
            let mut buf = Vec::new();
            write_vint(&mut buf, v);
            assert_eq!(buf.len(), 1, "v={v}");
            assert_eq!(read_vint(&buf).unwrap(), (v, 1));
        }
    }

    #[test]
    fn vint_roundtrip_wide_range() {
        for v in [
            -113i64,
            128,
            255,
            256,
            -129,
            65_535,
            -65_536,
            i64::MAX,
            i64::MIN,
            1 << 40,
        ] {
            let mut buf = Vec::new();
            write_vint(&mut buf, v);
            assert_eq!(buf.len(), vint_len(v), "len mismatch for {v}");
            assert_eq!(read_vint(&buf).unwrap(), (v, buf.len()), "v={v}");
        }
    }

    #[test]
    fn vint_rejects_truncation() {
        let mut buf = Vec::new();
        write_vint(&mut buf, 100_000);
        assert!(read_vint(&buf[..buf.len() - 1]).is_err());
        assert!(read_vint(&[]).is_err());
    }

    #[test]
    fn vint_rejects_out_of_range_magnitude() {
        // 8 data bytes with the top bit set: magnitude > i64::MAX. Both
        // sign tags must error instead of overflowing (debug) or wrapping
        // (release).
        for tag in [0x88u8, 0x80u8] {
            let mut buf = vec![tag];
            buf.extend_from_slice(&[0xFF; 8]);
            assert!(read_vint(&buf).is_err(), "tag {tag:#x}");
        }
    }
}
