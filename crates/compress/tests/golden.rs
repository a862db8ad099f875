//! Golden bytes: the exact output of `DeflateCodec::compress`, recorded
//! at the commit before the codec kernels were rewritten for speed,
//! re-pinned once when deflate moved into the shared codec frame (the
//! mode byte to byte 4, a CRC-32C over the frame for the IEEE CRC-32 of
//! the input; every length and body byte held) and once when the match
//! finder's chains moved from three-byte to four-byte keys (the token
//! decisions changed; the token format and the entropy pass did not).
//! A kernel change that moves one output byte moves a CRC here — and
//! every byte table in EXPERIMENTS.md with it.

mod common;

use scihadoop_compress::{crc32c, Codec, DeflateCodec};

/// `codec input length crc32c` per line.
const GOLDEN: &str = "\
deflate empty 17 ae54a841
deflate one 18 ef363666
deflate two 19 83e989d1
deflate three 20 afbfa5fc
deflate zeros_64k 244 9a54ce26
deflate random_20k 20017 823219df
deflate text 329 222490fb
deflate grid_30 53998 04bffb1d
deflate median_20k 104976 03df2250
deflate multi_stride 74499 1a6dd317
";

#[test]
fn deflate_output_is_pinned() {
    let mut actual = String::new();
    let codec = DeflateCodec::new();
    for (name, data) in common::inputs() {
        let z = codec.compress(&data);
        assert_eq!(codec.decompress(&z).unwrap(), data, "deflate {name}");
        actual.push_str(&format!("deflate {name} {} {:08x}\n", z.len(), crc32c(&z)));
    }
    assert_eq!(actual, GOLDEN, "actual:\n{actual}");
}
