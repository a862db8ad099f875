//! Golden bytes: the exact output of `DeflateCodec::compress`, recorded
//! at the commit before the codec kernels were rewritten for speed and
//! re-pinned once when deflate moved into the shared codec frame (the
//! mode byte to byte 4, a CRC-32C over the frame for the IEEE CRC-32 of
//! the input; every length and body byte held). A kernel change that
//! moves one output byte moves a CRC here — and every byte table in
//! EXPERIMENTS.md with it.

mod common;

use scihadoop_compress::{crc32c, Codec, DeflateCodec};

/// `codec input length crc32c` per line.
const GOLDEN: &str = "\
deflate empty 17 ae54a841
deflate one 18 ef363666
deflate two 19 83e989d1
deflate three 20 afbfa5fc
deflate zeros_64k 244 cf5c359e
deflate random_20k 20017 823219df
deflate text 328 a037345d
deflate grid_30 54706 116bc54e
deflate median_20k 104990 7d360673
deflate multi_stride 74393 477bf3c8
deflate-chain8 empty 17 ae54a841
deflate-chain8 one 18 ef363666
deflate-chain8 two 19 83e989d1
deflate-chain8 three 20 afbfa5fc
deflate-chain8 zeros_64k 244 cf5c359e
deflate-chain8 random_20k 20017 823219df
deflate-chain8 text 328 a037345d
deflate-chain8 grid_30 52050 ad7bc107
deflate-chain8 median_20k 105115 0c55681d
deflate-chain8 multi_stride 74424 d4720f6b
";

#[test]
fn deflate_output_is_pinned() {
    let mut actual = String::new();
    for (codec_name, codec) in [
        ("deflate", DeflateCodec::new()),
        ("deflate-chain8", DeflateCodec::with_chain(8)),
    ] {
        for (name, data) in common::inputs() {
            let z = codec.compress(&data);
            assert_eq!(codec.decompress(&z).unwrap(), data, "{codec_name} {name}");
            actual.push_str(&format!(
                "{codec_name} {name} {} {:08x}\n",
                z.len(),
                crc32c(&z)
            ));
        }
    }
    assert_eq!(actual, GOLDEN, "actual:\n{actual}");
}
