//! Golden bytes: the exact output of `DeflateCodec::compress`, recorded
//! at the commit before the codec kernels were rewritten for speed. A
//! kernel change that moves one output byte moves a CRC here — and every
//! byte table in EXPERIMENTS.md with it.

mod common;

use scihadoop_compress::{crc32, Codec, DeflateCodec};

/// `codec input length crc32` per line.
const GOLDEN: &str = "\
deflate empty 17 f562d02b
deflate one 18 c3f1e5a5
deflate two 19 8ae99bb3
deflate three 20 98bb05cd
deflate zeros_64k 244 f7875cdf
deflate random_20k 20017 cb7ce13b
deflate text 328 86d79df3
deflate grid_30 54706 71e30bcf
deflate median_20k 104990 d39f9ff2
deflate multi_stride 74393 ce0aea18
deflate-chain8 empty 17 f562d02b
deflate-chain8 one 18 c3f1e5a5
deflate-chain8 two 19 8ae99bb3
deflate-chain8 three 20 98bb05cd
deflate-chain8 zeros_64k 244 f7875cdf
deflate-chain8 random_20k 20017 cb7ce13b
deflate-chain8 text 328 86d79df3
deflate-chain8 grid_30 52050 f70f7aa2
deflate-chain8 median_20k 105115 beafe042
deflate-chain8 multi_stride 74424 e6783496
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
                crc32(&z)
            ));
        }
    }
    assert_eq!(actual, GOLDEN, "actual:\n{actual}");
}
