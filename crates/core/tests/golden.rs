//! Golden bytes: the exact output of the stride transform and of
//! transform+deflate, recorded at the commit before the predictor and the
//! deflate kernels were rewritten for speed. Invertibility needs forward
//! and inverse to evolve one state; the paper's byte tables need that
//! state to be the one they were measured with.

#[path = "../../compress/tests/common/mod.rs"]
mod common;

use scihadoop_compress::{crc32, Codec, DeflateCodec};
use scihadoop_core::transform::{StridePredictor, TransformCodec, TransformConfig};
use std::sync::Arc;

/// `what input length crc32` per line; `forward` lines end with the
/// number of strides left active and the CRC of the stride reports.
const GOLDEN: &str = "\
forward empty 0 00000000 100 2c169b59
transform+deflate empty 25 27bf2771
forward one 1 59bc5767 100 2c169b59
transform+deflate one 26 489d80b8
forward two 2 8a331fcb 100 b2f66a87
transform+deflate two 27 e9649b0f
forward three 3 55bc801d 100 b94eae3f
transform+deflate three 28 5a0f776a
forward zeros_64k 65536 d7978eeb 100 62ded080
transform+deflate zeros_64k 252 65adafcb
forward random_20k 20000 c5d3aa6e 1 9d14629b
transform+deflate random_20k 20025 cd61c378
forward text 25800 11bd6a36 1 f03b72dc
transform+deflate text 277 56f01f8d
forward grid_30 324000 f54fc095 8 9407961c
transform+deflate grid_30 2413 8d008117
forward median_20k 360000 a85839f7 0 a53c6b46
transform+deflate median_20k 106909 3d70b8ca
forward multi_stride 245000 805ae1ff 6 8ff1ac02
transform+deflate multi_stride 6281 e34bd7a8
";

#[test]
fn transform_output_is_pinned() {
    let codec = TransformCodec::with_defaults(Arc::new(DeflateCodec::new()));
    let mut actual = String::new();
    for (name, data) in common::inputs() {
        let mut p = StridePredictor::new(TransformConfig::default());
        let t = p.forward(&data);
        let back = StridePredictor::new(TransformConfig::default()).inverse(&t);
        assert_eq!(back, data, "inverse {name}");
        actual.push_str(&format!(
            "forward {name} {} {:08x} {} {:08x}\n",
            t.len(),
            crc32(&t),
            p.active_strides(),
            crc32(format!("{:?}", p.stride_reports()).as_bytes())
        ));
        let z = codec.compress(&data);
        assert_eq!(codec.decompress(&z).unwrap(), data, "codec {name}");
        actual.push_str(&format!(
            "transform+deflate {name} {} {:08x}\n",
            z.len(),
            crc32(&z)
        ));
    }
    assert_eq!(actual, GOLDEN, "actual:\n{actual}");
}

#[test]
fn multi_stride_input_keeps_several_strides_live() {
    // The general (many-stride) loop is only pinned if an input reaches it.
    let data = common::multi_stride_stream();
    let mut p = StridePredictor::new(TransformConfig::default());
    let mut least = usize::MAX;
    for (i, chunk) in data.chunks(1000).enumerate() {
        p.forward(chunk);
        // All 100 strides start active; look once adaptation has settled.
        if (20..100).contains(&i) {
            least = least.min(p.active_strides());
        }
    }
    assert!(least >= 4, "only {least} strides stayed live");
}
