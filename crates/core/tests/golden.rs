//! Golden bytes: the exact output of the stride transform and of
//! transform+deflate, recorded at the commit before the predictor and the
//! deflate kernels were rewritten for speed, and re-pinned once when the
//! hash became CRC-32C and deflate moved into the shared codec frame
//! (every length, stride count and body byte held); the
//! `transform+deflate` lines re-pinned once more when deflate's match
//! finder moved to four-byte chain keys. Invertibility needs forward
//! and inverse to evolve one state; the paper's byte tables need that
//! state to be the one they were measured with.

#[path = "../../compress/tests/common/mod.rs"]
mod common;

use scihadoop_compress::{crc32c, Codec, DeflateCodec};
use scihadoop_core::transform::{StridePredictor, TransformCodec, TransformConfig};
use std::sync::Arc;

/// `what input length crc32c` per line; `forward` lines end with the
/// number of strides left active and the CRC of the stride reports.
const GOLDEN: &str = "\
forward empty 0 00000000 100 e4f5e86e
transform+deflate empty 25 d98495f6
forward one 1 68baa1ba 100 e4f5e86e
transform+deflate one 26 899ef079
forward two 2 b12541ea 100 6e464ffd
transform+deflate two 27 cdc2da5c
forward three 3 f130f21e 100 d9b21746
transform+deflate three 28 922ff904
forward zeros_64k 65536 72c0c4a4 100 f77a93c8
transform+deflate zeros_64k 252 fcffb617
forward random_20k 20000 dda75bad 1 339f01a9
transform+deflate random_20k 20025 a33d11b4
forward text 25800 1adedb76 1 0d3e2574
transform+deflate text 279 9e6d7710
forward grid_30 324000 20f35473 8 79ef178f
transform+deflate grid_30 2377 c1890510
forward median_20k 360000 a14dcc8b 0 ac6c39c8
transform+deflate median_20k 106884 10e561be
forward multi_stride 245000 734e0456 6 a608d15a
transform+deflate multi_stride 6282 c775c5ec
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
            crc32c(&t),
            p.active_strides(),
            crc32c(format!("{:?}", p.stride_reports()).as_bytes())
        ));
        let z = codec.compress(&data);
        assert_eq!(codec.decompress(&z).unwrap(), data, "codec {name}");
        actual.push_str(&format!(
            "transform+deflate {name} {} {:08x}\n",
            z.len(),
            crc32c(&z)
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
