//! Quickstart: the two key-compression approaches in twenty lines each.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use scihadoop::compress::{Codec, DeflateCodec};
use scihadoop::core::aggregate::Aggregator;
use scihadoop::core::transform::TransformCodec;
use scihadoop::grid::{BoundingBox, Coord, Shape};
use scihadoop::sfc::ZOrderCurve;
use std::sync::Arc;

fn main() {
    // -- §III: the stride-predictive transform as a codec ----------------
    // A mapper walking a 40³ grid serializes 768,000 bytes of keys.
    let keys = BoundingBox::at_origin(Shape::cube(40, 3)).key_stream_be();

    let deflate = DeflateCodec::new();
    let transform = TransformCodec::with_defaults(Arc::new(DeflateCodec::new()));

    let plain = deflate.compress(&keys);
    let transformed = transform.compress(&keys);
    assert_eq!(transform.decompress(&transformed).unwrap(), keys);

    println!("key stream:         {:>9} bytes", keys.len());
    println!("deflate:            {:>9} bytes", plain.len());
    println!(
        "transform+deflate:  {:>9} bytes  ({}x better than deflate alone)",
        transformed.len(),
        plain.len() / transformed.len().max(1)
    );

    // -- §IV: key aggregation over a space-filling curve ------------------
    // 4096 per-cell keys collapse into a handful of Z-order ranges.
    let mut agg = Aggregator::new(ZOrderCurve::with_bits(2, 6), 1 << 20);
    for x in 0..64 {
        for y in 0..64 {
            agg.push(&Coord::new(vec![x, y]), &(x * 64 + y).to_be_bytes())
                .unwrap();
        }
    }
    let records = agg.flush();
    let simple_key_bytes = 64 * 64 * 8; // two 4-byte ints per key
    let aggregate_key_bytes: usize = records.iter().map(|r| r.key.to_bytes().len()).sum();
    println!();
    println!(
        "simple keys:        {:>9} bytes ({} keys)",
        simple_key_bytes,
        64 * 64
    );
    println!(
        "aggregate keys:     {:>9} bytes ({} range{})",
        aggregate_key_bytes,
        records.len(),
        if records.len() == 1 { "" } else { "s" }
    );
}
