//! Fig. 2 reproduced: dump the serialized key stream of a `windspeed1`
//! grid walk, highlight a detected linear sequence, and show what the
//! transform does to the stream.
//!
//! ```sh
//! cargo run --release --example inspect_stream
//! ```

use scihadoop::core::transform::{detect_sequences, StridePredictor, TransformConfig};
use scihadoop::grid::Coord;
use scihadoop::queries::KeyLayout;

fn hexdump(data: &[u8], rows: usize, highlight: impl Fn(usize) -> bool) {
    for r in 0..rows {
        let base = r * 16;
        if base >= data.len() {
            break;
        }
        let line = &data[base..(base + 16).min(data.len())];
        let hex: Vec<String> = line
            .iter()
            .enumerate()
            .map(|(i, b)| {
                if highlight(base + i) {
                    format!("[{b:02x}]")
                } else {
                    format!(" {b:02x} ")
                }
            })
            .collect();
        let ascii: String = line
            .iter()
            .map(|&b| if b.is_ascii_graphic() { b as char } else { '.' })
            .collect();
        println!("{base:06x}  {}  {ascii}", hex.join(""));
    }
}

fn main() {
    // Keys exactly as Hadoop would serialize them: Text("windspeed1") +
    // three big-endian i32 coordinates, walking a grid row-major.
    let layout = KeyLayout::Named {
        name: "windspeed1".into(),
        ndims: 3,
    };
    let mut stream = Vec::new();
    for x in 0..4i32 {
        for y in 0..4i32 {
            for z in 0..20i32 {
                stream.extend(layout.encode(&Coord::new(vec![x, y, z])));
            }
        }
    }

    println!(
        "serialized key stream ({} bytes, 23 bytes/key):\n",
        stream.len()
    );

    // Detect the strongest linear sequences (the Fig. 2 caption's
    // δ=0x0a, s=47, φ=34 was for their 47-byte records; ours are 23).
    let reports = detect_sequences(&stream, 64, 4000);
    let best = reports
        .iter()
        .find(|r| r.delta != 0)
        .expect("a changing byte sequence exists");
    println!(
        "strongest changing sequence: delta=0x{:02x}, stride={}, phase={} (support {})\n",
        best.delta, best.stride, best.phase, best.support
    );

    let (s, phi) = (best.stride, best.phase);
    hexdump(&stream, 12, |i| i % s == phi);

    // What the transform leaves behind.
    let mut predictor = StridePredictor::new(TransformConfig::default());
    let transformed = predictor.forward(&stream);
    let zeros = transformed.iter().filter(|&&b| b == 0).count();
    println!(
        "\nafter the stride-predictive transform: {zeros}/{} bytes are zero ({:.1}%)",
        transformed.len(),
        100.0 * zeros as f64 / transformed.len() as f64
    );
    println!("\ntransformed stream (same offsets):\n");
    hexdump(&transformed, 12, |_| false);

    // Which strides the adaptive detector ended up trusting.
    println!("\ntop strides after adaptation:");
    for r in predictor.stride_reports().into_iter().take(4) {
        println!(
            "   stride {:>3}  active={}  hit rate {:>5.1}%  best run {}",
            r.stride,
            r.active,
            100.0 * r.hit_rate(),
            r.best_run
        );
    }
}
