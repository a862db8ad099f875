//! The paper's evaluation workload end-to-end: a 3×3 sliding median over
//! an integer grid, run through all three pipeline configurations
//! (§III-E / §IV-D), printing the byte accounting each produces.
//!
//! ```sh
//! cargo run --release --example sliding_median [grid-side]
//! ```

use scihadoop::compress::DeflateCodec;
use scihadoop::core::transform::TransformCodec;
use scihadoop::grid::{Shape, Variable};
use scihadoop::mapreduce::{Counter, Framing, IFileVersion, JobConfig};
use scihadoop::queries::median::{SlidingMedian, SlidingMedianVariant};
use scihadoop::queries::KeyLayout;
use std::sync::Arc;

fn main() {
    let n: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(96);
    let var =
        Variable::random_i32("grid", Shape::new(vec![n, n]), 1_000_000, 42).expect("valid grid");
    let layout = KeyLayout::Indexed { index: 0, ndims: 2 };
    let base = JobConfig::default()
        .with_reducers(5)
        .with_slots(10, 5)
        .with_framing(Framing::SequenceFile)
        // Hadoop's framed records, the baseline the paper's three
        // configurations are measured against. Drop this line to see the
        // same three on the engine's default block layout, where the
        // plain path already stores each key once.
        .with_ifile_version(IFileVersion::V2);

    println!("sliding 3x3 median over a {n}x{n} grid ({} cells)\n", n * n);
    println!(
        "{:<26} {:>14} {:>14} {:>12} {:>12}",
        "variant", "raw bytes", "materialized", "records", "splits"
    );

    let mut reference = None;
    for (label, variant) in [
        ("plain keys (baseline)", SlidingMedianVariant::Plain),
        (
            "transform+deflate codec",
            SlidingMedianVariant::PlainWithCodec(Arc::new(TransformCodec::with_defaults(
                Arc::new(DeflateCodec::new()),
            ))),
        ),
        (
            "key aggregation",
            SlidingMedianVariant::Aggregated {
                buffer_bytes: 64 << 20,
            },
        ),
    ] {
        let mut q = SlidingMedian::new(layout.clone(), variant);
        q.num_splits = 16;
        q.base_config = base.clone();
        let run = q.run(&var).expect("query runs");

        // Every variant must agree on every median.
        match &reference {
            None => reference = Some(run.medians.clone()),
            Some(r) => assert_eq!(&run.medians, r, "{label} disagrees with baseline"),
        }

        let c = &run.result.counters;
        println!(
            "{:<26} {:>14} {:>14} {:>12} {:>12}",
            label,
            c.get(Counter::MapOutputBytes),
            c.get(Counter::MapOutputMaterializedBytes),
            c.get(Counter::MapOutputRecords),
            c.get(Counter::RouteSplitRecords) + c.get(Counter::SortSplitRecords),
        );
    }
    println!("\nall three variants produced identical medians ✓");
}
