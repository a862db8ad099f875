//! Per-phase CPU breakdown of each cluster-experiment variant, as this
//! host measures it — the quick triage tool for phase-accounting
//! regressions (run with
//! `cargo run --release -p scihadoop-bench --example probe_cluster`).
//! `repro cluster` prices counted work and reads none of these clocks;
//! this probe runs the same three jobs at 48² and prints their timings.

use scihadoop_bench::{workloads, PAPER_IFILE};
use scihadoop_compress::DeflateCodec;
use scihadoop_core::transform::TransformCodec;
use scihadoop_mapreduce::{Framing, JobConfig};
use scihadoop_queries::median::{SlidingMedian, SlidingMedianVariant};
use scihadoop_queries::KeyLayout;
use std::sync::Arc;

fn main() {
    let var = workloads::int_square(48, 21);
    let codec = TransformCodec::with_defaults(Arc::new(DeflateCodec::new()));
    for (label, variant) in [
        ("baseline (plain keys)", SlidingMedianVariant::Plain),
        (
            "transform+deflate codec",
            SlidingMedianVariant::PlainWithCodec(Arc::new(codec)),
        ),
        (
            "key aggregation",
            SlidingMedianVariant::Aggregated {
                buffer_bytes: 64 << 20,
            },
        ),
    ] {
        let mut q = SlidingMedian::new(KeyLayout::Indexed { index: 0, ndims: 2 }, variant);
        q.num_splits = 8;
        q.base_config = JobConfig::default()
            .with_reducers(5)
            .with_slots(10, 5)
            .with_framing(Framing::SequenceFile)
            .with_ifile_version(PAPER_IFILE);
        let s = q.run(&var).expect("query runs").result.stats;
        println!(
            "{:40} map_fn {:>8.1}ms spill {:>8.1}ms merge {:>8.1}ms reduce_fn {:>8.1}ms compress {:>8.1}ms decompress {:>8.1}ms",
            label,
            s.map_fn_nanos as f64 / 1e6,
            s.spill_nanos as f64 / 1e6,
            s.merge_nanos as f64 / 1e6,
            s.reduce_fn_nanos as f64 / 1e6,
            s.compress_nanos as f64 / 1e6,
            s.decompress_nanos as f64 / 1e6,
        );
    }
}
