//! §III-E / §IV-D end-to-end: the sliding-median job under all three
//! pipeline configurations (in-process; the cost model scales these to
//! cluster size in the `repro` binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scihadoop_bench::workloads;
use scihadoop_compress::DeflateCodec;
use scihadoop_core::transform::TransformCodec;
use scihadoop_mapreduce::{Framing, JobConfig};
use scihadoop_queries::median::{SlidingMedian, SlidingMedianVariant};
use scihadoop_queries::KeyLayout;
use std::sync::Arc;

fn bench_cluster(c: &mut Criterion) {
    let n = 48u32;
    let var = workloads::int_square(n, 21);
    let layout = KeyLayout::Indexed { index: 0, ndims: 2 };
    let base = JobConfig::default()
        .with_reducers(5)
        .with_slots(10, 5)
        .with_framing(Framing::SequenceFile)
        .with_ifile_version(scihadoop_bench::PAPER_IFILE);

    let mut group = c.benchmark_group("cluster_sliding_median");
    group.throughput(Throughput::Elements((n as u64) * (n as u64)));
    group.sample_size(10);
    type VariantMaker = Box<dyn Fn() -> SlidingMedianVariant>;
    let variants: Vec<(&str, VariantMaker)> = vec![
        ("baseline", Box::new(|| SlidingMedianVariant::Plain)),
        (
            "transform_deflate",
            Box::new(|| {
                SlidingMedianVariant::PlainWithCodec(Arc::new(TransformCodec::with_defaults(
                    Arc::new(DeflateCodec::new()),
                )))
            }),
        ),
        (
            "aggregated",
            Box::new(|| SlidingMedianVariant::Aggregated {
                buffer_bytes: 64 << 20,
            }),
        ),
    ];
    for (name, make) in &variants {
        group.bench_with_input(BenchmarkId::from_parameter(*name), make, |b, make| {
            b.iter(|| {
                let mut q = SlidingMedian::new(layout.clone(), make());
                q.num_splits = 8;
                q.base_config = base.clone();
                q.run(&var).unwrap().medians.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
