//! Codec-kernel benchmark: the single-threaded kernels' speed and the
//! sizes they produce, one committed baseline (`BENCH_codec.json`).
//!
//! [`StridePredictor`] forward and inverse on the Fig. 3 stream (about
//! eight live strides) and on a median-shaped stream (none or one: the
//! regime the end-to-end sliding-median job is in), deflate over raw
//! and transformed streams and over one transformed segment of
//! `benchmark/`'s `median-transform-local` (the row that predicts its
//! `deflate.compress_s` layer), and lz against deflate on the same
//! stream.
//! `regress` holds `lz_vs_deflate_compress_speedup` above 3.0; it falls
//! whenever deflate gets faster (44.6 before the codec kernels were
//! rewritten, 28.5 before deflate's chains were keyed on four bytes),
//! which is the ratio doing its job, not a regression.
//!
//! Run with `cargo bench --bench bench_codec`. Set
//! `BENCH_CODEC_JSON=<path>` to write the JSON report;
//! `BENCH_CODEC_FAST=1` shrinks the stream and sample counts (CI smoke).

use criterion::{black_box, Criterion, Throughput};
use scihadoop_bench::report::{rounded, write_bench_json};
use scihadoop_bench::workloads;
use scihadoop_compress::{Codec, DeflateCodec, IdentityCodec, LzCodec};
use scihadoop_core::transform::{StridePredictor, TransformCodec, TransformConfig};
use std::sync::Arc;

fn fast_mode() -> bool {
    std::env::var("BENCH_CODEC_FAST").is_ok_and(|v| v != "0")
}

fn median_of(c: &Criterion, id: &str) -> f64 {
    c.measurements
        .iter()
        .find(|m| m.id == id)
        .unwrap_or_else(|| panic!("measurement {id} missing"))
        .median_ns
}

fn main() {
    let mut criterion = Criterion::default();
    let samples = if fast_mode() { 1 } else { 5 };
    let n = if fast_mode() { 32 } else { 100 };
    // The Fig. 3 workload: serialized keys of an n³ grid walk.
    let stream = workloads::grid_key_stream(n);
    let config = TransformConfig::default();

    // 1. Predictor kernels, in the regime of each stream.
    {
        let mut g = criterion.benchmark_group("codec_predictor");
        g.throughput(Throughput::Bytes(stream.len() as u64))
            .sample_size(samples);
        g.bench_function("fast/forward", |b| {
            b.iter(|| black_box(StridePredictor::new(config.clone()).forward(&stream)))
        });
        let transformed = StridePredictor::new(config.clone()).forward(&stream);
        g.bench_function("fast/inverse", |b| {
            b.iter(|| black_box(StridePredictor::new(config.clone()).inverse(&transformed)))
        });
        let median = workloads::median_record_stream(stream.len() / 18);
        g.throughput(Throughput::Bytes(median.len() as u64));
        g.bench_function("fast/median_stream", |b| {
            b.iter(|| black_box(StridePredictor::new(config.clone()).forward(&median)))
        });
        g.finish();
    }

    // 2. Deflate over the raw and the transformed stream (the two
    //    shapes the match finder sees in the shuffle).
    {
        let transformed = StridePredictor::new(config.clone()).forward(&stream);
        let deflate = DeflateCodec::new();
        let mut g = criterion.benchmark_group("codec_deflate");
        g.throughput(Throughput::Bytes(stream.len() as u64))
            .sample_size(samples);
        g.bench_function("compress/raw", |b| {
            b.iter(|| black_box(deflate.compress(&stream)))
        });
        g.bench_function("compress/transformed", |b| {
            b.iter(|| black_box(deflate.compress(&transformed)))
        });
        g.finish();
    }

    // 2b. The LZ-class fast codec against deflate and identity on the
    //     same stream — the wire-compression trade the shuffle makes.
    //     The claim gated by BENCH_codec.json: lz compresses the grid
    //     keys at >= 3x deflate's throughput (it skips the entropy
    //     stage entirely; matches + literal runs only).
    let (lz_size, deflate_size) = {
        let lz = LzCodec;
        let deflate = DeflateCodec::new();
        let identity = IdentityCodec;
        let z_lz = lz.compress(&stream);
        let z_deflate = deflate.compress(&stream);
        let mut g = criterion.benchmark_group("codec_lz");
        g.throughput(Throughput::Bytes(stream.len() as u64))
            .sample_size(samples);
        g.bench_function("identity/compress", |b| {
            b.iter(|| black_box(identity.compress(&stream)))
        });
        g.bench_function("lz/compress", |b| {
            b.iter(|| black_box(lz.compress(&stream)))
        });
        g.bench_function("deflate/compress", |b| {
            b.iter(|| black_box(deflate.compress(&stream)))
        });
        g.bench_function("lz/decompress", |b| {
            b.iter(|| black_box(lz.decompress(&z_lz).unwrap()))
        });
        g.bench_function("deflate/decompress", |b| {
            b.iter(|| black_box(deflate.decompress(&z_deflate).unwrap()))
        });
        g.finish();
        (z_lz.len(), z_deflate.len())
    };

    // 2c. The `deflate.compress_s` layer of `median-transform-local`:
    //     one of the job's 80 segments, as the transform leaves it. Built
    //     last, so the rows above run in the process state they always
    //     ran in.
    let median_segment =
        StridePredictor::new(config.clone()).forward(&workloads::median_strip_segment(42));
    let median_segment_deflate_size = {
        let deflate = DeflateCodec::new();
        let mut g = criterion.benchmark_group("codec_deflate");
        g.throughput(Throughput::Bytes(median_segment.len() as u64))
            .sample_size(samples);
        g.bench_function("compress/median_segment", |b| {
            b.iter(|| black_box(deflate.compress(&median_segment)))
        });
        g.finish();
        deflate.compress(&median_segment).len()
    };

    // Sizes on the Fig. 3 stream: deflate alone (the lz rows' `z_deflate`)
    // and behind the stride transform.
    let transform_deflate_size = TransformCodec::new(config, Arc::new(DeflateCodec::new()))
        .compress(&stream)
        .len();

    let host_cpus = scihadoop_mapreduce::obs::host_cpus();
    let lz_vs_deflate_compress_speedup = median_of(&criterion, "codec_lz/deflate/compress")
        / median_of(&criterion, "codec_lz/lz/compress");
    let lz_ratio = lz_size as f64 / stream.len() as f64;
    let deflate_ratio = deflate_size as f64 / stream.len() as f64;

    println!("\nhost cpus:                      {host_cpus}");
    println!(
        "lz vs deflate compress speedup: {lz_vs_deflate_compress_speedup:.2}x (budget >= 3x; \
         ratio {lz_ratio:.3} vs {deflate_ratio:.3})"
    );
    println!("deflate / transform+deflate:    {deflate_size} / {transform_deflate_size} B");
    println!(
        "median segment, transformed:    {} B -> deflate {median_segment_deflate_size} B",
        median_segment.len()
    );

    if let Ok(path) = std::env::var("BENCH_CODEC_JSON") {
        let fields = vec![
            ("host_cpus", host_cpus.into()),
            ("stream_bytes", (stream.len() as u64).into()),
            ("deflate_whole_bytes", (deflate_size as u64).into()),
            (
                "transform_deflate_whole_bytes",
                (transform_deflate_size as u64).into(),
            ),
            ("lz_bytes", (lz_size as u64).into()),
            ("median_segment_bytes", (median_segment.len() as u64).into()),
            (
                "median_segment_deflate_bytes",
                (median_segment_deflate_size as u64).into(),
            ),
            ("lz_ratio", rounded(lz_ratio, 4)),
            ("deflate_ratio", rounded(deflate_ratio, 4)),
            (
                "lz_vs_deflate_compress_speedup",
                rounded(lz_vs_deflate_compress_speedup, 2),
            ),
        ];
        write_bench_json(
            &path,
            "bytes_per_s",
            criterion
                .measurements
                .iter()
                .map(|m| (m.id.as_str(), m.median_ns, m.per_second().unwrap_or(0.0))),
            fields,
        );
    }
}
