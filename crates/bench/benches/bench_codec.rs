//! Codec-kernel benchmark: the kernels' speed and what the block frame
//! costs, measured.
//!
//! Three questions, one committed baseline (`BENCH_codec.json`):
//!
//! 1. **Parallel block pipeline** — `block-transform+deflate` with a
//!    4-worker [`CodecPool`] vs the whole-buffer `transform+deflate`
//!    compress path on the Fig. 3 grid-key stream. The ratio is a claim
//!    about cores, so it is only emitted on a host with at least 4;
//!    `host_cpus` is recorded either way.
//! 2. **Single-threaded kernels** — [`StridePredictor`] forward and
//!    inverse on the Fig. 3 stream (about eight live strides) and on a
//!    median-shaped stream (none or one: the regime the end-to-end
//!    sliding-median job is in), plus deflate over raw and transformed
//!    streams, and lz against deflate on the same stream. `regress` holds
//!    `lz_vs_deflate_compress_speedup` above 3.0; it falls whenever
//!    deflate gets faster (44.6 before PR 14's kernels), which is the
//!    ratio doing its job, not a regression.
//! 3. **Ratio cost** — compressed size of the block frame vs the
//!    whole-buffer stream (must stay within 5%), plus a 64 KiB–1 MiB
//!    block-size sweep backing the 256 KiB default.
//!
//! Run with `cargo bench --bench bench_codec`. Set
//! `BENCH_CODEC_JSON=<path>` to write the JSON report;
//! `BENCH_CODEC_FAST=1` shrinks the stream and sample counts (CI smoke).

use criterion::{black_box, Criterion, Throughput};
use scihadoop_bench::json::Json;
use scihadoop_bench::report::{rounded, write_bench_json};
use scihadoop_bench::workloads;
use scihadoop_compress::{BlockCodec, Codec, CodecPool, DeflateCodec, IdentityCodec, LzCodec};
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

    // 3. Whole-buffer vs parallel block pipeline, compress + decompress.
    let whole: Arc<dyn Codec> = Arc::new(TransformCodec::new(
        config.clone(),
        Arc::new(DeflateCodec::new()),
    ));
    let block_of = |pool_workers: usize| -> Arc<dyn Codec> {
        Arc::new(BlockCodec::with_pool(
            Arc::new(TransformCodec::new(
                config.clone(),
                Arc::new(DeflateCodec::new()),
            )),
            scihadoop_compress::DEFAULT_BLOCK_SIZE,
            CodecPool::new(pool_workers),
        ))
    };
    let block_serial = block_of(0);
    let block_pool4 = block_of(4);
    {
        let mut g = criterion.benchmark_group("codec_block_pipeline");
        g.throughput(Throughput::Bytes(stream.len() as u64))
            .sample_size(samples);
        g.bench_function("whole/compress", |b| {
            b.iter(|| black_box(whole.compress(&stream)))
        });
        g.bench_function("block-serial/compress", |b| {
            b.iter(|| black_box(block_serial.compress(&stream)))
        });
        g.bench_function("block-pool4/compress", |b| {
            b.iter(|| black_box(block_pool4.compress(&stream)))
        });
        let z_whole = whole.compress(&stream);
        let z_block = block_pool4.compress(&stream);
        g.bench_function("whole/decompress", |b| {
            b.iter(|| black_box(whole.decompress(&z_whole).unwrap()))
        });
        g.bench_function("block-pool4/decompress", |b| {
            b.iter(|| black_box(block_pool4.decompress(&z_block).unwrap()))
        });
        g.finish();
    }
    let whole_size = whole.compress(&stream).len();
    let block_default_size = block_serial.compress(&stream).len();

    // Size cost of the frame alone (no transform): blocked deflate
    // restarts its window + Huffman tables per block, nothing else.
    let deflate_whole = DeflateCodec::new();
    let deflate_block = BlockCodec::with_pool(
        Arc::new(DeflateCodec::new()),
        scihadoop_compress::DEFAULT_BLOCK_SIZE,
        CodecPool::new(0),
    );
    let deflate_whole_size = deflate_whole.compress(&stream).len();
    let deflate_block_size = deflate_block.compress(&stream).len();

    // 4. Block-size sweep (serial pool so only the framing varies).
    let sweep_kib: &[usize] = if fast_mode() {
        &[64, 256]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    let mut sweep = Vec::new();
    {
        let mut g = criterion.benchmark_group("codec_block_sweep");
        g.throughput(Throughput::Bytes(stream.len() as u64))
            .sample_size(samples);
        for &kib in sweep_kib {
            let codec = BlockCodec::with_pool(
                Arc::new(TransformCodec::new(
                    config.clone(),
                    Arc::new(DeflateCodec::new()),
                )),
                kib * 1024,
                CodecPool::new(0),
            );
            let size = codec.compress(&stream).len();
            g.bench_function(format!("{kib}KiB/compress"), |b| {
                b.iter(|| black_box(codec.compress(&stream)))
            });
            sweep.push((kib, size));
        }
        g.finish();
    }

    let host_cpus = scihadoop_mapreduce::obs::host_cpus();
    // A parallel speed-up measured on fewer cores than workers is a
    // non-result; leave the row out rather than print a 0.99.
    let parallel_speedup = (host_cpus >= 4).then(|| {
        median_of(&criterion, "codec_block_pipeline/whole/compress")
            / median_of(&criterion, "codec_block_pipeline/block-pool4/compress")
    });
    let lz_vs_deflate_compress_speedup = median_of(&criterion, "codec_lz/deflate/compress")
        / median_of(&criterion, "codec_lz/lz/compress");
    let lz_ratio = lz_size as f64 / stream.len() as f64;
    let deflate_ratio = deflate_size as f64 / stream.len() as f64;
    let size_regression_percent =
        (deflate_block_size as f64 - deflate_whole_size as f64) * 100.0 / deflate_whole_size as f64;
    let transform_restart_cost_percent =
        (block_default_size as f64 - whole_size as f64) * 100.0 / whole_size as f64;

    println!("\nhost cpus:                      {host_cpus}");
    match parallel_speedup {
        Some(x) => println!("block(pool4) compress speedup:  {x:.2}x vs whole-buffer"),
        None => println!("block(pool4) compress speedup:  not measured on {host_cpus} cores"),
    }
    println!(
        "lz vs deflate compress speedup: {lz_vs_deflate_compress_speedup:.2}x (budget >= 3x; \
         ratio {lz_ratio:.3} vs {deflate_ratio:.3})"
    );
    println!(
        "block frame size cost (deflate): {deflate_whole_size} -> {deflate_block_size} B ({size_regression_percent:+.2}%)"
    );
    println!(
        "predictor-restart cost (t+d):    {whole_size} -> {block_default_size} B ({transform_restart_cost_percent:+.2}%)"
    );
    for (kib, size) in &sweep {
        println!("  sweep {kib:>5} KiB blocks -> {size} B");
    }

    if let Ok(path) = std::env::var("BENCH_CODEC_JSON") {
        let sweep_rows = sweep
            .iter()
            .map(|&(kib, size)| {
                let ns = median_of(&criterion, &format!("codec_block_sweep/{kib}KiB/compress"));
                Json::obj([
                    ("block_kib", (kib as u64).into()),
                    ("compressed_bytes", (size as u64).into()),
                    ("median_ns", rounded(ns, 0)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("block_size_sweep", Json::Arr(sweep_rows)),
            ("host_cpus", host_cpus.into()),
            ("stream_bytes", (stream.len() as u64).into()),
            ("deflate_whole_bytes", (deflate_whole_size as u64).into()),
            ("deflate_block_bytes", (deflate_block_size as u64).into()),
            (
                "size_regression_percent",
                rounded(size_regression_percent, 2),
            ),
            ("transform_deflate_whole_bytes", (whole_size as u64).into()),
            (
                "transform_deflate_block_bytes",
                (block_default_size as u64).into(),
            ),
            (
                "transform_restart_cost_percent",
                rounded(transform_restart_cost_percent, 2),
            ),
        ];
        if let Some(x) = parallel_speedup {
            fields.push(("parallel_compress_speedup_pool4", rounded(x, 2)));
        }
        fields.extend([
            ("lz_bytes", (lz_size as u64).into()),
            ("lz_ratio", rounded(lz_ratio, 4)),
            ("deflate_ratio", rounded(deflate_ratio, 4)),
            (
                "lz_vs_deflate_compress_speedup",
                rounded(lz_vs_deflate_compress_speedup, 2),
            ),
        ]);
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
