//! Shuffle hot-path benchmark: the engine's two shuffle kernels, and the
//! §IV aggregation that feeds the map side of the aggregated job. The
//! map side stages, radix-sorts and writes one spill: 8-byte grid keys
//! in presorted and in shuffled emission order, and one map task of
//! `benchmark/`'s
//! sliding-median job, whose 12-byte keys outgrow an 8-byte prefix (the
//! fixture of the `arena.sort_s` layer). The reduce side runs the
//! streaming loser-tree merge and grouping over eight sealed segments,
//! and a paired measurement prices the CRC-32C trailer check on that
//! merge against its ≤ 6 % budget.
//!
//! Run with `cargo bench --bench bench_shuffle_hotpath`. Set
//! `BENCH_SHUFFLE_JSON=<path>` to also write the measurements and the
//! trailer overhead as JSON — `BENCH_shuffle.json` at the repo root is a
//! committed baseline. A change to either kernel is timed against its
//! parent build, not against a second implementation.

use criterion::{black_box, Criterion, Throughput};
use scihadoop_bench::report::{rounded, write_bench_json};
use scihadoop_bench::workloads::{median_agg_task, merge_group_pass};
use scihadoop_compress::IdentityCodec;
use scihadoop_grid::Coord;
use scihadoop_mapreduce::obs::host_cpus;
use scihadoop_mapreduce::{
    DefaultKeySemantics, Framing, IFileWriter, KeySemantics, KvPair, SpillArena,
};
use scihadoop_queries::median::aggregate_window_slab;
use scihadoop_queries::KeyLayout;
use std::sync::Arc;
use std::time::Instant;

/// Map-output-shaped records: 8-byte grid keys in row-major emission
/// order, 4-byte values. Row-major emission of big-endian `(x, y)` keys
/// is already bytewise-sorted — the best case for the engine's
/// presorted prefix scan and for std's run-detecting stable sort alike.
fn grid_pairs(n: u32) -> Vec<KvPair> {
    (0..n)
        .flat_map(|x| (0..n).map(move |y| (x, y)))
        .map(|(x, y)| {
            let key: Vec<u8> = [x.to_be_bytes(), y.to_be_bytes()].concat();
            KvPair::new(key, (x ^ y).to_be_bytes().to_vec())
        })
        .collect()
}

/// The same records in a deterministic full-cycle shuffle, so a sort
/// row also measures genuinely unsorted emission (the worst case the
/// spill sort must handle). 7919 is prime and coprime with the 10,000
/// record count, so stepping by it visits every index exactly once.
fn shuffled(pairs: &[KvPair]) -> Vec<KvPair> {
    let n = pairs.len();
    let mut out = Vec::with_capacity(n);
    let mut i = 0usize;
    loop {
        out.push(pairs[i].clone());
        i = (i + 7919) % n;
        if i == 0 {
            break;
        }
    }
    out
}

/// One map task of `benchmark/`'s `median-plain-local`: a 512-row,
/// 32-column strip of the grid (`split_longest` cuts 512×512 into 16
/// of them), every cell emitting its value under the nine 12-byte
/// `Indexed` keys of the 3×3 windows it belongs to. 147,456 records in
/// input row-major order: each key arrives nine times spread over
/// three input rows, rows and columns run from one cell outside the
/// strip (−1 = `FF FF FF FF` on the first strip), and the first 8 key
/// bytes — variable and row — are shared by a whole window row.
fn window_strip_pairs() -> Vec<KvPair> {
    let layout = KeyLayout::Indexed { index: 0, ndims: 2 };
    let mut pairs = Vec::new();
    for r in 0..512i32 {
        for c in 0..32i32 {
            let value = (r ^ c).to_be_bytes().to_vec();
            for (dr, dc) in (-1..=1).flat_map(|dr| (-1..=1).map(move |dc| (dr, dc))) {
                let key = layout.encode(&Coord::new(vec![r + dr, c + dc]));
                pairs.push(KvPair::new(key, value.clone()));
            }
        }
    }
    pairs
}

/// Reducers of that job (the paper's cluster ran 5).
const WINDOW_PARTS: usize = 5;

/// The map side: stage emitted slices, sort, serialize one spill.
fn bench_map_sort_spill(c: &mut Criterion) {
    let pairs = grid_pairs(100); // 10,000 records
    let ks = DefaultKeySemantics;
    let codec: Arc<dyn scihadoop_compress::Codec> = Arc::new(IdentityCodec);

    let mut group = c.benchmark_group("map_sort_spill");
    group.throughput(Throughput::Elements(pairs.len() as u64));
    group.sample_size(20);

    // The engine's spill sort: bytes into one arena buffer, LSD radix
    // over (sort prefix, index) pairs, comparator only on ties, borrowed
    // slices into the writer. On this presorted emission the
    // strictly-increasing-prefix scan short-circuits the whole sort.
    group.bench_function("arena_radix", |b| {
        b.iter(|| {
            let mut arena = SpillArena::new(1);
            for p in &pairs {
                arena.append(0, &p.key, &p.value);
            }
            arena.sort_partition(0, &ks);
            let mut w = IFileWriter::new(Framing::IFile, codec.clone());
            for (k, v) in arena.pairs(0) {
                w.append(k, v);
            }
            black_box(w.close().raw_bytes)
        })
    });

    // Shuffled emission, where the sort has to do real work: the radix
    // scatter passes.
    let pairs_shuffled = shuffled(&pairs);
    group.bench_function("arena_radix_shuffled", |b| {
        b.iter(|| {
            let mut arena = SpillArena::new(1);
            for p in &pairs_shuffled {
                arena.append(0, &p.key, &p.value);
            }
            arena.sort_partition(0, &ks);
            let mut w = IFileWriter::new(Framing::IFile, codec.clone());
            for (k, v) in arena.pairs(0) {
                w.append(k, v);
            }
            black_box(w.close().raw_bytes)
        })
    });

    // The layer `arena.sort_s` times on the benchmark's plain-key
    // workloads: one strip task routed to 5 partitions, every partition
    // sorted by the wide-key radix sort and written.
    let window = window_strip_pairs();
    group.throughput(Throughput::Elements(window.len() as u64));
    group.bench_function("arena_window_keys", |b| {
        b.iter(|| {
            let mut arena = SpillArena::new(WINDOW_PARTS);
            for p in &window {
                arena.append(ks.partition(&p.key, WINDOW_PARTS), &p.key, &p.value);
            }
            let mut raw_bytes = 0;
            for part in 0..WINDOW_PARTS {
                arena.sort_partition(part, &ks);
                let mut w = IFileWriter::new(Framing::IFile, codec.clone());
                for (k, v) in arena.pairs(part) {
                    w.append(k, v);
                }
                raw_bytes += w.close().raw_bytes;
            }
            black_box(raw_bytes)
        })
    });
    group.finish();
}

/// The aggregated mapper's §IV step on split 0 of the 512² seed-42
/// grid: 17,476 window cells walked in grid order, each pushed by its
/// Z-order index, one radix-sorted flush at the end (the benchmark's
/// 64 MiB buffer never fills mid-task).
fn bench_aggregate(c: &mut Criterion) {
    let (curve, bounds, slab) = median_agg_task(42);
    let mut group = c.benchmark_group("aggregate");
    group.throughput(Throughput::Elements(bounds.num_cells()));
    group.sample_size(20);
    group.bench_function("window_slab_push_flush", |b| {
        b.iter(|| {
            let mut bytes = 0;
            aggregate_window_slab(&curve, 64 << 20, &bounds, &slab, |rec| {
                bytes += rec.values.len()
            });
            black_box(bytes)
        })
    });
    group.finish();
}

/// The reduce side: merge sorted segments, group, consume values.
fn bench_merge_reduce(c: &mut Criterion) -> f64 {
    let ks = DefaultKeySemantics;
    let codec: Arc<dyn scihadoop_compress::Codec> = Arc::new(IdentityCodec);

    // 8 sorted runs of 2,500 records each, sealed as segments — once
    // with the CRC-32C trailer (the engine's default) and once plain,
    // so the trailer-verification overhead on the merge path is its own
    // measurement. Budget: <= 6% of the loser-tree merge.
    let mut segments = Vec::new();
    let mut segments_plain = Vec::new();
    let mut total = 0u64;
    for r in 0..8u32 {
        let mut run = grid_pairs(50);
        for (i, p) in run.iter_mut().enumerate() {
            let first = ((i as u32 * 7 + r) % 13) as u8;
            p.key = [&[first][..], &p.key[1..]].concat().into();
        }
        run.sort_by(|a, b| ks.compare(&a.key, &b.key));
        total += run.len() as u64;
        let mut w = IFileWriter::new(Framing::IFile, codec.clone());
        let mut wp = IFileWriter::without_trailer(Framing::IFile, codec.clone());
        for p in &run {
            w.append_pair(p);
            wp.append_pair(p);
        }
        segments.push(w.close().data);
        segments_plain.push(wp.close().data);
    }

    let mut group = c.benchmark_group("merge_reduce");
    group.throughput(Throughput::Elements(total));
    group.sample_size(20);

    // The engine's merge: lazy cursors under a loser tree — cached
    // sort-prefix matches, comparator only on prefix ties, one
    // leaf-to-root replay per record — grouping as records surface.
    // Segments carry the CRC-32C trailer the engine writes by default;
    // `open` verifies it per segment.
    group.bench_function("streaming_loser_tree", |b| {
        b.iter(|| black_box(merge_group_pass(&segments, &ks)))
    });
    group.finish();

    // Trailer-verification overhead (budget <= 6%): interleave trailed
    // and plain merges and take the median per-round ratio — machine
    // drift hits both sides of a round equally, unlike two sequential
    // criterion entries.
    let mut ratios = Vec::new();
    for round in 0..40 {
        let (first, second) = if round % 2 == 0 {
            (&segments, &segments_plain)
        } else {
            (&segments_plain, &segments)
        };
        let t0 = Instant::now();
        black_box(merge_group_pass(first, &ks));
        let a = t0.elapsed().as_nanos().max(1);
        let t0 = Instant::now();
        black_box(merge_group_pass(second, &ks));
        let b = t0.elapsed().as_nanos().max(1);
        let (trailed, plain) = if round % 2 == 0 { (a, b) } else { (b, a) };
        ratios.push(trailed as f64 / plain as f64);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    (ratios[ratios.len() / 2] - 1.0) * 100.0
}

/// The `BENCHMARK.json` per-layer metric a row predicts: the spill sort
/// of one strip task times what `arena.sort_s` times, the aggregation of
/// one task what `aggregate.push_flush_s` does, and the merge what
/// `sort.merge_s` does.
fn predicts(id: &str) -> Option<&'static str> {
    match id {
        "map_sort_spill/arena_window_keys" => Some("arena.sort_s"),
        "aggregate/window_slab_push_flush" => Some("aggregate.push_flush_s"),
        "merge_reduce/streaming_loser_tree" => Some("sort.merge_s"),
        _ => None,
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_map_sort_spill(&mut criterion);
    bench_aggregate(&mut criterion);
    let crc_overhead = bench_merge_reduce(&mut criterion);
    println!("\nCRC-32C trailer overhead on streaming merge: {crc_overhead:+.2}% (budget <= 6%)");

    if let Ok(path) = std::env::var("BENCH_SHUFFLE_JSON") {
        write_bench_json(
            &path,
            "records_per_s",
            criterion.measurements.iter().map(|m| {
                let rate = m.per_second().unwrap_or(0.0);
                (m.id.as_str(), m.median_ns, rate, predicts(&m.id))
            }),
            vec![
                ("crc_trailer_overhead_pct", rounded(crc_overhead, 2)),
                ("host_cpus", host_cpus().into()),
            ],
        );
    }
}
