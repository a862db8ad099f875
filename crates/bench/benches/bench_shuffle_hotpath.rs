//! Shuffle hot-path benchmark: the arena-backed radix spill sort
//! against the comparator reference sort on shuffled emission, and the
//! streaming loser-tree merge against the materializing reference
//! (eager segment reads + `merge_sorted_runs` + whole-run re-sort).
//!
//! Run with `cargo bench --bench bench_shuffle_hotpath`. Set
//! `BENCH_SHUFFLE_JSON=<path>` to also write the measurements (and the
//! reference→engine speedups) as JSON — `BENCH_shuffle.json` at the repo
//! root is a committed baseline from this machine.

use criterion::{black_box, Criterion, Throughput};
use scihadoop_bench::workloads::merge_group_pass;
use scihadoop_bench::DistJobSpec;
use scihadoop_compress::checksum::Crc32c;
use scihadoop_compress::IdentityCodec;
use scihadoop_mapreduce::dist::{
    run_distributed_with_threads, DistConfig, SegmentRepr, ShuffleStore, Transport, WireCodec,
};
use scihadoop_mapreduce::{
    for_each_group, merge_sorted_runs, Counter, DefaultKeySemantics, Framing, IFileReader,
    IFileWriter, KeySemantics, KvPair, SpillArena,
};
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

/// The same records in a deterministic full-cycle shuffle, so the sort
/// rows also measure genuinely unsorted emission (the worst case the
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

/// The map side: stage emitted slices, sort, serialize one spill.
fn bench_map_sort_spill(c: &mut Criterion) {
    let pairs = grid_pairs(100); // 10,000 records
    let ks = DefaultKeySemantics;
    let codec: Arc<dyn scihadoop_compress::Codec> = Arc::new(IdentityCodec);

    let mut group = c.benchmark_group("map_sort_spill");
    group.throughput(Throughput::Elements(pairs.len() as u64));
    group.sample_size(20);

    // The engine's spill sort: bytes into one arena buffer, LSD radix
    // over (sort_prefix, index) pairs, comparator only on ties, borrowed
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

    // Shuffled emission, where the sort has to do real work: the
    // comparator reference sort vs the radix scatter passes.
    let pairs_shuffled = shuffled(&pairs);
    group.bench_function("arena_shuffled", |b| {
        b.iter(|| {
            let mut arena = SpillArena::new(1);
            for p in &pairs_shuffled {
                arena.append(0, &p.key, &p.value);
            }
            arena.sort_partition_by_compare(0, &ks);
            let mut w = IFileWriter::new(Framing::IFile, codec.clone());
            for (k, v) in arena.pairs(0) {
                w.append(k, v);
            }
            black_box(w.close().raw_bytes)
        })
    });
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
            p.key[0] = ((i as u32 * 7 + r) % 13) as u8;
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

    // Reference: materialize every run, k-way merge into one Vec,
    // whole-run sort_split + re-sort, then group.
    group.bench_function("classic_materialize", |b| {
        let ks_arc: Arc<dyn KeySemantics> = Arc::new(DefaultKeySemantics);
        b.iter(|| {
            let runs: Vec<Vec<KvPair>> = segments
                .iter()
                .map(|s| IFileReader::open(s, &IdentityCodec).unwrap().into_records())
                .collect();
            let merged = merge_sorted_runs(runs, ks_arc.as_ref());
            let mut records = ks_arc.sort_split(merged);
            records.sort_by(|a, b| ks_arc.compare(&a.key, &b.key));
            let mut acc = 0u64;
            for_each_group(&records, ks_arc.as_ref(), |_, values| {
                acc += values.len() as u64;
            });
            black_box(acc)
        })
    });

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

/// The coordinator's segment-serving path against the shuffle store:
/// an all-resident store vs one forced to spill every segment (budget
/// 0), both drained in canonical order through the same 64 KiB chunk
/// loop the wire path uses — spilled chunks `pread` into the chunk
/// buffer and re-verify the spill-time CRC, exactly as a remote slot's
/// reduce does. Those two rows are the raw serving throughputs; the returned
/// overhead figure (budget <= 10%) is measured *end to end* instead:
/// full thread-mode distributed jobs over real sockets at budget 0 vs
/// unbounded, because in a real job the spill read is one slice of
/// serving (sockets, credits, reduce compute) rather than the whole of
/// it, and the wall-clock cost of spilling is what a user pays.
///
/// The second returned figure is the wire-compression overhead (budget
/// <= 5%): the same end-to-end paired-median protocol with
/// `--wire-codec lz` vs `identity` at an unbounded budget, so the
/// figure isolates the compress-on-publish + decompress-at-fetch cost
/// against the socket bytes it removes.
fn bench_shuffle_serve(c: &mut Criterion) -> (f64, f64) {
    const MAPS: usize = 16;
    const SEG_LEN: usize = 96 << 10;
    let segments: Vec<Vec<u8>> = (0..MAPS)
        .map(|m| {
            (0..SEG_LEN)
                .map(|i| (i as u64).wrapping_mul(m as u64 + 0x9e37) as u8)
                .collect()
        })
        .collect();
    let publish = |store: &ShuffleStore| {
        for (m, seg) in segments.iter().enumerate() {
            store.publish(m, vec![(0, seg.clone())]).unwrap();
        }
    };
    let mem_store = ShuffleStore::new(1, MAPS, usize::MAX);
    let spill_store = ShuffleStore::new(1, MAPS, 0);
    publish(&mem_store);
    publish(&spill_store);
    assert_eq!(spill_store.spilled_bytes(), (MAPS * SEG_LEN) as u64);

    let serve = |store: &ShuffleStore| -> u64 {
        let _fetch = store.fetch_guard(0);
        let mut chunk = vec![0u8; 64 << 10];
        let mut acc = 0u64;
        for m in 0..MAPS {
            let handle = store.segment_when_ready(0, m).unwrap().unwrap();
            match &handle.repr {
                SegmentRepr::Mem(data) => {
                    for piece in data.chunks(chunk.len()) {
                        acc = acc.wrapping_add(piece.iter().map(|&b| b as u64).sum::<u64>());
                    }
                }
                SegmentRepr::Spilled(h) => {
                    let mut crc = Crc32c::new();
                    let mut off = 0;
                    while off < h.len() {
                        let end = (off + chunk.len()).min(h.len());
                        let buf = &mut chunk[..end - off];
                        h.read_range(off, buf).unwrap();
                        crc.update(buf);
                        acc = acc.wrapping_add(buf.iter().map(|&b| b as u64).sum::<u64>());
                        off = end;
                    }
                    assert_eq!(crc.finish(), h.crc(), "spill CRC must verify");
                }
            }
        }
        acc
    };

    let mut group = c.benchmark_group("shuffle_serve");
    group.throughput(Throughput::Bytes((MAPS * SEG_LEN) as u64));
    group.sample_size(20);
    group.bench_function("mem", |b| b.iter(|| black_box(serve(&mem_store))));
    group.bench_function("spill", |b| b.iter(|| black_box(serve(&spill_store))));
    group.finish();

    // Paired-median end-to-end overhead: one full thread-mode
    // distributed run per side per round, interleaved so machine drift
    // hits both sides of each round equally. The job is sized so one
    // run's wall is large against scheduler jitter — at small record
    // counts the per-round ratio spread swamps single-digit overhead
    // budgets and the median itself becomes noisy.
    let spec = DistJobSpec {
        records: 20_000,
        ..DistJobSpec::default()
    };
    let config = spec.build_config().expect("spec builds");
    let splits = spec.make_splits();
    let run = |budget: usize, codec: WireCodec| {
        let dist_cfg = DistConfig::default()
            .with_workers(2)
            .with_transport(Transport::Tcp)
            .with_shuffle_mem_bytes(Some(budget))
            .with_wire_codec(codec);
        let t0 = Instant::now();
        let result = run_distributed_with_threads(
            &config,
            &dist_cfg,
            splits.clone(),
            Arc::new(DistJobSpec::mapper()),
            Arc::new(DistJobSpec::reducer()),
        )
        .expect("thread-mode dist run");
        (t0.elapsed().as_nanos().max(1), result)
    };
    // Warm both paths (page cache, allocator, listener setup) and pin
    // the invariants the ratio depends on: budget 0 spills every byte,
    // unbounded spills none, outputs agree.
    let (_, spilled_run) = run(0, WireCodec::Identity);
    let (_, resident_run) = run(usize::MAX, WireCodec::Identity);
    assert_eq!(spilled_run.outputs, resident_run.outputs);
    assert!(spilled_run.counters.get(Counter::ShuffleSpilledBytes) > 0);
    assert_eq!(resident_run.counters.get(Counter::ShuffleSpilledBytes), 0);

    let mut ratios = Vec::new();
    for round in 0..15 {
        let (first, second) = if round % 2 == 0 {
            (0, usize::MAX)
        } else {
            (usize::MAX, 0)
        };
        let (a, _) = run(first, WireCodec::Identity);
        let (b, _) = run(second, WireCodec::Identity);
        let (spilled, resident) = if round % 2 == 0 { (a, b) } else { (b, a) };
        ratios.push(spilled as f64 / resident as f64);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let spill_overhead = (ratios[ratios.len() / 2] - 1.0) * 100.0;

    // Wire compression: identical outputs, bytes actually saved on the
    // socket, and an end-to-end wall cost small enough to always leave
    // compression on for capable workers.
    let (_, lz_run) = run(usize::MAX, WireCodec::Lz);
    assert_eq!(lz_run.outputs, resident_run.outputs);
    assert!(lz_run.counters.get(Counter::ShuffleWireBytesSaved) > 0);

    let mut wire_ratios = Vec::new();
    for round in 0..15 {
        let (first, second) = if round % 2 == 0 {
            (WireCodec::Lz, WireCodec::Identity)
        } else {
            (WireCodec::Identity, WireCodec::Lz)
        };
        let (a, _) = run(usize::MAX, first);
        let (b, _) = run(usize::MAX, second);
        let (lz, identity) = if round % 2 == 0 { (a, b) } else { (b, a) };
        wire_ratios.push(lz as f64 / identity as f64);
    }
    wire_ratios.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let wire_overhead = (wire_ratios[wire_ratios.len() / 2] - 1.0) * 100.0;
    (spill_overhead, wire_overhead)
}

fn main() {
    let mut criterion = Criterion::default();
    bench_map_sort_spill(&mut criterion);
    let crc_overhead = bench_merge_reduce(&mut criterion);
    let (spill_overhead, wire_lz_overhead) = bench_shuffle_serve(&mut criterion);

    // Speedups + optional JSON baseline.
    let rate = |id: &str| {
        criterion
            .measurements
            .iter()
            .find(|m| m.id.ends_with(id))
            .and_then(|m| m.per_second())
            .unwrap_or(0.0)
    };
    let merge_speedup = rate("merge_reduce/streaming_loser_tree") / rate("classic_materialize");
    let radix_speedup_shuffled =
        rate("map_sort_spill/arena_radix_shuffled") / rate("map_sort_spill/arena_shuffled");
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("\nmerge-reduce speedup (streaming vs materializing): {merge_speedup:.2}x");
    println!("radix spill sort speedup (shuffled emission):      {radix_speedup_shuffled:.2}x");
    println!("CRC-32C trailer overhead on streaming merge: {crc_overhead:+.2}% (budget <= 6%)");
    println!("shuffle spill serving overhead (vs resident): {spill_overhead:+.2}% (budget <= 10%)");
    println!(
        "wire lz compression overhead (vs identity):   {wire_lz_overhead:+.2}% (budget <= 5%)"
    );

    if let Ok(path) = std::env::var("BENCH_SHUFFLE_JSON") {
        let mut json = String::from("{\n  \"benchmarks\": [\n");
        for (i, m) in criterion.measurements.iter().enumerate() {
            let sep = if i + 1 < criterion.measurements.len() {
                ","
            } else {
                ""
            };
            json.push_str(&format!(
                "    {{\"id\": \"{}\", \"median_ns\": {:.0}, \"records_per_s\": {:.0}}}{}\n",
                m.id,
                m.median_ns,
                m.per_second().unwrap_or(0.0),
                sep
            ));
        }
        json.push_str(&format!(
            "  ],\n  \"merge_reduce_speedup\": {merge_speedup:.2},\n  \"radix_sort_speedup_shuffled\": {radix_speedup_shuffled:.2},\n  \"crc_trailer_overhead_pct\": {crc_overhead:.2},\n  \"shuffle_spill_overhead_pct\": {spill_overhead:.2},\n  \"wire_lz_overhead_pct\": {wire_lz_overhead:.2},\n  \"host_cpus\": {host_cpus}\n}}\n"
        ));
        std::fs::write(&path, json).expect("write bench json");
        println!("wrote {path}");
    }
}
