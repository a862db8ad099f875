//! Tracing-overhead benchmark: the shuffle hot paths (arena spill,
//! streaming merge) with and without an attached [`Recorder`].
//!
//! The layers these loops run sample nothing themselves; a task body
//! samples the numbers they return into its attempt's [`MetricsBank`],
//! which the scheduler merges into the slot's sink on commit. So the
//! untraced runs are the bare loops, and each traced iteration is what
//! a traced task adds to one: it attaches a recorder, wraps the loop in
//! a span, samples into a fresh bank what a task body records per spill
//! or per merge, and merges that bank into a job-wide one. The
//! observability budget is ≤3 % overhead traced and ~0 untraced.
//!
//! Run with `cargo bench --bench bench_obs_overhead`. Set
//! `BENCH_OBS_JSON=<path>` to also write the measurements and overhead
//! percentages as JSON — `BENCH_obs.json` at the repo root is a
//! committed baseline from this machine.

use criterion::{black_box, Criterion, Throughput};
use scihadoop_bench::report::{rounded, write_bench_json};
use scihadoop_bench::workloads::merge_group_pass;
use scihadoop_compress::IdentityCodec;
use scihadoop_mapreduce::obs::{
    clock_name, host_cpus, LedgerRecord, Metric, MetricsBank, Recorder,
};
use scihadoop_mapreduce::{
    span, Counter, Counters, DefaultKeySemantics, Framing, IFileWriter, JobConfig, JobResult,
    JobStats, KeySemantics, KvPair, Phase, SpillArena,
};
use std::sync::Arc;
use std::time::Instant;

/// Map-output-shaped records, as in bench_shuffle_hotpath.
fn grid_pairs(n: u32) -> Vec<KvPair> {
    (0..n)
        .flat_map(|x| (0..n).map(move |y| (x, y)))
        .map(|(x, y)| {
            let key: Vec<u8> = [x.to_be_bytes(), y.to_be_bytes()].concat();
            KvPair::new(key, (x ^ y).to_be_bytes().to_vec())
        })
        .collect()
}

/// One arena sort-and-spill pass over `pairs` in `arena`, cleared first
/// as a slot clears its own for each attempt; given a bank, it also
/// samples what a map task body records for a spill of one segment.
fn spill_once(
    arena: &mut SpillArena,
    pairs: &[KvPair],
    codec: &Arc<dyn scihadoop_compress::Codec>,
    metrics: Option<&mut MetricsBank>,
) -> u64 {
    let ks = DefaultKeySemantics;
    arena.clear();
    for p in pairs {
        arena.append(0, &p.key, &p.value);
    }
    let payload = arena.payload_bytes() as u64;
    let stats = arena.sort_partition(0, &ks);
    let mut w = IFileWriter::new(Framing::IFile, codec.clone());
    for (k, v) in arena.pairs(0) {
        w.append(k, v);
    }
    let seg = w.close();
    if let Some(m) = metrics {
        m.record(Metric::SpillPayloadBytes, payload);
        if let Some(stats) = stats {
            m.record(Metric::SortPrefixTies, stats.tie_records);
            m.record(Metric::SortCompareCalls, stats.compare_calls);
        }
        m.record(Metric::CompressInBytes, seg.raw_bytes);
        m.record(Metric::CompressOutBytes, seg.materialized_bytes());
        m.record(
            Metric::CompressNsPerKib,
            seg.compress_nanos.saturating_mul(1024) / seg.raw_bytes.max(1),
        );
        m.record(Metric::SegRawBytes, seg.raw_bytes);
        m.record(Metric::SegMaterializedBytes, seg.materialized_bytes());
    }
    seg.raw_bytes
}

/// One streaming k-way merge + grouping pass over sealed segments;
/// given a bank, it also samples what a reduce task body records per
/// merge. The pass returns neither the decompression times nor the
/// comparator count, so those two are sampled as 0: a sample costs the
/// same whatever its value.
fn merge_once(segments: &[Vec<u8>], metrics: Option<&mut MetricsBank>) -> u64 {
    let groups = merge_group_pass(segments, &DefaultKeySemantics);
    if let Some(m) = metrics {
        for seg in segments {
            m.record(Metric::ShuffleSegmentBytes, seg.len() as u64);
            m.record(Metric::DecompressNsPerKib, 0);
        }
        m.record(Metric::MergeFanIn, segments.len() as u64);
        m.record(Metric::MergeCompareCalls, 0);
    }
    groups
}

/// One traced task: its span, a fresh attempt bank filled by `body`, and
/// the bank merged into `job` as a commit merges it into the slot's sink.
fn traced_task<T>(
    phase: Phase,
    task: usize,
    job: &mut MetricsBank,
    body: impl FnOnce(&mut MetricsBank) -> T,
) -> T {
    let _span = span!(phase, task);
    let mut attempt = MetricsBank::new();
    let out = body(&mut attempt);
    job.merge(&attempt);
    out
}

fn bench_spill(c: &mut Criterion) {
    let pairs = grid_pairs(100); // 10,000 records
    let codec: Arc<dyn scihadoop_compress::Codec> = Arc::new(IdentityCodec);

    let mut group = c.benchmark_group("obs_map_sort_spill");
    group.throughput(Throughput::Elements(pairs.len() as u64));
    group.sample_size(20);

    group.bench_function("untraced", |b| {
        let mut arena = SpillArena::new(1);
        b.iter(|| black_box(spill_once(&mut arena, &pairs, &codec, None)))
    });
    group.bench_function("traced", |b| {
        let recorder = Recorder::new();
        let _att = recorder.attach("bench-spill");
        let mut job = MetricsBank::new();
        let mut arena = SpillArena::new(1);
        b.iter(|| {
            black_box(traced_task(Phase::SortSpill, 0, &mut job, |m| {
                spill_once(&mut arena, &pairs, &codec, Some(m))
            }))
        })
    });
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let ks = DefaultKeySemantics;
    let codec: Arc<dyn scihadoop_compress::Codec> = Arc::new(IdentityCodec);

    // 8 sorted runs of 2,500 records each, sealed as segments.
    let mut segments = Vec::new();
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
        for p in &run {
            w.append_pair(p);
        }
        segments.push(w.close().data);
    }

    let mut group = c.benchmark_group("obs_merge_reduce");
    group.throughput(Throughput::Elements(total));
    group.sample_size(20);

    group.bench_function("untraced", |b| {
        b.iter(|| black_box(merge_once(&segments, None)))
    });
    group.bench_function("traced", |b| {
        let recorder = Recorder::new();
        let _att = recorder.attach("bench-merge");
        let mut job = MetricsBank::new();
        b.iter(|| {
            black_box(traced_task(Phase::Merge, 0, &mut job, |m| {
                merge_once(&segments, Some(m))
            }))
        })
    });
    group.finish();
}

/// Paired rounds behind each gated percent, which is their median. At
/// 15, the ledger percent of one unchanged tree read −3.7 % to +3.8 %
/// over ten runs.
const ROUNDS: usize = 75;

/// Tracing overhead in percent, measured by *interleaving* untraced and
/// traced batches and taking the median of per-round time ratios — slow
/// machine-load drift hits both sides of each round equally, so it
/// cancels, unlike comparing two sequential criterion runs. Both
/// closures receive the batch size and run the whole batch (the traced
/// one attaches its recorder once per batch, matching the engine, where
/// a worker attaches once per slot and then runs many tasks).
fn paired_overhead_percent(
    mut untraced_once: impl FnMut(),
    mut traced_batch: impl FnMut(usize),
) -> f64 {
    // Warm up and size batches for ~10 ms per side per round.
    untraced_once();
    let t0 = Instant::now();
    untraced_once();
    let once = t0.elapsed().max(std::time::Duration::from_nanos(20));
    let batch = (10_000_000 / once.as_nanos().max(1)).clamp(1, 10_000) as usize;

    let mut time_untraced = || {
        let t0 = Instant::now();
        for _ in 0..batch {
            untraced_once();
        }
        t0.elapsed().as_nanos().max(1)
    };
    let mut ratios = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        // Alternate the order within each round so first-runner effects
        // (allocator warmth, cache state) cancel across rounds too.
        let (u, t) = if round % 2 == 0 {
            let u = time_untraced();
            let t0 = Instant::now();
            traced_batch(batch);
            (u, t0.elapsed().as_nanos().max(1))
        } else {
            let t0 = Instant::now();
            traced_batch(batch);
            let t = t0.elapsed().as_nanos().max(1);
            (time_untraced(), t)
        };
        ratios.push(t as f64 / u as f64);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    (ratios[ratios.len() / 2] - 1.0) * 100.0
}

fn main() {
    let mut criterion = Criterion::default();
    bench_spill(&mut criterion);
    bench_merge(&mut criterion);

    // Paired, interleaved overhead measurement (the headline numbers;
    // the criterion medians above are sequential and drift-prone).
    let codec: Arc<dyn scihadoop_compress::Codec> = Arc::new(IdentityCodec);
    let pairs = grid_pairs(100);
    let ks = DefaultKeySemantics;
    let mut segments = Vec::new();
    for r in 0..8u32 {
        let mut run = grid_pairs(50);
        for (i, p) in run.iter_mut().enumerate() {
            let first = ((i as u32 * 7 + r) % 13) as u8;
            p.key = [&[first][..], &p.key[1..]].concat().into();
        }
        run.sort_by(|a, b| ks.compare(&a.key, &b.key));
        let mut w = IFileWriter::new(Framing::IFile, codec.clone());
        for p in &run {
            w.append_pair(p);
        }
        segments.push(w.close().data);
    }

    let recorder = Recorder::new();
    let mut job = MetricsBank::new();
    // Each side of a pair stages in an arena of its own, as a slot does.
    let (mut bare, mut traced) = (SpillArena::new(1), SpillArena::new(1));
    let spill_overhead = paired_overhead_percent(
        || {
            black_box(spill_once(&mut bare, &pairs, &codec, None));
        },
        |batch| {
            let _att = recorder.attach("paired-spill");
            for task in 0..batch {
                black_box(traced_task(Phase::SortSpill, task, &mut job, |m| {
                    spill_once(&mut traced, &pairs, &codec, Some(m))
                }));
            }
        },
    );
    let merge_overhead = paired_overhead_percent(
        || {
            black_box(merge_once(&segments, None));
        },
        |batch| {
            let _att = recorder.attach("paired-merge");
            for task in 0..batch {
                black_box(traced_task(Phase::Merge, task, &mut job, |m| {
                    merge_once(&segments, Some(m))
                }));
            }
        },
    );
    // Ledger overhead: the same traced spill batch, but each batch also
    // builds and serializes one run-ledger record (the engine appends
    // one record per *job*, so per-batch is the realistic amortization).
    // Measured against the plain untraced task like the tracing numbers,
    // so the figure is "tracing + ledger" and gates against the same
    // ≤3 % observability budget.
    let trace = recorder.finish();
    let ledger_cfg = JobConfig::default();
    let ledger_result = JobResult {
        outputs: Vec::new(),
        counters: {
            let c = Counters::new();
            c.add(Counter::MapInputRecords, pairs.len() as u64);
            c.add(Counter::MapOutputBytes, 16 * pairs.len() as u64);
            c.snapshot()
        },
        stats: JobStats::from_counters(
            &{
                let c = Counters::new();
                c.add(Counter::MapOutputBytes, 16 * pairs.len() as u64);
                c.snapshot()
            },
            8,
            3,
            16 * pairs.len() as u64,
            1,
            1,
        ),
    };
    let ledger_overhead = paired_overhead_percent(
        || {
            black_box(spill_once(&mut bare, &pairs, &codec, None));
        },
        |batch| {
            let _att = recorder.attach("paired-ledger");
            for task in 0..batch {
                black_box(traced_task(Phase::SortSpill, task, &mut job, |m| {
                    spill_once(&mut traced, &pairs, &codec, Some(m))
                }));
            }
            let record =
                LedgerRecord::from_run("bench_obs", &ledger_cfg, &ledger_result, Some(&trace));
            black_box(record.to_json().len());
        },
    );
    println!("\nmap-sort-spill tracing overhead: {spill_overhead:+.2}%");
    println!("merge-reduce tracing overhead:   {merge_overhead:+.2}%");
    println!("map-sort-spill tracing+ledger:   {ledger_overhead:+.2}%");

    if let Ok(path) = std::env::var("BENCH_OBS_JSON") {
        write_bench_json(
            &path,
            "records_per_s",
            criterion.measurements.iter().map(|m| {
                let rate = m.per_second().unwrap_or(0.0);
                (m.id.as_str(), m.median_ns, rate, None)
            }),
            vec![
                (
                    "map_sort_spill_overhead_percent",
                    rounded(spill_overhead, 2),
                ),
                ("merge_reduce_overhead_percent", rounded(merge_overhead, 2)),
                (
                    "map_sort_spill_ledger_overhead_percent",
                    rounded(ledger_overhead, 2),
                ),
                ("host_cpus", host_cpus().into()),
                ("clock_kind", clock_name().into()),
            ],
        );
    }
}
