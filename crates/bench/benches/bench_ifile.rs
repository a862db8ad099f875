//! IFile v3 benchmark: front-coded sorted-block segments against the
//! flat v2 format — write throughput, merged bytes, merge throughput on
//! contended (interleaved) vs uncontended (disjoint-range) fan-in, and
//! the block-skip hit rate the fence-key index buys on presorted runs.
//!
//! Run with `cargo bench --bench bench_ifile`. Set
//! `BENCH_IFILE_JSON=<path>` to also write the measurements as JSON —
//! `BENCH_ifile.json` at the repo root is a committed baseline from
//! this machine.

use criterion::{black_box, Criterion, Throughput};
use scihadoop_bench::json::Json;
use scihadoop_bench::report::{rounded, write_bench_json};
use scihadoop_bench::workloads::merge_group_pass;
use scihadoop_compress::IdentityCodec;
use scihadoop_mapreduce::obs::host_cpus;
use scihadoop_mapreduce::{
    BlockMergeStream, DefaultKeySemantics, Framing, IFileWriter, KeySemantics, KvPair, MergeItem,
    RawSegment,
};
use std::sync::Arc;
use std::time::Instant;

const RUNS: usize = 8;
const RECORDS_PER_RUN: usize = 2_500;

/// Sliding-median-shaped records: long shared path prefix, numeric
/// tail, 8-byte values — the workload the paper compresses. Used for
/// the write-path byte/throughput comparison.
fn keyed_pair(i: usize) -> KvPair {
    KvPair::new(
        format!("climate/temperature/cell-{:08}", i).into_bytes(),
        (i as u64).to_be_bytes().to_vec(),
    )
}

/// Grid-coordinate-shaped records: 8-byte big-endian keys whose leading
/// bytes carry the entropy, so fence-key `sort_prefix` comparisons can
/// separate block ranges. Used for the merge benchmarks — keys whose
/// first 8 bytes all collide (like a shared path prefix) can never
/// satisfy the strict-prefix skip rule.
fn grid_pair(i: usize) -> KvPair {
    KvPair::new(
        ((i as u64) << 24).to_be_bytes().to_vec(),
        (i as u64).to_be_bytes().to_vec(),
    )
}

fn write_v2(pairs: &[KvPair]) -> Vec<u8> {
    let mut w = IFileWriter::new(Framing::IFile, Arc::new(IdentityCodec));
    for p in pairs {
        w.append_pair(p);
    }
    w.close().data
}

fn write_v3(pairs: &[KvPair]) -> Vec<u8> {
    let mut w = IFileWriter::v3(
        Framing::IFile,
        Arc::new(IdentityCodec),
        Arc::new(DefaultKeySemantics),
    );
    for p in pairs {
        w.append_pair(p);
    }
    w.close().data
}

/// [`write_v3`] with an explicit per-block body budget, for the
/// block-budget sweep that backs `DEFAULT_BLOCK_BUDGET`.
fn write_v3_budget(pairs: &[KvPair], budget: usize) -> Vec<u8> {
    let mut w = IFileWriter::v3_with_budget(
        Framing::IFile,
        Arc::new(IdentityCodec),
        Arc::new(DefaultKeySemantics),
        budget,
    );
    for p in pairs {
        w.append_pair(p);
    }
    w.close().data
}

/// Disjoint-range runs: run r owns `[r * RECORDS_PER_RUN, (r+1) * ...)`.
/// Presorted relative to each other — the block-skip fast path's case.
fn disjoint_runs() -> Vec<Vec<KvPair>> {
    (0..RUNS)
        .map(|r| {
            (0..RECORDS_PER_RUN)
                .map(|i| grid_pair(r * RECORDS_PER_RUN + i))
                .collect()
        })
        .collect()
}

/// Interleaved runs: run r owns every RUNS-th key. Every block of every
/// run is contended, so the merge must replay per record — the shuffled
/// emission the skip rule must not slow down.
fn interleaved_runs() -> Vec<Vec<KvPair>> {
    (0..RUNS)
        .map(|r| {
            (0..RECORDS_PER_RUN)
                .map(|i| grid_pair(i * RUNS + r))
                .collect()
        })
        .collect()
}

/// The PR 5 baseline's merge workload, byte for byte: 8 runs of 50x50
/// grid keys with the leading byte remixed per run (shuffled emission),
/// re-sorted — the `merge_reduce/streaming_loser_tree` rows of
/// `bench_shuffle_hotpath` / `BENCH_shuffle.json`. Merging these runs
/// sealed as v2 is the PR 5 baseline workload, so the paired v3/v2 ratio
/// on it is the "no slower than PR 5 on shuffled emission" acceptance
/// measurement.
fn pr5_runs() -> Vec<Vec<KvPair>> {
    let ks = DefaultKeySemantics;
    (0..RUNS as u32)
        .map(|r| {
            let mut run: Vec<KvPair> = (0..50u32)
                .flat_map(|x| (0..50u32).map(move |y| (x, y)))
                .map(|(x, y)| {
                    let key: Vec<u8> = [x.to_be_bytes(), y.to_be_bytes()].concat();
                    KvPair::new(key, (x ^ y).to_be_bytes().to_vec())
                })
                .collect();
            for (i, p) in run.iter_mut().enumerate() {
                p.key[0] = ((i as u32 * 7 + r) % 13) as u8;
            }
            run.sort_by(|a, b| ks.compare(&a.key, &b.key));
            run
        })
        .collect()
}

/// Median v3-over-v2 *throughput* ratio from interleaved timing rounds:
/// each round times both sides back to back in alternating order, so
/// machine drift hits both equally (the same technique as the CRC
/// overhead measurement in `bench_shuffle_hotpath`). Criterion's
/// sequential groups are too noisy for a ratio claim on a busy box.
fn paired_throughput_ratio(mut v2: impl FnMut(), mut v3: impl FnMut(), rounds: usize) -> f64 {
    v2();
    v3(); // warm both paths before timing
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let (a, b) = if round % 2 == 0 {
            let t0 = Instant::now();
            v2();
            let a = t0.elapsed().as_nanos().max(1);
            let t0 = Instant::now();
            v3();
            (a, t0.elapsed().as_nanos().max(1))
        } else {
            let t0 = Instant::now();
            v3();
            let b = t0.elapsed().as_nanos().max(1);
            let t0 = Instant::now();
            v2();
            (t0.elapsed().as_nanos().max(1), b)
        };
        ratios.push(a as f64 / b as f64); // time_v2 / time_v3 = v3 throughput / v2 throughput
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    ratios[ratios.len() / 2]
}

fn open_all(sealed: &[Vec<u8>]) -> Vec<RawSegment> {
    sealed
        .iter()
        .map(|s| RawSegment::open(s, &IdentityCodec).unwrap())
        .collect()
}

/// Record-at-a-time merge (the reduce-side consumption shape) over
/// runs of either format: stream every record, count records.
fn merge_records(sealed: &[Vec<u8>]) -> u64 {
    let raws = open_all(sealed);
    let mut stream = BlockMergeStream::new(&raws, &DefaultKeySemantics).unwrap();
    let mut n = 0u64;
    while stream.next().unwrap().is_some() {
        n += 1;
    }
    n
}

/// v3 block-splicing merge (the map-side re-merge shape): uncontended
/// blocks pass through still encoded. Returns (records, blocks spliced).
fn v3_merge_items(sealed: &[Vec<u8>]) -> (u64, u64) {
    let raws = open_all(sealed);
    let mut stream = BlockMergeStream::new(&raws, &DefaultKeySemantics).unwrap();
    let mut w = IFileWriter::v3(
        Framing::IFile,
        Arc::new(IdentityCodec),
        Arc::new(DefaultKeySemantics),
    );
    let mut n = 0u64;
    let mut spliced = 0u64;
    loop {
        match stream.next_item().unwrap() {
            None => break,
            Some(MergeItem::Record(k, v)) => {
                n += 1;
                w.append(k, v);
            }
            Some(MergeItem::Block(blk)) => {
                n += blk.records;
                spliced += 1;
                w.append_encoded_block(&blk).unwrap();
            }
        }
    }
    black_box(w.close().raw_bytes);
    (n, spliced)
}

fn main() {
    let mut criterion = Criterion::default();

    // ---- write path -----------------------------------------------------
    let pairs: Vec<KvPair> = (0..RUNS * RECORDS_PER_RUN).map(keyed_pair).collect();
    {
        let mut group = criterion.benchmark_group("ifile_write");
        group.throughput(Throughput::Elements(pairs.len() as u64));
        group.sample_size(20);
        group.bench_function("v2", |b| b.iter(|| black_box(write_v2(&pairs)).len()));
        group.bench_function("v3", |b| b.iter(|| black_box(write_v3(&pairs)).len()));
        group.finish();
    }
    let v2_bytes = write_v2(&pairs).len() as u64;
    let v3_bytes = write_v3(&pairs).len() as u64;

    // ---- merge path -----------------------------------------------------
    let total = (RUNS * RECORDS_PER_RUN) as u64;
    let disjoint_v2: Vec<Vec<u8>> = disjoint_runs().iter().map(|r| write_v2(r)).collect();
    let disjoint_v3: Vec<Vec<u8>> = disjoint_runs().iter().map(|r| write_v3(r)).collect();
    let interleaved_v2: Vec<Vec<u8>> = interleaved_runs().iter().map(|r| write_v2(r)).collect();
    let interleaved_v3: Vec<Vec<u8>> = interleaved_runs().iter().map(|r| write_v3(r)).collect();
    {
        let mut group = criterion.benchmark_group("ifile_merge");
        group.throughput(Throughput::Elements(total));
        group.sample_size(20);
        group.bench_function("v2_interleaved", |b| {
            b.iter(|| assert_eq!(merge_records(&interleaved_v2), total))
        });
        group.bench_function("v3_interleaved", |b| {
            b.iter(|| assert_eq!(merge_records(&interleaved_v3), total))
        });
        group.bench_function("v2_disjoint", |b| {
            b.iter(|| assert_eq!(merge_records(&disjoint_v2), total))
        });
        group.bench_function("v3_disjoint", |b| {
            b.iter(|| assert_eq!(merge_records(&disjoint_v3), total))
        });
        group.bench_function("v3_disjoint_splice", |b| {
            b.iter(|| assert_eq!(v3_merge_items(&disjoint_v3).0, total))
        });
        group.finish();
    }

    // ---- PR 5 baseline workload (shuffled emission + grouping) -----------
    let ks = DefaultKeySemantics;
    let pr5 = pr5_runs();
    let pr5_total: u64 = pr5.iter().map(|r| r.len() as u64).sum();
    let pr5_v2: Vec<Vec<u8>> = pr5.iter().map(|r| write_v2(r)).collect();
    let pr5_v3: Vec<Vec<u8>> = pr5.iter().map(|r| write_v3(r)).collect();
    let pr5_groups = merge_group_pass(&pr5_v2, &ks);
    assert_eq!(pr5_groups, merge_group_pass(&pr5_v3, &ks));
    {
        let mut group = criterion.benchmark_group("ifile_merge_pr5");
        group.throughput(Throughput::Elements(pr5_total));
        group.sample_size(20);
        group.bench_function("v2_shuffled_grouped", |b| {
            b.iter(|| assert_eq!(merge_group_pass(&pr5_v2, &ks), pr5_groups))
        });
        group.bench_function("v3_shuffled_grouped", |b| {
            b.iter(|| assert_eq!(merge_group_pass(&pr5_v3, &ks), pr5_groups))
        });
        group.finish();
    }

    // ---- paired merge ratios (drift-immune) ------------------------------
    let merge_interleaved_ratio = paired_throughput_ratio(
        || {
            assert_eq!(merge_records(&interleaved_v2), total);
        },
        || {
            assert_eq!(merge_records(&interleaved_v3), total);
        },
        40,
    );
    let merge_disjoint_ratio = paired_throughput_ratio(
        || {
            assert_eq!(merge_records(&disjoint_v2), total);
        },
        || {
            assert_eq!(merge_records(&disjoint_v3), total);
        },
        40,
    );
    let merge_splice_speedup = paired_throughput_ratio(
        || {
            assert_eq!(merge_records(&disjoint_v2), total);
        },
        || {
            assert_eq!(v3_merge_items(&disjoint_v3).0, total);
        },
        40,
    );
    let merge_pr5_shuffled_ratio = paired_throughput_ratio(
        || {
            assert_eq!(merge_group_pass(&pr5_v2, &ks), pr5_groups);
        },
        || {
            assert_eq!(merge_group_pass(&pr5_v3, &ks), pr5_groups);
        },
        40,
    );

    // ---- block-skip hit rate --------------------------------------------
    let blocks_per_set =
        |sealed: &[Vec<u8>]| -> u64 { open_all(sealed).iter().map(|r| r.blocks() as u64).sum() };
    let (_, spliced_disjoint) = v3_merge_items(&disjoint_v3);
    let (_, spliced_interleaved) = v3_merge_items(&interleaved_v3);
    let skip_rate_disjoint = spliced_disjoint as f64 / blocks_per_set(&disjoint_v3) as f64;
    let skip_rate_interleaved = spliced_interleaved as f64 / blocks_per_set(&interleaved_v3) as f64;

    // ---- block-budget sweep ----------------------------------------------
    // Backs DEFAULT_BLOCK_BUDGET (4096): per budget, segment bytes on the
    // front-coding write workload (fence/header overhead amortization) and
    // skip rate + splice speedup on disjoint presorted runs (granularity:
    // a bigger block is likelier to straddle a rival's fence).
    let budgets: [usize; 5] = [512, 1024, 4096, 16384, 65536];
    let mut sweep: Vec<(usize, u64, u64, f64, f64)> = Vec::new();
    for &budget in &budgets {
        let seg_bytes = write_v3_budget(&pairs, budget).len() as u64;
        let runs: Vec<Vec<u8>> = disjoint_runs()
            .iter()
            .map(|r| write_v3_budget(r, budget))
            .collect();
        let blocks = blocks_per_set(&runs);
        let (n, spliced) = v3_merge_items(&runs);
        assert_eq!(n, total);
        let skip_rate = spliced as f64 / blocks as f64;
        let splice_speedup = paired_throughput_ratio(
            || {
                assert_eq!(merge_records(&disjoint_v2), total);
            },
            || {
                assert_eq!(v3_merge_items(&runs).0, total);
            },
            20,
        );
        sweep.push((budget, seg_bytes, blocks, skip_rate, splice_speedup));
    }

    // ---- summary ---------------------------------------------------------
    let bytes_ratio = v3_bytes as f64 / v2_bytes as f64;
    let write_ratio = paired_throughput_ratio(
        || {
            black_box(write_v2(&pairs));
        },
        || {
            black_box(write_v3(&pairs));
        },
        40,
    );

    println!(
        "\nv2 segment bytes: {v2_bytes}  v3 segment bytes: {v3_bytes}  (v3/v2 = {bytes_ratio:.3})"
    );
    println!("write throughput ratio (v3/v2):              {write_ratio:.2}x");
    println!("merge throughput, interleaved runs (v3/v2):  {merge_interleaved_ratio:.2}x");
    println!("merge throughput, disjoint runs (v3/v2):     {merge_disjoint_ratio:.2}x");
    println!("merge throughput, disjoint splice (v3/v2):   {merge_splice_speedup:.2}x");
    println!("merge throughput, PR 5 shuffled+group (v3/v2): {merge_pr5_shuffled_ratio:.2}x");
    println!(
        "block-skip hit rate: disjoint {:.1}%  interleaved {:.1}%",
        skip_rate_disjoint * 100.0,
        skip_rate_interleaved * 100.0
    );
    println!("\nblock-budget sweep (write workload bytes; disjoint-run skip/splice):");
    println!("  budget  segment_bytes  blocks  skip_rate  splice_speedup");
    for &(budget, seg_bytes, blocks, skip_rate, splice_speedup) in &sweep {
        println!(
            "  {budget:>6}  {seg_bytes:>13}  {blocks:>6}  {:>8.1}%  {splice_speedup:>13.2}x",
            skip_rate * 100.0
        );
    }

    if let Ok(path) = std::env::var("BENCH_IFILE_JSON") {
        let sweep_rows = sweep
            .iter()
            .map(|&(budget, seg_bytes, blocks, skip_rate, splice_speedup)| {
                Json::obj([
                    ("budget", (budget as u64).into()),
                    ("segment_bytes", seg_bytes.into()),
                    ("blocks", blocks.into()),
                    ("skip_rate", rounded(skip_rate, 3)),
                    ("splice_speedup", rounded(splice_speedup, 2)),
                ])
            })
            .collect();
        write_bench_json(
            &path,
            "records_per_s",
            criterion
                .measurements
                .iter()
                .map(|m| (m.id.as_str(), m.median_ns, m.per_second().unwrap_or(0.0))),
            vec![
                ("block_budget_sweep", Json::Arr(sweep_rows)),
                ("v2_segment_bytes", v2_bytes.into()),
                ("v3_segment_bytes", v3_bytes.into()),
                ("v3_over_v2_bytes", rounded(bytes_ratio, 3)),
                ("write_throughput_ratio", rounded(write_ratio, 2)),
                (
                    "merge_interleaved_ratio",
                    rounded(merge_interleaved_ratio, 2),
                ),
                ("merge_disjoint_ratio", rounded(merge_disjoint_ratio, 2)),
                ("merge_splice_speedup", rounded(merge_splice_speedup, 2)),
                (
                    "merge_pr5_shuffled_ratio",
                    rounded(merge_pr5_shuffled_ratio, 2),
                ),
                ("block_skip_rate_disjoint", rounded(skip_rate_disjoint, 3)),
                (
                    "block_skip_rate_interleaved",
                    rounded(skip_rate_interleaved, 3),
                ),
                ("host_cpus", host_cpus().into()),
            ],
        );
    }
}
