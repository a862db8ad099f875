//! IFile v3 benchmark: grouped, column-ordered block segments against
//! the flat v2 format — write throughput, merged bytes, merge throughput
//! on contended (interleaved) vs uncontended (disjoint-range) fan-in,
//! the block-skip hit rate the header fence keys buy on presorted runs,
//! and the layout × codec size table on sliding-median records.
//!
//! Run with `cargo bench --bench bench_ifile`. Set
//! `BENCH_IFILE_JSON=<path>` to also write the measurements as JSON —
//! `BENCH_ifile.json` at the repo root is a committed baseline from
//! this machine.

use criterion::{black_box, Criterion, Throughput};
use scihadoop_bench::codec_by_name;
use scihadoop_bench::json::Json;
use scihadoop_bench::report::{rounded, write_bench_json};
use scihadoop_bench::workloads::{median_sorted_records, merge_group_pass};
use scihadoop_compress::{crc32c, IdentityCodec};
use scihadoop_mapreduce::ifile::DEFAULT_BLOCK_BUDGET;
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
/// bytes carry the entropy, so fence-key prefix comparisons can
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
    write_v3_budget(pairs, DEFAULT_BLOCK_BUDGET)
}

/// [`write_v3`] with an explicit per-block body budget, for the
/// block-budget sweep that backs `DEFAULT_BLOCK_BUDGET`.
fn write_v3_budget(pairs: &[KvPair], budget: usize) -> Vec<u8> {
    let mut w = IFileWriter::v3_with_budget(Framing::IFile, Arc::new(IdentityCodec), budget);
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
                let first = ((i as u32 * 7 + r) % 13) as u8;
                p.key = [&[first][..], &p.key[1..]].concat().into();
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
    let mut w = IFileWriter::v3_with_budget(
        Framing::IFile,
        Arc::new(IdentityCodec),
        DEFAULT_BLOCK_BUDGET,
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

/// The layout ROADMAP item 1 proposed and this format did not take: a
/// block is `records, key_len, value_len, crc32c(body)` as four `u32`s,
/// then every key in full, then every value; the blocks are the segment,
/// as in v3. Fixed-size keys and values only, which is what
/// sliding-median records are.
fn full_key_column_segment(records: &[KvPair], budget: usize) -> Vec<u8> {
    let (key_len, value_len) = (records[0].key.len(), records[0].value.len());
    let mut out = b"SHIF\x04\x01".to_vec();
    for block in records.chunks((budget / (key_len + value_len)).max(1)) {
        let mut body = Vec::with_capacity(block.len() * (key_len + value_len));
        block.iter().for_each(|p| body.extend_from_slice(&p.key));
        block.iter().for_each(|p| body.extend_from_slice(&p.value));
        for field in [block.len(), key_len, value_len, crc32c(&body) as usize] {
            out.extend_from_slice(&(field as u32).to_be_bytes());
        }
        out.extend_from_slice(&body);
    }
    let trailer = crc32c(&out);
    out.extend_from_slice(&trailer.to_be_bytes());
    out
}

/// Segment size of each block layout under each codec, on one map
/// task's sorted sliding-median records: v2's framed rows and v3's
/// grouped columns through the writer itself, the full-key column
/// through [`full_key_column_segment`] and the same codecs.
fn layout_ablation(records: &[KvPair]) -> Vec<Json> {
    let mut rows = Vec::new();
    for codec_name in ["identity", "deflate", "transform+deflate", "lz"] {
        let codec = || codec_by_name(codec_name).expect("a codec of the grammar");
        let through_writer = |mut w: IFileWriter| {
            records.iter().for_each(|p| w.append_pair(p));
            w.close().data
        };
        let layouts: [(&str, &dyn Fn() -> Vec<u8>); 3] = [
            ("v2 framed rows", &|| {
                through_writer(IFileWriter::new(Framing::IFile, codec()))
            }),
            ("v3 grouped columns", &|| {
                through_writer(IFileWriter::v3_with_budget(
                    Framing::IFile,
                    codec(),
                    DEFAULT_BLOCK_BUDGET,
                ))
            }),
            ("full-key column", &|| {
                codec().compress(&full_key_column_segment(records, 4096))
            }),
        ];
        for (layout, build) in layouts {
            let t0 = Instant::now();
            let bytes = build().len();
            rows.push(Json::obj([
                ("layout", layout.into()),
                ("codec", codec_name.into()),
                ("bytes", (bytes as u64).into()),
                (
                    "bytes_per_record",
                    rounded(bytes as f64 / records.len() as f64, 3),
                ),
                ("seconds", rounded(t0.elapsed().as_secs_f64(), 3)),
            ]));
        }
    }
    rows
}

/// One budget of the block-budget sweep.
struct SweepRow {
    budget: usize,
    /// The unique-key write workload's segment.
    segment_bytes: u64,
    /// Over the eight disjoint presorted runs.
    blocks: u64,
    skip_rate: f64,
    splice_speedup: f64,
    /// One map task's sliding-median records, raw and deflated.
    median_segment_bytes: u64,
    median_deflate_bytes: u64,
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
    let blocks_per_set = |sealed: &[Vec<u8>]| -> u64 {
        open_all(sealed)
            .iter()
            .map(|r| r.blocks().unwrap() as u64)
            .sum()
    };
    let (_, spliced_disjoint) = v3_merge_items(&disjoint_v3);
    let (_, spliced_interleaved) = v3_merge_items(&interleaved_v3);
    let skip_rate_disjoint = spliced_disjoint as f64 / blocks_per_set(&disjoint_v3) as f64;
    let skip_rate_interleaved = spliced_interleaved as f64 / blocks_per_set(&interleaved_v3) as f64;

    // ---- block-budget sweep ----------------------------------------------
    // Backs DEFAULT_BLOCK_BUDGET (4096): per budget, segment bytes on the
    // front-coding write workload (block header overhead amortization) and
    // skip rate + splice speedup on disjoint presorted runs (granularity:
    // a bigger block is likelier to straddle a rival's fence).
    // The same on one map task's sliding-median records, where a block
    // holds runs of one key: raw and deflated segment bytes per budget.
    let median = median_sorted_records(256, 42);
    let budgets: [usize; 5] = [512, 1024, 4096, 16384, 65536];
    let deflate = codec_by_name("deflate").expect("a codec of the grammar");
    let mut sweep: Vec<SweepRow> = Vec::new();
    for &budget in &budgets {
        let segment_bytes = write_v3_budget(&pairs, budget).len() as u64;
        let median_raw = write_v3_budget(&median, budget);
        let runs: Vec<Vec<u8>> = disjoint_runs()
            .iter()
            .map(|r| write_v3_budget(r, budget))
            .collect();
        let blocks = blocks_per_set(&runs);
        let (n, spliced) = v3_merge_items(&runs);
        assert_eq!(n, total);
        let splice_speedup = paired_throughput_ratio(
            || {
                assert_eq!(merge_records(&disjoint_v2), total);
            },
            || {
                assert_eq!(v3_merge_items(&runs).0, total);
            },
            20,
        );
        sweep.push(SweepRow {
            budget,
            segment_bytes,
            blocks,
            skip_rate: spliced as f64 / blocks as f64,
            splice_speedup,
            median_segment_bytes: median_raw.len() as u64,
            median_deflate_bytes: deflate.compress(&median_raw).len() as u64,
        });
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
    println!(
        "  budget  segment_bytes  blocks  skip_rate  splice_speedup  median_bytes  median_deflate"
    );
    for r in &sweep {
        println!(
            "  {:>6}  {:>13}  {:>6}  {:>8.1}%  {:>13.2}x  {:>12}  {:>14}",
            r.budget,
            r.segment_bytes,
            r.blocks,
            r.skip_rate * 100.0,
            r.splice_speedup,
            r.median_segment_bytes,
            r.median_deflate_bytes
        );
    }

    let ablation = layout_ablation(&median);
    println!("\nlayout ablation (one map task's sorted sliding-median records, 256² grid):");
    for row in &ablation {
        println!("  {}", row.to_compact());
    }

    if let Ok(path) = std::env::var("BENCH_IFILE_JSON") {
        let sweep_rows = sweep
            .iter()
            .map(|r| {
                Json::obj([
                    ("budget", (r.budget as u64).into()),
                    ("segment_bytes", r.segment_bytes.into()),
                    ("blocks", r.blocks.into()),
                    ("skip_rate", rounded(r.skip_rate, 3)),
                    ("splice_speedup", rounded(r.splice_speedup, 2)),
                    ("median_segment_bytes", r.median_segment_bytes.into()),
                    ("median_deflate_bytes", r.median_deflate_bytes.into()),
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
                ("layout_ablation", Json::Arr(ablation)),
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
