//! One function per paper table/figure (see DESIGN.md §4 for the index).

use crate::distjobs::DistJobSpec;
use crate::report::{fmt_bytes, fmt_secs, Table};
use crate::workloads;
use scihadoop_cluster::{scale_stats, ClusterSpec, CostModel};
use scihadoop_compress::{BzipCodec, Codec, DeflateCodec, IdentityCodec};
use scihadoop_core::aggregate::{expand_record, overlapping_pairs, padding_overhead, Aggregator};
use scihadoop_core::transform::{self, TransformCodec, TransformConfig};
use scihadoop_grid::{BoundingBox, Coord, GridError, Shape};
use scihadoop_mapreduce::ifile::{Segment, DEFAULT_BLOCK_BUDGET};
use scihadoop_mapreduce::obs::{self, Recorder, ALL_PHASES};
use scihadoop_mapreduce::record::InputSplit;
use scihadoop_mapreduce::{
    clock, run_distributed, Counter, CounterKind, Counters, DistConfig, FaultConfig, FaultPlan,
    Framing, IFileVersion, IFileWriter, Job, JobConfig, JobResult, JobStats, MrError, Trace,
    WireCodec, ALL_COUNTERS,
};
use scihadoop_queries::{
    median::{MedianRun, SlidingMedian, SlidingMedianVariant},
    KeyLayout,
};
use scihadoop_sfc::{clustering_run_count, Curve, HilbertCurve, RowMajorCurve, ZOrderCurve};
use std::sync::Arc;
use std::time::Instant;

/// The segment layout of the system the paper measured: Hadoop frames
/// every record. Each experiment that rebuilds one of the paper's byte
/// numbers pins it, so those rows do not follow the engine's default to
/// the block layout, whose baseline already stores each key once.
pub const PAPER_IFILE: IFileVersion = IFileVersion::V2;

/// §I intro numbers: the cost of independent keys on a n³ float grid.
///
/// Paper (n=100): 26,000,006 B with a variable-index key (450 % overhead)
/// and 33,000,006 B with the name `windspeed1` (625 %); key/value ratio
/// 6.75.
pub fn intro_overhead(n: u32) -> Table {
    let var = workloads::windspeed_cube(n, 7);
    let data_bytes = var.data_bytes();

    let mut table = Table::new(
        &format!("§I intro: intermediate file for a {n}³ grid of f32"),
        &["key layout", "file bytes", "overhead", "key/value ratio"],
    );
    for (label, layout) in [
        ("variable index", KeyLayout::Indexed { index: 0, ndims: 3 }),
        (
            "name \"windspeed1\"",
            KeyLayout::Named {
                name: "windspeed1".into(),
                ndims: 3,
            },
        ),
    ] {
        let mut w = IFileWriter::new(Framing::SequenceFile, Arc::new(IdentityCodec));
        for cell in var.bounds().cells() {
            let mut vbytes = Vec::with_capacity(4);
            var.get(&cell).expect("in range").write_be(&mut vbytes);
            w.append(&layout.encode(&cell), &vbytes);
        }
        let seg = w.close();
        let file = seg.raw_bytes;
        let overhead = (file as f64 - data_bytes as f64) / data_bytes as f64;
        // Key cost per record: the key bytes plus the 4-byte record-length
        // field that exists to delimit each independent key (the
        // key/value-length vints are counted as file overhead, as in
        // Fig. 8). For windspeed1: (23 + 4) / 4 = 6.75, the paper's ratio.
        let ratio = (seg.key_bytes + 4 * seg.records) as f64 / seg.value_bytes as f64;
        table.row(&[
            label.into(),
            format!("{file}"),
            format!("{:.0}%", overhead * 100.0),
            format!("{ratio:.2}"),
        ]);
    }
    table.note("paper (n=100): 26,000,006 B / 450% and 33,000,006 B / 625%, ratio 6.75");
    table
}

/// One Fig. 3 measurement: compressed size and time for a method.
pub struct CompressionPoint {
    /// Method label as in the paper's Fig. 3.
    pub method: &'static str,
    /// Output size in bytes.
    pub size: u64,
    /// Compression wall time.
    pub secs: f64,
}

/// Fig. 3: byte-level compression on the n³ grid-walk stream.
///
/// Paper (n=100): original 12,000,000; gzip 1,630,000 (0.66 s);
/// transform+gzip 33,000 (2.43 s); bzip2 512,000 (12.69 s);
/// transform+bzip2 468 (2.40 s).
pub fn fig3(n: u32, max_stride: usize) -> (Table, Vec<CompressionPoint>) {
    let stream = workloads::grid_key_stream(n);
    let config = TransformConfig::adaptive(max_stride);

    let deflate: Arc<dyn Codec> = Arc::new(DeflateCodec::new());
    let bzip: Arc<dyn Codec> = Arc::new(BzipCodec::new());
    let t_deflate: Arc<dyn Codec> = Arc::new(TransformCodec::new(
        config.clone(),
        Arc::new(DeflateCodec::new()),
    ));
    let t_bzip: Arc<dyn Codec> = Arc::new(TransformCodec::new(config, Arc::new(BzipCodec::new())));

    let mut points = vec![CompressionPoint {
        method: "original",
        size: stream.len() as u64,
        secs: 0.0,
    }];
    for (method, codec) in [
        ("deflate (gzip-equiv)", &deflate),
        ("transform+deflate", &t_deflate),
        ("bzip (bzip2-equiv)", &bzip),
        ("transform+bzip", &t_bzip),
    ] {
        let t0 = Instant::now();
        let z = codec.compress(&stream);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(
            codec.decompress(&z).expect("roundtrip"),
            stream,
            "{method} failed roundtrip"
        );
        points.push(CompressionPoint {
            method,
            size: z.len() as u64,
            secs,
        });
    }

    // IFile rows (PR 6): the same walk cut into 12-byte grid keys and
    // materialized as intermediate segments, so the v2→v3 delta is the
    // front-coding win on exactly the stream the paper compresses.
    // Appended after the codec rows to keep prefix lookups stable.
    for (method, version, codec) in [
        ("ifile-v2", 2u8, None),
        ("ifile-v3", 3, None),
        (
            "ifile-v3+deflate",
            3,
            Some(Arc::new(DeflateCodec::new()) as Arc<dyn Codec>),
        ),
    ] {
        let codec = codec.unwrap_or_else(|| Arc::new(IdentityCodec) as Arc<dyn Codec>);
        let t0 = Instant::now();
        let mut w = match version {
            2 => IFileWriter::new(Framing::IFile, codec),
            _ => IFileWriter::v3_with_budget(Framing::IFile, codec, DEFAULT_BLOCK_BUDGET),
        };
        for key in stream.chunks_exact(12) {
            w.append(key, &[]);
        }
        let seg = w.close();
        points.push(CompressionPoint {
            method,
            size: seg.materialized_bytes(),
            secs: t0.elapsed().as_secs_f64(),
        });
    }

    let mut table = Table::new(
        &format!("Fig. 3: byte-level compression of a {n}³ grid-walk key stream"),
        &["method", "size (bytes)", "time"],
    );
    for p in &points {
        table.row(&[p.method.into(), format!("{}", p.size), fmt_secs(p.secs)]);
    }
    table.note(
        "paper (100³): original 12,000,000 / gzip 1,630,000 / transform+gzip 33,000 \
         / bzip2 512,000 / transform+bzip2 468",
    );
    table.note("shape target: transform+bzip ≪ transform+deflate ≪ bzip < deflate ≪ original");
    table.note(
        "ifile-* rows: the stream cut into 12-byte keys and written as an intermediate \
         segment; v3 front-codes shared key prefixes inside sorted blocks",
    );
    (table, points)
}

/// §III-A stride ablation: user-specified single stride vs exhaustive vs
/// adaptive detection, all compressed with the bzip codec.
///
/// Paper: single stride 12 → 1619 B; all strides < 100 → 701 B; the
/// adaptive transform → 468 B (beats exhaustive); brute force is ~4× the
/// adaptive cost at max stride 100 and ~17× at 1000.
pub fn stride_ablation(n: u32, timing_n: u32) -> Table {
    let stream = workloads::grid_key_stream(n);
    let bzip = BzipCodec::new();
    let mut table = Table::new(
        &format!("§III-A stride ablation ({n}³ stream, bzip-compressed sizes)"),
        &["detector", "bzip size (bytes)", "transform time"],
    );
    for (label, config) in [
        ("fixed stride 12", TransformConfig::fixed(vec![12])),
        (
            "all strides < 100 (brute)",
            TransformConfig::brute_force(100),
        ),
        ("adaptive, max 100", TransformConfig::adaptive(100)),
    ] {
        let t0 = Instant::now();
        let transformed = transform::forward(&config, &stream);
        let secs = t0.elapsed().as_secs_f64();
        let size = bzip.compress(&transformed).len();
        assert_eq!(transform::inverse(&config, &transformed), stream);
        table.row(&[label.into(), format!("{size}"), fmt_secs(secs)]);
    }
    table.note("paper sizes: stride-12 1619 B / exhaustive<100 701 B / adaptive 468 B");

    // Brute-vs-adaptive slowdown on a smaller stream (the paper's 4× at
    // max stride 100, 17× at 1000).
    let timing_stream = workloads::grid_key_stream(timing_n);
    for max in [100usize, 1000] {
        let t0 = Instant::now();
        let _ = transform::forward(&TransformConfig::adaptive(max), &timing_stream);
        let adaptive_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let _ = transform::forward(&TransformConfig::brute_force(max), &timing_stream);
        let brute_s = t0.elapsed().as_secs_f64();
        table.row(&[
            format!("brute/adaptive slowdown @ max {max} ({timing_n}³)"),
            format!("{:.1}x", brute_s / adaptive_s.max(1e-9)),
            fmt_secs(brute_s),
        ]);
    }
    table.note("paper slowdowns: ~4x at max stride 100, ~17x at 1000");
    table
}

/// One Fig. 4 sample.
pub struct TransformTimePoint {
    /// Grid side (stream is n³ × 12 bytes).
    pub n: u32,
    /// Input size in bytes.
    pub bytes: u64,
    /// Transform wall time.
    pub secs: f64,
}

/// Fig. 4: transform time versus file size (expected linear — "the
/// transform has constant-sized in-memory state and does not look ahead
/// or behind").
pub fn fig4(sides: &[u32]) -> (Table, Vec<TransformTimePoint>) {
    let config = TransformConfig::default();
    let mut points = Vec::new();
    for &n in sides {
        let stream = workloads::grid_key_stream(n);
        // Thread-CPU time, best of three: the transform is one serial
        // pass, so what another process does to the wall clock meanwhile
        // is not part of the figure.
        let nanos = (0..3)
            .map(|_| {
                let t0 = clock::thread_cpu_nanos();
                std::hint::black_box(transform::forward(&config, &stream));
                clock::since(t0)
            })
            .min()
            .expect("three runs");
        points.push(TransformTimePoint {
            n,
            bytes: stream.len() as u64,
            secs: nanos as f64 / 1e9,
        });
    }
    let mut table = Table::new(
        "Fig. 4: transform time vs file size",
        &["grid", "input", "time", "MB/s"],
    );
    for p in &points {
        table.row(&[
            format!("{}³", p.n),
            fmt_bytes(p.bytes),
            fmt_secs(p.secs),
            format!("{:.1}", p.bytes as f64 / 1e6 / p.secs.max(1e-9)),
        ]);
    }
    table.note("shape target: throughput (MB/s) roughly constant → time linear in size");
    (table, points)
}

/// Byte breakdown of one Fig. 8 bar.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Bar {
    /// Value payload bytes.
    pub values: u64,
    /// Key bytes.
    pub keys: u64,
    /// Per-record framing overhead bytes.
    pub overhead: u64,
}

impl Fig8Bar {
    /// Total intermediate bytes.
    pub fn total(&self) -> u64 {
        self.values + self.keys + self.overhead
    }

    /// Read a bar off a closed v2 segment. "File overhead" is everything
    /// that is neither key nor value payload: per-record framing plus
    /// the segment header (a v2 segment stores every key byte).
    fn from_segment(seg: &Segment) -> Fig8Bar {
        Fig8Bar {
            values: seg.value_bytes,
            keys: seg.key_bytes,
            overhead: seg.raw_bytes - seg.key_bytes - seg.value_bytes,
        }
    }
}

/// Fig. 8: effect of key aggregation on total data size for an n³ grid of
/// integers, in the ideal single-mapper case and partitioned across
/// mappers.
///
/// Paper (100³): values 3.81 MB unchanged; keys collapse from MB to kB;
/// file overhead 1.91 MB → 5.84 kB; "up to 84.5 % reduction ... depending
/// on data types".
pub fn fig8(n: u32, mappers: &[usize]) -> (Table, Vec<(String, Fig8Bar)>) {
    let var = workloads::int_cube(n, 13);
    let mut bars: Vec<(String, Fig8Bar)> = Vec::new();

    // Original: one simple record per cell, 3×4-byte coordinate keys,
    // IFile framing (2 B/record).
    {
        let mut w = IFileWriter::new(Framing::IFile, Arc::new(IdentityCodec));
        for cell in var.bounds().cells() {
            let key: Vec<u8> = cell
                .components()
                .iter()
                .flat_map(|c| c.to_be_bytes())
                .collect();
            let mut vbytes = Vec::with_capacity(4);
            var.get(&cell).expect("in range").write_be(&mut vbytes);
            w.append(&key, &vbytes);
        }
        let seg = w.close();
        bars.push(("original".into(), Fig8Bar::from_segment(&seg)));
    }

    // Aggregated, for each mapper count: each mapper owns a slab of the
    // grid and aggregates independently (partitioning "results in less
    // aggregation", §IV-D). Slab orientation matters enormously for a
    // Z-order curve: slabs across dimension 0 (the slowest-varying curve
    // dimension) keep long runs, while slabs across the fastest-varying
    // dimension shatter every run — we measure both.
    let bits = (32 - n.leading_zeros()).max(1);
    let slab_dims: &[(usize, &str)] = &[(0, "x-slabs"), (2, "z-slabs")];
    for &m in mappers {
        for &(dim, orient) in slab_dims {
            if m == 1 && dim != 0 {
                continue; // one mapper has no orientation
            }
            let mut w = IFileWriter::new(Framing::IFile, Arc::new(IdentityCodec));
            for slab in split_along(&var.bounds(), dim, m) {
                let mut agg = Aggregator::new(ZOrderCurve::with_bits(3, bits), usize::MAX >> 1);
                for cell in slab.cells() {
                    let mut vbytes = Vec::with_capacity(4);
                    var.get(&cell).expect("in range").write_be(&mut vbytes);
                    agg.push(&cell, &vbytes).expect("non-negative grid");
                }
                for rec in agg.flush() {
                    w.append(&rec.key.to_bytes(), &rec.values);
                }
            }
            let seg = w.close();
            let label = if m == 1 {
                "aggregated (1 mapper)".to_string()
            } else {
                format!("aggregated ({m} mappers, {orient})")
            };
            bars.push((label, Fig8Bar::from_segment(&seg)));
        }
    }

    let baseline = bars[0].1.total();
    let mut table = Table::new(
        &format!("Fig. 8: key aggregation on a {n}³ grid of i32"),
        &[
            "configuration",
            "values",
            "keys",
            "file overhead",
            "total",
            "reduction",
        ],
    );
    for (label, bar) in &bars {
        table.row(&[
            label.clone(),
            fmt_bytes(bar.values),
            fmt_bytes(bar.keys),
            fmt_bytes(bar.overhead),
            fmt_bytes(bar.total()),
            format!(
                "{:.1}%",
                100.0 * (1.0 - bar.total() as f64 / baseline as f64)
            ),
        ]);
    }
    table.note(
        "paper (100³): values 3.81 MB constant; keys MB→kB; overhead 1.91 MB→5.84 kB; \
         up to 84.5% total reduction",
    );
    table.note(
        "z-slabs slice the fastest-varying Z-order dimension and shatter runs into \
         singletons — partition orientation matters",
    );
    (table, bars)
}

/// Split a box into `parts` slabs along an explicit dimension.
fn split_along(bounds: &BoundingBox, dim: usize, parts: usize) -> Vec<BoundingBox> {
    let extent = bounds.shape().extents()[dim];
    let parts = parts.min(extent as usize).max(1);
    let base = extent / parts as u32;
    let rem = extent % parts as u32;
    let mut out = Vec::with_capacity(parts);
    let mut start = bounds.corner()[dim];
    for p in 0..parts {
        let len = base + if (p as u32) < rem { 1 } else { 0 };
        let mut corner = bounds.corner().clone();
        corner[dim] = start;
        let mut ext = bounds.shape().extents().to_vec();
        ext[dim] = len;
        out.push(BoundingBox::new(corner, Shape::new(ext)).expect("dims agree"));
        start += len as i32;
    }
    out
}

/// One cluster-experiment row.
pub struct ClusterRow {
    /// Variant label.
    pub label: String,
    /// Scaled intermediate (materialized) bytes.
    pub intermediate: u64,
    /// Simulated end-to-end minutes.
    pub minutes: f64,
    /// The run's raw stats (pre-scaling).
    pub stats: JobStats,
}

/// §III-E and §IV-D: the sliding-median query on the simulated 5-node
/// cluster.
///
/// Runs the real query in-process on an n×n grid, scales the measured
/// stats to the paper's 8000×8000, and replays them through the cost
/// model. Paper: baseline 55.5 GB / 183 min; transform+zlib 12.3 GB
/// (−77.8 %) / 377 min (+106 %); aggregation 21.8 GB (−60.7 %) / 131 min
/// (−28.5 %).
pub fn cluster_experiment(n: u32, splits: usize) -> (Table, Vec<ClusterRow>) {
    let var = workloads::int_square(n, 21);
    let layout = KeyLayout::Indexed { index: 0, ndims: 2 };
    let base = JobConfig::default()
        .with_reducers(5)
        .with_slots(10, 5)
        .with_framing(Framing::SequenceFile)
        .with_ifile_version(PAPER_IFILE);

    let run = |variant: SlidingMedianVariant| -> MedianRun {
        let mut q = SlidingMedian::new(layout.clone(), variant);
        q.num_splits = splits;
        q.base_config = base.clone();
        q.run(&var).expect("query runs")
    };

    let factor = (8000.0 * 8000.0) / (n as f64 * n as f64);
    let model = CostModel::new(ClusterSpec::paper_cluster());

    let mut rows = Vec::new();
    for (label, variant) in [
        (
            "baseline (plain keys)".to_string(),
            SlidingMedianVariant::Plain,
        ),
        (
            "transform+deflate codec".to_string(),
            SlidingMedianVariant::PlainWithCodec(Arc::new(TransformCodec::with_defaults(
                Arc::new(DeflateCodec::new()),
            ))),
        ),
        (
            "key aggregation".to_string(),
            SlidingMedianVariant::Aggregated {
                buffer_bytes: 64 << 20,
            },
        ),
    ] {
        let result = run(variant);
        let scaled = scale_stats(&result.result.stats, factor);
        let sim = model.simulate(&scaled);
        rows.push(ClusterRow {
            label,
            intermediate: scaled.map_output_materialized_bytes,
            minutes: sim.total_minutes(),
            stats: result.result.stats,
        });
    }

    let base_bytes = rows[0].intermediate as f64;
    let base_min = rows[0].minutes;
    let mut table = Table::new(
        &format!(
            "§III-E / §IV-D: sliding median, {n}² grid scaled to 8000², \
             5 nodes / 10 map slots / 5 reducers"
        ),
        &["variant", "intermediate", "Δ data", "runtime", "Δ runtime"],
    );
    for r in &rows {
        table.row(&[
            r.label.clone(),
            fmt_bytes(r.intermediate),
            format!(
                "{:+.1}%",
                100.0 * (r.intermediate as f64 / base_bytes - 1.0)
            ),
            format!("{:.0} min", r.minutes),
            format!("{:+.1}%", 100.0 * (r.minutes / base_min - 1.0)),
        ]);
    }
    // Phase breakdown in cluster-wide work-minutes (before dividing by
    // slot parallelism), so the contrast's cause is visible: codec CPU
    // dominates the transform variant, byte-driven stages and engine CPU
    // dominate the baseline.
    for r in &rows {
        let sim = model.simulate(&scale_stats(&r.stats, factor));
        let ph = sim.phases;
        let m = |s: f64| format!("{:.1}", s / 60.0);
        table.row(&[
            format!("  {} work-min (pre-sched):", r.label),
            format!(
                "io {}",
                m(ph.map_read_s + ph.map_write_s + ph.reduce_disk_s + ph.output_write_s)
            ),
            format!("shuffle {}", m(ph.shuffle_s)),
            format!("codec {}", m(ph.map_codec_s + ph.reduce_codec_s)),
            format!("engine {}", m(ph.map_cpu_s + ph.reduce_cpu_s)),
        ]);
    }
    table.note("paper: 55.5 GB/183 min → transform 12.3 GB (−77.8%)/377 min (+106%)");
    table.note("paper: → aggregation 21.8 GB (−60.7%)/131 min (−28.5%)");
    table.note("shape target: transform shrinks data but slows runtime; aggregation shrinks both");
    (table, rows)
}

/// Observability tentpole: run three traced jobs — each against its own
/// [`Recorder`] — and print the merged span timeline per stage beside
/// the paper's Table I (key vs value bytes) and Table II (materialized
/// bytes) views, read off the merged job counters after
/// [`CounterSnapshot::check_invariants`](scihadoop_mapreduce::CounterSnapshot::check_invariants)
/// passed on each job. Each job also yields a rich [`obs::LedgerRecord`]
/// (config + counters + phase rollups + histograms) for the run ledger.
///
/// Job 1 is a combiner-equipped, multi-spill wordcount — it exercises
/// map emit, sort/spill, combine, IFile write, map-side merge, shuffle
/// fetch, reduce merge and grouping. Job 2 is the aggregated
/// sliding-median query, whose aggregate key semantics keep sort-splits
/// enabled — it exercises the windowed sort-split stage. Job 3 replays a
/// small wordcount under guaranteed first-attempt map faults so the
/// trace carries Retry spans. Between them every pipeline phase records
/// spans. Every job writes the engine's default segment format.
pub fn traced_pipeline(n: u32, records: usize) -> (Table, Trace, Vec<obs::LedgerRecord>) {
    let mut ledger = Vec::new();
    let mut counters = Counters::new().snapshot();
    let mut trace = Trace::empty();
    // Run one job against a recorder of its own and fold its counters,
    // trace and rich ledger record into the pipeline's.
    let mut traced =
        |label: &str, config: JobConfig, run: &dyn Fn(&JobConfig) -> Result<JobResult, MrError>| {
            let recorder = Recorder::new();
            let config = config.with_recorder(recorder.clone());
            let result = run(&config).unwrap_or_else(|e| panic!("{label} runs: {e}"));
            let job_trace = recorder.finish();
            result
                .counters
                .check_invariants()
                .unwrap_or_else(|e| panic!("{label}: counter invariants violated: {e:#?}"));
            ledger.push(obs::LedgerRecord::from_run(
                label,
                &config,
                &result,
                Some(&job_trace),
            ));
            counters = counters.merge(&result.counters);
            trace.merge(&job_trace);
        };

    // Job 1: wordcount with a combiner and a tiny spill buffer (forces
    // several spills per map task, hence a map-side merge).
    traced(
        "traced_wordcount",
        JobConfig::default()
            .with_reducers(3)
            .with_slots(2, 2)
            .with_combiner(Arc::new(DistJobSpec::reducer()))
            .with_spill_buffer(1 << 10)
            .with_framing(Framing::IFile),
        &|config| run_wordcount(workloads::wordcount_splits(records, 60, 4, 128), config),
    );

    // Job 2: aggregated sliding median; its key semantics keep the
    // engine's conservative sort-split window engaged.
    traced(
        "traced_median",
        JobConfig::default().with_reducers(3),
        &|config| {
            let mut q = SlidingMedian::new(
                KeyLayout::Indexed { index: 0, ndims: 2 },
                SlidingMedianVariant::Aggregated {
                    buffer_bytes: 64 << 20,
                },
            );
            q.base_config = config.clone();
            Ok(q.run(&workloads::int_square(n, 11))?.result)
        },
    );

    // Job 3: a deliberately faulty re-run of a small wordcount — every
    // task fails its first attempt and succeeds on retry, so the trace
    // carries Retry spans (validate_trace demands rollups for every
    // phase, retries included) and one sample per reducer of reduce
    // output records, not one per attempt.
    traced(
        "traced_faulty_wordcount",
        JobConfig::default()
            .with_reducers(2)
            .with_retries(1)
            .with_faults(FaultPlan::new(FaultConfig {
                seed: 1,
                map_error_rate: 1.0,
                reduce_error_rate: 1.0,
                attempt_cap: 1,
                ..FaultConfig::default()
            })),
        &|config| {
            run_wordcount(
                workloads::wordcount_splits(records.min(200), 20, 4, 64),
                config,
            )
        },
    );

    let keys = counters.get(Counter::MapOutputKeyBytes);
    let values = counters.get(Counter::MapOutputValueBytes);
    let raw = counters.get(Counter::MapOutputBytes);
    // What is neither key nor value: framing plus segment headers, by the
    // byte-split identity `check_invariants` just held each job to.
    let framing = raw + counters.get(Counter::MapOutputKeySavedBytes) - keys - values;

    let mut table = Table::new(
        &format!("observability: traced wordcount + aggregated median ({records} records, {n}²)"),
        &["stage", "spans", "wall", "cpu"],
    );
    for phase in ALL_PHASES {
        table.row(&[
            phase.name().into(),
            format!("{}", trace.span_count(phase)),
            fmt_secs(trace.phase_wall_nanos(phase) as f64 / 1e9),
            fmt_secs(trace.phase_cpu_nanos(phase) as f64 / 1e9),
        ]);
    }
    table.note(&format!(
        "Table I view: keys {} / values {} / framing+header {} (key fraction {:.1}%)",
        fmt_bytes(keys),
        fmt_bytes(values),
        fmt_bytes(framing),
        100.0 * keys as f64 / (keys + values).max(1) as f64,
    ));
    table.note(&format!(
        "Table II view: materialized {} of {} raw across {} segments ({:.1}%)",
        fmt_bytes(counters.get(Counter::MapOutputMaterializedBytes)),
        fmt_bytes(raw),
        counters.get(Counter::MapOutputSegments),
        100.0 * counters.materialized_ratio(),
    ));
    table.note("byte views read off the job counters; check_invariants passed on each job");
    if !trace.warnings.is_empty() {
        table.note(&format!("trace warnings: {:?}", trace.warnings));
    }
    (table, trace, ledger)
}

/// Render model-vs-measured drift for a set of ledger records: each
/// record is replayed through [`CostModel::simulate`] against a
/// [`ClusterSpec::local_host`] spec and reported as per-row predicted vs
/// measured values with signed error: what `repro --reconcile <ledger>`
/// prints.
pub fn drift_table(title: &str, records: &[obs::LedgerRecord]) -> (Table, Vec<obs::DriftReport>) {
    let mut table = Table::new(title, &["run / row", "predicted", "measured", "error"]);
    let mut reports = Vec::new();
    for record in records {
        let model = CostModel::new(ClusterSpec::local_host(record));
        let report = model.reconcile(record);
        table.row(&[
            format!("[{}]", report.label),
            "".into(),
            "".into(),
            "".into(),
        ]);
        for row in &report.rows {
            table.row(&[
                format!("  {}", row.name),
                fmt_secs(row.predicted),
                fmt_secs(row.measured),
                format!("{:+.1}%", row.error_pct()),
            ]);
        }
        reports.push(report);
    }
    table.note("time rows show model drift; the model's byte terms are the run's own counters");
    table.note(
        "spec: local_host — measured slots; net bandwidth measured from socket transfer time when the record is a distributed run, unbounded otherwise",
    );
    (table, reports)
}

/// Hold every record of a ledger to
/// [`CounterSnapshot::check_invariants`](scihadoop_mapreduce::CounterSnapshot::check_invariants)
/// — the cross-site accounting identities debug builds assert at job
/// completion — and return each violation as `record N (label): why`.
/// `validate_trace` and `repro --reconcile` both read a ledger through
/// it.
pub fn ledger_violations(records: &[obs::LedgerRecord]) -> Vec<String> {
    let mut violations = Vec::new();
    for (i, record) in records.iter().enumerate() {
        for e in record.counters.check_invariants().err().unwrap_or_default() {
            violations.push(format!("record {} ({}): {e}", i + 1, record.label));
        }
    }
    violations
}

/// Append the thin (trace-less) record of a finished run to `ledger`,
/// when the caller asked for one.
fn append_record(
    ledger: Option<&mut obs::LedgerSink>,
    label: &str,
    config: &JobConfig,
    result: &JobResult,
) {
    if let Some(sink) = ledger {
        sink.append(obs::LedgerRecord::from_run(label, config, result, None))
            .expect("append ledger record");
    }
}

/// Two runs of one job gave one answer: byte-identical outputs and
/// equal counters of every listed [`CounterKind`].
fn assert_same_answer(a: &JobResult, b: &JobResult, kinds: &[CounterKind], what: &str) {
    assert_eq!(
        a.outputs, b.outputs,
        "{what}: outputs must be byte-identical"
    );
    for c in ALL_COUNTERS {
        if kinds.contains(&c.kind()) {
            assert_eq!(
                a.counters.get(c),
                b.counters.get(c),
                "{what}: counter {} must match",
                c.name()
            );
        }
    }
}

/// Run the verification wordcount over `splits` on the in-process
/// engine under `config`.
fn run_wordcount(splits: Vec<InputSplit>, config: &JobConfig) -> Result<JobResult, MrError> {
    Job::new(config.clone()).run(
        splits,
        Arc::new(DistJobSpec::mapper()),
        Arc::new(DistJobSpec::reducer()),
    )
}

/// Fault-tolerance tentpole: run a spec's wordcount twice — once clean
/// (the spec without its fault plan and retry budget), once under its
/// seeded fault storm (injected task errors, shuffle-segment corruption,
/// slow tasks) — and assert the faulted run's output is
/// **byte-identical** to the clean run with every semantic and path
/// counter unchanged. Only the fault-tolerance bookkeeping counters
/// (`TaskRetries`, `ChecksumFailures`, `FaultsInjected`) and the clocks
/// may differ; the faulted snapshot must still satisfy
/// `check_invariants`. Both runs use the spec's codec, so byte-identical
/// recovery also proves compressed segments shuffle losslessly while
/// corruption is detected (the segment's CRC-32C trailer, or, when the
/// flip lands in the compressed bytes, the codec frame's own CRC or a
/// stream that no longer decodes) and retried.
///
/// Panics if recovery is not exact — this experiment is itself the
/// assertion, in the spirit of the paper's "results are identical"
/// claims for its lossless key transforms.
///
/// When `ledger` is given, both runs append a record — the clean run as
/// `fault_storm_clean`, the faulted one as `fault_storm_faulted`.
pub fn fault_storm(spec: &DistJobSpec, mut ledger: Option<&mut obs::LedgerSink>) -> Table {
    let fault_spec = spec.faults.as_deref().expect("a storm needs a fault plan");
    let fault_config = FaultConfig::parse(fault_spec).expect("fault plan parses");
    let (records, retries) = (spec.records, spec.retries);
    assert!(
        fault_config.attempt_cap <= retries,
        "attempt_cap {} exceeds the retry budget {}: completion is not guaranteed",
        fault_config.attempt_cap,
        retries
    );
    let mut run = |spec: &DistJobSpec, label: &str| {
        let config = spec.build_config().expect("spec builds a config");
        let result = run_wordcount(spec.make_splits(), &config)
            .expect("faults below the retry budget must not fail the job");
        append_record(ledger.as_deref_mut(), label, &config, &result);
        (config, result)
    };
    let clean_spec = DistJobSpec {
        faults: None,
        retries: 0,
        ..spec.clone()
    };
    let (config, clean) = run(&clean_spec, "fault_storm_clean");
    let codec_label = config.codec.name();
    let t0 = Instant::now();
    let (_, faulted) = run(spec, "fault_storm_faulted");
    let faulted_secs = t0.elapsed().as_secs_f64();

    faulted
        .counters
        .check_invariants()
        .expect("faulted counters must satisfy the accounting invariants");
    assert_same_answer(
        &clean,
        &faulted,
        &[CounterKind::Semantic, CounterKind::Path],
        "clean vs faulted run",
    );
    let retried = faulted.counters.get(Counter::TaskRetries);
    let checksum = faulted.counters.get(Counter::ChecksumFailures);
    let injected = faulted.counters.get(Counter::FaultsInjected);
    if fault_config.map_error_rate > 0.0 || fault_config.reduce_error_rate > 0.0 {
        assert!(
            retried > 0,
            "error storm caused no retries (seed too quiet?)"
        );
    }
    if fault_config.corrupt_rate > 0.0 {
        assert!(
            checksum > 0,
            "corruption storm produced no checksum failures (seed too quiet?)"
        );
    }

    let mut table = Table::new(
        &format!(
            "fault storm: {records}-record wordcount, codec {codec_label}, seed {}, \
             map/reduce/corrupt/slow = {:.2}/{:.2}/{:.2}/{:.2}, retries {retries}",
            fault_config.seed,
            fault_config.map_error_rate,
            fault_config.reduce_error_rate,
            fault_config.corrupt_rate,
            fault_config.slow_rate,
        ),
        &["counter", "clean run", "faulted run"],
    );
    for c in [
        Counter::MapInputRecords,
        Counter::MapOutputRecords,
        Counter::ReduceInputRecords,
        Counter::ReduceOutputRecords,
        Counter::MapOutputBytes,
    ] {
        table.row(&[
            c.name().into(),
            format!("{}", clean.counters.get(c)),
            format!("{}", faulted.counters.get(c)),
        ]);
    }
    for (name, value) in [
        ("faults_injected", injected),
        ("task_retries", retried),
        ("checksum_failures", checksum),
    ] {
        table.row(&[name.into(), "0".into(), format!("{value}")]);
    }
    table.note(&format!(
        "outputs byte-identical across {} reducer files; faulted wall time {}",
        clean.outputs.len(),
        fmt_secs(faulted_secs)
    ));
    table.note("semantic counters equal; only retry/checksum/fault bookkeeping differs");
    table
}

/// §IV-A curve ablation: clustering quality (runs per query box) and
/// encode throughput for Z-order vs Hilbert vs row-major.
pub fn curve_ablation(bits: u32, box_side: u32) -> Table {
    let curves: Vec<Box<dyn Curve>> = vec![
        Box::new(ZOrderCurve::with_bits(2, bits)),
        Box::new(HilbertCurve::with_bits(2, bits)),
        Box::new(RowMajorCurve::with_bits(2, bits)),
    ];
    let side = 1i32 << bits;
    let step = (side / 7).max(1);
    let mut table = Table::new(
        &format!("§IV-A curve ablation ({box_side}×{box_side} boxes in a {side}×{side} space)"),
        &["curve", "mean runs/box", "encode Mcells/s"],
    );
    for curve in &curves {
        let mut total_runs = 0usize;
        let mut boxes = 0usize;
        for cx in (0..side - box_side as i32).step_by(step as usize) {
            for cy in (0..side - box_side as i32).step_by(step as usize) {
                let b = BoundingBox::new(
                    Coord::new(vec![cx, cy]),
                    Shape::new(vec![box_side, box_side]),
                )
                .expect("dims");
                total_runs += clustering_run_count(curve.as_ref(), &b).expect("in range");
                boxes += 1;
            }
        }
        // Encode throughput.
        let t0 = Instant::now();
        let mut sink = 0u128;
        let reps = 200_000u32;
        for i in 0..reps {
            sink ^= curve
                .index_of(&[i % (side as u32), (i * 7) % (side as u32)])
                .expect("in range");
        }
        let secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(sink);
        table.row(&[
            curve.name().into(),
            format!("{:.2}", total_runs as f64 / boxes as f64),
            format!("{:.1}", reps as f64 / 1e6 / secs),
        ]);
    }
    table.note("paper: Hilbert clusters better than Z-order but costs more (Moon et al.)");
    table
}

/// §IV-A flush-threshold ablation: aggregation effectiveness vs buffer
/// size ("the effect should be minimal").
pub fn flush_threshold(n: u32, thresholds: &[usize]) -> Table {
    let var = workloads::int_square(n, 31);
    let layout = KeyLayout::Indexed { index: 0, ndims: 2 };
    let mut table = Table::new(
        &format!("§IV-A flush-threshold ablation (sliding median, {n}² grid)"),
        &["buffer bytes", "map output", "records"],
    );
    for &t in thresholds {
        let mut q = SlidingMedian::new(
            layout.clone(),
            SlidingMedianVariant::Aggregated { buffer_bytes: t },
        );
        q.base_config = JobConfig::default()
            .with_reducers(4)
            .with_ifile_version(PAPER_IFILE);
        let run = q.run(&var).expect("query runs");
        table.row(&[
            format!("{t}"),
            fmt_bytes(run.result.stats.map_output_bytes),
            format!("{}", run.result.counters.get(Counter::MapOutputRecords)),
        ]);
    }
    table.note("paper: flushing early slightly reduces aggregation; effect should be minimal");
    table
}

/// §IV-C alignment ablation: overlap (pairs needing sort-splits) vs
/// padding overhead, on a sliding-window-style shifted-range workload.
pub fn alignment_ablation(alignments: &[u128]) -> Table {
    // Shifted overlapping ranges like neighbouring mappers' halos.
    let records: Vec<_> = (0..64u128)
        .map(|i| {
            let start = i * 23;
            let end = start + 40;
            scihadoop_core::aggregate::AggregateRecord::new(
                scihadoop_core::aggregate::AggregateKey::new(
                    0,
                    scihadoop_sfc::CurveRun { start, end },
                ),
                vec![0u8; 41],
                1,
            )
            .expect("consistent record")
        })
        .collect();
    let equal_pairs = |recs: &[scihadoop_core::aggregate::AggregateRecord]| -> usize {
        let mut count = 0;
        for i in 0..recs.len() {
            for j in i + 1..recs.len() {
                if recs[i].key == recs[j].key {
                    count += 1;
                }
            }
        }
        count
    };
    let mut table = Table::new(
        "§IV-C alignment ablation (64 shifted 41-cell ranges)",
        &[
            "alignment",
            "equal pairs",
            "overlapping-unequal pairs",
            "padding bytes",
        ],
    );
    table.row(&[
        "none".into(),
        format!("{}", equal_pairs(&records)),
        format!("{}", overlapping_pairs(&records)),
        "0".into(),
    ]);
    for &a in alignments {
        let expanded: Vec<_> = records
            .iter()
            .map(|r| expand_record(r, a, 1, &[0]))
            .collect();
        table.row(&[
            format!("{a}"),
            format!("{}", equal_pairs(&expanded)),
            format!("{}", overlapping_pairs(&expanded)),
            format!("{}", padding_overhead(&records, a, 1)),
        ]);
    }
    table.note(
        "paper: alignment raises the probability that overlapping keys become EQUAL \
         (no split needed), at the cost of padding and false sharing",
    );
    table.note("straddling ranges keep some unequal overlap at every alignment");
    table
}

/// §IV-B: how much key splitting increases the key count (the paper's
/// open question), as a function of reducer count.
pub fn split_counts(n: u32, reducer_counts: &[usize]) -> Table {
    let var = workloads::int_square(n, 17);
    let layout = KeyLayout::Indexed { index: 0, ndims: 2 };
    let mut table = Table::new(
        &format!("§IV-B key-splitting inflation (sliding median, {n}² grid)"),
        &["reducers", "map records", "route splits", "sort splits"],
    );
    for &r in reducer_counts {
        let mut q = SlidingMedian::new(
            layout.clone(),
            SlidingMedianVariant::Aggregated {
                buffer_bytes: 64 << 20,
            },
        );
        q.base_config = JobConfig::default().with_reducers(r);
        let run = q.run(&var).expect("query runs");
        table.row(&[
            format!("{r}"),
            format!("{}", run.result.counters.get(Counter::MapOutputRecords)),
            format!("{}", run.result.counters.get(Counter::RouteSplitRecords)),
            format!("{}", run.result.counters.get(Counter::SortSplitRecords)),
        ]);
    }
    table.note("answers the paper's open question: splits grow with reducer count");
    table
}

/// §IV-B future work, implemented: reducer-side re-aggregation
/// ("Aggregation ... could also be performed in other places to offset
/// the increase in key count caused by key splitting"). Splits one
/// mapper's aggregate records across R reducers, coalesces each
/// reducer's share, and reports how much of the split inflation is
/// recovered.
pub fn coalesce_recovery(n: u32, reducer_counts: &[usize]) -> Table {
    use scihadoop_core::aggregate::{
        coalesce_adjacent, route_split, AggregateRecord, RangePartitioner,
    };
    let var = workloads::int_square(n, 19);
    let bits = (32 - n.leading_zeros()).max(1);
    let span = 1u128 << (2 * bits);

    // 16 mappers, each owning a slab across the *fastest-varying* curve
    // dimension — the worst case for aggregation (see Fig. 8): each
    // mapper's output is heavily fragmented, and fragments from
    // neighbouring mappers are curve-adjacent at the slab boundaries.
    let mappers = 16usize;
    let mut mapper_records: Vec<AggregateRecord> = Vec::new();
    for slab in split_along(&var.bounds(), 1, mappers) {
        let mut agg = Aggregator::new(ZOrderCurve::with_bits(2, bits), usize::MAX >> 1);
        for cell in slab.cells() {
            let mut vbytes = Vec::with_capacity(4);
            var.get(&cell).expect("in range").write_be(&mut vbytes);
            agg.push(&cell, &vbytes).expect("non-negative grid");
        }
        mapper_records.extend(agg.flush());
    }
    let before = mapper_records.len();

    // The ideal: one global aggregation pass.
    let ideal = {
        let mut agg = Aggregator::new(ZOrderCurve::with_bits(2, bits), usize::MAX >> 1);
        for cell in var.bounds().cells() {
            let mut vbytes = Vec::with_capacity(4);
            var.get(&cell).expect("in range").write_be(&mut vbytes);
            agg.push(&cell, &vbytes).expect("non-negative grid");
        }
        agg.flush().len()
    };

    let mut table = Table::new(
        &format!(
            "§IV-B future work: reducer-side re-aggregation \
             ({n}² grid, {mappers} fast-dimension slab mappers, ideal {ideal} records)"
        ),
        &[
            "reducers",
            "mapper records",
            "after route split",
            "after coalesce",
        ],
    );
    for &r in reducer_counts {
        let partitioner = RangePartitioner::uniform(r, span);
        let mut per_reducer: Vec<Vec<AggregateRecord>> = vec![Vec::new(); r];
        for rec in &mapper_records {
            for (p, piece) in route_split(rec, &partitioner, 4) {
                per_reducer[p.min(r - 1)].push(piece);
            }
        }
        let split: usize = per_reducer.iter().map(|v| v.len()).sum();
        let coalesced: usize = per_reducer
            .into_iter()
            .map(|v| coalesce_adjacent(v).len())
            .sum();
        table.row(&[
            format!("{r}"),
            format!("{before}"),
            format!("{split}"),
            format!("{coalesced}"),
        ]);
    }
    table.note(
        "coalescing merges curve-adjacent records within each reducer — including \
         fragments from different mappers — recovering most of the fragmentation",
    );
    table
}

/// §III-A detector-tuning ablation: selection-cycle length and eviction
/// threshold vs compressed size and time.
pub fn transform_tuning(n: u32) -> Table {
    let stream = workloads::grid_key_stream(n);
    let deflate = DeflateCodec::new();
    let mut table = Table::new(
        &format!("§III-A detector tuning ({n}³ stream, deflate-compressed sizes)"),
        &["selection cycle", "hit threshold", "size (bytes)", "time"],
    );
    for (cycle, num, den) in [
        (64usize, 5u32, 6u32),
        (256, 5, 6), // the paper's setting
        (1024, 5, 6),
        (256, 1, 2),
        (256, 11, 12),
    ] {
        let config = TransformConfig {
            selection_cycle: cycle,
            hit_rate_num: num,
            hit_rate_den: den,
            ..TransformConfig::default()
        };
        let t0 = Instant::now();
        let transformed = transform::forward(&config, &stream);
        let secs = t0.elapsed().as_secs_f64();
        let size = deflate.compress(&transformed).len();
        table.row(&[
            format!("{cycle}"),
            format!("{num}/{den}"),
            format!("{size}"),
            fmt_secs(secs),
        ]);
    }
    table.note("paper fixes 256-byte cycles and a 5/6 threshold; sweep shows sensitivity");
    table
}

/// Scaling sanity: per-cell intermediate bytes are constant across grid
/// sizes (the assumption behind scaling local runs to the paper's 8000²).
pub fn scaling_check(sides: &[u32]) -> Result<Table, GridError> {
    let layout = KeyLayout::Indexed { index: 0, ndims: 2 };
    let mut table = Table::new(
        "scaling sanity: per-cell intermediate bytes vs grid size",
        &["grid", "cells", "map output", "bytes/cell"],
    );
    for &n in sides {
        let var = workloads::int_square(n, 5);
        let mut q = SlidingMedian::new(layout.clone(), SlidingMedianVariant::Plain);
        q.base_config = q.base_config.with_ifile_version(PAPER_IFILE);
        let run = q.run(&var).expect("query runs");
        let cells = (n as u64) * (n as u64);
        table.row(&[
            format!("{n}²"),
            format!("{cells}"),
            fmt_bytes(run.result.stats.map_output_bytes),
            format!(
                "{:.2}",
                run.result.stats.map_output_bytes as f64 / cells as f64
            ),
        ]);
    }
    table.note("shape target: bytes/cell approximately constant (slight edge effects)");
    Ok(table)
}

/// Distributed-runtime equivalence: run one [`DistJobSpec`] through the
/// local thread pool and through [`run_distributed`] (real worker
/// processes over sockets), then assert the two runs are byte-identical
/// — same outputs, same record counts, same shuffle bytes, same fault
/// and checksum tallies. Panics on any divergence: this experiment *is*
/// the acceptance test for the multi-process shuffle service.
///
/// The table reports what only the distributed run can measure — real
/// socket transfer time, coordinator fetch-wait (time reduce serving
/// blocked on unfinished maps, i.e. the pipelined fetch-while-map
/// overlap), and the measured shuffle bandwidth the cluster model picks
/// up via `ClusterSpec::local_host`.
///
/// When `ledger` is given, both runs append records (`dist_local` and
/// `dist_procs`), so `repro --reconcile` can compare the cost
/// model against a real network+disk run.
///
/// `shuffle_mem` bounds the coordinator's in-memory shuffle store
/// (`None` = auto-size from machine memory, `Some(0)` = spill every
/// segment). The byte-identity assertions do not weaken under a tiny
/// budget: spilling changes *where* segments wait, never what is
/// served.
///
/// `wire_codec` selects transparent shuffle compression
/// ([`WireCodec::Lz`] compresses segments once at publish and ships
/// them compressed). The byte-identity assertions do
/// not weaken under compression either: `ShuffleBytes` counts logical
/// bytes, and workers inflate before the segment CRC check, so the
/// reduce inputs — and every semantic counter — match the local engine
/// exactly.
pub fn dist_equivalence(
    spec: &DistJobSpec,
    workers: usize,
    shuffle_mem: Option<usize>,
    wire_codec: WireCodec,
    worker_args: &[&str],
    mut ledger: Option<&mut obs::LedgerSink>,
) -> Table {
    let base = spec.build_config().expect("spec builds a config");

    let local = run_wordcount(spec.make_splits(), &base).expect("local run succeeds");
    append_record(ledger.as_deref_mut(), "dist_local", &base, &local);

    let dist = DistConfig::default()
        .with_workers(workers)
        .with_shuffle_mem_bytes(shuffle_mem)
        .with_wire_codec(wire_codec)
        .with_worker_args(worker_args)
        .with_job_payload(&spec.to_spec_string());
    let t0 = Instant::now();
    let remote =
        run_distributed(&base, &dist, spec.make_splits()).expect("distributed run succeeds");
    let dist_secs = t0.elapsed().as_secs_f64();
    append_record(ledger, "dist_procs", &base, &remote);

    // The store's placement and the wire codec's savings are the
    // distributed run's own; the job's answer and the storm's tallies
    // are not.
    assert_same_answer(
        &local,
        &remote,
        &[CounterKind::Semantic, CounterKind::FaultTally],
        "local vs distributed run",
    );

    let wait = remote.counters.get(Counter::ShuffleFetchWaitNanos);
    let transfer = remote.counters.get(Counter::ShuffleTransferNanos);
    let bytes = remote.counters.get(Counter::ShuffleBytes);
    let mbps = if transfer > 0 {
        (bytes as f64 * 1000.0) / transfer as f64
    } else {
        0.0
    };
    let ms = |nanos: u64| format!("{:.2} ms", nanos as f64 / 1e6);
    let mut table = Table::new(
        &format!("distributed equivalence: {workers} worker processes"),
        &[
            "run",
            "wall",
            "shuffle",
            "fetch wait",
            "transfer",
            "net MB/s",
        ],
    );
    table.row(&[
        "local threads".to_string(),
        fmt_secs((local.stats.map_wall_nanos + local.stats.reduce_wall_nanos) as f64 / 1e9),
        fmt_bytes(local.counters.get(Counter::ShuffleBytes)),
        "—".to_string(),
        "—".to_string(),
        "—".to_string(),
    ]);
    table.row(&[
        format!("{workers} procs"),
        fmt_secs(dist_secs),
        fmt_bytes(bytes),
        ms(wait),
        ms(transfer),
        format!("{mbps:.0}"),
    ]);
    if let Some(faults) = &spec.faults {
        table.note(&format!(
            "fault plan {faults:?}: {} injected, {} checksum failures, {} retries — identical tallies both runs",
            remote.counters.get(Counter::FaultsInjected),
            remote.counters.get(Counter::ChecksumFailures),
            remote.counters.get(Counter::TaskRetries),
        ));
    }
    if let Some(budget) = shuffle_mem {
        table.note(&format!(
            "shuffle budget {} KiB: {} spilled ({} spill reads), high water {} — outputs still byte-identical",
            budget >> 10,
            fmt_bytes(remote.counters.get(Counter::ShuffleSpilledBytes)),
            remote.counters.get(Counter::ShuffleSpillReads),
            fmt_bytes(remote.counters.get(Counter::ShuffleMemHighWater)),
        ));
    }
    if wire_codec == WireCodec::Lz {
        let saved = remote.counters.get(Counter::ShuffleWireBytesSaved);
        assert!(
            saved > 0,
            "wire-codec lz must save socket bytes on this compressible workload"
        );
        table.note(&format!(
            "wire codec lz: {} saved off {} logical shuffle ({:.1}%), compress {} / decompress {} — outputs still byte-identical",
            fmt_bytes(saved),
            fmt_bytes(bytes),
            100.0 * saved as f64 / bytes.max(1) as f64,
            ms(remote.counters.get(Counter::LzCompressNanos)),
            ms(remote.counters.get(Counter::LzDecompressNanos)),
        ));
    }
    table.note("outputs and semantic counters byte-identical local vs distributed (asserted)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intro_overhead_matches_paper_exactly_at_scale() {
        // Run at n=20 (8000 cells): the per-record arithmetic is scale-
        // free: 26 B and 33 B per record + 6 B header.
        let t = intro_overhead(20);
        let rows = t.rows();
        let cells = 20u64 * 20 * 20;
        assert_eq!(rows[0][1], format!("{}", cells * 26 + 6));
        assert_eq!(rows[1][1], format!("{}", cells * 33 + 6));
        assert_eq!(rows[1][3], "6.75");
    }

    #[test]
    fn fig3_ordering_matches_paper_shape() {
        let (_, points) = fig3(16, 100);
        let size = |m: &str| {
            points
                .iter()
                .find(|p| p.method.starts_with(m))
                .expect("method present")
                .size
        };
        assert!(size("transform+deflate") < size("deflate"));
        assert!(size("transform+bzip") < size("bzip"));
        assert!(size("transform+bzip") < size("transform+deflate"));
        assert!(size("bzip") < size("deflate"));
        assert!(size("deflate") < size("original"));
    }

    #[test]
    fn fig4_time_is_roughly_linear() {
        let (_, points) = fig4(&[16, 32]);
        let rate0 = points[0].bytes as f64 / points[0].secs.max(1e-9);
        let rate1 = points[1].bytes as f64 / points[1].secs.max(1e-9);
        // 8x the data should take roughly 8x the time (allow 3x slack at
        // these tiny sizes).
        assert!(
            rate1 > rate0 / 3.0 && rate1 < rate0 * 3.0,
            "rates {rate0:.0} vs {rate1:.0} B/s"
        );
    }

    #[test]
    fn fig8_keys_and_overhead_collapse() {
        let (_, bars) = fig8(16, &[1, 8]);
        let original = &bars[0].1;
        let ideal = &bars[1].1;
        let partitioned = &bars[2].1;
        assert_eq!(original.values, ideal.values, "values unchanged");
        assert!(ideal.keys * 10 < original.keys, "keys must collapse");
        assert!(ideal.overhead * 10 < original.overhead);
        // Partitioning aggregates less (more, smaller runs).
        assert!(partitioned.keys >= ideal.keys);
    }

    #[test]
    fn cluster_experiment_reproduces_the_contrast() {
        // On a busy host a single run's engine CPU now and then reads
        // 1.3–2× its usual value (thread CPU inflated by VM steal), and
        // that one row then breaks an inequality by a few percent. The
        // contrast is asserted on each row's median over five runs.
        const N: u32 = 96;
        let runs: Vec<_> = (0..5).map(|_| cluster_experiment(N, 8)).collect();
        let report: String = runs.iter().map(|(table, _)| table.render()).collect();
        let median = |row: usize, field: fn(&ClusterRow) -> f64| {
            let mut values: Vec<f64> = runs
                .iter()
                .map(|(_, rows)| {
                    assert_eq!(rows.len(), 3);
                    field(&rows[row])
                })
                .collect();
            values.sort_by(f64::total_cmp);
            values[values.len() / 2]
        };
        let intermediate = |row| median(row, |r| r.intermediate as f64);
        let minutes = |row| median(row, |r| r.minutes);
        // The model's codec term for a row, as the table's work-minute
        // lines compute it.
        let codec_s = |row| {
            median(row, |r| {
                let factor = (8000.0 * 8000.0) / (N as f64 * N as f64);
                let phases = CostModel::new(ClusterSpec::paper_cluster())
                    .simulate(&scale_stats(&r.stats, factor))
                    .phases;
                phases.map_codec_s + phases.reduce_codec_s
            })
        };
        let (baseline, transform, agg) = (0, 1, 2);
        // Both optimizations shrink intermediate data.
        assert!(intermediate(transform) < intermediate(baseline), "{report}");
        assert!(intermediate(agg) < intermediate(baseline), "{report}");
        // The paper's headline contrast: transform costs runtime,
        // aggregation saves it. The transform's cost is its codec CPU
        // (x2 in the model), so that term carries the inequality; the
        // two rows' totals also hold the x45 engine CPU, whose run-to-run
        // wobble is +-20 points, so `minutes` is held to that tolerance.
        assert!(codec_s(transform) > codec_s(baseline), "{report}");
        assert!(minutes(transform) > 0.8 * minutes(baseline), "{report}");
        assert!(minutes(agg) < minutes(baseline), "{report}");
    }

    #[test]
    fn curve_ablation_runs() {
        let t = curve_ablation(5, 5);
        assert_eq!(t.rows().len(), 3);
    }

    #[test]
    fn alignment_grows_equal_pairs_and_padding() {
        let t = alignment_ablation(&[16, 64, 256]);
        let equal: Vec<usize> = t.rows().iter().map(|r| r[1].parse().unwrap()).collect();
        let padding: Vec<u64> = t.rows().iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(
            equal.windows(2).all(|w| w[1] >= w[0]),
            "equal pairs must grow with alignment: {equal:?}"
        );
        assert!(equal.last().unwrap() > equal.first().unwrap());
        assert!(
            padding.windows(2).all(|w| w[1] >= w[0]),
            "padding must grow with alignment: {padding:?}"
        );
    }

    #[test]
    fn coalesce_recovers_split_inflation() {
        let t = coalesce_recovery(32, &[2, 8]);
        for row in t.rows() {
            let before: usize = row[1].parse().unwrap();
            let split: usize = row[2].parse().unwrap();
            let coalesced: usize = row[3].parse().unwrap();
            assert!(coalesced <= split);
            assert!(
                coalesced * 2 < before,
                "coalescing should merge cross-mapper fragments: {coalesced} vs {before}"
            );
        }
    }

    #[test]
    fn traced_pipeline_covers_all_phases() {
        // check_invariants() already ran on each job's counters inside,
        // with the key-saved term of the byte split nonzero.
        let (table, trace, ledger) = traced_pipeline(24, 400);
        for phase in ALL_PHASES {
            assert!(
                trace.span_count(phase) > 0,
                "no spans for {:?}\n{}",
                phase,
                table.render()
            );
        }
        assert_eq!(trace.dropped_events, 0);
        // One rich ledger record per job, with phase rollups and
        // histograms filled from that job's own trace.
        assert_eq!(ledger.len(), 3);
        for record in &ledger {
            assert!(record.counters.get(Counter::MapOutputBytes) > 0);
            assert_eq!(record.dropped_events, 0);
        }
        let labels: Vec<&str> = ledger.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "traced_wordcount",
                "traced_median",
                "traced_faulty_wordcount"
            ]
        );
        assert!(ledger.iter().all(|r| r.phases.iter().any(|p| p.count > 0)));
        assert!(ledger.iter().all(|r| !r.histograms.is_empty()));
        assert_eq!(ledger[2].config.fault_seed, Some(1));
        // Every task of the faulty job ran twice, reduces included, so
        // `validate_trace`'s one-sample-per-reducer rule is held across
        // retries (`tests/cli.rs` runs it on this ledger).
        let faulty = &ledger[2];
        assert_eq!(
            faulty.counters.get(Counter::TaskRetries),
            faulty.job.num_maps + faulty.job.num_reducers
        );
        // Every job writes v3 blocks, and the wordcount's keys share
        // prefixes, so front coding saves key bytes.
        for record in &ledger {
            assert_eq!(record.config.ifile_version, 3, "{}", record.label);
            assert!(record.counters.get(Counter::BlocksWritten) > 0);
        }
        assert!(
            ledger[0].counters.get(Counter::MapOutputKeySavedBytes) > 0,
            "wordcount keys share prefixes; v3 must save key bytes"
        );
    }

    fn storm_spec() -> DistJobSpec {
        DistJobSpec {
            records: 1200,
            retries: 3,
            faults: Some("seed=42,map=0.4,reduce=0.3,corrupt=0.3,slow=0.1,slow_ms=1,cap=2".into()),
            ..DistJobSpec::default()
        }
    }

    fn faulted_row(t: &Table, name: &str) -> u64 {
        t.rows().iter().find(|r| r[0] == name).expect("row present")[2]
            .parse()
            .unwrap()
    }

    #[test]
    fn fault_storm_recovers_exactly() {
        // The experiment asserts byte-identical recovery internally;
        // here we check the rendered bookkeeping rows are live.
        let t = fault_storm(&storm_spec(), None);
        assert!(faulted_row(&t, "task_retries") > 0);
        assert!(faulted_row(&t, "checksum_failures") > 0);
        assert!(faulted_row(&t, "checksum_failures") <= faulted_row(&t, "task_retries"));
        assert!(faulted_row(&t, "faults_injected") >= faulted_row(&t, "task_retries"));
    }

    #[test]
    fn fault_storm_recovers_with_a_compressing_codec() {
        // Compressed segments round-trip byte-identically through the
        // full shuffle under fault injection, with corruption detected
        // and retried. A flip in the compressed bytes is caught by the
        // codec, either by its frame CRC or because the stream no longer
        // decodes, and either way counts as a checksum failure.
        let mut sink = obs::LedgerSink::new();
        let spec = DistJobSpec {
            codec: "transform+lz".into(),
            ..storm_spec()
        };
        let t = fault_storm(&spec, Some(&mut sink));
        assert!(t.title().contains("transform+lz"));
        // One thin record per run; the clean run has no fault seed and
        // no retry budget, the faulted one carries both.
        let records = sink.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].label, "fault_storm_clean");
        assert_eq!(records[0].config.fault_seed, None);
        assert_eq!(records[0].config.task_retries, 0);
        assert_eq!(records[1].label, "fault_storm_faulted");
        assert_eq!(records[1].config.fault_seed, Some(42));
        assert_eq!(records[1].config.codec, "transform+lz");
        // No trace was handed over, so the records are thin.
        for record in records {
            assert!(record.phases.iter().all(|p| p.count == 0));
            assert!(record.histograms.is_empty());
            assert!(record.counters.get(Counter::MapInputRecords) > 0);
        }
        assert!(faulted_row(&t, "task_retries") > 0);
        assert!(faulted_row(&t, "checksum_failures") > 0);
    }

    #[test]
    fn split_counts_grow_with_reducers() {
        let t = split_counts(24, &[1, 8]);
        let route: Vec<u64> = t.rows().iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(route[1] >= route[0]);
    }
}
