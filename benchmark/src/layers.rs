//! The per-layer metrics of one workload: layer seconds and counts from
//! the replay, the engine's own counters copied from one ordinary run,
//! the process-mode floor, and how much of a single-slot run the replay
//! explains.

use crate::measure::{checked_job, leftover_files, make_inputs, Plan, Report};
use crate::metrics::{median, Metric};
use crate::replay::replay;
use crate::workloads::{job_config, Workload, SLOTS, SPLITS};
use scihadoop_mapreduce::dist::run_distributed;
use scihadoop_mapreduce::{Counter, InputSplit, JobResult};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Every per-layer metric with its unit, in print order. The layer is
/// the part of the name before the dot; `_s` are seconds of
/// single-threaded time in the replay, `engine.*` are engine-reported.
pub const LAYER_METRICS: [(&str, &str); 55] = [
    ("queries.splits_s", "s"),
    ("queries.map_emit_s", "s"),
    ("queries.reduce_fn_s", "s"),
    ("queries.parse_s", "s"),
    ("sfc.index_s", "s"),
    ("aggregate.push_flush_s", "s"),
    ("aggregate.split_s", "s"),
    ("aggregate.records_out", "count"),
    ("aggregate.cells_per_record", "ratio"),
    ("aggregate.split_records", "count"),
    ("arena.append_s", "s"),
    ("arena.sort_s", "s"),
    ("arena.records", "count"),
    ("ifile.write_s", "s"),
    ("ifile.open_s", "s"),
    ("ifile.raw_bytes", "B"),
    ("ifile.segments", "count"),
    ("ifile.key_saved_bytes", "B"),
    ("transform.forward_s", "s"),
    ("transform.inverse_s", "s"),
    ("transform.hit_rate", "ratio"),
    ("deflate.compress_s", "s"),
    ("deflate.decompress_s", "s"),
    ("deflate.ratio", "ratio"),
    ("lz.compress_s", "s"),
    ("lz.decompress_s", "s"),
    ("lz.ratio", "ratio"),
    ("sort.merge_s", "s"),
    ("sort.compare_calls", "count"),
    ("sort.blocks_copied", "count"),
    ("shuffle.publish_s", "s"),
    ("shuffle.serve_s", "s"),
    ("shuffle.spilled_bytes", "B"),
    ("shuffle.spill_reads", "count"),
    ("shuffle.mem_high_water_bytes", "B"),
    ("dist.empty_job_s", "s"),
    ("dist.leftover_files", "count"),
    ("engine.map_wall_s", "s"),
    ("engine.reduce_wall_s", "s"),
    ("engine.map_fn_s", "s"),
    ("engine.spill_s", "s"),
    ("engine.compress_s", "s"),
    ("engine.decompress_s", "s"),
    ("engine.merge_s", "s"),
    ("engine.reduce_fn_s", "s"),
    ("engine.fetch_wait_s", "s"),
    ("engine.transfer_s", "s"),
    ("engine.wire_compress_s", "s"),
    ("engine.wire_decompress_s", "s"),
    ("engine.spills", "count"),
    ("engine.map_output_records", "count"),
    ("engine.task_retries", "count"),
    ("engine.checksum_failures", "count"),
    ("engine.unattributed_pct", "%"),
    ("replay.coverage_pct", "%"),
];

/// Spans whose summed duration is a `<name>_s` metric as is.
const LAYER_SPANS: [&str; 18] = [
    "queries.splits",
    "queries.map_emit",
    "queries.reduce_fn",
    "queries.parse",
    "sfc.index",
    "aggregate.split",
    "arena.append",
    "arena.sort",
    "ifile.write",
    "ifile.open",
    "transform.forward",
    "transform.inverse",
    "deflate.compress",
    "deflate.decompress",
    "lz.compress",
    "lz.decompress",
    "sort.merge",
    "shuffle.serve",
];

/// Timed repeats of the zero-record process-mode job.
const EMPTY_JOB_REPEATS: usize = 3;

/// The engine's own accounting of one run, copied unchanged from the
/// `JobResult` the public call returns.
fn engine_metrics(result: &JobResult, job_wall_s: f64, values: &mut BTreeMap<String, Vec<f64>>) {
    let secs = |nanos: u64| nanos as f64 / 1e9;
    let stats = &result.stats;
    let c = &result.counters;
    let map_wall = secs(stats.map_wall_nanos);
    let reduce_wall = secs(stats.reduce_wall_nanos);
    let rows = [
        ("engine.map_wall_s", map_wall),
        ("engine.reduce_wall_s", reduce_wall),
        ("engine.map_fn_s", secs(stats.map_fn_nanos)),
        ("engine.spill_s", secs(stats.spill_nanos)),
        ("engine.compress_s", secs(stats.compress_nanos)),
        ("engine.decompress_s", secs(stats.decompress_nanos)),
        ("engine.merge_s", secs(stats.merge_nanos)),
        ("engine.reduce_fn_s", secs(stats.reduce_fn_nanos)),
        (
            "engine.fetch_wait_s",
            secs(c.get(Counter::ShuffleFetchWaitNanos)),
        ),
        (
            "engine.transfer_s",
            secs(c.get(Counter::ShuffleTransferNanos)),
        ),
        ("engine.wire_compress_s", secs(stats.wire_compress_nanos)),
        (
            "engine.wire_decompress_s",
            secs(stats.wire_decompress_nanos),
        ),
        ("engine.spills", c.get(Counter::Spills) as f64),
        (
            "engine.map_output_records",
            c.get(Counter::MapOutputRecords) as f64,
        ),
        ("engine.task_retries", c.get(Counter::TaskRetries) as f64),
        (
            "engine.checksum_failures",
            c.get(Counter::ChecksumFailures) as f64,
        ),
        (
            "engine.unattributed_pct",
            100.0 * (job_wall_s - map_wall - reduce_wall) / job_wall_s,
        ),
    ];
    for (name, value) in rows {
        values.insert(name.to_string(), vec![value]);
    }
}

/// Spawn + connect + teardown floor of process mode: the same job shape
/// with no records in any split.
fn empty_dist_job(workload: Workload) -> Result<f64, String> {
    let splits = (0..SPLITS).map(|_| InputSplit::new(Vec::new())).collect();
    let t0 = Instant::now();
    run_distributed(&job_config(1), &workload.dist_config(SLOTS), splits)
        .map_err(|e| format!("empty job: {e}"))?;
    Ok(t0.elapsed().as_secs_f64())
}

/// Measure the per-layer metrics of `plan.workload`; also returns the
/// trace of the last replay pass as the body of its trace file.
pub fn measure_layers(plan: &Plan) -> (Report, String) {
    let workload = plan.workload;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut checked = |what: &str, outcome: Result<(), String>| {
        attempted += 1;
        if let Err(why) = outcome {
            failed += 1;
            eprintln!("{}: {what} failed: {why}", workload.name());
        }
    };

    let inputs = make_inputs(plan.n, plan.seed);
    checked("warm-up", checked_job(workload, &inputs, SLOTS).map(|_| ()));

    // One ordinary run for the engine's own counters, one at a single
    // map and a single reduce slot as the wall the replay is held to.
    checked(
        "engine run",
        checked_job(workload, &inputs, SLOTS).map(|(outcome, wall, _)| {
            engine_metrics(&outcome.result, wall, &mut values);
        }),
    );
    let mut single_slot_wall = 0.0;
    checked(
        "single-slot run",
        checked_job(workload, &inputs, 1).map(|(_, wall, _)| single_slot_wall = wall),
    );

    if workload.is_proc() {
        let mut floor = Vec::new();
        for _ in 0..EMPTY_JOB_REPEATS {
            checked("empty job", empty_dist_job(workload).map(|s| floor.push(s)));
        }
        values.insert("dist.empty_job_s".into(), floor);
        values.insert("dist.leftover_files".into(), vec![leftover_files() as f64]);
    }

    // Replay passes: at least one, then until the time budget is spent.
    let mut trace = String::new();
    let mut counts: Option<BTreeMap<&'static str, f64>> = None;
    let budget = Duration::from_secs_f64(plan.seconds);
    let t0 = Instant::now();
    let mut passes = 0;
    while passes == 0 || t0.elapsed() < budget {
        passes += 1;
        let outcome = replay(workload, &inputs.var)
            .map_err(|e| format!("replay error: {e}"))
            .and_then(|pass| {
                if pass.medians != inputs.oracle {
                    return Err("replay medians disagree with the oracle".to_string());
                }
                if counts.as_ref().is_some_and(|c| *c != pass.counts) {
                    return Err("replay counts differ between passes".to_string());
                }
                for span in LAYER_SPANS {
                    let seconds = pass.seconds(span);
                    values.entry(format!("{span}_s")).or_default().push(seconds);
                }
                // Spans that enclose a layer replayed on its own report
                // their self time.
                for (outer, inner) in [
                    ("aggregate.push_flush", "sfc.index"),
                    ("shuffle.publish", "lz.compress"),
                ] {
                    let own = (pass.seconds(outer) - pass.seconds(inner)).max(0.0);
                    values.entry(format!("{outer}_s")).or_default().push(own);
                }
                if single_slot_wall > 0.0 {
                    values
                        .entry("replay.coverage_pct".into())
                        .or_default()
                        .push(100.0 * pass.pipeline_seconds() / single_slot_wall);
                }
                trace = pass.trace_json(workload);
                counts = Some(pass.counts);
                Ok(())
            });
        checked("replay", outcome);
    }

    for (name, value) in counts.unwrap_or_default() {
        values.insert(name.to_string(), vec![value]);
    }
    let records_out = values
        .get("aggregate.records_out")
        .map_or(0.0, |v| median(v));
    if records_out > 0.0 {
        let pairs_in = values
            .remove("aggregate.pairs_in")
            .map_or(0.0, |v| median(&v));
        values.insert(
            "aggregate.cells_per_record".into(),
            vec![pairs_in / records_out],
        );
    }

    let metrics = LAYER_METRICS
        .iter()
        .map(|(name, unit)| {
            let samples = values.get(*name).cloned().unwrap_or_else(|| vec![0.0]);
            Metric::new(name, unit, samples)
        })
        .collect();
    (
        Report {
            attempted,
            failed,
            metrics,
            info: Vec::new(),
        },
        trace,
    )
}
