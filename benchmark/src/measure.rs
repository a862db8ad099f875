//! The end-to-end measurement of one workload, run inside a fresh child
//! process of the harness so peak RSS and allocator state belong to
//! that workload alone. Tracing is off here; the per-layer numbers come
//! from [`crate::replay`].
//!
//! # Calibrated seconds
//!
//! The host this runs on is a shared 2-core VM whose cores speed up and
//! slow down by tens of percent for minutes at a time, and whose two
//! virtual cores are at times run one after the other. Raw wall and CPU
//! seconds of the very same job therefore wander by far more than any
//! bound worth gating on. So every timed job is bracketed by a fixed
//! reference kernel ([`Reference::calibrate`]) on the same number of
//! threads, and the job's wall (CPU) seconds are scaled by how much
//! slower or faster than its reference time the kernel's wall (CPU) ran
//! just then. The
//! reported `setup_s`, `job_wall_s`, `cells_per_s` and `job_cpu_s` are
//! such *calibrated* seconds — seconds on this host when it is quiet —
//! and the raw samples are reported beside them.

use crate::metrics::Metric;
use crate::workloads::{grid, run_job, JobOutcome, Workload, SLOTS, WINDOW};
use scihadoop_grid::{Coord, Variable};
use scihadoop_mapreduce::clock::thread_cpu_nanos;
use scihadoop_mapreduce::Counter;
use scihadoop_queries::oracle;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second in `/proc/*/stat` (`USER_HZ`, fixed at
/// 100 on Linux whatever the kernel's own tick rate).
const CLK_TCK: f64 = 100.0;

/// Wall and CPU seconds the reference kernel takes on this host when it
/// is quiet; calibrated seconds are raw seconds × reference / measured.
const CAL_REF_WALL_S: f64 = 0.100;
const CAL_REF_CPU_S: f64 = 0.190;
/// Rounds of the reference kernel per calibration (about 8 ms each).
const CAL_ROUNDS: usize = 12;

/// One timing of the reference kernel.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// One thread's share of the reference kernel. Its buffers are made
/// once per process, so calibrating allocates nothing and leaves the
/// heap — and with it `peak_rss_mib` — to the jobs.
struct Lane {
    values: Vec<u64>,
    bytes: Vec<u8>,
    sums: HashMap<u64, u64>,
}

impl Lane {
    const VALUES: usize = 1 << 18;

    fn new() -> Lane {
        Lane {
            values: vec![0; Lane::VALUES],
            bytes: vec![0; 8 * Lane::VALUES],
            sums: HashMap::with_capacity(Lane::VALUES / 2),
        }
    }

    /// One round: fill, sort, hash and copy a few megabytes — the mix
    /// of branches, cache misses and copying the jobs are made of.
    fn round(&mut self) {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for v in &mut self.values {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *v = x;
        }
        self.values.sort_unstable();
        self.sums.clear();
        for &k in &self.values[..Lane::VALUES / 2] {
            *self.sums.entry(k >> 20).or_default() += k;
        }
        for (chunk, v) in self.bytes.chunks_exact_mut(8).zip(&self.values) {
            chunk.copy_from_slice(&v.to_be_bytes());
        }
        black_box((&self.sums, &self.bytes));
    }
}

/// The reference kernel: [`SLOTS`] lanes run at once, as the jobs run
/// on `SLOTS` slots.
pub struct Reference {
    lanes: Vec<Lane>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            lanes: (0..SLOTS).map(|_| Lane::new()).collect(),
        }
    }
}

impl Reference {
    /// Time the kernel: wall seconds of the whole, CPU seconds summed
    /// over the threads.
    pub fn calibrate(&mut self) -> Calibration {
        let t0 = Instant::now();
        let cpu_nanos: u64 = std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .lanes
                .iter_mut()
                .map(|lane| {
                    scope.spawn(move || {
                        let t0 = thread_cpu_nanos();
                        for _ in 0..CAL_ROUNDS {
                            lane.round();
                        }
                        thread_cpu_nanos() - t0
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("the reference kernel does not panic"))
                .sum()
        });
        Calibration {
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: cpu_nanos as f64 / 1e9,
        }
    }
}

/// Factors that turn raw wall and CPU seconds measured between two
/// calibrations into calibrated seconds.
fn scales(before: Calibration, after: Calibration) -> (f64, f64) {
    (
        CAL_REF_WALL_S / ((before.wall_s + after.wall_s) / 2.0),
        CAL_REF_CPU_S / ((before.cpu_s + after.cpu_s) / 2.0),
    )
}

/// How a child sizes its run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    pub n: u32,
    pub seed: u64,
    /// Keep timing repeats until this much time has passed…
    pub seconds: f64,
    /// …and at least this many repeats were timed.
    pub min_repeats: usize,
    /// Set-ups timed for `setup_s` (each one includes a warm-up job).
    pub setup_repeats: usize,
}

/// The inputs of a run and the reference its outputs are held against.
pub struct Inputs {
    pub var: Variable,
    pub oracle: HashMap<Coord, i32>,
}

pub fn make_inputs(n: u32, seed: u64) -> Inputs {
    let var = grid(n, seed);
    let oracle = oracle::sliding_median(&var, WINDOW).expect("the oracle reads an i32 grid");
    Inputs { var, oracle }
}

/// What the child reports back. `metrics` are the ones `BENCHMARK.json`
/// names; `info` rides along in the print-out and the run record.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub info: Vec<Metric>,
}

/// One job, checked: `Err` carries why the run counts as failed.
pub fn checked_job(
    workload: Workload,
    inputs: &Inputs,
    slots: usize,
) -> Result<(JobOutcome, f64, f64), String> {
    let cpu0 = process_cpu_seconds();
    let t0 = Instant::now();
    let outcome = run_job(workload, &inputs.var, slots);
    let wall = t0.elapsed().as_secs_f64();
    let cpu = process_cpu_seconds() - cpu0;
    // Teardown is checked even when the job itself failed: a failed job
    // is exactly when workers and spill files get left behind.
    let leftovers = if workload.is_proc() {
        leftover_files()
    } else {
        0
    };
    let outcome = outcome.map_err(|e| format!("job error: {e}"))?;
    if outcome.medians != inputs.oracle {
        return Err(format!(
            "medians disagree with the oracle ({} parsed, {} expected)",
            outcome.medians.len(),
            inputs.oracle.len()
        ));
    }
    if leftovers != 0 {
        return Err(format!(
            "{leftovers} worker processes or temp files left behind"
        ));
    }
    Ok((outcome, wall, cpu))
}

/// Measure the end-to-end metrics of `plan.workload`.
pub fn measure(plan: &Plan) -> Report {
    let cells = (plan.n as f64) * (plan.n as f64);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let report_failure = |what: &str, why: String| {
        eprintln!("{}: {what} failed: {why}", plan.workload.name());
    };

    // Set-up: inputs, reference, and a warm-up job that fills caches,
    // grows the heap and faults in the binary. Repeated so `setup_s`
    // is a median like every other timing.
    let (mut setup_s, mut setup_raw_s) = (Vec::new(), Vec::new());
    let (mut cal_wall_s, mut cal_cpu_s) = (Vec::new(), Vec::new());
    let mut reference = Reference::default();
    // The first calibration of a process runs before the second core has
    // spun up; it is made and dropped.
    reference.calibrate();
    let mut cal = reference.calibrate();
    let mut calibrated = |before: Calibration| {
        let after = reference.calibrate();
        cal_wall_s.push(after.wall_s);
        cal_cpu_s.push(after.cpu_s);
        (scales(before, after), after)
    };
    let mut inputs = None;
    for _ in 0..plan.setup_repeats {
        let t0 = Instant::now();
        let made = make_inputs(plan.n, plan.seed);
        attempted += 1;
        let warm_up = checked_job(plan.workload, &made, SLOTS);
        let raw = t0.elapsed().as_secs_f64();
        let ((wall_scale, _), after) = calibrated(cal);
        cal = after;
        match warm_up {
            Ok(_) => {
                setup_s.push(raw * wall_scale);
                setup_raw_s.push(raw);
            }
            Err(why) => {
                failed += 1;
                report_failure("warm-up", why);
            }
        }
        inputs = Some(made);
    }
    let inputs = inputs.expect("at least one set-up");

    // Closed loop, one job at a time, a calibration between jobs.
    let (mut wall_s, mut cpu_s) = (Vec::new(), Vec::new());
    let (mut wall_raw_s, mut cpu_raw_s) = (Vec::new(), Vec::new());
    let (mut inter_bytes, mut shuffle_bytes) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(plan.seconds);
    let t0 = Instant::now();
    while wall_s.len() + (failed as usize) < plan.min_repeats || t0.elapsed() < budget {
        attempted += 1;
        let job = checked_job(plan.workload, &inputs, SLOTS);
        let ((wall_scale, cpu_scale), after) = calibrated(cal);
        cal = after;
        match job {
            Ok((outcome, wall, cpu)) => {
                let c = &outcome.result.counters;
                wall_s.push(wall * wall_scale);
                cpu_s.push(cpu * cpu_scale);
                wall_raw_s.push(wall);
                cpu_raw_s.push(cpu);
                inter_bytes.push(c.get(Counter::MapOutputMaterializedBytes) as f64 / cells);
                shuffle_bytes.push(
                    (c.get(Counter::ShuffleBytes) - c.get(Counter::ShuffleWireBytesSaved)) as f64
                        / cells,
                );
            }
            Err(why) => {
                failed += 1;
                report_failure("timed run", why);
            }
        }
    }

    let cells_per_s = wall_s.iter().map(|w| cells / w).collect();
    let metrics = vec![
        Metric::new("setup_s", "s", setup_s),
        Metric::new("job_wall_s", "s", wall_s),
        Metric::new("cells_per_s", "cells/s", cells_per_s),
        Metric::new("job_cpu_s", "s", cpu_s),
        Metric::single("peak_rss_mib", "MiB", peak_rss_mib()),
        Metric::new("intermediate_bytes_per_cell", "B/cell", inter_bytes),
        Metric::new("shuffle_bytes_per_cell", "B/cell", shuffle_bytes),
    ];
    let info = vec![
        Metric::single(
            "failed_run_share",
            "ratio",
            failed as f64 / attempted as f64,
        ),
        Metric::new("setup_raw_s", "s", setup_raw_s),
        Metric::new("job_wall_raw_s", "s", wall_raw_s),
        Metric::new("job_cpu_raw_s", "s", cpu_raw_s),
        Metric::new("calibration_wall_s", "s", cal_wall_s),
        Metric::new("calibration_cpu_s", "s", cal_cpu_s),
    ];
    Report {
        attempted,
        failed,
        metrics,
        info,
    }
}

/// The fields of `/proc/<pid>/stat` after the command name (which may
/// itself hold spaces): state, parent pid, … — `None` when there is no
/// such process.
fn stat_fields(pid: &str) -> Option<Vec<String>> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let after_comm = stat.rsplit_once(')')?.1;
    Some(after_comm.split_whitespace().map(str::to_string).collect())
}

/// User + system CPU seconds of this process and of every child it has
/// reaped (fields 14–17 of `/proc/self/stat`). The coordinator reaps
/// its workers before a job returns, so a difference taken around a job
/// covers the workers too.
pub fn process_cpu_seconds() -> f64 {
    let fields = stat_fields("self").expect("/proc/self/stat is readable");
    let ticks: u64 = fields[11..15]
        .iter()
        .map(|f| f.parse::<u64>().expect("cpu tick field"))
        .sum();
    ticks as f64 / CLK_TCK
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

/// Worker processes still alive plus files still in the temp directory
/// after a process-mode job. The harness gives every child a private,
/// empty `TMPDIR`, so whatever is in it was left by the job: a socket
/// path or a shuffle spill file.
pub fn leftover_files() -> u64 {
    let me = std::process::id().to_string();
    let children = std::fs::read_dir("/proc")
        .map(|dir| {
            dir.flatten()
                .filter_map(|entry| stat_fields(&entry.file_name().to_string_lossy()))
                .filter(|fields| fields.get(1) == Some(&me))
                .count()
        })
        .unwrap_or(0);
    let files = std::fs::read_dir(std::env::temp_dir())
        .map(|dir| dir.count())
        .unwrap_or(0);
    (children + files) as u64
}
