//! The harness: runs each selected workload in a fresh child process
//! under a deadline, prints every metric by name with its unit, derives
//! the paper's table, and writes the run record `compare` reads.

use crate::metrics::Metric;
use crate::workloads::{Workload, GRID_N, QUICK_N};
use scihadoop_bench::json::{self, Json};
use std::io::Read;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Where traces, run records and per-child temp directories go,
/// relative to the repository root the benchmark is run from.
pub const OUT_DIR: &str = "benchmark/out";
/// Seconds one run measures for unless `--seconds` says otherwise; the
/// same number as `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 12.0;
/// Timed repeats every full run makes at least.
const MIN_REPEATS: usize = 7;
/// Set-ups a full run times for the `setup_s` median.
const SETUP_REPEATS: usize = 3;

/// Which measurement a child makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics, tracing off.
    EndToEnd,
    /// Per-layer metrics from the traced replay.
    Layers,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::EndToEnd => "end_to_end",
            Mode::Layers => "per_layer",
        }
    }

    /// The `--trace` value that selects this mode.
    fn trace_flag(self) -> &'static str {
        match self {
            Mode::EndToEnd => "0",
            Mode::Layers => "1",
        }
    }
}

/// What `run` was asked to do.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workloads: Vec<Workload>,
    pub modes: Vec<Mode>,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out: PathBuf,
}

impl RunOptions {
    pub fn n(&self) -> u32 {
        if self.quick {
            QUICK_N
        } else {
            GRID_N
        }
    }

    pub fn min_repeats(&self) -> usize {
        if self.quick {
            1
        } else {
            MIN_REPEATS
        }
    }

    pub fn setup_repeats(&self) -> usize {
        if self.quick {
            1
        } else {
            SETUP_REPEATS
        }
    }
}

/// One child's results, as parsed back by the harness or by `compare`.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub workload: String,
    pub mode: String,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` names for this mode.
    pub metrics: Vec<Metric>,
    /// Printed and recorded beside them, never gated.
    pub info: Vec<Metric>,
}

impl WorkloadResult {
    pub fn to_json(&self) -> String {
        let list = |metrics: &[Metric]| {
            let items: Vec<String> = metrics.iter().map(Metric::to_json).collect();
            items.join(", ")
        };
        format!(
            "{{\"workload\": \"{}\", \"mode\": \"{}\", \"attempted\": {}, \"failed\": {}, \"metrics\": [{}], \"info\": [{}]}}",
            self.workload,
            self.mode,
            self.attempted,
            self.failed,
            list(&self.metrics),
            list(&self.info)
        )
    }

    pub fn from_json(json: &Json) -> Result<WorkloadResult, String> {
        let text = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("result without a string {key:?}"))
        };
        let int = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("result without a whole number {key:?}"))
        };
        let list = |key: &str| {
            json.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("result without {key:?}"))?
                .iter()
                .map(Metric::from_json)
                .collect::<Result<Vec<_>, _>>()
        };
        Ok(WorkloadResult {
            workload: text("workload")?,
            mode: text("mode")?,
            attempted: int("attempted")?,
            failed: int("failed")?,
            metrics: list("metrics")?,
            info: list("info")?,
        })
    }

    /// A metric or info entry by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics
            .iter()
            .chain(&self.info)
            .find(|m| m.name == name)
    }
}

extern "C" {
    /// `kill(2)`. A negative `pid` signals every process of that group.
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGKILL: i32 = 9;

/// Kill every process in the child's process group: the child itself
/// and any worker processes it spawned.
fn kill_group(pgid: u32) {
    // SAFETY: `kill` takes two integers and touches no memory of ours.
    // The group id is that of a child we spawned as its own group
    // leader and have not yet waited for, so the id cannot have been
    // reused for an unrelated group.
    unsafe {
        kill(-(pgid as i32), SIGKILL);
    }
}

/// Run one measurement in a fresh child process. The child gets a
/// private empty `TMPDIR` (sockets and shuffle spill files land there,
/// inside the checkout) and its own process group, and is killed with
/// its workers when it outlives the deadline — the distributed runtime
/// has no socket timeouts, so a hung worker would otherwise hang the
/// benchmark.
fn run_child(opts: &RunOptions, workload: Workload, mode: Mode) -> Result<WorkloadResult, String> {
    let tmp = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp)
        .map_err(|e| format!("cannot create {tmp:?} (run from the repository root): {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the harness: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args([
            "child",
            "--workload",
            workload.name(),
            "--trace",
            mode.trace_flag(),
        ])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .env("TMPDIR", &tmp)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .process_group(0);
    if opts.quick {
        command.arg("--quick");
    }
    let mut child = command
        .spawn()
        .map_err(|e| format!("cannot spawn the {} child: {e}", workload.name()))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });

    // Generous against the plan — set-up, warm-ups and a run of
    // `seconds` — yet inside the 180 s a single invocation may take.
    let deadline = Duration::from_secs_f64((60.0 + 4.0 * opts.seconds).min(170.0));
    let t0 = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if t0.elapsed() >= deadline => {
                kill_group(child.id());
                let _ = child.wait();
                break Err(format!("deadline of {deadline:?} passed; child killed"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                kill_group(child.id());
                let _ = child.wait();
                break Err(format!("waiting for the child: {e}"));
            }
        }
    };
    let text = reader
        .join()
        .expect("stdout reader does not panic")
        .map_err(|e| format!("reading the child's output: {e}"));
    let _ = std::fs::remove_dir_all(&tmp);

    let status = status?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    let text = text?;
    let line = text.lines().last().ok_or("child printed nothing")?;
    WorkloadResult::from_json(&json::parse(line)?)
}

fn print_result(result: &WorkloadResult) {
    println!(
        "\n== {} [{}] — {} runs attempted, {} failed",
        result.workload, result.mode, result.attempted, result.failed
    );
    for m in result.metrics.iter().chain(&result.info) {
        if m.samples.len() > 1 {
            println!(
                "{:<32} {:>16.6} {:<8} (min {:.6}, max {:.6}, n={})",
                m.name,
                m.value(),
                m.unit,
                m.min(),
                m.max(),
                m.samples.len()
            );
        } else {
            println!("{:<32} {:>16.6} {}", m.name, m.value(), m.unit);
        }
    }
}

/// The paper's §III-E / §IV-D table from the named metrics: change of
/// `job_wall_s` and of `intermediate_bytes_per_cell` against
/// `median-plain-local`. Printed for information, never gated.
fn print_paper_table(results: &[WorkloadResult]) {
    let value = |workload: Workload, metric: &str| {
        results
            .iter()
            .find(|r| r.workload == workload.name() && r.mode == Mode::EndToEnd.name())
            .and_then(|r| r.metric(metric))
            .map(Metric::value)
            .filter(|v| *v > 0.0)
    };
    let rows = [
        (Workload::TransformLocal, "transform+deflate", 106.0, -77.8),
        (Workload::AggLocal, "aggregation", -28.5, -60.7),
    ];
    for (workload, label, paper_time, paper_bytes) in rows {
        let change = |metric: &str| {
            Some(100.0 * (value(workload, metric)? / value(Workload::PlainLocal, metric)? - 1.0))
        };
        if let (Some(time), Some(bytes)) =
            (change("job_wall_s"), change("intermediate_bytes_per_cell"))
        {
            println!(
                "paper table: {label:<18} job_wall_s {time:+7.1} % (paper {paper_time:+.1} %)   intermediate_bytes_per_cell {bytes:+7.1} % (paper {paper_bytes:+.1} %)"
            );
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run record: where and how the numbers were taken, then every
/// child's results with per-repeat raw samples.
fn run_record(opts: &RunOptions, host_cpus: usize, results: &[WorkloadResult]) -> String {
    let results: Vec<String> = results
        .iter()
        .map(|r| format!("  {}", r.to_json()))
        .collect();
    format!(
        "{{\"host_cpus\": {}, \"oversubscribed\": {}, \"n\": {}, \"seed\": {}, \"seconds\": {}, \"min_repeats\": {}, \"git_commit\": \"{}\", \"rustc\": \"{}\", \"clock_kind\": \"{:?}\", \"results\": [\n{}\n]}}\n",
        host_cpus,
        host_cpus < 2,
        opts.n(),
        opts.seed,
        opts.seconds,
        opts.min_repeats(),
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["-V"]),
        scihadoop_mapreduce::clock::clock_kind(),
        results.join(",\n")
    )
}

/// Run the selected workloads and modes. Returns the process exit code.
pub fn run(opts: &RunOptions) -> i32 {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "sliding median {0}x{0}, seed {1}, {2} s per run, host_cpus {3}{4}",
        opts.n(),
        opts.seed,
        opts.seconds,
        host_cpus,
        if host_cpus < 2 {
            " — oversubscribed: wall and CPU metrics are not comparable"
        } else {
            ""
        }
    );
    let mut results = Vec::new();
    let mut broken = false;
    for &mode in &opts.modes {
        for &workload in &opts.workloads {
            let result = run_child(opts, workload, mode).unwrap_or_else(|why| {
                eprintln!("{} [{}]: {why}", workload.name(), mode.name());
                broken = true;
                WorkloadResult {
                    workload: workload.name().to_string(),
                    mode: mode.name().to_string(),
                    attempted: 1,
                    failed: 1,
                    metrics: Vec::new(),
                    info: Vec::new(),
                }
            });
            print_result(&result);
            results.push(result);
        }
    }
    println!();
    print_paper_table(&results);

    if let Err(e) = std::fs::write(&opts.out, run_record(opts, host_cpus, &results)) {
        eprintln!("cannot write {:?}: {e}", opts.out);
        broken = true;
    } else {
        println!("run record: {}", opts.out.display());
    }

    // The benchmark contract's result line, when one measurement of one
    // workload was asked for.
    if let [only] = results.as_slice() {
        let metrics: Vec<String> = only.metrics.iter().map(Metric::to_contract_json).collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            only.failed == 0,
            only.attempted,
            only.failed,
            metrics.join(", ")
        );
    }
    i32::from(broken)
}
