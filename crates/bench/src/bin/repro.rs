//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT] [--small] [--trace <path>] [--ledger <path>]
//!       [--reconcile <path>] [--faults <spec>] [--retries <n>]
//!       [--codec <name>] [--workers <n>] [--shuffle-mem-kib <n>]
//!       [--wire-codec <identity|lz>]
//!
//! Anything else — an unknown `--flag`, a flag whose value is missing or
//! starts with `--`, an unknown or a second experiment name, a KiB count
//! that does not fit — exits 2 with that usage line.
//!
//! EXPERIMENT is a name from the `EXPERIMENTS` table below, or `all`
//! (everything the table marks as part of it — the default). An unknown
//! name exits 2 listing the names and what each reproduces.
//!
//! --small runs reduced problem sizes (CI-friendly).
//! --workers <n> sets the worker-process count for dist (default 3;
//!   the workers speak the platform's socket: Unix-domain where it has
//!   them, loopback TCP where it has none); --shuffle-mem-kib <n> bounds
//!   the coordinator's in-memory shuffle store (segments past the budget
//!   spill to disk and are served back by positioned reads; 0 spills
//!   everything; default auto-sizes from available memory);
//!   --wire-codec <identity|lz> turns on transparent shuffle compression
//!   (segments are lz-compressed once at publish, spill and ship
//!   compressed, and are inflated by the worker before the reduce-side
//!   CRC check — outputs stay byte-identical; default identity). Any of
//!   these flags implies the dist experiment when none is named.
//! --codec <name> sets the intermediate-data codec for fault_storm,
//!   composed from: [transform+](identity|lz|deflate|bzip), e.g.
//!   "transform+deflate" (the stride transform over deflate).
//! The trace, fault_storm and dist experiments run the engine's own
//! segment format (IFile v3, `JobConfig::default()`); the rows that
//! rebuild one of the paper's byte numbers pin the paper's framed v2
//! layout in code (`bench::PAPER_IFILE`).
//! --faults <spec> configures the fault_storm plan, e.g.
//!   "seed=42,map=0.4,reduce=0.3,corrupt=0.3,slow=0.1,slow_ms=1,cap=2"
//!   (keys are optional; rates in [0,1]). --retries <n> sets the
//!   per-task retry budget (default 3; must be >= the plan's cap).
//! --trace <path> writes the traced pipeline's span timeline as Chrome
//!   trace_event JSON (open in about:tracing / Perfetto). It implies the
//!   `trace` experiment, as does --ledger.
//! --ledger <path> appends one self-describing JSON-lines run record per
//!   job (config, counters, phase rollups, histograms) — rich records
//!   from the trace jobs, thin ones (no rollups or histograms) from
//!   fault_storm and dist runs. The file accumulates run history.
//! --reconcile <path> parses an existing ledger file, prints the
//!   cost-model drift report (predicted vs measured time per run) and
//!   holds the ledger to `ledger_violations` (each record's counters to
//!   `check_invariants` and a rich record's histograms to its counters;
//!   the clean runs of one job to equal semantic counters), exiting 1 on
//!   a violation; a standalone action that runs no experiment unless
//!   one is named (`repro trace --small --ledger L --reconcile L` is
//!   the self-contained drift report).
//! ```
//!
//! An experiment that cannot finish (a grid it cannot build, a trace or
//! ledger it cannot write) says why on stderr and exits 1.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use scihadoop_bench as bench;
use scihadoop_mapreduce::obs::LedgerSink;
use scihadoop_mapreduce::{FaultConfig, FaultPlan, Framing, JobConfig, WireCodec};

/// What the command line resolved to, as the experiments read it.
struct Args {
    small: bool,
    trace_path: Option<String>,
    ledger_path: Option<String>,
    /// The storm wordcount's config: `--codec`, `--faults` and
    /// `--retries` over three reducers.
    storm: JobConfig,
    /// The storm wordcount's input record count.
    storm_records: usize,
    workers: usize,
    shuffle_mem: Option<usize>,
    wire_codec: WireCodec,
}

impl Args {
    /// A problem size: `full` as the paper ran it, `small` under
    /// `--small` (CI-friendly).
    fn size<T>(&self, full: T, small: T) -> T {
        if self.small {
            small
        } else {
            full
        }
    }

    fn ledger_sink(&self) -> Option<LedgerSink> {
        self.ledger_path.as_ref().map(LedgerSink::with_path)
    }

    fn report_appended(&self, sink: &Option<LedgerSink>) {
        if let (Some(sink), Some(path)) = (sink, &self.ledger_path) {
            println!("appended {} run records to {path}", sink.records().len());
        }
    }
}

/// One experiment: its name on the command line, what it reproduces,
/// whether `all` runs it, and how to run it.
type Experiment = (&'static str, &'static str, bool, fn(&Args));

fn show(table: bench::Table) {
    println!("{}", table.render());
}

/// The one table of experiments, in the order `all` runs them. Dispatch,
/// the listing an unknown name gets, and the `all` rule read it.
const EXPERIMENTS: [Experiment; 16] = [
    (
        "intro",
        "§I intermediate-file overhead numbers",
        true,
        |a| show(bench::intro_overhead(a.size(100, 20))),
    ),
    ("fig3", "byte-level compression table", true, |a| {
        show(bench::fig3(a.size(100, 24), 100).0)
    }),
    (
        "strides",
        "§III-A stride ablation (sizes + brute-force slowdown)",
        true,
        |a| show(bench::stride_ablation(a.size(100, 24), a.size(50, 16))),
    ),
    ("fig4", "transform time vs file size", true, |a| {
        show(bench::fig4(a.size(&[20, 40, 60, 80, 100], &[12, 20, 28])).0)
    }),
    ("fig8", "key aggregation data-size breakdown", true, |a| {
        show(bench::fig8(a.size(100, 24), &[1, 10, 100]).0)
    }),
    (
        "cluster",
        "§III-E / §IV-D simulated cluster runs",
        true,
        |a| show(bench::cluster_experiment(a.size(192, 48), a.size(20, 8)).0),
    ),
    (
        "trace",
        "traced pipeline: per-stage spans + Table I/II byte views",
        true,
        trace,
    ),
    ("curves", "§IV-A curve ablation", true, |_| {
        show(bench::curve_ablation(6, 6))
    }),
    ("flush", "§IV-A flush-threshold ablation", true, |a| {
        show(bench::flush_threshold(
            a.size(64, 24),
            &[1 << 10, 1 << 14, 1 << 20, 1 << 26],
        ))
    }),
    ("align", "§IV-C alignment ablation", true, |_| {
        show(bench::alignment_ablation(&[8, 16, 64, 256]))
    }),
    (
        "coalesce",
        "§IV-B future work: reducer-side re-aggregation",
        true,
        |a| show(bench::coalesce_recovery(a.size(64, 24), &[1, 2, 5, 10, 20])),
    ),
    ("splits", "§IV-B key-splitting inflation", true, |a| {
        show(bench::split_counts(a.size(64, 24), &[1, 2, 5, 10, 20]))
    }),
    ("tuning", "§III-A detector tuning", true, |a| {
        show(bench::transform_tuning(a.size(50, 16)))
    }),
    ("scaling", "per-cell byte-scaling sanity check", true, |a| {
        let table = bench::scaling_check(a.size(&[32, 64, 128], &[16, 32]));
        show(table.unwrap_or_else(|e| die("scaling check", e)))
    }),
    (
        "fault_storm",
        "fault-injected run vs clean run (byte-identical recovery)",
        true,
        fault_storm,
    ),
    // dist spawns worker processes, so it only runs when asked for (by
    // name or via a dist flag), never as part of `all`.
    (
        "dist",
        "multi-process shuffle service vs local engine (clean and fault-seeded \
              runs, byte-identical outputs asserted)",
        false,
        dist,
    ),
];

fn trace(a: &Args) {
    let (table, trace, records) = bench::traced_pipeline(a.size(64, 24), a.size(5_000, 600));
    show(table);
    if let Some(path) = &a.trace_path {
        let json = scihadoop_mapreduce::obs::chrome_trace_json(&trace);
        if let Err(e) = std::fs::write(path, json) {
            die(&format!("cannot write chrome trace {path}"), e);
        }
        println!("wrote chrome trace to {path}");
    }
    let mut sink = a.ledger_sink();
    if let Some(sink) = &mut sink {
        for record in records {
            if let Err(e) = sink.append(record) {
                die("cannot append ledger record", e);
            }
        }
    }
    a.report_appended(&sink);
}

fn fault_storm(a: &Args) {
    let mut sink = a.ledger_sink();
    show(bench::fault_storm(&a.storm, a.storm_records, sink.as_mut()));
    a.report_appended(&sink);
}

fn dist(a: &Args) {
    let mut sink = a.ledger_sink();
    let clean = JobConfig {
        faults: None,
        task_retries: 0,
        ..a.storm.clone()
    };
    for config in [&clean, &a.storm] {
        show(bench::dist_equivalence(
            config,
            a.storm_records,
            a.workers,
            a.shuffle_mem,
            a.wire_codec,
            &[],
            sink.as_mut(),
        ));
    }
    a.report_appended(&sink);
}

/// Every flag that takes a value, with the value's name in the usage
/// line; `--small` is the one switch. The parser and the usage line
/// both read this table.
const VALUE_FLAGS: [(&str, &str); 9] = [
    ("--trace", "path"),
    ("--ledger", "path"),
    ("--reconcile", "path"),
    ("--faults", "spec"),
    ("--retries", "n"),
    ("--codec", "name"),
    ("--workers", "n"),
    ("--shuffle-mem-kib", "n"),
    ("--wire-codec", "identity|lz"),
];

/// The command line is a trust boundary: refuse what the grammar does
/// not generate instead of measuring something other than what was
/// asked for.
fn reject(why: &str) -> ! {
    let flags: String = VALUE_FLAGS
        .iter()
        .map(|(flag, value)| format!(" [{flag} <{value}>]"))
        .collect();
    eprintln!("{why}\nusage: repro [EXPERIMENT] [--small]{flags}");
    std::process::exit(2);
}

/// An experiment cannot finish: say why and exit 1.
fn die(what: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("{what}: {e}");
    std::process::exit(1);
}

fn main() {
    // Spawned worker processes re-execute this binary with the
    // SCIHADOOP_DIST_* environment set; divert before any argument
    // parsing (workers are spawned with no arguments).
    match scihadoop_mapreduce::dist::worker_env() {
        Ok(Some(env)) => std::process::exit(bench::dist_worker(&env)),
        Ok(None) => {}
        Err(e) => {
            eprintln!("bad worker environment: {e}");
            std::process::exit(2);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut small, mut named, mut values) = (false, None, Vec::new());
    let mut rest = argv.iter();
    while let Some(arg) = rest.next() {
        if arg == "--small" {
            small = true;
        } else if VALUE_FLAGS.iter().any(|(flag, _)| flag == arg) {
            match rest.next() {
                Some(value) if !value.starts_with("--") => values.push((arg, value)),
                _ => reject(&format!("{arg} requires a value")),
            }
        } else if arg.starts_with("--") {
            reject(&format!("unknown flag {arg}"));
        } else if named.replace(arg.clone()).is_some() {
            reject(&format!("more than one experiment named (second: {arg})"));
        }
    }
    let flag_value = |name: &str| -> Option<String> {
        debug_assert!(VALUE_FLAGS.iter().any(|(flag, _)| *flag == name));
        let found = values.iter().find(|(flag, _)| *flag == name);
        found.map(|(_, value)| value.to_string())
    };
    let trace_path = flag_value("--trace");
    let ledger_path = flag_value("--ledger");
    let reconcile_path = flag_value("--reconcile");
    let fault_spec = flag_value("--faults").unwrap_or_else(|| {
        "seed=42,map=0.4,reduce=0.3,corrupt=0.3,slow=0.1,slow_ms=1,cap=2".into()
    });
    let fault_config = FaultConfig::parse(&fault_spec)
        .unwrap_or_else(|e| reject(&format!("bad --faults spec: {e}")));
    let retries: u32 = flag_value("--retries").map_or(3, |v| {
        v.parse()
            .unwrap_or_else(|_| reject(&format!("--retries {v:?} is not an unsigned integer")))
    });
    let codec = flag_value("--codec").unwrap_or_else(|| "identity".into());
    let codec =
        bench::codec_by_name(&codec).unwrap_or_else(|e| reject(&format!("bad --codec: {e}")));
    let workers: Option<usize> = flag_value("--workers").map(|v| match v.parse() {
        Ok(n) if n > 0 => n,
        _ => reject(&format!("--workers {v:?} is not a positive integer")),
    });
    let shuffle_mem: Option<usize> = flag_value("--shuffle-mem-kib").map(|v| {
        let kib = v.parse::<usize>().ok();
        kib.and_then(|kib| kib.checked_mul(1 << 10))
            .unwrap_or_else(|| reject(&format!("--shuffle-mem-kib {v:?} is not a KiB count")))
    });
    let wire_codec = flag_value("--wire-codec").map(|v| {
        WireCodec::parse(&v).unwrap_or_else(|e| reject(&format!("bad --wire-codec: {e}")))
    });
    // With no experiment named, a dist flag implies dist, --trace or
    // --ledger the trace experiment rather than the full suite, and
    // --reconcile alone runs no experiment at all (it is a standalone
    // action).
    let which = named.unwrap_or_else(|| {
        let dist = workers.is_some() || shuffle_mem.is_some() || wire_codec.is_some();
        let implied = if dist {
            "dist"
        } else if trace_path.is_some() || ledger_path.is_some() {
            "trace"
        } else if reconcile_path.is_some() {
            "none"
        } else {
            "all"
        };
        implied.to_string()
    });
    let known = |name: &str| EXPERIMENTS.iter().any(|e| e.0 == name);
    if !(known(&which) || which == "all" || (which == "none" && reconcile_path.is_some())) {
        let listing: String = EXPERIMENTS
            .iter()
            .map(|(name, what, ..)| format!("  {name:<12} {what}\n"))
            .collect();
        reject(&format!(
            "unknown experiment '{which}'; the experiments are:\n{listing}  \
             all          every one of them except dist (the default)"
        ));
    }
    let storms = ["fault_storm", "dist"].contains(&which.as_str());
    if storms && fault_config.attempt_cap > retries {
        reject(&format!(
            "fault plan cap {} exceeds --retries {retries}; completion is not guaranteed",
            fault_config.attempt_cap
        ));
    }
    let args = Args {
        small,
        trace_path,
        ledger_path,
        storm: JobConfig::default()
            .with_reducers(3)
            .with_framing(Framing::IFile)
            .with_codec(codec)
            .with_retries(retries)
            .with_faults(FaultPlan::new(fault_config)),
        storm_records: if small { 2_000 } else { 20_000 },
        workers: workers.unwrap_or(3),
        shuffle_mem,
        wire_codec: wire_codec.unwrap_or_default(),
    };

    // --trace asks for the traced pipeline's timeline whatever else runs.
    for (name, _, in_all, run) in EXPERIMENTS {
        let traced = name == "trace" && args.trace_path.is_some();
        if name == which || (which == "all" && in_all) || traced {
            run(&args);
        }
    }

    if let Some(path) = &reconcile_path {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read ledger {path}: {e}");
            std::process::exit(2);
        });
        let records = scihadoop_mapreduce::obs::parse_ledger(&text).unwrap_or_else(|e| {
            eprintln!("bad ledger {path}: {e}");
            std::process::exit(2);
        });
        let title = format!("reconcile: {path} ({} runs)", records.len());
        show(bench::drift_table(&title, &records).0);
        let violations = bench::ledger_violations(&records);
        for e in &violations {
            eprintln!("FAIL {path}: {e}");
        }
        if !violations.is_empty() {
            std::process::exit(1);
        }
    }
}
