//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT] [--small] [--trace <path>] [--ledger <path>]
//!       [--reconcile <path>] [--faults <spec>] [--retries <n>]
//!       [--codec <name>] [--ifile-version <1|2|3>] [--workers <n>]
//!       [--transport <tcp|uds>] [--shuffle-mem-kib <n>]
//!       [--wire-codec <identity|lz>]
//!
//! Anything else — an unknown `--flag`, a flag whose value is missing or
//! starts with `--`, a second experiment name, a KiB count that does not
//! fit — exits 2 with that usage line.
//!
//! EXPERIMENT:
//!   intro      §I intermediate-file overhead numbers
//!   fig3       byte-level compression table
//!   strides    §III-A stride ablation (sizes + brute-force slowdown)
//!   fig4       transform time vs file size
//!   fig8       key aggregation data-size breakdown
//!   cluster    §III-E / §IV-D simulated cluster runs
//!   trace      traced pipeline: per-stage spans + histogram breakdowns
//!   model_drift  cost-model predictions vs measured ledger records
//!   curves     §IV-A curve ablation
//!   flush      §IV-A flush-threshold ablation
//!   align      §IV-C alignment ablation
//!   splits     §IV-B key-splitting inflation
//!   coalesce   §IV-B future work: reducer-side re-aggregation
//!   tuning     §III-A detector tuning
//!   scaling    per-cell byte-scaling sanity check
//!   fault_storm  fault-injected run vs clean run (byte-identical recovery)
//!   dist       multi-process shuffle service vs local engine (clean and
//!              fault-seeded runs, byte-identical outputs asserted)
//!   all        everything above except dist (default)
//!
//! --small runs reduced problem sizes (CI-friendly).
//! --workers <n> sets the worker-process count for dist (default 3);
//!   --transport <tcp|uds> picks the socket family (default uds);
//!   --shuffle-mem-kib <n> bounds the coordinator's in-memory shuffle
//!   store (segments past the budget spill to disk and are served back
//!   by positioned reads; 0 spills everything; default auto-sizes from
//!   available memory); --wire-codec <identity|lz> turns on transparent
//!   shuffle compression (segments are lz-compressed once at publish,
//!   spill compressed, ship compressed to capable workers, and are
//!   inflated before the reduce-side CRC check — outputs stay
//!   byte-identical; default identity). Any of these flags implies the
//!   dist experiment when none is named.
//! --codec <name> sets the intermediate-data codec for fault_storm,
//!   composed from: [transform+](identity|lz|deflate|bzip), e.g.
//!   "transform+deflate" (the stride transform over deflate).
//! --ifile-version <1|2|3> sets the intermediate segment format for the
//!   trace, drift, fault_storm and dist experiments: 1 = plain, 2 =
//!   CRC-trailed framed records (the paper's Hadoop layout and this
//!   tool's default, so its byte rows stay comparable with the paper's),
//!   3 = blocks of front-coded key groups in column order with
//!   fence-key indexes (what the engine itself defaults to).
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
//!   fault_storm and dist runs. The file accumulates history for the
//!   `regress` perf gate.
//! --reconcile <path> parses an existing ledger file and prints the
//!   cost-model drift report (predicted vs measured per run); a
//!   standalone action that runs no experiment unless one is named.
//! ```

use scihadoop_bench as bench;

struct Sizes {
    intro_n: u32,
    fig3_n: u32,
    stride_n: u32,
    stride_timing_n: u32,
    fig4: Vec<u32>,
    fig8_n: u32,
    cluster_n: u32,
    cluster_splits: usize,
    trace_n: u32,
    trace_records: usize,
    flush_n: u32,
    splits_n: u32,
    tuning_n: u32,
    scaling: Vec<u32>,
    storm_records: usize,
}

impl Sizes {
    fn full() -> Self {
        Sizes {
            intro_n: 100,
            fig3_n: 100,
            stride_n: 100,
            stride_timing_n: 50,
            fig4: vec![20, 40, 60, 80, 100],
            fig8_n: 100,
            cluster_n: 192,
            cluster_splits: 20,
            trace_n: 64,
            trace_records: 5_000,
            flush_n: 64,
            splits_n: 64,
            tuning_n: 50,
            scaling: vec![32, 64, 128],
            storm_records: 20_000,
        }
    }

    fn small() -> Self {
        Sizes {
            intro_n: 20,
            fig3_n: 24,
            stride_n: 24,
            stride_timing_n: 16,
            fig4: vec![12, 20, 28],
            fig8_n: 24,
            cluster_n: 48,
            cluster_splits: 8,
            trace_n: 24,
            trace_records: 600,
            flush_n: 24,
            splits_n: 24,
            tuning_n: 16,
            scaling: vec![16, 32],
            storm_records: 2_000,
        }
    }
}

/// Every flag that takes a value, with the value's name in the usage
/// line; `--small` is the one switch. The parser and the usage line
/// both read this table.
const VALUE_FLAGS: [(&str, &str); 11] = [
    ("--trace", "path"),
    ("--ledger", "path"),
    ("--reconcile", "path"),
    ("--faults", "spec"),
    ("--retries", "n"),
    ("--codec", "name"),
    ("--ifile-version", "1|2|3"),
    ("--workers", "n"),
    ("--transport", "tcp|uds"),
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut small, mut named, mut values) = (false, None, Vec::new());
    let mut rest = args.iter();
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
    let fault_config = scihadoop_mapreduce::FaultConfig::parse(&fault_spec)
        .unwrap_or_else(|e| reject(&format!("bad --faults spec: {e}")));
    let retries: u32 = flag_value("--retries").map_or(3, |v| {
        v.parse()
            .unwrap_or_else(|_| reject(&format!("--retries {v:?} is not an unsigned integer")))
    });
    let ifile_version = flag_value("--ifile-version").map_or(bench::PAPER_IFILE, |v| {
        scihadoop_mapreduce::IFileVersion::parse(&v)
            .unwrap_or_else(|e| reject(&format!("bad --ifile-version: {e}")))
    });
    let codec_name = flag_value("--codec");
    let codec = codec_name.as_ref().map(|name| {
        bench::codec_by_name(name).unwrap_or_else(|e| reject(&format!("bad --codec: {e}")))
    });
    let workers: Option<usize> = flag_value("--workers").map(|v| match v.parse() {
        Ok(n) if n > 0 => n,
        _ => reject(&format!("--workers {v:?} is not a positive integer")),
    });
    let transport = flag_value("--transport").map(|v| {
        scihadoop_mapreduce::Transport::parse(&v)
            .unwrap_or_else(|e| reject(&format!("bad --transport: {e}")))
    });
    let shuffle_mem: Option<usize> = flag_value("--shuffle-mem-kib").map(|v| {
        let kib = v.parse::<usize>().ok();
        kib.and_then(|kib| kib.checked_mul(1 << 10))
            .unwrap_or_else(|| reject(&format!("--shuffle-mem-kib {v:?} is not a KiB count")))
    });
    let wire_codec = flag_value("--wire-codec").map(|v| {
        scihadoop_mapreduce::WireCodec::parse(&v)
            .unwrap_or_else(|e| reject(&format!("bad --wire-codec: {e}")))
    });
    // With no experiment named, a dist flag implies dist, --trace or
    // --ledger the trace experiment rather than the full suite, and
    // --reconcile alone runs no experiment at all (it is a standalone
    // action).
    let which = named.unwrap_or_else(|| {
        let dist = workers.is_some()
            || transport.is_some()
            || shuffle_mem.is_some()
            || wire_codec.is_some();
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
    let s = if small { Sizes::small() } else { Sizes::full() };

    let run = |name: &str| which == "all" || which == name;
    let mut ran = false;

    if run("intro") {
        println!("{}", bench::intro_overhead(s.intro_n).render());
        ran = true;
    }
    if run("fig3") {
        println!("{}", bench::fig3(s.fig3_n, 100).0.render());
        ran = true;
    }
    if run("strides") {
        println!(
            "{}",
            bench::stride_ablation(s.stride_n, s.stride_timing_n).render()
        );
        ran = true;
    }
    if run("fig4") {
        println!("{}", bench::fig4(&s.fig4).0.render());
        ran = true;
    }
    if run("fig8") {
        println!("{}", bench::fig8(s.fig8_n, &[1, 10, 100]).0.render());
        ran = true;
    }
    if run("cluster") {
        println!(
            "{}",
            bench::cluster_experiment(s.cluster_n, s.cluster_splits)
                .0
                .render()
        );
        ran = true;
    }
    if run("trace") || trace_path.is_some() {
        let (table, trace, records) =
            bench::traced_pipeline(s.trace_n, s.trace_records, ifile_version);
        println!("{}", table.render());
        if let Some(path) = &trace_path {
            let json = scihadoop_mapreduce::obs::chrome_trace_json(&trace);
            std::fs::write(path, json).expect("write chrome trace");
            println!("wrote chrome trace to {path}");
        }
        if let Some(path) = &ledger_path {
            let mut sink = scihadoop_mapreduce::obs::LedgerSink::with_path(path);
            let appended = records.len();
            for record in records {
                sink.append(record).expect("append ledger record");
            }
            println!("appended {appended} run records to {path}");
        }
        ran = true;
    }
    if run("model_drift") {
        let (table, _) = bench::model_drift(s.trace_n, s.trace_records, ifile_version);
        println!("{}", table.render());
        ran = true;
    }
    if run("curves") {
        println!("{}", bench::curve_ablation(6, 6).render());
        ran = true;
    }
    if run("flush") {
        println!(
            "{}",
            bench::flush_threshold(s.flush_n, &[1 << 10, 1 << 14, 1 << 20, 1 << 26]).render()
        );
        ran = true;
    }
    if run("align") {
        println!("{}", bench::alignment_ablation(&[8, 16, 64, 256]).render());
        ran = true;
    }
    if run("coalesce") {
        println!(
            "{}",
            bench::coalesce_recovery(s.splits_n, &[1, 2, 5, 10, 20]).render()
        );
        ran = true;
    }
    if run("splits") {
        println!(
            "{}",
            bench::split_counts(s.splits_n, &[1, 2, 5, 10, 20]).render()
        );
        ran = true;
    }
    if run("tuning") {
        println!("{}", bench::transform_tuning(s.tuning_n).render());
        ran = true;
    }
    if run("scaling") {
        println!(
            "{}",
            bench::scaling_check(&s.scaling)
                .expect("scaling check")
                .render()
        );
        ran = true;
    }
    if run("fault_storm") {
        let mut storm_sink = ledger_path
            .as_ref()
            .map(scihadoop_mapreduce::obs::LedgerSink::with_path);
        println!(
            "{}",
            bench::fault_storm_with_codec(
                s.storm_records,
                fault_config.clone(),
                retries,
                codec.clone(),
                ifile_version,
                storm_sink.as_mut(),
            )
            .render()
        );
        if let Some(sink) = &storm_sink {
            println!(
                "appended {} run records to {}",
                sink.records().len(),
                ledger_path.as_deref().unwrap_or_default()
            );
        }
        ran = true;
    }

    // dist spawns worker processes, so it only runs when asked for
    // explicitly (by name or via --workers/--transport), never as part
    // of `all`.
    if which == "dist" {
        if fault_config.attempt_cap > retries {
            eprintln!(
                "fault plan cap {} exceeds --retries {}; completion is not guaranteed",
                fault_config.attempt_cap, retries
            );
            std::process::exit(2);
        }
        let mut sink = ledger_path
            .as_ref()
            .map(scihadoop_mapreduce::obs::LedgerSink::with_path);
        let workers = workers.unwrap_or(3);
        let transport = transport.unwrap_or_default();
        let wire_codec = wire_codec.unwrap_or_default();
        let clean = bench::DistJobSpec {
            records: s.storm_records,
            ifile: ifile_version,
            codec: codec_name.clone().unwrap_or_else(|| "identity".into()),
            ..bench::DistJobSpec::default()
        };
        let faulted = bench::DistJobSpec {
            retries,
            faults: Some(fault_spec.clone()),
            ..clean.clone()
        };
        println!(
            "{}",
            bench::dist_equivalence(
                &clean,
                workers,
                transport,
                shuffle_mem,
                wire_codec,
                &[],
                sink.as_mut()
            )
            .render()
        );
        println!(
            "{}",
            bench::dist_equivalence(
                &faulted,
                workers,
                transport,
                shuffle_mem,
                wire_codec,
                &[],
                sink.as_mut()
            )
            .render()
        );
        if let Some(sink) = &sink {
            println!(
                "appended {} run records to {}",
                sink.records().len(),
                ledger_path.as_deref().unwrap_or_default()
            );
        }
        ran = true;
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
        let (table, _) = bench::drift_table(
            &format!("reconcile: {path} ({} runs)", records.len()),
            &records,
        );
        println!("{}", table.render());
        ran = true;
    }

    if !ran {
        eprintln!("unknown experiment '{which}'; see `repro --help` in the source header");
        std::process::exit(2);
    }
}
