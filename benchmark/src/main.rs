//! `scibench run | compare | child` — see `benchmark/README.md`.

use scihadoop_benchmark::harness::{
    self, Mode, RunOptions, WorkloadResult, DEFAULT_SECONDS, OUT_DIR,
};
use scihadoop_benchmark::layers::measure_layers;
use scihadoop_benchmark::measure::{measure, Plan};
use scihadoop_benchmark::workloads::{worker_main, Workload};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage:
  scibench run [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--no-trace] [--quick] [--out FILE]
  scibench compare A.json B.json
Run from the repository root. Without --workload every workload runs; without
--trace the end-to-end phase is followed by the traced per-layer phase.";

fn usage_error(why: &str) -> ! {
    eprintln!("scibench: {why}\n{USAGE}");
    std::process::exit(2);
}

/// `--flag value` pairs and bare flags after the subcommand.
fn parse_run(args: &[String]) -> RunOptions {
    let mut opts = RunOptions {
        workloads: Vec::new(),
        modes: vec![Mode::EndToEnd, Mode::Layers],
        seed: 42,
        seconds: DEFAULT_SECONDS,
        quick: false,
        out: Path::new(OUT_DIR).join("run.json"),
    };
    let mut seconds_given = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                opts.workloads.push(
                    Workload::parse(name)
                        .unwrap_or_else(|| usage_error(&format!("unknown workload {name:?}"))),
                );
            }
            "--seed" => {
                opts.seed = value()
                    .parse()
                    .unwrap_or_else(|e| usage_error(&format!("bad --seed: {e}")));
            }
            "--seconds" => {
                opts.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage_error("bad --seconds"));
                seconds_given = true;
            }
            "--trace" => {
                opts.modes = match value().as_str() {
                    "0" => vec![Mode::EndToEnd],
                    "1" => vec![Mode::Layers],
                    other => usage_error(&format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--no-trace" => opts.modes = vec![Mode::EndToEnd],
            "--quick" => opts.quick = true,
            "--out" => opts.out = PathBuf::from(value()),
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = Workload::ALL.to_vec();
    }
    // A quick run times exactly one repeat and one replay pass.
    if opts.quick && !seconds_given {
        opts.seconds = 0.0;
    }
    opts
}

/// The per-workload child: measure, write the trace, print one JSON line.
fn child(opts: &RunOptions) -> i32 {
    let (&[workload], &[mode]) = (opts.workloads.as_slice(), opts.modes.as_slice()) else {
        usage_error("child takes one --workload and one --trace");
    };
    let plan = Plan {
        workload,
        n: opts.n(),
        seed: opts.seed,
        seconds: opts.seconds,
        min_repeats: opts.min_repeats(),
        setup_repeats: opts.setup_repeats(),
    };
    let report = match mode {
        Mode::EndToEnd => measure(&plan),
        Mode::Layers => {
            let (report, trace) = measure_layers(&plan);
            let path = Path::new(OUT_DIR).join(format!("trace-{}.json", workload.name()));
            if let Err(e) = std::fs::write(&path, trace) {
                eprintln!("cannot write {path:?}: {e}");
                return 1;
            }
            report
        }
    };
    let result = WorkloadResult {
        workload: workload.name().to_string(),
        mode: mode.name().to_string(),
        attempted: report.attempted,
        failed: report.failed,
        metrics: report.metrics,
        info: report.info,
    };
    println!("{}", result.to_json());
    0
}

fn main() {
    // A spawned worker of a process-mode job is this same binary.
    match scihadoop_mapreduce::dist::worker_env() {
        Ok(Some(env)) => std::process::exit(worker_main(&env)),
        Ok(None) => {}
        Err(e) => {
            eprintln!("scibench: {e}");
            std::process::exit(2);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => harness::run(&parse_run(rest)),
        Some((cmd, rest)) if cmd == "child" => child(&parse_run(rest)),
        Some((cmd, rest)) if cmd == "compare" => match rest {
            [a, b] => scihadoop_benchmark::compare::compare(Path::new(a), Path::new(b)),
            _ => usage_error("compare takes two run records"),
        },
        _ => usage_error("expected run or compare"),
    };
    std::process::exit(code);
}
