//! `regress` — the CI perf-regression gate.
//!
//! ```text
//! regress [--fresh <dir>] [--baseline <dir>]
//! ```
//!
//! Compares freshly generated `BENCH_*.json` reports (in `--fresh`,
//! default `.`) against the committed baselines (in `--baseline`,
//! default `.`). Prints every check and exits nonzero if any fails.
//! See `regress.rs` in the library for the threshold rationale — raw
//! timings are never compared across machines. A run ledger is checked
//! by `repro --reconcile`.

use scihadoop_bench as bench;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .map(|i| {
                args.get(i + 1).unwrap_or_else(|| {
                    eprintln!("{name} requires an argument");
                    std::process::exit(2);
                })
            })
            .cloned()
    };
    for a in &args {
        if a.starts_with("--") && !["--fresh", "--baseline"].contains(&a.as_str()) {
            eprintln!("unknown flag {a}; usage: regress [--fresh <dir>] [--baseline <dir>]");
            std::process::exit(2);
        }
    }
    let fresh = PathBuf::from(flag_value("--fresh").unwrap_or_else(|| ".".into()));
    let baseline = PathBuf::from(flag_value("--baseline").unwrap_or_else(|| ".".into()));

    let checks = bench::regress::run_gate(&fresh, &baseline);

    let mut table = bench::Table::new(
        &format!(
            "perf-regression gate: fresh {} vs baseline {}",
            fresh.display(),
            baseline.display()
        ),
        &["check", "value", "limit", "verdict"],
    );
    let mut failures = 0usize;
    for c in &checks {
        table.row(&[
            c.name.clone(),
            c.value.clone(),
            c.limit.clone(),
            if c.ok { "ok".into() } else { "FAIL".into() },
        ]);
        if !c.ok {
            failures += 1;
        }
    }
    table.note(&format!("{} checks, {} failed", checks.len(), failures));
    println!("{}", table.render());

    if failures > 0 {
        std::process::exit(1);
    }
}
