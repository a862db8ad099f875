//! The perf-regression gate: compare a fresh bench run against the
//! committed `BENCH_*.json` baselines and the run-ledger history.
//!
//! Thresholds are noise-aware by construction rather than by fudging:
//!
//! * **Budget fields** are *paired* measurements the benches already
//!   compute from interleaved median batches (e.g. the traced-vs-
//!   untraced overhead percentages, the CRC trailer overhead). Pairing
//!   cancels machine speed, so a fixed ceiling is meaningful on any
//!   host.
//! * **Ratio fields** are deterministic byte counts (segment sizes from
//!   seeded workloads), identical across machines — those get tight
//!   tolerances against the committed baseline.
//! * **Ledger history** groups records by label, full config and
//!   map-task count.
//!   Deterministic byte counters must be *identical* across a group.
//!
//! Raw `median_ns` numbers are deliberately never compared across
//! files: they are machine-dependent and a fresh-vs-committed
//! comparison would gate on hardware, not code.

use crate::json::Json;
use scihadoop_mapreduce::obs::{parse_ledger, LedgerRecord};
use scihadoop_mapreduce::{CounterKind, ALL_COUNTERS};
use std::path::Path;

/// An absolute ceiling/floor on a paired benchmark field.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Which committed BENCH file carries the field.
    pub file: &'static str,
    /// The field name.
    pub field: &'static str,
    /// Upper bound, if any.
    pub max: Option<f64>,
    /// Lower bound, if any.
    pub min: Option<f64>,
}

/// Every budget the gate enforces. The obs overheads and the CRC
/// trailer budget restate the limits DESIGN.md pins (≤3% tracing, ≤6%
/// CRC); the ifile bounds protect the paper-facing v3 compression
/// result (0.289× committed, gated at ≤0.35×) and its skip rate; the
/// lz-vs-deflate floor protects the fast-codec throughput claim (≥3×
/// deflate compress, §"LZ-class codec" in DESIGN.md).
pub const BUDGETS: &[Budget] = &[
    Budget {
        file: "BENCH_obs.json",
        field: "map_sort_spill_overhead_percent",
        max: Some(3.0),
        min: None,
    },
    Budget {
        file: "BENCH_obs.json",
        field: "merge_reduce_overhead_percent",
        max: Some(3.0),
        min: None,
    },
    Budget {
        file: "BENCH_obs.json",
        field: "map_sort_spill_ledger_overhead_percent",
        max: Some(3.0),
        min: None,
    },
    Budget {
        file: "BENCH_shuffle.json",
        field: "crc_trailer_overhead_pct",
        max: Some(6.0),
        min: None,
    },
    Budget {
        file: "BENCH_codec.json",
        field: "lz_vs_deflate_compress_speedup",
        max: None,
        min: Some(3.0),
    },
    Budget {
        file: "BENCH_ifile.json",
        field: "v3_over_v2_bytes",
        max: Some(0.35),
        min: None,
    },
    Budget {
        file: "BENCH_ifile.json",
        field: "block_skip_rate_disjoint",
        max: None,
        min: Some(0.8),
    },
];

/// A deterministic field compared fresh-vs-baseline with a relative
/// tolerance. Only byte-derived fields belong here.
#[derive(Debug, Clone, Copy)]
pub struct RatioCheck {
    /// Which BENCH file carries the field.
    pub file: &'static str,
    /// The field name.
    pub field: &'static str,
    /// Allowed relative deviation from the committed baseline.
    pub rel_tol: f64,
}

/// Deterministic fresh-vs-baseline checks. The ifile segment byte
/// counts come from a seeded workload, so any deviation means the
/// writer or the workload changed — either way the baseline is stale.
pub const RATIO_CHECKS: &[RatioCheck] = &[
    RatioCheck {
        file: "BENCH_ifile.json",
        field: "v2_segment_bytes",
        rel_tol: 0.001,
    },
    RatioCheck {
        file: "BENCH_ifile.json",
        field: "v3_segment_bytes",
        rel_tol: 0.001,
    },
    RatioCheck {
        file: "BENCH_ifile.json",
        field: "v3_over_v2_bytes",
        rel_tol: 0.01,
    },
];

/// One evaluated check.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// Human-readable check identity (`file · field` or ledger group).
    pub name: String,
    /// The observed value.
    pub value: String,
    /// The limit it was held against.
    pub limit: String,
    /// Whether the check passed.
    pub ok: bool,
}

impl GateCheck {
    fn pass(name: String, value: String, limit: String) -> GateCheck {
        GateCheck {
            name,
            value,
            limit,
            ok: true,
        }
    }

    fn fail(name: String, value: String, limit: String) -> GateCheck {
        GateCheck {
            name,
            value,
            limit,
            ok: false,
        }
    }
}

/// Evaluate every budget that applies to `file` against `doc`. A
/// missing field fails: a silently dropped budget field would otherwise
/// disable its gate forever.
pub fn check_budgets(doc: &Json, file: &str) -> Vec<GateCheck> {
    let mut out = Vec::new();
    for b in BUDGETS.iter().filter(|b| b.file == file) {
        let name = format!("{file} · {}", b.field);
        let limit = match (b.max, b.min) {
            (Some(max), None) => format!("<= {max}"),
            (None, Some(min)) => format!(">= {min}"),
            (Some(max), Some(min)) => format!("{min} ..= {max}"),
            (None, None) => "(unbounded)".to_string(),
        };
        match doc.get(b.field).and_then(Json::as_f64) {
            None => out.push(GateCheck::fail(name, "missing".into(), limit)),
            Some(v) => {
                let ok = b.max.is_none_or(|max| v <= max) && b.min.is_none_or(|min| v >= min);
                let check = if ok {
                    GateCheck::pass(name, format!("{v}"), limit)
                } else {
                    GateCheck::fail(name, format!("{v}"), limit)
                };
                out.push(check);
            }
        }
    }
    out
}

/// Evaluate the deterministic fresh-vs-baseline ratio checks for `file`.
pub fn check_ratios(fresh: &Json, baseline: &Json, file: &str) -> Vec<GateCheck> {
    let mut out = Vec::new();
    for r in RATIO_CHECKS.iter().filter(|r| r.file == file) {
        let name = format!("{file} · {} vs baseline", r.field);
        let limit = format!("rel dev <= {}", r.rel_tol);
        match (
            fresh.get(r.field).and_then(Json::as_f64),
            baseline.get(r.field).and_then(Json::as_f64),
        ) {
            (Some(f), Some(b)) => {
                let dev = if b == 0.0 {
                    if f == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    ((f - b) / b).abs()
                };
                let value = format!("{f} vs {b} (dev {dev:.4})");
                if dev <= r.rel_tol {
                    out.push(GateCheck::pass(name, value, limit));
                } else {
                    out.push(GateCheck::fail(name, value, limit));
                }
            }
            (f, b) => out.push(GateCheck::fail(
                name,
                format!(
                    "fresh {}, baseline {}",
                    if f.is_some() { "present" } else { "missing" },
                    if b.is_some() { "present" } else { "missing" }
                ),
                limit,
            )),
        }
    }
    out
}

/// Gate the ledger history: within each group of records with equal
/// label, config and map-task count, every
/// [`CounterKind::Semantic`] counter must be identical (clean runs only
/// — fault schedules interleave with thread timing). Wall clocks are
/// not gated here: the end-to-end benchmark measures them on every PR.
pub fn check_ledger_history(records: &[LedgerRecord]) -> Vec<GateCheck> {
    let mut out = Vec::new();
    let same_job = |a: &LedgerRecord, b: &LedgerRecord| {
        (&a.label, &a.config, a.job.num_maps) == (&b.label, &b.config, b.job.num_maps)
    };
    let mut groups: Vec<Vec<&LedgerRecord>> = Vec::new();
    for r in records {
        match groups.iter_mut().find(|members| same_job(members[0], r)) {
            Some(members) => members.push(r),
            None => groups.push(vec![r]),
        }
    }

    for members in &groups {
        let first = members[0];
        let group = format!("ledger · {} ({} runs)", first.label, members.len());
        if members.len() < 2 || first.config.faults.is_some() {
            continue;
        }
        let deterministic = ALL_COUNTERS
            .into_iter()
            .filter(|c| c.kind() == CounterKind::Semantic);
        let (mut checked, mut mismatches) = (0, Vec::new());
        for c in deterministic {
            checked += 1;
            if members
                .iter()
                .any(|m| m.counters.get(c) != first.counters.get(c))
            {
                mismatches.push(c.name());
            }
        }
        out.push(if mismatches.is_empty() {
            GateCheck::pass(
                format!("{group} · byte determinism"),
                format!("{checked} counters identical"),
                "exact".into(),
            )
        } else {
            GateCheck::fail(
                format!("{group} · byte determinism"),
                format!("drifted: {}", mismatches.join(", ")),
                "exact".into(),
            )
        });
    }
    out
}

/// The four committed BENCH baselines.
pub const BENCH_FILES: &[&str] = &[
    "BENCH_obs.json",
    "BENCH_shuffle.json",
    "BENCH_codec.json",
    "BENCH_ifile.json",
];

/// Run the whole gate. For each BENCH file, budgets run against the
/// fresh copy when one exists in `fresh_dir` (that is the regression
/// check) and otherwise against the committed baseline (that still
/// catches a bad baseline being committed); ratio checks need both
/// copies. `ledger`, when given, adds the history checks.
pub fn run_gate(fresh_dir: &Path, baseline_dir: &Path, ledger: Option<&Path>) -> Vec<GateCheck> {
    let mut out = Vec::new();
    // A missing file is an expected state (not every CI job regenerates
    // every bench); an unreadable one is a violation.
    let read = |file: &str, dir: &Path| -> Result<Option<Json>, String> {
        match std::fs::read_to_string(dir.join(file)) {
            Err(_) => Ok(None),
            Ok(text) => crate::json::parse(&text).map(Some),
        }
    };

    for file in BENCH_FILES {
        let fresh = match read(file, fresh_dir) {
            Ok(v) => v,
            Err(e) => {
                out.push(GateCheck::fail(
                    format!("{file} (fresh)"),
                    format!("unparseable: {e}"),
                    "valid JSON".into(),
                ));
                None
            }
        };
        let baseline = match read(file, baseline_dir) {
            Ok(v) => v,
            Err(e) => {
                out.push(GateCheck::fail(
                    format!("{file} (baseline)"),
                    format!("unparseable: {e}"),
                    "valid JSON".into(),
                ));
                None
            }
        };
        match (&fresh, &baseline) {
            (Some(f), Some(b)) => {
                out.extend(check_budgets(f, file));
                out.extend(check_ratios(f, b, file));
            }
            (Some(f), None) => out.extend(check_budgets(f, file)),
            (None, Some(b)) => out.extend(check_budgets(b, file)),
            (None, None) => out.push(GateCheck::fail(
                (*file).to_string(),
                "missing in both fresh and baseline dirs".into(),
                "present".into(),
            )),
        }
    }

    if let Some(path) = ledger {
        match std::fs::read_to_string(path) {
            Err(e) => out.push(GateCheck::fail(
                format!("ledger {}", path.display()),
                format!("unreadable: {e}"),
                "readable".into(),
            )),
            Ok(text) => match parse_ledger(&text) {
                Err(e) => out.push(GateCheck::fail(
                    format!("ledger {}", path.display()),
                    e,
                    "parseable records".into(),
                )),
                Ok(records) => out.extend(check_ledger_history(&records)),
            },
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use scihadoop_mapreduce::{Counter, Counters};

    #[test]
    fn committed_baselines_pass_the_gate_in_the_writers_own_form() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for file in BENCH_FILES {
            let text = std::fs::read_to_string(root.join(file)).expect("committed baseline");
            assert_eq!(
                parse(&text).expect("valid JSON").to_pretty(),
                text,
                "{file} is not what report::write_bench_json prints"
            );
        }
        let checks = run_gate(&root, &root, None);
        assert!(checks.iter().all(|c| c.ok), "{checks:#?}");
    }

    #[test]
    fn budgets_pass_on_the_committed_numbers() {
        let obs = parse(
            r#"{"map_sort_spill_overhead_percent": 1.88,
                "merge_reduce_overhead_percent": -0.35,
                "map_sort_spill_ledger_overhead_percent": 2.1}"#,
        )
        .unwrap();
        let checks = check_budgets(&obs, "BENCH_obs.json");
        assert_eq!(checks.len(), 3);
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");
    }

    #[test]
    fn gate_fails_on_a_degraded_overhead() {
        let degraded = parse(
            r#"{"map_sort_spill_overhead_percent": 9.9,
                "merge_reduce_overhead_percent": -0.35,
                "map_sort_spill_ledger_overhead_percent": 2.1}"#,
        )
        .unwrap();
        let checks = check_budgets(&degraded, "BENCH_obs.json");
        let bad: Vec<_> = checks.iter().filter(|c| !c.ok).collect();
        assert_eq!(bad.len(), 1);
        assert!(bad[0].name.contains("map_sort_spill_overhead_percent"));
    }

    #[test]
    fn missing_budget_fields_fail_closed() {
        let empty = parse("{}").unwrap();
        let checks = check_budgets(&empty, "BENCH_obs.json");
        assert_eq!(checks.len(), 3);
        assert!(checks.iter().all(|c| !c.ok));
        assert!(checks.iter().all(|c| c.value == "missing"));
    }

    #[test]
    fn lz_throughput_floor_gates_slow_compressors() {
        let fast = parse(r#"{"lz_vs_deflate_compress_speedup": 12.4}"#).unwrap();
        let checks = check_budgets(&fast, "BENCH_codec.json");
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");
        // A speedup below the 3x floor fails: the fast codec's whole
        // reason to exist is being cheap enough to always leave on.
        let slow = parse(r#"{"lz_vs_deflate_compress_speedup": 1.2}"#).unwrap();
        let checks = check_budgets(&slow, "BENCH_codec.json");
        let bad: Vec<_> = checks.iter().filter(|c| !c.ok).collect();
        assert_eq!(bad.len(), 1);
        assert!(bad[0].name.contains("lz_vs_deflate_compress_speedup"));
    }

    #[test]
    fn ratio_checks_flag_byte_drift() {
        let baseline = parse(
            r#"{"v2_segment_bytes": 860010, "v3_segment_bytes": 247996,
                "v3_over_v2_bytes": 0.288}"#,
        )
        .unwrap();
        let same = check_ratios(&baseline, &baseline, "BENCH_ifile.json");
        assert!(same.iter().all(|c| c.ok));
        let drifted = parse(
            r#"{"v2_segment_bytes": 860010, "v3_segment_bytes": 300000,
                "v3_over_v2_bytes": 0.349}"#,
        )
        .unwrap();
        let checks = check_ratios(&drifted, &baseline, "BENCH_ifile.json");
        assert!(checks.iter().any(|c| !c.ok));
    }

    fn record(label: &str, shuffle_bytes: u64, wall: u64) -> LedgerRecord {
        use scihadoop_mapreduce::obs::{LedgerConfig, LedgerJob, PhaseRollup, NUM_PHASES};
        let counters = Counters::new();
        counters.add(Counter::ShuffleBytes, shuffle_bytes);
        LedgerRecord {
            label: label.into(),
            clock: "thread_cpu".into(),
            host_cpus: 1,
            dropped_events: 0,
            config: LedgerConfig {
                codec: "identity".into(),
                num_reducers: 1,
                map_slots: 2,
                reduce_slots: 2,
                spill_buffer_bytes: 1024,
                framing: "sequence_file".into(),
                ifile_version: 2,
                combiner: false,
                task_retries: 0,
                faults: None,
            },
            job: LedgerJob {
                num_maps: 1,
                num_reducers: 1,
                input_bytes: 100,
                map_wall_nanos: wall,
                reduce_wall_nanos: 0,
            },
            counters: counters.snapshot(),
            phases: [PhaseRollup::default(); NUM_PHASES],
            histograms: Vec::new(),
        }
    }

    #[test]
    fn ledger_history_demands_byte_determinism() {
        // Wall clocks, stopwatch counters and path tallies may differ.
        let mut other = record("a", 100, 1200);
        let counters = Counters::new();
        counters.absorb(&other.counters);
        counters.add(Counter::MergeNanos, 77);
        counters.add(Counter::BlocksSkipped, 3);
        other.counters = counters.snapshot();
        let ok = check_ledger_history(&[record("a", 100, 10), other]);
        assert!(ok.iter().all(|c| c.ok), "{ok:?}");
        assert_eq!(ok[0].value, "18 counters identical");
        let bad = check_ledger_history(&[record("a", 100, 10), record("a", 101, 12)]);
        assert!(bad.iter().any(|c| !c.ok && c.name.contains("determinism")));
    }

    #[test]
    fn different_configs_never_compare() {
        let mut other = record("a", 999, 10);
        other.config.ifile_version = 3;
        let checks = check_ledger_history(&[record("a", 100, 10), other]);
        assert!(checks.is_empty(), "singleton groups produce no checks");
    }
}
