//! The perf-regression gate: compare a fresh bench run against the
//! committed `BENCH_*.json` baselines. A run ledger is checked by
//! `repro --reconcile` instead (`ledger_violations`).
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
//! * **Predicted layers**: a row's `predicts` names the
//!   `BENCHMARK.json` per-layer metric it stands for, and must name one
//!   that file declares — read from it, not copied here.
//!
//! Raw `median_ns` numbers are deliberately never compared across
//! files: they are machine-dependent and a fresh-vs-committed
//! comparison would gate on hardware, not code.

use crate::json::Json;
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
    /// Human-readable check identity (`file · field`).
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

/// The per-layer metric names `BENCHMARK.json` declares — the layers a
/// BENCH row may say it predicts. `None` when the document has no such
/// list.
pub fn per_layer_names(benchmark: &Json) -> Option<Vec<&str>> {
    benchmark
        .get("per_layer")?
        .as_arr()?
        .iter()
        .map(|metric| metric.get("name")?.as_str())
        .collect()
}

/// Hold each row of `doc` that carries `predicts` to `layers`, the
/// `per_layer` names of `BENCHMARK.json` (`None`: they could not be
/// read, and every such row fails). A row without `predicts` is not
/// checked.
pub fn check_predicts(doc: &Json, file: &str, layers: Option<&[&str]>) -> Vec<GateCheck> {
    let rows = doc.get("benchmarks").and_then(Json::as_arr).unwrap_or(&[]);
    rows.iter()
        .filter_map(|row| {
            let predicts = row.get("predicts")?.as_str().unwrap_or("(not a string)");
            let id = row.get("id").and_then(Json::as_str).unwrap_or("(no id)");
            let name = format!("{file} · {id} predicts");
            let limit = match layers {
                Some(_) => "a per_layer metric of BENCHMARK.json",
                None => "BENCHMARK.json's per_layer list (unreadable)",
            };
            Some(if layers.is_some_and(|l| l.contains(&predicts)) {
                GateCheck::pass(name, predicts.into(), limit.into())
            } else {
                GateCheck::fail(name, predicts.into(), limit.into())
            })
        })
        .collect()
}

/// The four committed BENCH baselines.
pub const BENCH_FILES: &[&str] = &[
    "BENCH_obs.json",
    "BENCH_shuffle.json",
    "BENCH_codec.json",
    "BENCH_ifile.json",
];

/// Run the whole gate. For each BENCH file, budgets and the rows'
/// `predicts` (against the `BENCHMARK.json` in `baseline_dir`) run
/// against the fresh copy when one exists in `fresh_dir` (that is the
/// regression check) and otherwise against the committed baseline (that
/// still catches a bad baseline being committed); ratio checks need both
/// copies.
pub fn run_gate(fresh_dir: &Path, baseline_dir: &Path) -> Vec<GateCheck> {
    let mut out = Vec::new();
    let benchmark = std::fs::read_to_string(baseline_dir.join("BENCHMARK.json"))
        .ok()
        .and_then(|text| crate::json::parse(&text).ok());
    let layers = benchmark.as_ref().and_then(per_layer_names);
    for file in BENCH_FILES {
        // A missing file is an expected state (not every CI job
        // regenerates every bench); an unreadable one is a violation.
        let mut read = |dir: &Path, side: &str| {
            let text = std::fs::read_to_string(dir.join(file)).ok()?;
            crate::json::parse(&text)
                .map_err(|e| {
                    out.push(GateCheck::fail(
                        format!("{file} ({side})"),
                        format!("unparseable: {e}"),
                        "valid JSON".into(),
                    ))
                })
                .ok()
        };
        let fresh = read(fresh_dir, "fresh");
        let baseline = read(baseline_dir, "baseline");
        if let Some(checked) = fresh.as_ref().or(baseline.as_ref()) {
            out.extend(check_budgets(checked, file));
            out.extend(check_predicts(checked, file, layers.as_deref()));
        }
        match (&fresh, &baseline) {
            (Some(f), Some(b)) => out.extend(check_ratios(f, b, file)),
            (Some(_), None) | (None, Some(_)) => {}
            (None, None) => out.push(GateCheck::fail(
                (*file).to_string(),
                "missing in both fresh and baseline dirs".into(),
                "present".into(),
            )),
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

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
        let checks = run_gate(&root, &root);
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
    fn predicts_must_name_a_per_layer_metric() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
        let benchmark = parse(&text).unwrap();
        let layers = per_layer_names(&benchmark).expect("a per_layer list");
        assert!(layers.contains(&"arena.sort_s"));
        let doc = parse(
            r#"{"benchmarks": [
                {"id": "a", "predicts": "arena.sort_s", "median_ns": 1},
                {"id": "b", "median_ns": 1},
                {"id": "c", "predicts": "arena.sort_ns", "median_ns": 1}]}"#,
        )
        .unwrap();
        let checks = check_predicts(&doc, "BENCH_shuffle.json", Some(&layers));
        let verdicts: Vec<(&str, bool)> = checks.iter().map(|c| (c.value.as_str(), c.ok)).collect();
        assert_eq!(verdicts, [("arena.sort_s", true), ("arena.sort_ns", false)]);
        assert!(checks[1].name.contains("c predicts"));
        // Without the list, a row that names a layer cannot pass.
        let unread = check_predicts(&doc, "BENCH_shuffle.json", None);
        assert!(unread.iter().all(|c| !c.ok));
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
}
