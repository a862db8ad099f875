//! `compare <a.json> <b.json>`: hold two run records against the bounds
//! `BENCHMARK.json` fixes. Per workload × end-to-end metric it prints
//! both medians, how much worse `b` is than `a`, and the bound; a pair
//! whose own run-to-run spread is wider than the bound is `unresolved`,
//! not passed; any pair out of bound fails the comparison.

use crate::harness::{Mode, WorkloadResult};
use scihadoop_bench::json::{self, Json};
use std::path::Path;

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// A parsed run record.
struct Record {
    oversubscribed: bool,
    results: Vec<WorkloadResult>,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path:?}: {e}"))
}

fn declared_metrics(manifest: &Json) -> Result<Vec<Declared>, String> {
    manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Json::as_str);
            Ok(Declared {
                name: text("name")
                    .ok_or("end_to_end metric without a name")?
                    .to_string(),
                higher_is_better: match text("better") {
                    Some("higher") => true,
                    Some("lower") => false,
                    other => return Err(format!("bad \"better\": {other:?}")),
                },
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end metric without a bound")?,
            })
        })
        .collect()
}

fn read_record(path: &Path) -> Result<Record, String> {
    let json = read_json(path)?;
    let results = json
        .get("results")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path:?} has no results"))?
        .iter()
        .map(WorkloadResult::from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Record {
        oversubscribed: json.get("oversubscribed") == Some(&Json::Bool(true)),
        results,
    })
}

/// Each result of `mode` in `a` with the same workload's result in `b`.
fn paired<'r>(
    a: &'r Record,
    b: &'r Record,
    mode: Mode,
) -> impl Iterator<Item = (&'r WorkloadResult, Option<&'r WorkloadResult>)> {
    let of_mode = move |r: &&WorkloadResult| r.mode == mode.name();
    a.results.iter().filter(of_mode).map(move |ra| {
        let rb = b
            .results
            .iter()
            .filter(of_mode)
            .find(|r| r.workload == ra.workload);
        (ra, rb)
    })
}

/// Whether a metric is a wall-clock or CPU measurement, which a host
/// with fewer cores than slots cannot resolve.
fn is_timing(name: &str) -> bool {
    name.ends_with("_s") || name.ends_with("_per_s")
}

/// Compare two run records. Returns the process exit code: 0 when every
/// pair is within bound, 1 when any is out of bound or a run failed, 2
/// when the inputs cannot be read.
pub fn compare(a_path: &Path, b_path: &Path) -> i32 {
    let loaded = read_json(Path::new("BENCHMARK.json"))
        .and_then(|m| declared_metrics(&m))
        .and_then(|d| Ok((d, read_record(a_path)?, read_record(b_path)?)));
    let (declared, a, b) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let oversubscribed = a.oversubscribed || b.oversubscribed;
    let (mut out_of_bound, mut unresolved) = (0, 0);

    println!(
        "{:<28} {:<30} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for (ra, rb) in paired(&a, &b, Mode::EndToEnd) {
        let Some(rb) = rb else {
            println!("{:<28} missing from {}", ra.workload, b_path.display());
            out_of_bound += 1;
            continue;
        };
        if ra.failed + rb.failed > 0 {
            println!(
                "{:<28} failed runs: {} of {} in a, {} of {} in b",
                ra.workload, ra.failed, ra.attempted, rb.failed, rb.attempted
            );
            out_of_bound += 1;
        }
        for d in &declared {
            let (Some(ma), Some(mb)) = (ra.metric(&d.name), rb.metric(&d.name)) else {
                println!("{:<28} {:<30} missing", ra.workload, d.name);
                out_of_bound += 1;
                continue;
            };
            let (va, vb) = (ma.value(), mb.value());
            let worse_by = if va == 0.0 {
                0.0
            } else if d.higher_is_better {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let spread = ma.quartile_spread().max(mb.quartile_spread());
            let verdict = if spread > d.bound || (oversubscribed && is_timing(&d.name)) {
                unresolved += 1;
                "unresolved"
            } else if worse_by > d.bound {
                out_of_bound += 1;
                "OUT OF BOUND"
            } else {
                "ok"
            };
            println!(
                "{:<28} {:<30} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%  {}",
                ra.workload,
                d.name,
                va,
                vb,
                100.0 * worse_by,
                100.0 * d.bound,
                verdict
            );
        }
    }
    println!("{out_of_bound} out of bound, {unresolved} unresolved");
    print_count_differences(&a, &b);
    i32::from(out_of_bound > 0)
}

/// Per-layer counts and sizes repeat exactly between two runs of one
/// commit on one seed, so any that differ are listed — for information:
/// between two commits a differing count is often the point of the change.
fn print_count_differences(a: &Record, b: &Record) {
    let (mut equal, mut differ) = (0, 0);
    for (ra, rb) in paired(a, b, Mode::Layers) {
        let Some(rb) = rb else {
            continue;
        };
        for ma in ra.metrics.iter().filter(|m| m.unit != "s" && m.unit != "%") {
            match rb.metric(&ma.name) {
                Some(mb) if mb.value() == ma.value() => equal += 1,
                Some(mb) => {
                    differ += 1;
                    println!(
                        "{:<28} {:<30} {:>14} {:>14}  differs",
                        ra.workload,
                        ma.name,
                        ma.value(),
                        mb.value()
                    );
                }
                None => {}
            }
        }
    }
    println!("count-type layer metrics: {equal} equal, {differ} differ");
}
