//! `--quick` end to end: all five workloads and the replay at a 96×96
//! grid with one repeat, driven through the real binary the way the
//! benchmark command drives it.

use scihadoop_bench::json::{self, Json};
use scihadoop_benchmark::harness::WorkloadResult;
use scihadoop_benchmark::workloads::{
    grid, job_config, layout, PlainMedianMapper, PlainMedianReducer, Workload, QUICK_N, SLOTS,
    SPLITS, WINDOW,
};
use scihadoop_mapreduce::{Counter, Job};
use scihadoop_queries::{dataset_splits, CurveKind, SlidingMedian, SlidingMedianVariant};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

/// The repository root: the harness keeps its outputs in `benchmark/out`
/// relative to it, and reads `BENCHMARK.json` there.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits in the repository root")
        .to_path_buf()
}

/// Run `scibench run --quick`, returning its stdout and run record.
fn quick_run(record: &str) -> (String, Vec<WorkloadResult>) {
    let root = repo_root();
    let out = root.join("benchmark/out").join(record);
    std::fs::create_dir_all(out.parent().unwrap()).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_scibench"))
        .args(["run", "--quick", "--seed", "7", "--out"])
        .arg(&out)
        .current_dir(&root)
        .output()
        .expect("the harness starts");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "quick run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let parsed = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(parsed.get("n").and_then(Json::as_u64), Some(QUICK_N as u64));
    assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(7));
    for key in [
        "host_cpus",
        "git_commit",
        "rustc",
        "clock_kind",
        "oversubscribed",
    ] {
        assert!(parsed.get(key).is_some(), "run record lacks {key}");
    }
    let results = parsed
        .get("results")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|r| WorkloadResult::from_json(r).unwrap())
        .collect();
    (stdout, results)
}

/// Counts, sizes and ratios of counts: everything that is not a time,
/// a rate or a memory peak.
fn is_count_type(unit: &str) -> bool {
    matches!(unit, "count" | "B" | "B/cell" | "ratio")
}

#[test]
fn quick_mode_runs_every_workload_and_names_every_metric() {
    let (stdout, first) = quick_run("quick-a.json");
    let (_, second) = quick_run("quick-b.json");

    // Every run of every workload agreed with the oracle (the harness
    // counts a disagreeing run as failed), in both phases.
    assert_eq!(first.len(), 2 * Workload::ALL.len());
    for result in first.iter().chain(&second) {
        assert!(result.attempted >= 1, "{} ran nothing", result.workload);
        assert_eq!(result.failed, 0, "{} [{}]", result.workload, result.mode);
    }

    // Everything BENCHMARK.json names is printed by name.
    let manifest = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let manifest = json::parse(&manifest).unwrap();
    let names = |section: &str| -> Vec<String> {
        manifest
            .get(section)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"))
            .iter()
            .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    let workloads = names("workloads");
    assert_eq!(
        workloads,
        Workload::ALL.map(|w| w.name().to_string()),
        "BENCHMARK.json and the harness list the same workloads"
    );
    for workload in &workloads {
        assert!(stdout.contains(&format!("== {workload} [end_to_end]")));
        assert!(stdout.contains(&format!("== {workload} [per_layer]")));
    }
    // The sections of BENCHMARK.json are named as the modes are.
    for section in ["end_to_end", "per_layer"] {
        for name in names(section) {
            for result in first.iter().filter(|r| r.mode == section) {
                let metric = result
                    .metric(&name)
                    .unwrap_or_else(|| panic!("{} does not report {name}", result.workload));
                assert!(!metric.unit.is_empty());
            }
            assert!(stdout.contains(&name), "{name} is not printed");
        }
    }

    // Counts repeat exactly between two invocations.
    for (a, b) in first.iter().zip(&second) {
        assert_eq!((&a.workload, &a.mode), (&b.workload, &b.mode));
        for ma in a.metrics.iter().filter(|m| is_count_type(&m.unit)) {
            let mb = b.metric(&ma.name).unwrap();
            assert_eq!(
                ma.value(),
                mb.value(),
                "{} {} differs between invocations",
                a.workload,
                ma.name
            );
        }
    }

    // One trace file per workload, holding spans.
    for workload in Workload::ALL {
        let path = repo_root().join(format!("benchmark/out/trace-{}.json", workload.name()));
        let trace = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let spans = trace.as_arr().unwrap();
        assert!(spans.len() > SPLITS, "{path:?} holds {} spans", spans.len());
        assert!(spans.iter().all(|s| {
            s.get("workload").and_then(Json::as_str) == Some(workload.name())
                && s.get("end_ns").and_then(Json::as_u64)
                    >= s.get("start_ns").and_then(Json::as_u64)
        }));
    }
}

#[test]
fn harness_mapper_and_reducer_match_the_query_crate() {
    let var = grid(QUICK_N, 7);
    let reference = SlidingMedian {
        window: WINDOW,
        layout: layout(),
        variant: SlidingMedianVariant::Plain,
        num_splits: SPLITS,
        base_config: job_config(SLOTS),
        curve: CurveKind::ZOrder,
    }
    .run(&var)
    .unwrap()
    .result;

    let splits = dataset_splits(&var, &layout(), SPLITS).unwrap();
    let ours = Job::new(job_config(SLOTS))
        .run(
            splits,
            Arc::new(PlainMedianMapper::new()),
            Arc::new(PlainMedianReducer),
        )
        .unwrap();

    assert_eq!(ours.outputs, reference.outputs);
    for counter in [Counter::MapOutputRecords, Counter::MapOutputBytes] {
        assert_eq!(ours.counters.get(counter), reference.counters.get(counter));
    }
}
