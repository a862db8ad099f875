//! `repro`'s command line is a trust boundary: what the grammar does not
//! generate exits 2 with the usage line instead of running something
//! other than what was asked for.

use scihadoop_mapreduce::obs::{LedgerRecord, Metric};
use scihadoop_mapreduce::{Counter, Counters, ALL_COUNTERS};
use std::process::Command;

fn repro(args: &[&str]) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    let stray = std::fs::read_dir(&dir).expect("scratch dir").count();
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
    assert_eq!(stray, 0, "{args:?} left files behind");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn repro_rejects_what_its_grammar_does_not_generate() {
    for (args, why) in [
        // A mistyped flag must not silently measure the default.
        (
            &["intro", "--small", "--bogus-flag", "7"][..],
            "unknown flag",
        ),
        (&["intro", "--small", "--wire-codex", "lz"], "unknown flag"),
        // The segment format is the engine's; no flag picks another.
        (
            &["trace", "--small", "--ifile-version", "3"],
            "unknown flag",
        ),
        // A flag must not swallow the next flag as its value (this one
        // used to write a ledger file named `--small`).
        (&["--small", "--ledger", "--small"], "requires a value"),
        (&["intro", "--small", "--trace"], "requires a value"),
        // kib << 10 used to wrap to a budget of 0: spill everything.
        (
            &["--small", "--shuffle-mem-kib", "18014398509481984"],
            "not a KiB count",
        ),
        (&["--small", "--shuffle-mem-kib", "-1"], "not a KiB count"),
        (&["intro", "fig3", "--small"], "more than one experiment"),
    ] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: repro [EXPERIMENT] [--small] [--trace <path>]"),
            "{args:?}: {stderr}"
        );
    }
    let (code, stderr) = repro(&["intro", "--small"]);
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn an_unknown_experiment_is_told_the_names_that_exist() {
    let (code, stderr) = repro(&["nosuch", "--small"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown experiment 'nosuch'"), "{stderr}");
    for name in ["intro", "fig3", "fault_storm", "dist", "all"] {
        assert!(stderr.contains(&format!("\n  {name} ")), "{name}: {stderr}");
    }
    assert!(!stderr.contains("--help"), "{stderr}");
    // `none` is what --reconcile alone resolves to, not a name to type.
    let (code, stderr) = repro(&["none"]);
    assert_eq!(code, Some(2), "{stderr}");
}

/// A ledger is held to the counter invariants by both tools that read
/// one: a record whose shuffle moved one byte more than the maps
/// materialized parses, re-encodes and carries no histogram that
/// disagrees with anything — only `check_invariants` sees it.
#[test]
fn both_ledger_readers_reject_counters_that_do_not_balance() {
    let dir = std::env::temp_dir().join(format!("repro-ledger-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let run = |exe: &str, args: &[&str]| {
        let out = Command::new(exe)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("tool runs");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let repro = env!("CARGO_BIN_EXE_repro");
    let validate = env!("CARGO_BIN_EXE_validate_trace");
    let written = [
        "trace", "--small", "--trace", "t.json", "--ledger", "l.jsonl",
    ];
    assert_eq!(run(repro, &written).0, Some(0));
    // A thin record (no histograms) is checked like a rich one.
    let storm = ["fault_storm", "--small", "--ledger", "l.jsonl"];
    assert_eq!(run(repro, &storm).0, Some(0));
    assert_eq!(run(validate, &["t.json", "l.jsonl"]).0, Some(0));
    assert_eq!(run(repro, &["--reconcile", "l.jsonl"]).0, Some(0));

    let text = std::fs::read_to_string(dir.join("l.jsonl")).expect("ledger written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "three rich records, two thin");
    for tampered in [0, 4] {
        let mut record = LedgerRecord::from_json(lines[tampered]).expect("line parses");
        let bumped = Counters::new();
        for c in ALL_COUNTERS {
            bumped.add(c, record.counters.get(c));
        }
        bumped.add(Counter::ShuffleBytes, 1);
        record.counters = bumped.snapshot();
        let mut forged = lines.clone();
        let line = record.to_json();
        forged[tampered] = &line;
        std::fs::write(dir.join("forged.jsonl"), forged.join("\n") + "\n").expect("write");
        for (exe, args) in [
            (validate, &["t.json", "forged.jsonl"][..]),
            (repro, &["--reconcile", "forged.jsonl"]),
        ] {
            let (code, stderr) = run(exe, args);
            assert_eq!(code, Some(1), "{args:?}: {stderr}");
            assert!(stderr.contains("shuffle moved"), "{args:?}: {stderr}");
            assert!(stderr.contains(&record.label), "{args:?}: {stderr}");
        }
    }

    // A traced record must carry one output-record sample per reducer;
    // the traced median's record without them fails `validate_trace`.
    let mut record = LedgerRecord::from_json(lines[1]).expect("line parses");
    let samples = record
        .hist(Metric::ReduceTaskOutputRecords)
        .map(|h| h.count);
    assert_eq!(samples, Some(record.job.num_reducers));
    record
        .histograms
        .retain(|h| h.metric != Metric::ReduceTaskOutputRecords);
    let mut forged = lines.clone();
    let line = record.to_json();
    forged[1] = &line;
    std::fs::write(dir.join("forged.jsonl"), forged.join("\n") + "\n").expect("write");
    let (code, stderr) = run(validate, &["t.json", "forged.jsonl"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("(traced_median): 0 reduce_task_output_records samples for 3 reducers"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
}
