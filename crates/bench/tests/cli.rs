//! `repro`'s command line is a trust boundary: what the grammar does not
//! generate exits 2 with the usage line instead of running something
//! other than what was asked for, and an output it cannot write exits 1
//! with the reason instead of panicking.

use scihadoop_mapreduce::obs::{LedgerRecord, Metric};
use scihadoop_mapreduce::{Counter, Counters, ALL_COUNTERS};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `repro` in an empty directory of its own (tests run in parallel)
/// and check it left nothing there.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("repro-cli-{}-{run}", std::process::id()));
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
        // The build picks the shuffle socket; no flag picks another.
        (&["dist", "--transport", "uds"], "unknown flag"),
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

#[test]
fn an_output_it_cannot_write_exits_1_with_the_reason() {
    for (flag, what) in [
        ("--trace", "cannot write chrome trace"),
        ("--ledger", "cannot append ledger record"),
    ] {
        let args = ["trace", "--small", flag, "/nonexistent/dir/out"];
        let (code, stderr) = repro(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(what), "{args:?}: {stderr}");
        assert!(stderr.contains("No such file"), "{args:?}: {stderr}");
    }
}

/// `repro --reconcile` holds a ledger to the counter invariants, a rich
/// record's histograms to its counters, and the clean runs of one job to
/// one another: each forged record below parses and re-encodes, and
/// only `ledger_violations` sees what is wrong with it.
#[test]
fn reconcile_rejects_ledgers_that_do_not_balance() {
    let dir = std::env::temp_dir().join(format!("repro-ledger-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("repro runs");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    assert_eq!(run(&["trace", "--small", "--ledger", "l.jsonl"]).0, Some(0));
    // Thin records (no histograms) are checked like rich ones, and the
    // storm's clean run twice is a history.
    let storm = ["fault_storm", "--small", "--ledger", "l.jsonl"];
    for _ in 0..2 {
        assert_eq!(run(&storm).0, Some(0));
    }
    assert_eq!(run(&["--reconcile", "l.jsonl"]).0, Some(0));

    let text = std::fs::read_to_string(dir.join("l.jsonl")).expect("ledger written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 7, "three rich records, two storms of two");
    // Replace line `at` with `record`; --reconcile must exit 1 saying
    // `why` and naming the record's label.
    let assert_rejected = |at: usize, record: &LedgerRecord, why: &str| {
        let mut forged = lines.clone();
        let line = record.to_json();
        forged[at] = &line;
        std::fs::write(dir.join("forged.jsonl"), forged.join("\n") + "\n").expect("write");
        let (code, stderr) = run(&["--reconcile", "forged.jsonl"]);
        assert_eq!(code, Some(1), "{why}: {stderr}");
        assert!(stderr.contains(why), "{why}: {stderr}");
        assert!(stderr.contains(&record.label), "{why}: {stderr}");
    };
    let bumped = |line: &str, counter: Counter| {
        let mut record = LedgerRecord::from_json(line).expect("line parses");
        let counters = Counters::new();
        for c in ALL_COUNTERS {
            counters.add(c, record.counters.get(c));
        }
        counters.add(counter, 1);
        record.counters = counters.snapshot();
        record
    };
    for tampered in [0, 4] {
        let record = bumped(lines[tampered], Counter::ShuffleBytes);
        assert_rejected(tampered, &record, "shuffle moved");
    }

    // No invariant or histogram rule reads a reducer's output bytes,
    // but the storm's two clean runs must agree on them.
    assert!(lines[5].contains("\"fault_storm_clean\""), "{}", lines[5]);
    let record = bumped(lines[5], Counter::ReduceOutputBytes);
    assert_rejected(
        5,
        &record,
        "group fault_storm_clean (2 runs): reduce_output_bytes drifted",
    );

    // A traced record must carry one output-record sample per reducer;
    // the traced median's record without them fails.
    let mut record = LedgerRecord::from_json(lines[1]).expect("line parses");
    let samples = record
        .hist(Metric::ReduceTaskOutputRecords)
        .map(|h| h.count);
    assert_eq!(samples, Some(record.job.num_reducers));
    record
        .histograms
        .retain(|h| h.metric != Metric::ReduceTaskOutputRecords);
    assert_rejected(
        1,
        &record,
        "(traced_median): 0 reduce_task_output_records samples for 3 reducers",
    );

    // One sample per spill: the traced wordcount's record with its
    // smallest spill sample taken out fails.
    let mut record = LedgerRecord::from_json(lines[0]).expect("line parses");
    let spills = record.counters.get(Counter::Spills);
    let h = record
        .histograms
        .iter_mut()
        .find(|h| h.metric == Metric::SpillPayloadBytes)
        .expect("the wordcount spills");
    assert_eq!(h.count, spills);
    h.count -= 1;
    h.sum -= h.min;
    h.buckets[0].1 -= 1;
    h.buckets.retain(|&(_, n)| n > 0);
    let why = format!(
        "{} spill_payload_bytes samples for {spills} spills",
        spills - 1
    );
    assert_rejected(0, &record, &why);
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
}
