//! Process-mode integration tests for the distributed runtime: real
//! worker *processes* (spawned by re-executing this test binary with a
//! libtest filter, rusty-fork style) over real sockets, pinned
//! byte-identical to the single-process engine — clean and under a
//! fault storm with wire corruption — and pinned to leave nothing
//! behind, whether the job succeeds or fails. The job a worker rebuilds
//! is the one its ledger line describes. Also the two-process
//! `LedgerSink::append` interleave test: concurrent writers to one
//! JSON-lines file must never tear a line.

use scihadoop_bench::workloads::wordcount_splits;
use scihadoop_bench::{codec_by_name, dist_equivalence, wordcount_mapper, wordcount_reducer};
use scihadoop_mapreduce::dist::{run_distributed, worker_env};
use scihadoop_mapreduce::obs::{json, LedgerConfig, LedgerRecord, LedgerSink};
use scihadoop_mapreduce::{DistConfig, FaultConfig, FaultPlan, Framing, Job, JobConfig, WireCodec};
use std::sync::Arc;

/// Arguments that route a re-execution of this test binary straight
/// into [`dist_worker_entry`] below.
const WORKER_ARGS: &[&str] = &["dist_worker_entry", "--exact", "--nocapture"];

/// Not a test of anything by itself: the worker-process entry point.
/// When the coordinator re-executes this binary with the
/// `SCIHADOOP_DIST_*` environment set and a libtest filter naming this
/// function, it becomes the worker's `main`. Without the environment
/// (i.e. under a normal `cargo test`) it is a no-op pass.
#[test]
fn dist_worker_entry() {
    match worker_env().expect("worker environment parses") {
        None => {}
        Some(env) => std::process::exit(scihadoop_bench::dist_worker(&env)),
    }
}

/// Input records of every equivalence run below.
const RECORDS: usize = 2_000;

/// The wordcount's config, as `repro` builds it, without a fault plan.
fn clean_config() -> JobConfig {
    JobConfig::default()
        .with_reducers(3)
        .with_framing(Framing::IFile)
}

fn with_plan(config: JobConfig, plan: &str) -> JobConfig {
    config.with_faults(FaultPlan::new(
        FaultConfig::parse(plan).expect("plan parses"),
    ))
}

fn storm_config() -> JobConfig {
    let plan = "seed=42,map=0.4,reduce=0.3,corrupt=0.3,slow=0.1,slow_ms=1,cap=2";
    with_plan(clean_config().with_retries(4), plan)
}

// dist_equivalence asserts outputs and semantic counters are identical
// between the local engine and the worker processes; these tests only
// have to drive it under each fault/budget/codec combination.

#[test]
fn three_worker_processes_match_the_local_engine() {
    dist_equivalence(
        &clean_config(),
        RECORDS,
        3,
        None,
        WireCodec::Identity,
        WORKER_ARGS,
        None,
    );
}

#[test]
fn fault_storm_with_wire_corruption_is_byte_identical() {
    let mut sink = LedgerSink::new();
    let config = storm_config();
    let table = dist_equivalence(
        &config,
        RECORDS,
        3,
        None,
        WireCodec::Identity,
        WORKER_ARGS,
        Some(&mut sink),
    );
    // The storm actually stormed: the fault note reports non-zero
    // injections (tallies themselves are asserted inside).
    assert!(
        table.render().contains("injected"),
        "fault note missing:\n{}",
        table.render()
    );
    // Both runs shuffled the engine's own segment format.
    let labels: Vec<&str> = sink.records().iter().map(|r| r.label.as_str()).collect();
    assert_eq!(labels, ["dist_local", "dist_procs"]);
    for record in sink.records() {
        assert_eq!(record.config.ifile_version, 3, "{}", record.label);
    }
    // The `config` object of the dist_procs ledger line re-encodes to
    // the payload its workers read, byte for byte.
    let line = json::parse(&sink.records()[1].to_json()).expect("the line parses");
    let recorded = line.get("config").expect("a config object").to_compact();
    assert_eq!(recorded, LedgerConfig::of(&config).to_json());
}

// A 64 KiB budget against a multi-megabyte shuffle forces nearly every
// segment through the spill file; the storm's worker kills then force
// re-fetches of already-spilled segments. Byte-identity is asserted
// inside dist_equivalence either way.

#[test]
fn tiny_shuffle_budget_storm_is_byte_identical() {
    let table = dist_equivalence(
        &storm_config(),
        RECORDS,
        3,
        Some(64 << 10),
        WireCodec::Identity,
        WORKER_ARGS,
        None,
    );
    assert!(
        table.render().contains("spilled"),
        "spill note missing:\n{}",
        table.render()
    );
}

// Transparent wire compression: the coordinator ships the store's lz
// frames to real worker processes, which inflate them before the
// segment CRC check. dist_equivalence asserts outputs and
// semantic counters match the local engine and that wire bytes were
// actually saved.

#[test]
fn wire_lz_clean_run_is_byte_identical() {
    let table = dist_equivalence(
        &clean_config(),
        RECORDS,
        3,
        None,
        WireCodec::Lz,
        WORKER_ARGS,
        None,
    );
    assert!(
        table.render().contains("wire codec lz"),
        "wire-codec note missing:\n{}",
        table.render()
    );
}

#[test]
fn wire_lz_fault_storm_is_byte_identical() {
    dist_equivalence(
        &storm_config(),
        RECORDS,
        3,
        None,
        WireCodec::Lz,
        WORKER_ARGS,
        None,
    );
}

#[test]
fn wire_lz_tiny_budget_storm_is_byte_identical() {
    dist_equivalence(
        &storm_config(),
        RECORDS,
        3,
        Some(64 << 10),
        WireCodec::Lz,
        WORKER_ARGS,
        None,
    );
}

#[test]
fn a_compressed_codec_survives_the_wire_byte_identically() {
    let config = clean_config().with_codec(codec_by_name("transform+deflate").expect("a codec"));
    dist_equivalence(
        &config,
        RECORDS,
        2,
        None,
        WireCodec::Identity,
        WORKER_ARGS,
        None,
    );
}

/// Environment variable naming the teardown case (`ok` or `err`) that
/// [`teardown_entry`] runs.
const ENV_TEARDOWN: &str = "SCIHADOOP_TEST_TEARDOWN";

/// This process's children, alive or exited but not yet reaped.
#[cfg(target_os = "linux")]
fn children() -> usize {
    let me = std::process::id().to_string();
    let parent_of = |entry: std::fs::DirEntry| {
        let stat = std::fs::read_to_string(entry.path().join("stat")).ok()?;
        let fields = stat
            .rsplit_once(')')?
            .1
            .split_whitespace()
            .nth(1)?
            .to_string();
        Some(fields)
    };
    std::fs::read_dir("/proc")
        .expect("/proc is readable")
        .flatten()
        .filter_map(parent_of)
        .filter(|ppid| *ppid == me)
        .count()
}

/// Third re-exec entry point: run one process-mode job that succeeds
/// (`ok`) or fails (`err`), over UDS with every segment spilled, then
/// exit non-zero if any worker, socket file or spill file outlived it.
/// The parent gives this process an empty `TMPDIR` of its own, so
/// anything in it was left by the job. No-op pass under a normal
/// `cargo test`.
#[cfg(target_os = "linux")]
#[test]
fn teardown_entry() {
    let Ok(case) = std::env::var(ENV_TEARDOWN) else {
        return;
    };
    let config = match case.as_str() {
        // Every reduce attempt fails and none is retried.
        "err" => with_plan(clean_config(), "seed=1,reduce=1"),
        _ => clean_config(),
    };
    let dist = DistConfig::default()
        .with_workers(2)
        .with_shuffle_mem_bytes(Some(0))
        .with_worker_args(WORKER_ARGS)
        .with_job_payload(&LedgerConfig::of(&config).to_json());
    let result = run_distributed(&config, &dist, wordcount_splits(512, 97, 5, 128));
    assert_eq!(result.is_ok(), case == "ok", "{case}: {:?}", result.err());
    assert_eq!(children(), 0, "{case}: workers left running or unreaped");
    let left: Vec<_> = std::fs::read_dir(std::env::temp_dir())
        .expect("TMPDIR is readable")
        .flatten()
        .map(|entry| entry.file_name())
        .collect();
    assert!(left.is_empty(), "{case}: files left behind: {left:?}");
    std::process::exit(0);
}

/// After `run_distributed` returns `Ok` and after it returns `Err`, none
/// of its workers is alive or unreaped, and its socket file and spill
/// files are gone. Each case runs in a process of its own, so sibling
/// tests' workers do not count. (The third exit, a coordinator panic,
/// is pinned by `dist::coordinator`'s unit tests.)
#[cfg(target_os = "linux")]
#[test]
fn a_finished_or_failed_job_leaves_no_worker_socket_or_spill_file_behind() {
    for case in ["ok", "err"] {
        let tmp =
            std::env::temp_dir().join(format!("scihadoop-teardown-{case}-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).expect("create private TMPDIR");
        let status = std::process::Command::new(std::env::current_exe().expect("current exe"))
            .args(["teardown_entry", "--exact", "--nocapture"])
            .env(ENV_TEARDOWN, case)
            .env("TMPDIR", &tmp)
            .stdout(std::process::Stdio::null())
            .status()
            .expect("run the teardown case");
        let left = std::fs::read_dir(&tmp).map(Iterator::count).unwrap_or(0);
        let _ = std::fs::remove_dir_all(&tmp);
        assert!(status.success(), "{case}: {status}");
        assert_eq!(left, 0, "{case}: files left in its TMPDIR");
    }
}

/// Environment variable carrying the interleave test's shared ledger
/// path into [`ledger_writer_entry`] child processes.
const ENV_LEDGER_PATH: &str = "SCIHADOOP_TEST_LEDGER_PATH";
/// Records each writer process appends.
const LEDGER_RECORDS_PER_WRITER: usize = 40;

/// Second re-exec entry point: append many records to the shared ledger
/// file as fast as possible, labelled by pid. No-op pass under a normal
/// `cargo test`.
#[test]
fn ledger_writer_entry() {
    let Ok(path) = std::env::var(ENV_LEDGER_PATH) else {
        return;
    };
    let config = clean_config();
    let result = Job::new(config.clone())
        .run(
            wordcount_splits(128, 97, 5, 128),
            Arc::new(wordcount_mapper()),
            Arc::new(wordcount_reducer()),
        )
        .expect("job runs");
    let mut sink = LedgerSink::with_path(&path);
    let label = format!("writer-{}", std::process::id());
    for _ in 0..LEDGER_RECORDS_PER_WRITER {
        sink.append(LedgerRecord::from_run(&label, &config, &result, None))
            .expect("append");
    }
    std::process::exit(0);
}

/// Two writer *processes* appending concurrently to one ledger file:
/// every line must still parse (append is a single `write_all` of a
/// whole line against an `O_APPEND` handle, so lines interleave but
/// never tear), and both writers' record counts must survive intact.
#[test]
fn two_processes_interleave_ledger_appends_without_tearing() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "scihadoop-ledger-interleave-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    let exe = std::env::current_exe().expect("current exe");
    let spawn = || {
        std::process::Command::new(&exe)
            .args(["ledger_writer_entry", "--exact", "--nocapture"])
            .env(ENV_LEDGER_PATH, &path)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .expect("spawn ledger writer")
    };
    let mut a = spawn();
    let mut b = spawn();
    assert!(a.wait().expect("wait a").success(), "writer a failed");
    assert!(b.wait().expect("wait b").success(), "writer b failed");

    let text = std::fs::read_to_string(&path).expect("read shared ledger");
    let records = scihadoop_mapreduce::obs::parse_ledger(&text)
        .expect("every interleaved line parses as a full record");
    assert_eq!(records.len(), 2 * LEDGER_RECORDS_PER_WRITER);
    let mut labels: Vec<&str> = records.iter().map(|r| r.label.as_str()).collect();
    labels.sort_unstable();
    labels.dedup();
    assert_eq!(labels.len(), 2, "two distinct writer pids: {labels:?}");
    for label in labels {
        let n = records.iter().filter(|r| r.label == label).count();
        assert_eq!(n, LEDGER_RECORDS_PER_WRITER, "no records lost for {label}");
    }
    let _ = std::fs::remove_file(&path);
}
