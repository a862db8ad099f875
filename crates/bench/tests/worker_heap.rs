//! A spawned worker keeps its heap between tasks. Each map task below
//! grows buffers well past glibc's default 128 KiB `mmap` threshold; a
//! worker that maps and unmaps them per task faults the same pages in
//! again for every task, one that keeps them in its heap does not. The
//! measure is this process's `cminflt` (minor faults of its reaped
//! children) around a one-worker `run_distributed` job, so this file is
//! a test binary of its own, with one test that spawns anything.
#![cfg(all(target_os = "linux", target_env = "gnu"))]

use scihadoop_bench::workloads::wordcount_splits;
use scihadoop_mapreduce::dist::{run_distributed, worker_env};
use scihadoop_mapreduce::obs::LedgerConfig;
use scihadoop_mapreduce::{DistConfig, Framing, JobConfig};
use std::sync::Arc;

/// Arguments that route a re-execution of this test binary straight
/// into [`dist_worker_entry`] below.
const WORKER_ARGS: &[&str] = &["dist_worker_entry", "--exact", "--nocapture"];

/// The worker-process entry point, as in `tests/dist.rs`: a no-op pass
/// unless the coordinator re-executed this binary as a worker.
#[test]
fn dist_worker_entry() {
    match worker_env().expect("worker environment parses") {
        None => {}
        Some(env) => std::process::exit(scihadoop_bench::dist_worker(&env)),
    }
}

/// Records per map task: about 0.5 MiB of arena per task.
const PER_SPLIT: usize = 24_000;

/// Minor faults this process's reaped children have taken so far: field
/// 11 of `/proc/self/stat` (the fields after the command name, which is
/// the one field that may hold a space, start at field 3).
fn children_minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let fields = &stat[stat.rfind(')').expect("a command name") + 2..];
    let cminflt = fields.split(' ').nth(8).expect("a cminflt field");
    cminflt.parse().expect("cminflt is a number")
}

/// The minor faults of the one worker of a wordcount job of `maps` map
/// tasks. The combiner folds each task's output to 64 records, so the
/// one reduce task costs about the same whatever `maps` is.
fn worker_faults(maps: usize) -> u64 {
    let config = JobConfig::default()
        .with_reducers(1)
        .with_framing(Framing::IFile)
        .with_combiner(Arc::new(scihadoop_bench::wordcount_reducer()));
    let dist = DistConfig::default()
        .with_workers(1)
        .with_worker_args(WORKER_ARGS)
        .with_job_payload(&LedgerConfig::of(&config).to_json());
    let splits = wordcount_splits(maps * PER_SPLIT, 64, 6, PER_SPLIT);
    let before = children_minor_faults();
    let result = run_distributed(&config, &dist, splits).expect("the job succeeds");
    let faults = children_minor_faults() - before;
    assert_eq!(result.outputs.iter().flatten().count(), 64);
    faults
}

#[test]
fn a_worker_faults_its_task_buffers_in_once() {
    let (few, many) = (2, 12);
    let extra = worker_faults(many).saturating_sub(worker_faults(few));
    let per_task = extra / (many - few) as u64;
    eprintln!("worker minor faults per extra map task: {per_task}");
    assert!(per_task < 100, "{per_task} minor faults per extra map task");
}
