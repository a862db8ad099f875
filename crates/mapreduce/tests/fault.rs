//! Fault-tolerance integration tests: jobs with injected faults below
//! the retry budget must complete with output *and counters* identical
//! to a clean run; faults above the budget must fail the job with the
//! retry-exhausted errors.

use scihadoop_compress::{Codec, IdentityCodec, LzCodec};
use scihadoop_mapreduce::record::{Emit, FnMapper, FnReducer, InputSplit, KvPair};
use scihadoop_mapreduce::{
    Counter, CounterKind, FaultConfig, FaultPlan, Job, JobConfig, JobResult, MrError, ALL_COUNTERS,
};
use std::sync::Arc;

fn splits(n: usize, distinct: usize) -> Vec<InputSplit> {
    (0..n)
        .map(|i| format!("word-{:03}", i % distinct))
        .collect::<Vec<_>>()
        .chunks(25)
        .map(|chunk| {
            InputSplit::new(
                chunk
                    .iter()
                    .map(|w| KvPair::new(w.as_bytes().to_vec(), vec![1u8]))
                    .collect(),
            )
        })
        .collect()
}

fn sum_job(config: JobConfig, n: usize, distinct: usize) -> Result<JobResult, MrError> {
    let mapper = Arc::new(FnMapper(|k: &[u8], v: &[u8], out: &mut dyn Emit| {
        out.emit(k, v)
    }));
    let reducer = Arc::new(FnReducer(
        |k: &[u8], values: &[&[u8]], out: &mut dyn Emit| {
            let total: u64 = values.iter().map(|v| v[0] as u64).sum();
            out.emit(k, &total.to_be_bytes());
        },
    ));
    Job::new(config).run(splits(n, distinct), mapper, reducer)
}

fn storm_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(FaultConfig {
        seed,
        map_error_rate: 0.4,
        reduce_error_rate: 0.3,
        corrupt_rate: 0.3,
        slow_rate: 0.2,
        slow_millis: 1,
        attempt_cap: 2,
    })
}

fn faulty_config(seed: u64) -> JobConfig {
    JobConfig::default()
        .with_reducers(3)
        .with_slots(2, 2)
        .with_retries(3) // retries >= attempt_cap guarantees completion
        .with_faults(storm_plan(seed))
}

#[test]
fn faulted_job_matches_clean_run_exactly() {
    let clean = sum_job(
        JobConfig::default().with_reducers(3).with_slots(2, 2),
        200,
        23,
    )
    .expect("clean run");
    let faulted = sum_job(faulty_config(42), 200, 23).expect("faults below retry budget");

    assert_eq!(
        clean.outputs, faulted.outputs,
        "output must be byte-identical"
    );

    // Failed attempts are charged to attempt-local banks and discarded,
    // so every counter but the stopwatches and the storm's own tallies
    // matches the clean run.
    for c in ALL_COUNTERS {
        if matches!(c.kind(), CounterKind::Clock | CounterKind::FaultTally) {
            continue;
        }
        assert_eq!(
            clean.counters.get(c),
            faulted.counters.get(c),
            "counter {} drifted under faults",
            c.name()
        );
    }
    assert!(
        faulted.counters.get(Counter::TaskRetries) > 0,
        "storm injected nothing"
    );
    assert!(faulted.counters.get(Counter::FaultsInjected) > 0);
}

#[test]
fn faulted_runs_are_deterministic_per_seed() {
    let a = sum_job(faulty_config(7), 150, 17).expect("seed 7");
    let b = sum_job(faulty_config(7), 150, 17).expect("seed 7 again");
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(
        a.counters.get(Counter::FaultsInjected),
        b.counters.get(Counter::FaultsInjected),
        "same seed must inject the same faults"
    );
    assert_eq!(
        a.counters.get(Counter::TaskRetries),
        b.counters.get(Counter::TaskRetries)
    );
    assert_eq!(
        a.counters.get(Counter::ChecksumFailures),
        b.counters.get(Counter::ChecksumFailures)
    );
}

#[test]
fn corruption_is_detected_and_retried() {
    // Corruption-only storm: every retry is caused by a detection, so
    // checksum failures are nonzero and the ChecksumFailures <=
    // TaskRetries invariant is meaningfully active. Under the identity
    // codec the segment's CRC-32C trailer detects the flip; under lz
    // the frame's own CRC raises `CompressError::ChecksumMismatch`
    // before the trailer is ever reached, so the codec arm of
    // `MrError::is_checksum` is what counts it.
    let codecs: [Arc<dyn Codec>; 2] = [Arc::new(IdentityCodec), Arc::new(LzCodec)];
    for codec in codecs {
        let name = codec.name();
        let base = || {
            JobConfig::default()
                .with_reducers(2)
                .with_codec(codec.clone())
        };
        let config = base()
            .with_retries(2)
            .with_faults(FaultPlan::new(FaultConfig {
                seed: 1,
                corrupt_rate: 0.8,
                attempt_cap: 1,
                ..FaultConfig::default()
            }));
        let result = sum_job(config, 200, 19).expect("corruption below retry budget");
        assert!(
            result.counters.get(Counter::ChecksumFailures) > 0,
            "{name}: corruption storm produced no checksum failures"
        );
        assert!(
            result.counters.get(Counter::ChecksumFailures)
                <= result.counters.get(Counter::TaskRetries),
            "{name}"
        );
        let clean = sum_job(base(), 200, 19).unwrap();
        assert_eq!(clean.outputs.concat(), result.outputs.concat(), "{name}");
    }
}

#[test]
fn v3_faulted_job_matches_clean_v3_run_exactly() {
    // The full storm (errors + corruption + slowdowns) over v3 block
    // segments: corrupted fetches must be caught by the segment trailer
    // or the per-block CRCs, retried, and converge on the clean output.
    use scihadoop_mapreduce::IFileVersion;
    let clean = sum_job(
        JobConfig::default()
            .with_reducers(3)
            .with_slots(2, 2)
            .with_ifile_version(IFileVersion::V3),
        200,
        23,
    )
    .expect("clean v3 run");
    let faulted = sum_job(
        faulty_config(42).with_ifile_version(IFileVersion::V3),
        200,
        23,
    )
    .expect("v3 faults below retry budget");
    assert_eq!(clean.outputs, faulted.outputs);
    assert_eq!(
        clean.counters.get(Counter::MapOutputKeySavedBytes),
        faulted.counters.get(Counter::MapOutputKeySavedBytes),
        "front-coding savings must not drift under retries"
    );
    assert_eq!(
        clean.counters.get(Counter::BlocksWritten),
        faulted.counters.get(Counter::BlocksWritten)
    );
    assert!(faulted.counters.get(Counter::TaskRetries) > 0);
    assert!(
        faulted.counters.get(Counter::ChecksumFailures) > 0,
        "corruption storm over v3 segments must trip a checksum"
    );
}

#[test]
fn faults_above_the_retry_budget_fail_the_job() {
    // Every attempt of every map task fails (cap exceeds the budget), so
    // the job must surface retry-exhausted task errors.
    let config = JobConfig::default()
        .with_retries(1)
        .with_faults(FaultPlan::new(FaultConfig {
            seed: 3,
            map_error_rate: 1.0,
            attempt_cap: u32::MAX,
            ..FaultConfig::default()
        }));
    let err = match sum_job(config, 100, 11) {
        Err(e) => e,
        Ok(_) => panic!("unretryable faults must fail the job"),
    };
    for task_err in err.task_errors() {
        assert!(
            matches!(task_err, MrError::TaskFailed(msg) if msg.contains("injected map fault")),
            "unexpected error: {task_err:?}"
        );
    }
}

#[test]
fn zero_retries_preserves_fail_fast() {
    let config = JobConfig::default().with_faults(FaultPlan::new(FaultConfig {
        seed: 5,
        map_error_rate: 1.0,
        ..FaultConfig::default()
    }));
    let err = match sum_job(config, 50, 7) {
        Err(e) => e,
        Ok(_) => panic!("a job with zero retries must fail fast"),
    };
    assert!(err
        .task_errors()
        .iter()
        .all(|e| matches!(e, MrError::TaskFailed(_))));
}

#[test]
fn slow_faults_only_delay_but_never_fail() {
    let config = JobConfig::default()
        .with_reducers(2)
        .with_faults(FaultPlan::new(FaultConfig {
            seed: 9,
            slow_rate: 1.0,
            slow_millis: 1,
            ..FaultConfig::default()
        }));
    let slow = sum_job(config, 120, 13).expect("slow tasks still succeed");
    let clean = sum_job(JobConfig::default().with_reducers(2), 120, 13).unwrap();
    assert_eq!(slow.outputs, clean.outputs);
    assert_eq!(slow.counters.get(Counter::TaskRetries), 0);
    assert!(slow.counters.get(Counter::FaultsInjected) > 0);
}

#[test]
fn retried_attempts_never_double_count_records() {
    // Attempt-local counter banks are absorbed only on success: however
    // many attempts a task needs, each record is counted exactly once.
    use std::sync::atomic::{AtomicU32, Ordering};
    let calls = Arc::new(AtomicU32::new(0));
    let seen = calls.clone();
    let mapper = Arc::new(FnMapper(move |k: &[u8], v: &[u8], out: &mut dyn Emit| {
        seen.fetch_add(1, Ordering::Relaxed);
        out.emit(k, v);
    }));
    let reducer = Arc::new(FnReducer(
        |k: &[u8], values: &[&[u8]], out: &mut dyn Emit| {
            let total: u64 = values.iter().map(|v| v[0] as u64).sum();
            out.emit(k, &total.to_be_bytes());
        },
    ));
    let config = JobConfig::default()
        .with_retries(2)
        .with_faults(FaultPlan::new(FaultConfig {
            seed: 13,
            map_error_rate: 0.9,
            attempt_cap: 2,
            ..FaultConfig::default()
        }));
    let result = Job::new(config)
        .run(splits(100, 9), mapper, reducer)
        .expect("attempt_cap 2 <= retries guarantees completion");
    assert_eq!(
        result.counters.get(Counter::MapInputRecords),
        100,
        "records must be counted once no matter how many attempts ran"
    );
    assert_eq!(
        calls.load(Ordering::Relaxed),
        100,
        "injected errors fire before the mapper runs, so only successful \
         attempts invoke user code"
    );
}
