//! The scheduler suite: every case runs once on in-process slots (the
//! local engine) and once on remote slots (thread workers behind real
//! sockets), because both are the same slot loop over the same shuffle
//! store and must behave alike — retries, aborts, counters and all.

use scihadoop_mapreduce::dist::{run_distributed_with_threads, DistConfig};
use scihadoop_mapreduce::obs::Metric;
use scihadoop_mapreduce::{
    runner, Counter, CounterKind, Emit, FaultConfig, FaultPlan, FnMapper, FnReducer, InputSplit,
    Job, JobConfig, JobResult, KvPair, Mapper, MrError, Recorder, Reducer, ALL_COUNTERS,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
enum Slots {
    InProcess,
    ThreadWorkers,
}

const BOTH: [Slots; 2] = [Slots::InProcess, Slots::ThreadWorkers];

fn run(
    slots: Slots,
    config: &JobConfig,
    splits: Vec<InputSplit>,
    mapper: Arc<dyn Mapper>,
    reducer: Arc<dyn Reducer>,
) -> Result<JobResult, MrError> {
    match slots {
        Slots::InProcess => Job::new(config.clone()).run(splits, mapper, reducer),
        // The default transport is a Unix-domain socket. An unbounded
        // store keeps placement (and its counters) out of the comparison.
        Slots::ThreadWorkers => run_distributed_with_threads(
            config,
            &DistConfig::default()
                .with_workers(2)
                .with_shuffle_mem_bytes(Some(usize::MAX)),
            splits,
            mapper,
            reducer,
        ),
    }
}

/// `n` one-byte tallies over `distinct` words, `per_split` to a split.
fn word_splits(n: usize, distinct: usize, per_split: usize) -> Vec<InputSplit> {
    (0..n)
        .map(|i| KvPair::new(format!("w{:03}", i % distinct).into_bytes(), vec![1u8]))
        .collect::<Vec<_>>()
        .chunks(per_split)
        .map(|c| InputSplit::new(c.to_vec()))
        .collect()
}

fn identity_mapper() -> Arc<dyn Mapper> {
    Arc::new(FnMapper(|k: &[u8], v: &[u8], out: &mut dyn Emit| {
        out.emit(k, v)
    }))
}

fn count_reducer() -> Arc<dyn Reducer> {
    Arc::new(FnReducer(
        |k: &[u8], values: &[&[u8]], out: &mut dyn Emit| {
            out.emit(k, &(values.len() as u64).to_be_bytes());
        },
    ))
}

/// Per-word counts of a finished count job.
fn counts(result: &JobResult) -> Vec<u64> {
    result
        .all_outputs()
        .into_iter()
        .map(|p| u64::from_be_bytes(p.value[..].try_into().unwrap()))
        .collect()
}

#[test]
fn panicking_map_task_retries_instead_of_cascading() {
    for slots in BOTH {
        let calls = AtomicU32::new(0);
        let mapper = Arc::new(FnMapper(move |k: &[u8], v: &[u8], out: &mut dyn Emit| {
            if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("injected mapper panic (first record only)");
            }
            out.emit(k, v);
        }));
        let result = run(
            slots,
            &JobConfig::default().with_reducers(2).with_retries(2),
            word_splits(150, 11, 50),
            mapper,
            count_reducer(),
        )
        .unwrap_or_else(|e| panic!("{slots:?}: a panicking attempt must retry, not cascade: {e}"));
        assert_eq!(counts(&result).iter().sum::<u64>(), 150, "{slots:?}");
        assert!(result.counters.get(Counter::TaskRetries) >= 1, "{slots:?}");
    }
}

#[test]
fn panicking_reduce_task_refetches_its_segments_for_the_retry() {
    for slots in BOTH {
        let calls = AtomicU32::new(0);
        let reducer = Arc::new(FnReducer(
            move |k: &[u8], values: &[&[u8]], out: &mut dyn Emit| {
                if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("injected reducer panic (first group only)");
                }
                out.emit(k, &(values.len() as u64).to_be_bytes());
            },
        ));
        // The retry must be served the segments the panicking attempt
        // was (the store keeps them until a reduce commits), so the job
        // completes with full counts.
        let result = run(
            slots,
            &JobConfig::default().with_reducers(2).with_retries(2),
            word_splits(120, 7, 40),
            identity_mapper(),
            reducer,
        )
        .unwrap_or_else(|e| panic!("{slots:?}: a reduce panic must re-fetch and retry: {e}"));
        let counts = counts(&result);
        assert_eq!(counts.iter().sum::<u64>(), 120, "{slots:?}");
        assert_eq!(counts.len(), 7, "{slots:?}");
        assert!(result.counters.get(Counter::TaskRetries) >= 1, "{slots:?}");
    }
}

#[test]
fn always_panicking_task_fails_the_job_without_cascading() {
    for slots in BOTH {
        let mapper = Arc::new(FnMapper(|_: &[u8], _: &[u8], _: &mut dyn Emit| {
            panic!("unconditional mapper panic");
        }));
        let err = match run(
            slots,
            &JobConfig::default(),
            word_splits(1, 1, 1),
            mapper,
            count_reducer(),
        ) {
            Ok(_) => panic!("{slots:?}: the job must fail with a structured error"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("panicked"), "{slots:?}: {err}");
    }
}

#[test]
fn exhausted_retries_fail_the_job() {
    // reduce=1.0 fails attempt 0 of every reduce; with no retry budget
    // the first injected failure must fail the whole job.
    for slots in BOTH {
        let config = JobConfig::default()
            .with_reducers(2)
            .with_faults(FaultPlan::new(
                FaultConfig::parse("seed=7,reduce=1.0").unwrap(),
            ));
        let err = match run(
            slots,
            &config,
            word_splits(48, 13, 16),
            identity_mapper(),
            count_reducer(),
        ) {
            Ok(_) => panic!("{slots:?}: job must fail once the retry budget is exhausted"),
            Err(e) => e,
        };
        assert!(
            err.to_string().contains("injected reduce fault"),
            "{slots:?}: {err}"
        );
    }
}

#[test]
fn each_reducer_samples_its_output_records_once_however_often_it_ran() {
    // reduce=1.0 fails attempt 0 of every reduce; the retry commits.
    for slots in BOTH {
        let recorder = Recorder::new();
        let config = JobConfig::default()
            .with_reducers(3)
            .with_retries(1)
            .with_recorder(recorder.clone())
            .with_faults(FaultPlan::new(
                FaultConfig::parse("seed=7,reduce=1.0").unwrap(),
            ));
        let result = run(
            slots,
            &config,
            word_splits(48, 13, 16),
            identity_mapper(),
            count_reducer(),
        )
        .unwrap_or_else(|e| panic!("{slots:?}: {e}"));
        assert_eq!(result.counters.get(Counter::TaskRetries), 3, "{slots:?}");
        let trace = recorder.finish();
        let outputs = trace.hists.get(Metric::ReduceTaskOutputRecords);
        assert_eq!(outputs.count(), 3, "{slots:?}");
        assert_eq!(outputs.sum(), 13, "{slots:?}");
        let largest = result.outputs.iter().map(Vec::len).max().unwrap_or(0);
        assert_eq!(outputs.max(), largest as u64, "{slots:?}");
    }
}

/// Every counter that is not a clock reading nor — unless `tallies` —
/// one of a fault storm's own tallies, by name and value.
fn deterministic(result: &JobResult, tallies: bool) -> Vec<(&'static str, u64)> {
    ALL_COUNTERS
        .iter()
        .filter(|c| match c.kind() {
            CounterKind::Clock => false,
            CounterKind::FaultTally => tallies,
            CounterKind::Semantic | CounterKind::Path => true,
        })
        .map(|&c| (c.name(), result.counters.get(c)))
        .collect()
}

#[test]
fn counters_do_not_depend_on_the_slot_kind_or_on_a_fault_storm() {
    let clean = JobConfig::default().with_reducers(3).with_slots(4, 2);
    let storm = clean.clone().with_retries(4).with_faults(FaultPlan::new(
        FaultConfig::parse("seed=42,map=0.4,reduce=0.3,corrupt=0.3,slow=0.1,slow_ms=1,cap=2")
            .unwrap(),
    ));
    let job = |slots, config: &JobConfig| {
        run(
            slots,
            config,
            word_splits(160, 97, 32),
            identity_mapper(),
            count_reducer(),
        )
        .unwrap_or_else(|e| panic!("{slots:?}: {e}"))
    };
    let reference = job(Slots::InProcess, &clean);
    assert_eq!(
        reference.counters.get(Counter::ShuffleMemHighWater),
        reference.counters.get(Counter::ShuffleBytes),
        "an unbounded store holds the whole shuffle at its peak"
    );
    assert!(reference.counters.get(Counter::ShuffleBytes) > 0);

    let mut storms = Vec::new();
    for slots in BOTH {
        for config in [&clean, &storm] {
            let result = job(slots, config);
            assert_eq!(reference.outputs, result.outputs, "{slots:?}");
            assert_eq!(
                deterministic(&reference, false),
                deterministic(&result, false),
                "{slots:?}, faults: {}",
                config.faults.is_some()
            );
            // A reduce-only slot never starts before the maps drain and
            // nothing crosses a socket: a local run charges neither clock.
            let (wait, transfer) = (
                result.counters.get(Counter::ShuffleFetchWaitNanos),
                result.counters.get(Counter::ShuffleTransferNanos),
            );
            match slots {
                Slots::InProcess => assert_eq!((wait, transfer), (0, 0)),
                Slots::ThreadWorkers => assert!(transfer > 0),
            }
            if config.faults.is_some() {
                storms.push(result);
            }
        }
    }
    // The storm itself is the same storm on either kind of slot.
    assert_eq!(
        deterministic(&storms[0], true),
        deterministic(&storms[1], true)
    );
    assert!(storms[0].counters.get(Counter::TaskRetries) > 0);
    assert!(storms[0].counters.get(Counter::ChecksumFailures) > 0);
}

#[test]
fn every_slot_records_on_a_track_of_its_own() {
    for (slots, tracks) in [
        (Slots::InProcess, ["map-slot-", "reduce-slot-"]),
        (Slots::ThreadWorkers, ["dist-conn-0", "dist-conn-1"]),
    ] {
        let recorder = scihadoop_mapreduce::Recorder::new();
        run(
            slots,
            &JobConfig::default().with_recorder(recorder.clone()),
            word_splits(40, 5, 10),
            identity_mapper(),
            count_reducer(),
        )
        .unwrap_or_else(|e| panic!("{slots:?}: {e}"));
        let trace = recorder.finish();
        for track in tracks {
            assert!(
                trace.threads.iter().any(|t| t.starts_with(track)),
                "{slots:?}: no {track}* among {:?}",
                trace.threads
            );
        }
    }
}

#[test]
fn every_entry_point_rejects_an_invalid_config() {
    let invalid = [
        JobConfig::default().with_slots(0, 2),
        JobConfig::default().with_slots(2, 0),
        JobConfig::default().with_reducers(0),
        JobConfig::default().with_spill_buffer(0),
    ];
    for config in &invalid {
        let splits = || word_splits(40, 5, 10);
        let results = [
            Job::new(config.clone()).run(splits(), identity_mapper(), count_reducer()),
            runner::run_job(config, splits(), identity_mapper(), count_reducer()),
            run_distributed_with_threads(
                config,
                &DistConfig::default().with_workers(1),
                splits(),
                identity_mapper(),
                count_reducer(),
            ),
        ];
        for (entry, result) in results.into_iter().enumerate() {
            assert!(
                matches!(result, Err(MrError::Config(_))),
                "entry point {entry} accepted {config:?}"
            );
        }
    }
}
