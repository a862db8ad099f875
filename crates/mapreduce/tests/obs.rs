//! End-to-end observability tests: a traced job must produce spans for
//! every pipeline stage, one segment-size sample per final segment and
//! one per-record sample per emitted pair and per reduce group, its
//! histograms must hold the samples of committed attempts only — a
//! retried job's distributions are a clean run's — and counter
//! snapshots must satisfy the accounting invariants across codecs and
//! key semantics.

use scihadoop_compress::{Codec, DeflateCodec, IdentityCodec};
use scihadoop_mapreduce::keysem::RouteSink;
use scihadoop_mapreduce::obs::{
    chrome_trace_json, LedgerRecord, Metric, Recorder, ALL_METRICS, ALL_PHASES,
};
use scihadoop_mapreduce::record::{Emit, FnMapper, FnReducer, InputSplit, KvPair, Mapper};
use scihadoop_mapreduce::{
    Counter, DefaultKeySemantics, FaultConfig, FaultPlan, Job, JobConfig, JobResult, KeySemantics,
    Phase, Trace,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Key semantics that keep the engine's conservative sort-split
/// machinery engaged (sort_splits = true, everything interacts) while
/// behaving like atomic keys — exercises the windowed reduce path and
/// its SortSplit spans without needing the aggregate layer.
#[derive(Debug, Default)]
struct ConservativeKeys;

impl KeySemantics for ConservativeKeys {
    fn partition(&self, key: &[u8], parts: usize) -> usize {
        (scihadoop_mapreduce::keysem::fnv1a(key) % parts as u64) as usize
    }
}

/// Key semantics that route every pair whose key ends in an even digit
/// to two reducers — the shape of §IV-B's route split.
#[derive(Debug, Default)]
struct SplittingKeys;

impl KeySemantics for SplittingKeys {
    fn partition(&self, key: &[u8], parts: usize) -> usize {
        (scihadoop_mapreduce::keysem::fnv1a(key) % parts as u64) as usize
    }

    fn route_slices(&self, key: &[u8], value: &[u8], parts: usize, emit: &mut RouteSink<'_>) {
        let partition = self.partition(key, parts);
        emit(partition, key, value);
        if key.last().is_some_and(|b| b % 2 == 0) {
            emit((partition + 1) % parts, key, value);
        }
    }
}

fn wordcount_splits(n: usize, distinct: usize) -> Vec<InputSplit> {
    let words: Vec<String> = (0..n)
        .map(|i| format!("word-{:04}", i % distinct))
        .collect();
    words
        .chunks(100)
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

fn sum_job(config: JobConfig, splits: Vec<InputSplit>) -> JobResult {
    let mapper = Arc::new(FnMapper(|k: &[u8], v: &[u8], out: &mut dyn Emit| {
        out.emit(k, v)
    }));
    sum_job_with(config, splits, mapper)
}

fn sum_job_with(config: JobConfig, splits: Vec<InputSplit>, mapper: Arc<dyn Mapper>) -> JobResult {
    let reduce_fn = |k: &[u8], values: &[&[u8]], out: &mut dyn Emit| {
        let total: u64 = values
            .iter()
            .map(|v| {
                if v.len() == 1 {
                    v[0] as u64
                } else {
                    u64::from_be_bytes((*v).try_into().unwrap())
                }
            })
            .sum();
        out.emit(k, &total.to_be_bytes());
    };
    let reducer = Arc::new(FnReducer(reduce_fn));
    Job::new(config).run(splits, mapper, reducer).unwrap()
}

/// The combiner-equipped, multi-spill wordcount config: exercises every
/// map-side stage (emit, sort/spill, combine, ifile write, spill merge).
fn traced_wordcount_config(recorder: &Recorder) -> JobConfig {
    let combiner = Arc::new(FnReducer(
        |k: &[u8], values: &[&[u8]], out: &mut dyn Emit| {
            let total: u64 = values
                .iter()
                .map(|v| {
                    if v.len() == 1 {
                        v[0] as u64
                    } else {
                        u64::from_be_bytes((*v).try_into().unwrap())
                    }
                })
                .sum();
            out.emit(k, &total.to_be_bytes());
        },
    ));
    JobConfig::default()
        .with_reducers(3)
        .with_slots(2, 2)
        .with_combiner(combiner)
        .with_spill_buffer(512) // forces several spills → map-side merge
        .with_recorder(recorder.clone())
}

#[test]
fn traced_job_covers_all_phases() {
    let recorder = Recorder::new();
    // Job 1: combiner + multi-spill wordcount (map-side stages + merge).
    sum_job(
        traced_wordcount_config(&recorder),
        wordcount_splits(600, 40),
    );
    // Job 2: conservative key semantics engage the sort-split window.
    sum_job(
        JobConfig::default()
            .with_key_semantics(Arc::new(ConservativeKeys))
            .with_recorder(recorder.clone()),
        wordcount_splits(120, 10),
    );
    // Job 3: every map task fails its first attempt (cap 1) and retries
    // succeed — exercises the Retry phase deterministically.
    sum_job(
        JobConfig::default()
            .with_recorder(recorder.clone())
            .with_retries(1)
            .with_faults(scihadoop_mapreduce::FaultPlan::new(
                scihadoop_mapreduce::FaultConfig {
                    seed: 1,
                    map_error_rate: 1.0,
                    attempt_cap: 1,
                    ..scihadoop_mapreduce::FaultConfig::default()
                },
            )),
        wordcount_splits(120, 10),
    );
    let trace = recorder.finish();
    for phase in ALL_PHASES {
        assert!(
            trace.span_count(phase) > 0,
            "no spans recorded for phase {:?}",
            phase
        );
    }
    // Worker threads from both jobs registered under their slot names.
    assert!(trace.threads.iter().any(|t| t.starts_with("map-slot-")));
    assert!(trace.threads.iter().any(|t| t.starts_with("reduce-slot-")));
    // Spans measured real work.
    assert!(trace.phase_wall_nanos(Phase::MapEmit) > 0);
    assert_eq!(trace.dropped_events, 0);
}

#[test]
fn segment_histograms_sample_once_per_final_segment() {
    // The counters are the byte ledger; the segment histograms are the
    // size distribution, one sample per final map-output segment.
    let recorder = Recorder::new();
    let result = sum_job(
        traced_wordcount_config(&recorder),
        wordcount_splits(500, 30),
    );
    let trace = recorder.finish();
    let segments = result.counters.get(Counter::MapOutputSegments);
    assert!(segments > 0);
    for metric in [Metric::SegRawBytes, Metric::SegMaterializedBytes] {
        let h = trace.hists.get(metric);
        assert_eq!(h.count(), segments, "{}", metric.name());
        assert!(h.max() <= result.counters.get(Counter::MapOutputBytes));
    }
}

fn identity_mapper() -> Arc<dyn Mapper> {
    Arc::new(FnMapper(|k: &[u8], v: &[u8], out: &mut dyn Emit| {
        out.emit(k, v)
    }))
}

/// Run a traced, multi-spill, combiner-free job of 400 distinct words
/// with one retry and hold the per-record histograms to the counters:
/// one emit sample per emitted pair (a route split's extra pieces are
/// not emits), one group sample per reduce group, and no sample from an
/// attempt that failed.
fn assert_sample_counts_match_counters(
    ks: Arc<dyn KeySemantics>,
    mapper: Arc<dyn Mapper>,
    faults: Option<FaultPlan>,
) -> (JobResult, Trace) {
    let recorder = Recorder::new();
    let mut config = JobConfig::default()
        .with_reducers(3)
        .with_slots(2, 2)
        .with_spill_buffer(512)
        .with_retries(1)
        .with_key_semantics(ks)
        .with_recorder(recorder.clone());
    if let Some(plan) = faults {
        config = config.with_faults(plan);
    }
    let result = sum_job_with(config, wordcount_splits(400, 400), mapper);
    let trace = recorder.finish();
    let c = &result.counters;
    let emitted = c.get(Counter::MapOutputRecords) - c.get(Counter::RouteSplitRecords);
    assert!(emitted > 0);
    let keys = trace.hists.get(Metric::MapEmitKeyBytes);
    let values = trace.hists.get(Metric::MapEmitValueBytes);
    assert_eq!(keys.count(), emitted, "key samples");
    assert_eq!(values.count(), emitted, "value samples");
    if c.get(Counter::RouteSplitRecords) == 0 {
        assert_eq!(keys.sum(), c.get(Counter::MapOutputKeyBytes));
        assert_eq!(values.sum(), c.get(Counter::MapOutputValueBytes));
    }
    let groups = trace.hists.get(Metric::ReduceGroupValues);
    assert_eq!(groups.count(), c.get(Counter::ReduceInputGroups));
    assert_eq!(groups.sum(), c.get(Counter::ReduceInputRecords));
    (result, trace)
}

/// A retried job's histograms equal a clean run's, bucket for bucket,
/// except the three that time something.
fn assert_clean_distributions(trace: &Trace) {
    let (_, clean) =
        assert_sample_counts_match_counters(Arc::new(DefaultKeySemantics), identity_mapper(), None);
    for metric in ALL_METRICS {
        if matches!(
            metric,
            Metric::CompressNsPerKib | Metric::DecompressNsPerKib | Metric::RetryBackoffNanos
        ) {
            continue;
        }
        assert_eq!(
            trace.hists.get(metric),
            clean.hists.get(metric),
            "{}",
            metric.name()
        );
    }
}

#[test]
fn per_record_samples_match_the_counters_under_default_keys() {
    let (result, _) =
        assert_sample_counts_match_counters(Arc::new(DefaultKeySemantics), identity_mapper(), None);
    assert_eq!(result.counters.get(Counter::RouteSplitRecords), 0);
}

#[test]
fn per_record_samples_match_the_counters_under_route_splits() {
    let (result, _) =
        assert_sample_counts_match_counters(Arc::new(SplittingKeys), identity_mapper(), None);
    assert!(result.counters.get(Counter::RouteSplitRecords) > 0);
}

#[test]
fn a_failed_attempt_leaves_no_per_record_samples() {
    // Every word occurs once and a split holds 100, so the attempt holding
    // this key fails after emitting 90 pairs — past its first spill of
    // the 512-byte buffer; its retry succeeds.
    let failed = AtomicBool::new(false);
    let mapper = Arc::new(FnMapper(move |k: &[u8], v: &[u8], out: &mut dyn Emit| {
        if k == b"word-0190" && !failed.swap(true, Ordering::Relaxed) {
            panic!("injected mapper panic (once, after a spill)");
        }
        out.emit(k, v)
    }));
    let (result, trace) =
        assert_sample_counts_match_counters(Arc::new(DefaultKeySemantics), mapper, None);
    assert_eq!(result.counters.get(Counter::TaskRetries), 1);
    assert_clean_distributions(&trace);
}

#[test]
fn a_reduce_failed_by_a_corrupt_segment_leaves_no_samples() {
    // Every fetched segment of every first reduce attempt is corrupted:
    // each fails while opening one, after sampling its size; the
    // retries read clean copies.
    let plan = FaultPlan::new(FaultConfig::parse("corrupt=1,cap=1").unwrap());
    let (result, trace) = assert_sample_counts_match_counters(
        Arc::new(DefaultKeySemantics),
        identity_mapper(),
        Some(plan),
    );
    let c = &result.counters;
    assert_eq!(c.get(Counter::ChecksumFailures), 3);
    assert_eq!(c.get(Counter::TaskRetries), 3);
    let fetched = trace.hists.get(Metric::ShuffleSegmentBytes);
    assert_eq!(fetched.count(), c.get(Counter::MapOutputSegments));
    assert_eq!(fetched.sum(), c.get(Counter::MapOutputMaterializedBytes));
    assert_clean_distributions(&trace);
}

#[test]
fn untraced_job_records_nothing_but_counters_still_balance() {
    let result = sum_job(JobConfig::default(), wordcount_splits(200, 20));
    assert!(result.counters.check_invariants().is_ok());
}

#[test]
fn invariants_hold_across_codecs_and_key_semantics() {
    let codecs: Vec<Arc<dyn Codec>> = vec![Arc::new(IdentityCodec), Arc::new(DeflateCodec::new())];
    let semantics: Vec<Arc<dyn KeySemantics>> =
        vec![Arc::new(DefaultKeySemantics), Arc::new(ConservativeKeys)];
    for codec in &codecs {
        for ks in &semantics {
            for combine in [false, true] {
                let mut config = JobConfig::default()
                    .with_reducers(2)
                    .with_codec(codec.clone())
                    .with_key_semantics(ks.clone())
                    .with_spill_buffer(256);
                if combine {
                    config = config.with_combiner(Arc::new(FnReducer(
                        |k: &[u8], values: &[&[u8]], out: &mut dyn Emit| {
                            let total: u64 = values
                                .iter()
                                .map(|v| {
                                    if v.len() == 1 {
                                        v[0] as u64
                                    } else {
                                        u64::from_be_bytes((*v).try_into().unwrap())
                                    }
                                })
                                .sum();
                            out.emit(k, &total.to_be_bytes());
                        },
                    )));
                }
                let result = sum_job(config, wordcount_splits(300, 25));
                result
                    .counters
                    .check_invariants()
                    .unwrap_or_else(|e| panic!("codec={} combine={combine}: {e:?}", codec.name()));
            }
        }
    }
}

#[test]
fn exports_are_valid_and_cover_the_pipeline() {
    let recorder = Recorder::new();
    let config = traced_wordcount_config(&recorder);
    let result = sum_job(config.clone(), wordcount_splits(400, 30));
    let trace = recorder.finish();

    let chrome = chrome_trace_json(&trace);
    for phase in [Phase::MapEmit, Phase::SortSpill, Phase::Combine] {
        assert!(
            chrome.contains(&format!("\"name\": \"{}\"", phase.name())),
            "chrome trace missing {:?}",
            phase
        );
    }
    assert!(chrome.contains("map-slot-0"));

    // The run document holds everything else: what it says after a trip
    // through its own encoding is what the trace and the counters said.
    let written = LedgerRecord::from_run("exports", &config, &result, Some(&trace));
    let record = LedgerRecord::from_json(&written.to_json()).expect("the record parses back");
    assert_eq!(record, written);
    assert_eq!(record.counters, result.counters);
    assert_eq!(record.dropped_events, trace.dropped_events);
    for (phase, rollup) in ALL_PHASES.into_iter().zip(&record.phases) {
        assert_eq!(rollup.count, trace.span_count(phase) as u64);
        assert_eq!(rollup.cpu_ns, trace.phase_cpu_nanos(phase));
    }
    for h in &record.histograms {
        let drained = trace.hists.get(h.metric);
        assert_eq!((h.count, h.sum), (drained.count(), drained.sum()));
    }
    assert!(record.hist(Metric::SegRawBytes).is_some());
    record
        .counters
        .check_invariants()
        .expect("a record's counters balance");
}

#[test]
fn wall_clock_fallback_warning_matches_clock_kind() {
    let recorder = Recorder::new();
    let trace = recorder.finish();
    let has_warning = trace.warnings.iter().any(|w| w.contains("thread-CPU"));
    match scihadoop_mapreduce::clock::clock_kind() {
        scihadoop_mapreduce::clock::ClockKind::ThreadCpu => {
            assert!(
                !has_warning,
                "spurious fallback warning: {:?}",
                trace.warnings
            )
        }
        scihadoop_mapreduce::clock::ClockKind::Wall => {
            assert!(has_warning, "fallback must be announced in the trace")
        }
    }
}

#[test]
fn two_traced_jobs_merge_counters_and_traces() {
    let rec_a = Recorder::new();
    let rec_b = Recorder::new();
    let a = sum_job(traced_wordcount_config(&rec_a), wordcount_splits(300, 20));
    let b = sum_job(traced_wordcount_config(&rec_b), wordcount_splits(200, 15));
    let mut trace = rec_a.finish();
    trace.merge(&rec_b.finish());
    let merged = a.counters.merge(&b.counters);
    merged
        .check_invariants()
        .expect("merged counters still balance");
    assert_eq!(
        trace.hists.get(Metric::SegRawBytes).count(),
        merged.get(Counter::MapOutputSegments)
    );
}
