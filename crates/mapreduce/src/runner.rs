//! Job execution: map slots, spills, shuffle, and reduce slots.

use crate::arena::SpillArena;
use crate::clock;
use crate::counters::{Counter, Counters};
use crate::error::MrError;
use crate::ifile::{IFileVersion, IFileWriter, RawSegment, Segment};
use crate::job::{JobConfig, JobResult};
use crate::obs::{self, Metric, Phase};
use crate::record::{InputSplit, KvPair, Mapper, Reducer};
use crate::sort::{sort_pairs, BlockMergeStream, MergeItem};
use crate::stats::JobStats;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A retry-capable work queue shared by one phase's slots.
///
/// Tasks carry an attempt number; a failed attempt can be re-queued
/// (bounded by the job's retry budget) instead of aborting the job.
/// `in_flight` tracks claimed-but-unfinished tasks so idle slots block
/// on the condvar — a task they are waiting on may yet fail and come
/// back. The abort flag uses `Release`/`Acquire` so a raised abort (and
/// the error write that preceded it) is visible to every slot before it
/// claims another task.
///
/// Built on `std::sync` (not the project's `parking_lot` shim) because
/// the retry path needs a condvar.
pub(crate) struct WorkQueue<T> {
    state: std::sync::Mutex<QueueState<T>>,
    ready: std::sync::Condvar,
    abort: AtomicBool,
}

struct QueueState<T> {
    /// `(task, attempt)` pairs awaiting a slot, FIFO.
    pending: VecDeque<(T, u32)>,
    /// Tasks claimed but neither finished nor re-queued.
    in_flight: usize,
}

impl<T> WorkQueue<T> {
    pub(crate) fn new(items: Vec<T>) -> Self {
        WorkQueue {
            state: std::sync::Mutex::new(QueueState {
                pending: items.into_iter().map(|t| (t, 0)).collect(),
                in_flight: 0,
            }),
            ready: std::sync::Condvar::new(),
            abort: AtomicBool::new(false),
        }
    }

    /// Lock the queue state, recovering a poisoned guard. The queue's
    /// invariants hold across every `await`-free critical section (each
    /// lock holder only pushes/pops/counts), so a panic elsewhere in a
    /// worker thread never leaves the state half-updated — propagating
    /// the poison would turn one task's panic into a cascade through
    /// every sibling slot instead of the retry/abort path.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Claim the next `(task, attempt)`, blocking while other slots hold
    /// tasks that might still be re-queued. `None` once the queue is
    /// drained (empty with nothing in flight) or aborted.
    pub(crate) fn claim(&self) -> Option<(T, u32)> {
        let mut state = self.lock_state();
        loop {
            if self.abort.load(Ordering::Acquire) {
                return None;
            }
            if let Some(claimed) = state.pending.pop_front() {
                state.in_flight += 1;
                return Some(claimed);
            }
            if state.in_flight == 0 {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Claim without blocking: `Some` if a task is pending right now.
    pub(crate) fn try_claim(&self) -> Option<(T, u32)> {
        if self.abort.load(Ordering::Acquire) {
            return None;
        }
        let mut state = self.lock_state();
        let claimed = state.pending.pop_front();
        if claimed.is_some() {
            state.in_flight += 1;
        }
        claimed
    }

    /// Whether every task has been retired: nothing pending, nothing in
    /// flight. Distinct from "temporarily empty" — an in-flight task may
    /// still fail and come back.
    pub(crate) fn is_drained(&self) -> bool {
        let state = self.lock_state();
        state.pending.is_empty() && state.in_flight == 0
    }

    /// Whether the abort flag has been raised.
    pub(crate) fn is_aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// Retire a claimed task (success, or failure that will not retry).
    pub(crate) fn finish(&self) {
        let mut state = self.lock_state();
        state.in_flight -= 1;
        if state.in_flight == 0 {
            drop(state);
            self.ready.notify_all();
        }
    }

    /// Put a failed task back with its next attempt number.
    pub(crate) fn requeue(&self, task: T, attempt: u32) {
        let mut state = self.lock_state();
        state.in_flight -= 1;
        state.pending.push_back((task, attempt));
        drop(state);
        self.ready.notify_all();
    }

    /// Raise the abort flag and wake every waiting slot. The lock is
    /// taken before notifying so a slot between its abort check and its
    /// condvar wait cannot miss the wakeup.
    pub(crate) fn abort(&self) {
        self.abort.store(true, Ordering::Release);
        let _state = self.lock_state();
        self.ready.notify_all();
    }
}

/// Keeps the queue's `in_flight` count correct even when a task body
/// panics: an armed guard dropped during unwind aborts the queue and
/// retires the claim, so sibling slots blocked on the condvar wake up
/// and exit instead of deadlocking the scope join.
struct InFlightGuard<'a, T> {
    queue: &'a WorkQueue<T>,
    armed: bool,
}

impl<'a, T> InFlightGuard<'a, T> {
    fn new(queue: &'a WorkQueue<T>) -> Self {
        InFlightGuard { queue, armed: true }
    }

    fn complete(mut self) {
        self.armed = false;
        self.queue.finish();
    }

    fn requeue(mut self, task: T, attempt: u32) {
        self.armed = false;
        self.queue.requeue(task, attempt);
    }

    fn fail(mut self) {
        self.armed = false;
        self.queue.abort();
        self.queue.finish();
    }
}

impl<T> Drop for InFlightGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            self.queue.abort();
            self.queue.finish();
        }
    }
}

/// Drive one phase's tasks through `slots` worker threads with per-task
/// retry. `run` executes one attempt of task `id` and must leave shared
/// state untouched on `Err` (the map path commits only on success; the
/// reduce path restores its segments before returning an error). Failed
/// attempts re-queue or abort the queue as [`retry_after_failure`]
/// decides.
fn drive_slots<I, F>(
    config: &JobConfig,
    label: &str,
    items: Vec<(usize, I)>,
    slots: usize,
    counters: &Counters,
    errors: &Mutex<Vec<MrError>>,
    run: F,
) where
    I: Send,
    F: Fn(usize, &I, u32) -> Result<(), MrError> + Sync,
{
    let queue = WorkQueue::new(items);
    std::thread::scope(|scope| {
        for slot in 0..slots {
            let queue = &queue;
            let run = &run;
            scope.spawn(move || {
                let _att = config
                    .recorder
                    .as_ref()
                    .map(|r| r.attach(&format!("{label}-slot-{slot}")));
                while let Some(((id, item), attempt)) = queue.claim() {
                    let guard = InFlightGuard::new(queue);
                    match run_attempt(&run, id, &item, attempt) {
                        Ok(()) => guard.complete(),
                        Err(e) => {
                            if retry_after_failure(config, counters, errors, id, attempt, e) {
                                guard.requeue((id, item), attempt + 1);
                            } else {
                                guard.fail();
                            }
                        }
                    }
                }
            });
        }
    });
}

/// The job's retry policy, shared by the local slots and the distributed
/// coordinator: count detected corruption, then either charge a retry and
/// back off deterministically (`retry_backoff * 2^attempt`, metered as a
/// [`Phase::Retry`] span) or, with the budget exhausted, collect the
/// error. Returns whether the caller should re-queue the task; on `false`
/// it must abort its queues.
pub(crate) fn retry_after_failure(
    config: &JobConfig,
    counters: &Counters,
    errors: &Mutex<Vec<MrError>>,
    task: usize,
    attempt: u32,
    err: MrError,
) -> bool {
    if err.is_checksum() {
        counters.add(Counter::ChecksumFailures, 1);
    }
    if attempt >= config.task_retries {
        errors.lock().push(err);
        return false;
    }
    counters.add(Counter::TaskRetries, 1);
    let backoff = config.retry_backoff.saturating_mul(1u32 << attempt.min(20));
    let _retry_span = crate::span!(Phase::Retry, task);
    obs::hist(Metric::RetryBackoffNanos, backoff.as_nanos() as u64);
    if !backoff.is_zero() {
        std::thread::sleep(backoff);
    }
    true
}

/// Run one task attempt, converting a panic in the task body into a
/// retryable [`MrError::TaskFailed`]. A panicking user function (or a
/// bug in a task path) then flows through the same retry/abort machinery
/// as a returned error instead of unwinding through `thread::scope` and
/// cascading into every sibling slot.
fn run_attempt<I, F>(run: &F, id: usize, item: &I, attempt: u32) -> Result<(), MrError>
where
    F: Fn(usize, &I, u32) -> Result<(), MrError> + Sync,
{
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(id, item, attempt))) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(MrError::TaskFailed(format!(
                "task {id} attempt {attempt} panicked: {msg}"
            )))
        }
    }
}

/// Consult the job's fault plan (if any) at the start of a task attempt:
/// apply an artificial slow-down, then possibly fail the attempt with an
/// injected error. Injection counters are charged to the job-wide bank —
/// they describe the harness, not the (discarded) attempt.
pub(crate) fn fault_gate(
    config: &JobConfig,
    counters: &Counters,
    task: u64,
    attempt: u32,
    reduce: bool,
) -> Result<(), MrError> {
    let Some(plan) = &config.faults else {
        return Ok(());
    };
    if let Some(delay) = plan.slow(task, attempt) {
        counters.add(Counter::FaultsInjected, 1);
        std::thread::sleep(delay);
    }
    let hit = if reduce {
        plan.reduce_error(task, attempt)
    } else {
        plan.map_error(task, attempt)
    };
    if hit {
        counters.add(Counter::FaultsInjected, 1);
        return Err(MrError::TaskFailed(format!(
            "injected {} fault: task {task} attempt {attempt}",
            if reduce { "reduce" } else { "map" }
        )));
    }
    Ok(())
}

/// Execute a job. Called by [`crate::job::Job::run`].
pub fn run_job(
    config: &JobConfig,
    splits: Vec<InputSplit>,
    mapper: Arc<dyn Mapper>,
    reducer: Arc<dyn Reducer>,
) -> Result<JobResult, MrError> {
    let counters = Arc::new(Counters::new());
    let num_maps = splits.len();
    let input_bytes: u64 = splits.iter().map(|s| s.bytes()).sum();

    // ---- Map phase -----------------------------------------------------
    let map_t0 = Instant::now();
    // map_outputs[r] = (map task, compressed segment) destined for
    // reducer r, pushed in completion order and canonicalized below.
    type PartitionSegments = Mutex<Vec<(usize, Vec<u8>)>>;
    let map_outputs: Vec<PartitionSegments> = (0..config.num_reducers)
        .map(|_| Mutex::new(Vec::new()))
        .collect();
    let errors: Mutex<Vec<MrError>> = Mutex::new(Vec::new());

    drive_slots(
        config,
        "map",
        splits.into_iter().enumerate().collect(),
        config.map_slots,
        &counters,
        &errors,
        |task, split, attempt| {
            fault_gate(config, &counters, task as u64, attempt, false)?;
            // Attempt-local counters, absorbed only on success: a failed
            // attempt charges nothing, so a retried job reports the same
            // semantic counters as a clean one.
            let local = Counters::new();
            let segments = run_map_task(config, task, split, mapper.as_ref(), &local)?;
            counters.absorb(&local.snapshot());
            for (partition, seg) in segments {
                map_outputs[partition].lock().push((task, seg.data));
            }
            Ok(())
        },
    );
    {
        let collected = std::mem::take(&mut *errors.lock());
        if !collected.is_empty() {
            return Err(MrError::from_task_errors(collected));
        }
    }
    let map_wall_nanos = map_t0.elapsed().as_nanos() as u64;

    // ---- Shuffle (in-process: account the transfer) ---------------------
    // Canonicalize each reducer's segment list to map-task order. Slots
    // finish maps in a nondeterministic order; the fetch order (and with
    // it every per-index decision, like injected corruption coordinates)
    // must not depend on that race — the distributed runtime streams
    // segments in this same order, which is what makes its runs
    // byte-identical to local ones.
    let map_outputs: Vec<Mutex<Vec<Vec<u8>>>> = map_outputs
        .into_iter()
        .map(|m| {
            let mut tagged = m.into_inner();
            tagged.sort_by_key(|(task, _)| *task);
            Mutex::new(tagged.into_iter().map(|(_, data)| data).collect())
        })
        .collect();
    for per_reducer in &map_outputs {
        let bytes: u64 = per_reducer.lock().iter().map(|s| s.len() as u64).sum();
        counters.add(Counter::ShuffleBytes, bytes);
    }
    // The local runner keeps every segment resident, so its shuffle
    // high-water mark is the full shuffle volume — the same value an
    // unbounded distributed store reports, which keeps local and
    // distributed ledgers comparable.
    counters.add(
        Counter::ShuffleMemHighWater,
        counters.get(Counter::ShuffleBytes),
    );

    // ---- Reduce phase ----------------------------------------------------
    let reduce_t0 = Instant::now();
    let outputs: Vec<Mutex<Vec<KvPair>>> = (0..config.num_reducers)
        .map(|_| Mutex::new(Vec::new()))
        .collect();
    drive_slots(
        config,
        "reduce",
        (0..config.num_reducers).map(|r| (r, ())).collect(),
        config.reduce_slots,
        &counters,
        &errors,
        |task, _item, attempt| {
            fault_gate(config, &counters, task as u64, attempt, true)?;
            // Taken segments are restored on every non-success exit —
            // an `Err`, or a panic unwinding out of the reducer (caught
            // in `run_attempt`) — so the retry can re-fetch them.
            struct Restore<'a> {
                slot: &'a Mutex<Vec<Vec<u8>>>,
                segments: Option<Vec<Vec<u8>>>,
            }
            impl Drop for Restore<'_> {
                fn drop(&mut self) {
                    if let Some(segments) = self.segments.take() {
                        *self.slot.lock() = segments;
                    }
                }
            }
            let mut fetched = Restore {
                slot: &map_outputs[task],
                segments: Some(std::mem::take(&mut *map_outputs[task].lock())),
            };
            let segments = fetched.segments.as_deref().expect("segments just taken");
            // Injected corruption counts against the job-wide bank here
            // (the attempt-local bank below is discarded on failure, and
            // a corrupted segment is designed to fail the attempt).
            if let Some(plan) = &config.faults {
                let injected = (0..segments.len())
                    .filter(|&i| plan.corruption(task as u64, attempt, i as u64).is_some())
                    .count() as u64;
                counters.add(Counter::FaultsInjected, injected);
            }
            let local = Counters::new();
            let out = run_reduce_task(
                config,
                task,
                segments,
                reducer.as_ref(),
                &local,
                attempt,
                true,
            )?;
            fetched.segments = None; // success: the take sticks
            counters.absorb(&local.snapshot());
            *outputs[task].lock() = out;
            Ok(())
        },
    );
    {
        let collected = std::mem::take(&mut *errors.lock());
        if !collected.is_empty() {
            return Err(MrError::from_task_errors(collected));
        }
    }
    let reduce_wall_nanos = reduce_t0.elapsed().as_nanos() as u64;

    finish_job(
        config,
        &counters,
        outputs.into_iter().map(|m| m.into_inner()).collect(),
        num_maps,
        input_bytes,
        map_wall_nanos,
        reduce_wall_nanos,
    )
}

/// The tail of every completed job, local or distributed: snapshot the
/// counters, check their invariants, derive the stats and append the
/// run-ledger record.
pub(crate) fn finish_job(
    config: &JobConfig,
    counters: &Counters,
    outputs: Vec<Vec<KvPair>>,
    num_maps: usize,
    input_bytes: u64,
    map_wall_nanos: u64,
    reduce_wall_nanos: u64,
) -> Result<JobResult, MrError> {
    let snapshot = counters.snapshot();
    // Cross-counter accounting must balance on every completed job; a
    // violation means an instrumentation site drifted (satellite check,
    // debug builds only — see CounterSnapshot::check_invariants).
    #[cfg(debug_assertions)]
    if let Err(violations) = snapshot.check_invariants(config.framing.file_overhead() as u64) {
        panic!("counter invariants violated on job completion: {violations:#?}");
    }
    let stats = JobStats::from_counters(
        &snapshot,
        num_maps,
        config.num_reducers,
        input_bytes,
        map_wall_nanos,
        reduce_wall_nanos,
    );
    let result = JobResult {
        outputs,
        counters: snapshot,
        stats,
    };
    // Run-ledger hook: one record per completed job. The runner has no
    // drained trace (the recorder, if any, is still live and owned by
    // the caller), so phase rollups and histograms stay empty here;
    // callers that own the recorder build richer records themselves via
    // `LedgerRecord::from_run(.., Some(&trace))`.
    if let Some(sink) = &config.ledger {
        let record = obs::LedgerRecord::from_run(&config.ledger_label, config, &result, None);
        sink.append(record)
            .map_err(|e| MrError::Config(format!("ledger append failed: {e}")))?;
    }
    Ok(result)
}

/// Build an intermediate-segment writer for the job's configured IFile
/// version. Every map-side writer site goes through this so a version
/// switch changes spill, merge, and final outputs together.
fn make_writer(config: &JobConfig) -> IFileWriter {
    match config.ifile_version {
        IFileVersion::V1 => IFileWriter::without_trailer(config.framing, config.codec.clone()),
        IFileVersion::V2 => IFileWriter::new(config.framing, config.codec.clone()),
        IFileVersion::V3 => IFileWriter::v3(
            config.framing,
            config.codec.clone(),
            config.key_semantics.clone(),
        ),
    }
}

/// One map task: run the user function over a split, routing into the
/// spill arena, then sorting, combining and materializing spills through
/// borrowed slices — no owned pair is allocated between the mapper's
/// `emit` and the `IFileWriter`.
pub(crate) fn run_map_task(
    config: &JobConfig,
    task: usize,
    split: &InputSplit,
    mapper: &dyn Mapper,
    counters: &Counters,
) -> Result<Vec<(usize, Segment)>, MrError> {
    let ks = &config.key_semantics;
    let parts = config.num_reducers;
    // Contiguous staging; spilled (sorted, combined, compressed) when the
    // total staged payload crosses the spill threshold.
    let mut arena = SpillArena::new(parts);
    let mut segments = Vec::new();

    let spill = |arena: &mut SpillArena,
                 segments: &mut Vec<(usize, Segment)>|
     -> Result<(), MrError> {
        if arena.payload_bytes() == 0 {
            return Ok(());
        }
        counters.add(Counter::Spills, 1);
        let _spill_span = crate::span!(Phase::SortSpill, task);
        obs::hist(Metric::SpillPayloadBytes, arena.payload_bytes() as u64);
        let spill_t0 = clock::thread_cpu_nanos();
        let first_new = segments.len();
        for partition in 0..parts {
            if arena.partition_len(partition) == 0 {
                continue;
            }
            arena.sort_partition(partition, ks.as_ref());
            let mut writer = make_writer(config);
            let combined: Option<Vec<KvPair>> = if let Some(combiner) = &config.combiner {
                let _combine_span = crate::span!(Phase::Combine, task);
                let input = arena.partition_len(partition) as u64;
                counters.add(Counter::CombineInputRecords, input);
                let mut combined: Vec<KvPair> = Vec::with_capacity(arena.partition_len(partition));
                arena.for_each_group(partition, ks.as_ref(), |key, values| {
                    combiner.reduce(key, values, &mut |k: &[u8], v: &[u8]| {
                        combined.push(KvPair::new(k.to_vec(), v.to_vec()));
                    });
                });
                sort_pairs(&mut combined, ks.as_ref());
                counters.add(Counter::CombineOutputRecords, combined.len() as u64);
                obs::hist_many(&[
                    (Metric::CombineInput, input),
                    (Metric::CombineOutput, combined.len() as u64),
                    (
                        Metric::CombineReductionPermille,
                        (combined.len() as u64).saturating_mul(1000) / input.max(1),
                    ),
                ]);
                Some(combined)
            } else {
                None
            };
            let seg = {
                let _write_span = crate::span!(Phase::IFileWrite, task);
                match &combined {
                    Some(pairs) => {
                        for pair in pairs {
                            writer.append_pair(pair);
                        }
                    }
                    None => {
                        for (key, value) in arena.pairs(partition) {
                            writer.append(key, value);
                        }
                    }
                }
                writer.close()
            };
            counters.add(Counter::CompressNanos, seg.compress_nanos);
            segments.push((partition, seg));
        }
        // Codec time is counted separately; charge the rest of the spill
        // (sort + combine + serialization) as per-record pipeline cost.
        let spill_nanos = clock::since(spill_t0);
        let codec_nanos: u64 = segments[first_new..]
            .iter()
            .map(|(_, s)| s.compress_nanos)
            .sum();
        counters.add(Counter::SpillNanos, spill_nanos.saturating_sub(codec_nanos));
        arena.clear();
        Ok(())
    };

    // Per-record tallies stay in task-local integers and reach the
    // (atomic) counter bank once, after the last record.
    let mut output_records = 0u64;
    let mut route_split_records = 0u64;
    let mut emit_into = |arena: &mut SpillArena, key: &[u8], value: &[u8]| {
        let pieces = stage(ks.as_ref(), parts, arena, key, value);
        output_records += pieces;
        route_split_records += pieces.saturating_sub(1);
    };
    let fn_t0 = clock::thread_cpu_nanos();
    {
        let _emit_span = crate::span!(Phase::MapEmit, task);
        mapper.start();
        for record in &split.records {
            mapper.map(&record.key, &record.value, &mut |k: &[u8], v: &[u8]| {
                emit_into(&mut arena, k, v)
            });
            if arena.payload_bytes() >= config.spill_buffer_bytes {
                spill(&mut arena, &mut segments)?;
            }
        }
        mapper.finish(&mut |k: &[u8], v: &[u8]| emit_into(&mut arena, k, v));
    }
    counters.add(Counter::MapFnNanos, clock::since(fn_t0));
    counters.add(Counter::MapInputRecords, split.records.len() as u64);
    counters.add(Counter::MapOutputRecords, output_records);
    counters.add(Counter::RouteSplitRecords, route_split_records);
    spill(&mut arena, &mut segments)?;

    // Final merge: if a partition spilled several times, merge its runs
    // into one segment (Hadoop's map-output merge, Fig. 1 step 3).
    let segments = merge_spills(config, task, segments, counters)?;

    // Byte accounting happens on the *final* materialized output only.
    // The segment histograms sample at this exact site so their sums
    // reconcile with the counters (see obs::IntermediateBreakdown).
    for (_, seg) in &segments {
        counters.add(Counter::MapOutputBytes, seg.raw_bytes);
        counters.add(Counter::MapOutputKeyBytes, seg.key_bytes);
        counters.add(Counter::MapOutputValueBytes, seg.value_bytes);
        counters.add(Counter::MapOutputFramingBytes, seg.framing_bytes());
        counters.add(Counter::MapOutputKeySavedBytes, seg.key_saved_bytes());
        counters.add(Counter::BlocksWritten, seg.blocks);
        counters.add(
            Counter::MapOutputMaterializedBytes,
            seg.materialized_bytes(),
        );
        counters.add(Counter::MapOutputSegments, 1);
        obs::observe_segment(
            seg.key_bytes,
            seg.value_bytes,
            seg.framing_bytes(),
            seg.key_saved_bytes(),
            seg.raw_bytes,
            seg.materialized_bytes(),
        );
        if seg.blocks > 0 {
            obs::hist(Metric::SegBlocks, seg.blocks);
        }
    }
    Ok(segments)
}

/// Route one emitted pair into the arena through the slice-based routing
/// hook; returns how many records it became (more than one when the
/// routing path split the key).
fn stage(
    ks: &dyn crate::keysem::KeySemantics,
    parts: usize,
    arena: &mut SpillArena,
    key: &[u8],
    value: &[u8],
) -> u64 {
    obs::hist_many(&[
        (Metric::MapEmitRecordBytes, (key.len() + value.len()) as u64),
        (Metric::MapEmitKeyBytes, key.len() as u64),
        (Metric::MapEmitValueBytes, value.len() as u64),
    ]);
    let mut pieces = 0u64;
    ks.route_slices(key, value, parts, &mut |partition, k, v| {
        debug_assert!(partition < parts, "partition out of range");
        pieces += 1;
        arena.append(partition, k, v);
    });
    pieces
}

/// Merge multi-spill partitions into one sorted segment each. Single-spill
/// partitions pass through untouched (no decompress/recompress cost).
fn merge_spills(
    config: &JobConfig,
    task: usize,
    segments: Vec<(usize, Segment)>,
    counters: &Counters,
) -> Result<Vec<(usize, Segment)>, MrError> {
    let multi = {
        let mut counts = vec![0usize; config.num_reducers];
        for (p, _) in &segments {
            counts[*p] += 1;
        }
        counts.iter().any(|&c| c > 1)
    };
    if !multi {
        return Ok(segments);
    }
    let merge_t0 = clock::thread_cpu_nanos();
    let mut per_partition: Vec<Vec<Segment>> =
        (0..config.num_reducers).map(|_| Vec::new()).collect();
    for (p, seg) in segments {
        per_partition[p].push(seg);
    }
    let mut out = Vec::new();
    let mut codec_nanos = 0u64;
    for (partition, segs) in per_partition.into_iter().enumerate() {
        match segs.len() {
            0 => {}
            // Structured error instead of a panic: an inconsistent
            // partition map here (or a gap observed by a distributed
            // fetch) must fail the task attempt — which is retryable —
            // not the process.
            1 => match segs.into_iter().next() {
                Some(seg) => out.push((partition, seg)),
                None => {
                    return Err(MrError::Intermediate(format!(
                        "partition {partition} of map task {task}: segment list \
                         empty despite count 1 — partition map inconsistent"
                    )))
                }
            },
            _ => {
                let _merge_span = crate::span!(Phase::Merge, task);
                let mut raws = Vec::with_capacity(segs.len());
                for seg in &segs {
                    let r = RawSegment::open(&seg.data, config.codec.as_ref())?;
                    codec_nanos += r.decompress_nanos;
                    raws.push(r);
                }
                let mut writer = make_writer(config);
                // Still-encoded v3 blocks whose key range is uncontended
                // splice straight into the output segment.
                let mut stream = BlockMergeStream::new(&raws, config.key_semantics.as_ref())?;
                loop {
                    match stream.next_item()? {
                        None => break,
                        Some(MergeItem::Record(key, value)) => writer.append(key, value),
                        Some(MergeItem::Block(blk)) => {
                            counters.add(Counter::BlocksSkipped, 1);
                            writer.append_encoded_block(&blk)?;
                        }
                    }
                }
                let seg = writer.close();
                codec_nanos += seg.compress_nanos;
                counters.add(Counter::CompressNanos, seg.compress_nanos);
                out.push((partition, seg));
            }
        }
    }
    let merge_nanos = clock::since(merge_t0);
    counters.add(Counter::SpillNanos, merge_nanos.saturating_sub(codec_nanos));
    Ok(out)
}

/// One reduce task: stream this reducer's segments through a k-way
/// merge, apply the §IV-B sort-split hook lazily per overlap window,
/// group, and run the user reduce function. Grouping and reduce consume
/// records as the merge heap yields them; nothing is materialized as a
/// whole run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_reduce_task(
    config: &JobConfig,
    task: usize,
    segments: &[Vec<u8>],
    reducer: &dyn Reducer,
    counters: &Counters,
    attempt: u32,
    apply_corruption: bool,
) -> Result<Vec<KvPair>, MrError> {
    let ks = &config.key_semantics;
    let mut raws = Vec::with_capacity(segments.len());
    {
        let _fetch_span = crate::span!(Phase::ShuffleFetch, task);
        for (index, seg) in segments.iter().enumerate() {
            obs::hist(Metric::ShuffleSegmentBytes, seg.len() as u64);
            // A configured fault plan may corrupt the fetched copy of a
            // segment (the canonical map output stays intact, as it
            // would on the mapper's disk); the hot path borrows. The
            // distributed worker passes `apply_corruption = false`: its
            // segments were already corrupted on the wire by the shuffle
            // service at the same (task, attempt, index) coordinates.
            let corruption = if apply_corruption {
                config
                    .faults
                    .as_ref()
                    .and_then(|p| p.corruption(task as u64, attempt, index as u64))
            } else {
                None
            };
            let r = match corruption {
                Some(c) => {
                    let mut fetched = seg.clone();
                    c.apply(&mut fetched);
                    RawSegment::open(&fetched, config.codec.as_ref())?
                }
                None => RawSegment::open(seg, config.codec.as_ref())?,
            };
            counters.add(Counter::DecompressNanos, r.decompress_nanos);
            raws.push(r);
        }
    }
    let merge_t0 = clock::thread_cpu_nanos();
    let merge_span = crate::span!(Phase::Merge, task);
    let mut stream = BlockMergeStream::new(&raws, ks.as_ref())?;
    let mut groups = GroupRunner::new(task, reducer);

    if !ks.sort_splits() {
        // Fast path: keys never rewrite, so groups form directly on the
        // merged stream. Group keys are copied into the batch's buffer (a
        // key borrow dies at the next `next()` call); values stay
        // borrowed from the segments.
        let mut batch = GroupBatch::default();
        while let Some((key, value)) = stream.next()? {
            if !batch.continues_group(ks.as_ref(), key) {
                if batch.len() == REDUCE_BATCH_GROUPS {
                    groups.run(&mut batch);
                }
                batch.start_group(key);
            }
            batch.push_value(value);
        }
        groups.run(&mut batch);
    } else {
        // Windowed path: records accumulate only while they can still
        // interact under `sort_split`; each window is split, re-sorted if
        // the split disturbed the order, and grouped — instead of
        // materializing and re-sorting the entire run.
        let mut window: Vec<KvPair> = Vec::new();
        let mut flush = |window: &mut Vec<KvPair>| {
            let _split_span = crate::span!(Phase::SortSplit, task);
            let before = window.len();
            obs::hist(Metric::SortSplitWindowRecords, before as u64);
            let mut records = ks.sort_split(std::mem::take(window));
            if records.len() > before {
                counters.add(Counter::SortSplitRecords, (records.len() - before) as u64);
            }
            // Skip the re-sort when nothing split and the order survived.
            let sorted = records
                .windows(2)
                .all(|w| ks.compare(&w[0].key, &w[1].key) != std::cmp::Ordering::Greater);
            if records.len() != before || !sorted {
                sort_pairs(&mut records, ks.as_ref());
            }
            // One batch per window: its values borrow the window's records.
            let mut batch = GroupBatch::default();
            for record in &records {
                if !batch.continues_group(ks.as_ref(), &record.key) {
                    batch.start_group(&record.key);
                }
                batch.push_value(&record.value);
            }
            groups.run(&mut batch);
        };
        // Window members that can still interact with future records; a
        // member failing against one record can never interact again (the
        // closure contract), so it is pruned from all future checks.
        let mut frontier: Vec<usize> = Vec::new();
        while let Some((key, value)) = stream.next()? {
            if !window.is_empty() {
                frontier.retain(|&i| ks.sort_interacts(&window[i].key, key));
                if frontier.is_empty() {
                    flush(&mut window);
                }
            }
            frontier.push(window.len());
            window.push(KvPair::new(key.to_vec(), value.to_vec()));
        }
        if !window.is_empty() {
            flush(&mut window);
        }
    }
    drop(merge_span);
    // The reduce function's share is what the batch runs measured; the
    // rest of the loop's thread CPU is merging, splitting and grouping.
    let total_nanos = clock::since(merge_t0);
    counters.add(
        Counter::MergeNanos,
        total_nanos.saturating_sub(groups.reduce_nanos),
    );
    counters.add(Counter::ReduceFnNanos, groups.reduce_nanos);
    counters.add(Counter::ReduceInputGroups, groups.input_groups);
    counters.add(Counter::ReduceInputRecords, groups.input_records);
    counters.add(Counter::ReduceOutputRecords, groups.out.len() as u64);
    counters.add(Counter::ReduceOutputBytes, groups.output_bytes);
    Ok(groups.out)
}

/// Key groups a reduce task runs its reduce function over in one go, so
/// the thread-CPU clock is read per batch instead of around every group.
const REDUCE_BATCH_GROUPS: usize = 64;

/// Key groups formed on the merged stream and not yet reduced. Keys are
/// copied into one reused buffer; values are borrowed (`'v`) from
/// wherever the records live.
#[derive(Default)]
struct GroupBatch<'v> {
    keys: Vec<u8>,
    values: Vec<&'v [u8]>,
    /// Per group, where its key starts in `keys` and its values start in
    /// `values`; it ends where the next group starts.
    starts: Vec<(usize, usize)>,
}

impl<'v> GroupBatch<'v> {
    fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether `key` belongs to the group started last.
    fn continues_group(&self, ks: &dyn crate::keysem::KeySemantics, key: &[u8]) -> bool {
        self.starts
            .last()
            .is_some_and(|&(key_start, _)| ks.group_eq(&self.keys[key_start..], key))
    }

    fn start_group(&mut self, key: &[u8]) {
        self.starts.push((self.keys.len(), self.values.len()));
        self.keys.extend_from_slice(key);
    }

    /// Add a value to the group started last.
    fn push_value(&mut self, value: &'v [u8]) {
        self.values.push(value);
    }

    /// The groups in order: `(key, values)`.
    fn groups(&self) -> impl Iterator<Item = (&[u8], &[&'v [u8]])> {
        let ends = self
            .starts
            .iter()
            .skip(1)
            .copied()
            .chain([(self.keys.len(), self.values.len())]);
        self.starts
            .iter()
            .zip(ends)
            .map(|(&(k0, v0), (k1, v1))| (&self.keys[k0..k1], &self.values[v0..v1]))
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
        self.starts.clear();
    }
}

/// Runs the reduce function over batches of groups for one reduce task,
/// collecting its output and the task-local tallies that reach the
/// counter bank once, when the task succeeds.
struct GroupRunner<'r> {
    task: usize,
    reducer: &'r dyn Reducer,
    out: Vec<KvPair>,
    input_groups: u64,
    input_records: u64,
    output_bytes: u64,
    /// Thread CPU spent inside [`GroupRunner::run`]: the reduce function
    /// and the collection of what it emits.
    reduce_nanos: u64,
}

impl<'r> GroupRunner<'r> {
    fn new(task: usize, reducer: &'r dyn Reducer) -> Self {
        GroupRunner {
            task,
            reducer,
            out: Vec::new(),
            input_groups: 0,
            input_records: 0,
            output_bytes: 0,
            reduce_nanos: 0,
        }
    }

    /// Reduce every group of `batch`, in order, and empty it.
    fn run(&mut self, batch: &mut GroupBatch<'_>) {
        if batch.len() == 0 {
            return;
        }
        let _batch_span = crate::span!(Phase::ReduceGroup, self.task);
        let fn_t0 = clock::thread_cpu_nanos();
        let (out, output_bytes) = (&mut self.out, &mut self.output_bytes);
        let mut emit = |k: &[u8], v: &[u8]| {
            *output_bytes += (k.len() + v.len()) as u64;
            out.push(KvPair::new(k.to_vec(), v.to_vec()));
        };
        for (key, values) in batch.groups() {
            obs::hist(Metric::ReduceGroupValues, values.len() as u64);
            self.reducer.reduce(key, values, &mut emit);
        }
        self.reduce_nanos += clock::since(fn_t0);
        self.input_groups += batch.len() as u64;
        self.input_records += batch.values.len() as u64;
        batch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::record::{FnMapper, FnReducer};
    use scihadoop_compress::DeflateCodec;

    /// Word-count-shaped job: identity map, counting reduce.
    fn count_job(config: JobConfig, words: &[&str]) -> JobResult {
        let splits: Vec<InputSplit> = words
            .chunks(100)
            .map(|chunk| {
                InputSplit::new(
                    chunk
                        .iter()
                        .map(|w| KvPair::new(w.as_bytes().to_vec(), vec![1u8]))
                        .collect(),
                )
            })
            .collect();
        let mapper = Arc::new(FnMapper(
            |k: &[u8], v: &[u8], out: &mut dyn crate::record::Emit| {
                out.emit(k, v);
            },
        ));
        let reducer = Arc::new(FnReducer(
            |k: &[u8], values: &[&[u8]], out: &mut dyn crate::record::Emit| {
                let total: u64 = values.iter().map(|v| v.len() as u64).sum();
                out.emit(k, &total.to_be_bytes());
            },
        ));
        Job::new(config).run(splits, mapper, reducer).unwrap()
    }

    fn collect_counts(result: &JobResult) -> std::collections::HashMap<String, u64> {
        result
            .all_outputs()
            .into_iter()
            .map(|p| {
                (
                    String::from_utf8(p.key).unwrap(),
                    u64::from_be_bytes(p.value.try_into().unwrap()),
                )
            })
            .collect()
    }

    #[test]
    fn word_count_end_to_end() {
        let words = ["a", "b", "a", "c", "b", "a", "d"];
        let result = count_job(JobConfig::default().with_reducers(3), &words);
        let counts = collect_counts(&result);
        assert_eq!(counts["a"], 3);
        assert_eq!(counts["b"], 2);
        assert_eq!(counts["c"], 1);
        assert_eq!(counts["d"], 1);
        assert_eq!(result.counters.get(Counter::MapInputRecords), 7);
        assert_eq!(result.counters.get(Counter::MapOutputRecords), 7);
        assert_eq!(result.counters.get(Counter::ReduceInputGroups), 4);
    }

    #[test]
    fn completed_jobs_append_ledger_records() {
        let sink = crate::obs::LedgerSink::new();
        let words = ["a", "b", "a", "c"];
        let result = count_job(
            JobConfig::default().with_ledger(sink.clone(), "unit-run"),
            &words,
        );
        let records = sink.records();
        assert_eq!(records.len(), 1, "one record per completed job");
        let rec = &records[0];
        assert_eq!(rec.label, "unit-run");
        assert_eq!(rec.config.codec, "identity");
        assert_eq!(rec.job.num_maps as usize, result.stats.num_maps);
        assert_eq!(
            rec.counters.get(Counter::MapInputRecords),
            result.counters.get(Counter::MapInputRecords)
        );
        // The runner owns no drained trace, so rollups stay empty.
        assert!(rec.phases.iter().all(|p| p.count == 0));
        assert!(rec.hists.is_empty());
    }

    #[test]
    fn outputs_are_sorted_within_each_reducer() {
        let words = ["q", "m", "z", "a", "f", "b", "x", "c"];
        let result = count_job(JobConfig::default().with_reducers(2), &words);
        for out in &result.outputs {
            assert!(out.windows(2).all(|w| w[0].key <= w[1].key));
        }
    }

    #[test]
    fn compressing_codec_reduces_materialized_bytes() {
        let words: Vec<String> = (0..500).map(|i| format!("key{:04}", i % 20)).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let plain = count_job(JobConfig::default(), &refs);
        let zipped = count_job(
            JobConfig::default().with_codec(Arc::new(DeflateCodec::new())),
            &refs,
        );
        assert_eq!(collect_counts(&plain), collect_counts(&zipped));
        assert!(
            zipped.counters.get(Counter::MapOutputMaterializedBytes)
                < plain.counters.get(Counter::MapOutputMaterializedBytes)
        );
        assert_eq!(
            plain.counters.get(Counter::MapOutputBytes),
            zipped.counters.get(Counter::MapOutputBytes),
            "raw bytes must not depend on codec"
        );
    }

    #[test]
    fn combiner_shrinks_intermediate_records() {
        let words: Vec<String> = (0..300).map(|i| format!("w{}", i % 5)).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let combiner = Arc::new(FnReducer(
            |k: &[u8], values: &[&[u8]], out: &mut dyn crate::record::Emit| {
                // Sum the 1-byte tallies into an 8-byte partial count.
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
        let splits: Vec<InputSplit> = refs
            .chunks(100)
            .map(|chunk| {
                InputSplit::new(
                    chunk
                        .iter()
                        .map(|w| KvPair::new(w.as_bytes().to_vec(), vec![1u8]))
                        .collect(),
                )
            })
            .collect();
        let mapper = Arc::new(FnMapper(
            |k: &[u8], v: &[u8], out: &mut dyn crate::record::Emit| out.emit(k, v),
        ));
        let reducer = Arc::new(FnReducer(
            |k: &[u8], values: &[&[u8]], out: &mut dyn crate::record::Emit| {
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
        let result = Job::new(JobConfig::default().with_combiner(combiner))
            .run(splits, mapper, reducer)
            .unwrap();
        let counts = collect_counts(&result);
        assert_eq!(counts.values().sum::<u64>(), 300);
        // 3 splits × 5 distinct words = at most 15 records materialized.
        assert!(result.counters.get(Counter::CombineOutputRecords) <= 15);
        assert_eq!(result.counters.get(Counter::CombineInputRecords), 300);
    }

    #[test]
    fn many_slots_agree_with_one_slot() {
        let words: Vec<String> = (0..200).map(|i| format!("k{}", i % 17)).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let serial = count_job(JobConfig::default().with_slots(1, 1), &refs);
        let parallel = count_job(
            JobConfig::default().with_slots(8, 4).with_reducers(4),
            &refs,
        );
        assert_eq!(collect_counts(&serial), collect_counts(&parallel));
    }

    #[test]
    fn small_spill_buffer_forces_multiple_spills() {
        let words: Vec<String> = (0..100).map(|i| format!("key-{i:03}")).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let result = count_job(JobConfig::default().with_spill_buffer(64), &refs);
        assert!(result.counters.get(Counter::Spills) > 1);
        assert_eq!(collect_counts(&result).len(), 100);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let result = count_job(JobConfig::default(), &[]);
        assert!(result.all_outputs().is_empty());
        assert_eq!(result.counters.get(Counter::MapInputRecords), 0);
    }

    #[test]
    fn v3_jobs_agree_with_v2_and_save_key_bytes() {
        let words: Vec<String> = (0..400).map(|i| format!("station-{:04}", i % 37)).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let v2 = count_job(JobConfig::default().with_reducers(3), &refs);
        let v3 = count_job(
            JobConfig::default()
                .with_reducers(3)
                .with_ifile_version(IFileVersion::V3),
            &refs,
        );
        assert_eq!(collect_counts(&v2), collect_counts(&v3));
        for (a, b) in v2.outputs.iter().zip(&v3.outputs) {
            assert_eq!(a, b, "per-reducer order must match v2 exactly");
        }
        assert!(v3.counters.get(Counter::BlocksWritten) > 0);
        assert!(
            v3.counters.get(Counter::MapOutputKeySavedBytes) > 0,
            "shared key prefixes must front-code away"
        );
        assert_eq!(v2.counters.get(Counter::MapOutputKeySavedBytes), 0);
        // Logical key/value accounting is format-independent.
        assert_eq!(
            v2.counters.get(Counter::MapOutputKeyBytes),
            v3.counters.get(Counter::MapOutputKeyBytes)
        );
        assert_eq!(
            v2.counters.get(Counter::MapOutputValueBytes),
            v3.counters.get(Counter::MapOutputValueBytes)
        );
    }

    #[test]
    fn v3_multi_spill_merge_splices_blocks() {
        // A tiny spill buffer forces several spills per partition, so the
        // map-side merge runs over v3 segments; presorted shards give the
        // merge disjoint stretches where whole blocks splice through.
        let words: Vec<String> = (0..600).map(|i| format!("key-{i:05}")).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let v3 = count_job(
            JobConfig::default()
                .with_spill_buffer(2048)
                .with_ifile_version(IFileVersion::V3),
            &refs,
        );
        assert!(v3.counters.get(Counter::Spills) > 1);
        let counts = collect_counts(&v3);
        assert_eq!(counts.len(), 600);
        assert!(counts.values().all(|&c| c == 1));
        assert!(v3.counters.get(Counter::BlocksSkipped) <= v3.counters.get(Counter::BlocksWritten));
    }

    #[test]
    fn v1_jobs_still_agree() {
        let words = ["a", "b", "a", "c", "b", "a", "d"];
        let v1 = count_job(
            JobConfig::default()
                .with_reducers(2)
                .with_ifile_version(IFileVersion::V1),
            &words,
        );
        let counts = collect_counts(&v1);
        assert_eq!(counts["a"], 3);
        assert_eq!(counts["d"], 1);
    }

    #[test]
    fn v3_with_codec_and_retries_round_trips() {
        let words: Vec<String> = (0..300).map(|i| format!("sensor-{:03}", i % 29)).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let result = count_job(
            JobConfig::default()
                .with_reducers(2)
                .with_codec(Arc::new(DeflateCodec::new()))
                .with_retries(1)
                .with_ifile_version(IFileVersion::V3),
            &refs,
        );
        let counts = collect_counts(&result);
        assert_eq!(counts.values().sum::<u64>(), 300);
    }

    #[test]
    fn work_queue_survives_poisoned_mutex() {
        // A thread panicking while holding the state lock poisons the
        // std mutex; queue operations must recover the guard instead of
        // cascading the panic into every other slot.
        let q = WorkQueue::new(vec![1usize]);
        let qref = &q;
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let _guard = qref.state.lock().unwrap();
                panic!("poison the queue mutex");
            });
            assert!(handle.join().is_err(), "the poisoning thread panicked");
        });
        assert!(q.state.is_poisoned(), "mutex must actually be poisoned");
        let claimed = q.claim();
        assert_eq!(claimed, Some((1usize, 0)));
        q.finish();
        assert!(q.is_drained());
        assert!(q.claim().is_none());
    }

    #[test]
    fn panicking_map_task_retries_instead_of_cascading() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let words: Vec<String> = (0..150).map(|i| format!("w{}", i % 11)).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let splits: Vec<InputSplit> = refs
            .chunks(50)
            .map(|chunk| {
                InputSplit::new(
                    chunk
                        .iter()
                        .map(|w| KvPair::new(w.as_bytes().to_vec(), vec![1u8]))
                        .collect(),
                )
            })
            .collect();
        let panics = Arc::new(AtomicU32::new(0));
        let panics_in_map = panics.clone();
        let mapper = Arc::new(FnMapper(
            move |k: &[u8], v: &[u8], out: &mut dyn crate::record::Emit| {
                if panics_in_map.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("injected mapper panic (first record only)");
                }
                out.emit(k, v);
            },
        ));
        let reducer = Arc::new(FnReducer(
            |k: &[u8], values: &[&[u8]], out: &mut dyn crate::record::Emit| {
                let total: u64 = values.iter().map(|v| v.len() as u64).sum();
                out.emit(k, &total.to_be_bytes());
            },
        ));
        let result = Job::new(JobConfig::default().with_reducers(2).with_retries(2))
            .run(splits, mapper, reducer)
            .expect("panicking attempt must retry, not cascade");
        let counts = collect_counts(&result);
        assert_eq!(counts.values().sum::<u64>(), 150);
        assert!(result.counters.get(Counter::TaskRetries) >= 1);
    }

    #[test]
    fn panicking_reduce_task_restores_segments_for_the_retry() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let words: Vec<String> = (0..120).map(|i| format!("r{}", i % 7)).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let splits: Vec<InputSplit> = refs
            .chunks(40)
            .map(|chunk| {
                InputSplit::new(
                    chunk
                        .iter()
                        .map(|w| KvPair::new(w.as_bytes().to_vec(), vec![1u8]))
                        .collect(),
                )
            })
            .collect();
        let mapper = Arc::new(FnMapper(
            |k: &[u8], v: &[u8], out: &mut dyn crate::record::Emit| out.emit(k, v),
        ));
        let panics = Arc::new(AtomicU32::new(0));
        let panics_in_reduce = panics.clone();
        let reducer = Arc::new(FnReducer(
            move |k: &[u8], values: &[&[u8]], out: &mut dyn crate::record::Emit| {
                if panics_in_reduce.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("injected reducer panic (first group only)");
                }
                let total: u64 = values.iter().map(|v| v.len() as u64).sum();
                out.emit(k, &total.to_be_bytes());
            },
        ));
        // The retry must see the same segments the panicking attempt
        // took (the restore guard ran during the unwind), so the job
        // completes with full counts.
        let result = Job::new(JobConfig::default().with_reducers(2).with_retries(2))
            .run(splits, mapper, reducer)
            .expect("reduce panic must restore segments and retry");
        let counts = collect_counts(&result);
        assert_eq!(counts.values().sum::<u64>(), 120);
        assert_eq!(counts.len(), 7);
        assert!(result.counters.get(Counter::TaskRetries) >= 1);
    }

    #[test]
    fn always_panicking_task_fails_the_job_without_cascading() {
        let mapper = Arc::new(FnMapper(
            |_: &[u8], _: &[u8], _: &mut dyn crate::record::Emit| {
                panic!("unconditional mapper panic");
            },
        ));
        let reducer = Arc::new(FnReducer(
            |k: &[u8], _: &[&[u8]], out: &mut dyn crate::record::Emit| out.emit(k, b"x"),
        ));
        let splits = vec![InputSplit::new(vec![KvPair::new(
            b"k".to_vec(),
            b"v".to_vec(),
        )])];
        let err = match Job::new(JobConfig::default()).run(splits, mapper, reducer) {
            Ok(_) => panic!("the job must fail with a structured error"),
            Err(e) => e,
        };
        let msg = err.to_string();
        assert!(msg.contains("panicked"), "{msg}");
    }

    #[test]
    fn stats_reflect_counters() {
        let words = ["x", "y", "x"];
        let result = count_job(JobConfig::default(), &words);
        assert_eq!(
            result.stats.map_output_materialized_bytes,
            result.counters.get(Counter::MapOutputMaterializedBytes)
        );
        assert!(result.stats.map_wall_nanos > 0);
        assert_eq!(result.stats.num_maps, 1);
    }
}
