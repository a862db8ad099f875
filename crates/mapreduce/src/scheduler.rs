//! The job scheduler: one job state and one slot loop, run by the local
//! engine and by the distributed coordinator alike.
//!
//! A job is its [`JobState`] — the two task queues, the
//! [`ShuffleStore`], the job-wide counter bank, collected errors,
//! reducer outputs and phase clocks — plus a set of [`Slot`]s, each
//! driven by one thread through the same loop: *next assignment → the
//! fault gate → run the attempt on this slot → on success commit,
//! absorb the attempt's counter and histogram banks and retire; on
//! failure route the error through the retry policy and requeue or
//! abort; on a lost slot requeue as a network error and drop the
//! slot*. The two kinds of slot
//! differ only in where an attempt runs: in-process ([`crate::runner`])
//! calls the task bodies on the slot's own thread and reduces straight
//! over the store's bytes; remote ([`crate::dist`]) holds the
//! conversation with a worker process. Task choice, retry, backoff,
//! abort, the bank discipline and every decision of a fault
//! plan — a slow-down or an injected error before any slot sees the
//! attempt, a corruption as a segment is fetched — live here, once.
//!
//! Built on `std::sync` (not the project's `parking_lot` shim) where a
//! condvar is needed.

use crate::counters::{Counter, CounterSnapshot, Counters};
use crate::error::MrError;
use crate::job::{JobConfig, JobResult};
use crate::obs::{self, Metric, MetricsBank, Phase};
use crate::record::{InputSplit, KvPair};
use crate::shuffle::{SegmentHandle, ShuffleStore};
use crate::stats::JobStats;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One schedulable task. A map task carries its split, which is dropped
/// when the task commits; a remote slot ships it without copying it.
pub(crate) enum Task {
    Map(usize, Arc<InputSplit>),
    Reduce(usize),
}

impl Task {
    fn id(&self) -> usize {
        match self {
            Task::Map(id, _) | Task::Reduce(id) => *id,
        }
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Task::Map(id, _) => write!(f, "map {id}"),
            Task::Reduce(id) => write!(f, "reduce {id}"),
        }
    }
}

/// Which tasks a slot accepts. Slots that take both get maps first and
/// may be handed a reduce before the maps drain (fetch-while-map);
/// reduce-only slots start after the last map commits, so a job built
/// from map-only and reduce-only slots runs its phases back to back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Takes {
    Maps,
    Reduces,
    Both,
}

/// One phase's tasks: `(task, attempt)` pairs awaiting a slot, FIFO, and
/// the number claimed but neither retired nor requeued — a slot that
/// finds the queue empty waits while that is non-zero, because a task in
/// flight may yet fail and come back.
struct Queue {
    pending: VecDeque<(Task, u32)>,
    in_flight: usize,
}

impl Queue {
    fn new(tasks: impl Iterator<Item = Task>) -> Queue {
        Queue {
            pending: tasks.map(|t| (t, 0)).collect(),
            in_flight: 0,
        }
    }

    fn claim(&mut self) -> Option<(Task, u32)> {
        let claimed = self.pending.pop_front();
        if claimed.is_some() {
            self.in_flight += 1;
        }
        claimed
    }

    /// Every task retired: nothing pending, nothing in flight.
    fn drained(&self) -> bool {
        self.pending.is_empty() && self.in_flight == 0
    }
}

/// Everything task choice depends on, under one lock.
struct Sched {
    maps: Queue,
    reduces: Queue,
    /// Live slots that take maps / that take reduces.
    mappers: usize,
    reducers: usize,
    /// Slots running a reduce handed out before the maps drained. Kept
    /// below `mappers`, so at least one slot always remains for maps.
    early: usize,
    aborted: bool,
    maps_drained_at: Option<Instant>,
    reduce_t0: Option<Instant>,
}

/// What one attempt left behind: on success its product with its
/// attempt-local counter bank and histogram bank, absorbed only then, so
/// a retried job reports the same semantic counters and the same
/// distributions as a clean one.
pub(crate) type Outcome<T> = Result<(T, CounterSnapshot, MetricsBank), MrError>;

/// Run one attempt's task body against fresh attempt-local banks — in
/// an in-process slot or in a worker process alike. A panic in it (a
/// user function, or a bug in a task path) becomes a retryable
/// [`MrError::TaskFailed`] instead of unwinding through the slot's
/// thread and taking its siblings — or a worker's socket — with it.
pub(crate) fn run_attempt<T>(
    task: usize,
    attempt: u32,
    body: impl FnOnce(&Counters, &mut MetricsBank) -> Result<T, MrError>,
) -> Outcome<T> {
    let local = Counters::new();
    let mut metrics = MetricsBank::new();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&local, &mut metrics))) {
        Ok(result) => result.map(|value| (value, local.snapshot(), metrics)),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(MrError::TaskFailed(format!(
                "task {task} attempt {attempt} panicked: {msg}"
            )))
        }
    }
}

/// A map attempt's product: `(partition, segment)` pairs, as
/// [`ShuffleStore::publish`] takes them.
pub(crate) type MapOutput = Vec<(usize, Vec<u8>)>;

/// One fetched segment of a reduce's input.
pub(crate) enum Fetched {
    /// As the store holds it: possibly an lz frame, possibly spilled.
    Stored(SegmentHandle),
    /// A copy of the logical bytes with the fault plan's corruption
    /// applied (the store's copy stays intact, as it would on the
    /// mapper's disk).
    Copy(Vec<u8>),
}

/// A place attempts run. Each slot is driven by one thread through
/// [`JobState::run`]'s loop; an `Err` from any method means the slot
/// itself is lost (its connection or worker died), not that a task
/// failed — task failures travel inside the [`Outcome`].
pub(crate) trait Slot: Send {
    fn takes(&self) -> Takes;

    /// Set the slot up on its own thread; returns its trace-track name.
    fn open(&mut self, job: &JobState) -> Result<String, MrError>;

    /// Block until the slot can take an assignment.
    fn ready(&mut self) -> Result<(), MrError> {
        Ok(())
    }

    /// Run one map attempt.
    fn map(
        &mut self,
        job: &JobState,
        task: usize,
        attempt: u32,
        split: &Arc<InputSplit>,
    ) -> Result<Outcome<MapOutput>, MrError>;

    /// Run one reduce attempt over `job`'s store. `None` means the job
    /// aborted while the attempt was fetching and the slot has already
    /// been closed.
    fn reduce(
        &mut self,
        job: &JobState,
        task: usize,
        attempt: u32,
    ) -> Result<Option<Outcome<Vec<KvPair>>>, MrError>;

    /// No more work for this slot.
    fn close(&mut self) -> Result<(), MrError> {
        Ok(())
    }
}

/// One running job.
pub(crate) struct JobState<'a> {
    pub(crate) config: &'a JobConfig,
    pub(crate) store: ShuffleStore,
    pub(crate) num_maps: usize,
    pub(crate) counters: Counters,
    input_bytes: u64,
    errors: Mutex<Vec<MrError>>,
    outputs: Vec<Mutex<Vec<KvPair>>>,
    sched: std::sync::Mutex<Sched>,
    /// Signalled on every change to `sched`.
    changed: std::sync::Condvar,
}

/// Runs [`JobState::slot_exited`] however the slot's thread ends.
struct SlotExit<'a>(&'a JobState<'a>, Takes);

impl Drop for SlotExit<'_> {
    fn drop(&mut self) {
        self.0.slot_exited(self.1);
    }
}

impl<'a> JobState<'a> {
    /// Validate `config` and set the job up over a shuffle store with
    /// the given memory budget and codec. Every way of running a job
    /// comes through here.
    pub(crate) fn new(
        config: &'a JobConfig,
        splits: Vec<InputSplit>,
        shuffle_mem_budget: usize,
        wire_codec: crate::dist::WireCodec,
    ) -> Result<JobState<'a>, MrError> {
        config.validate()?;
        let num_maps = splits.len();
        Ok(JobState {
            config,
            store: ShuffleStore::new_with_codec(
                config.num_reducers,
                num_maps,
                shuffle_mem_budget,
                wire_codec,
            ),
            num_maps,
            input_bytes: splits.iter().map(|s| s.bytes()).sum(),
            counters: Counters::new(),
            errors: Mutex::new(Vec::new()),
            outputs: (0..config.num_reducers)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            sched: std::sync::Mutex::new(Sched {
                maps: Queue::new(
                    splits
                        .into_iter()
                        .enumerate()
                        .map(|(id, split)| Task::Map(id, Arc::new(split))),
                ),
                reduces: Queue::new((0..config.num_reducers).map(Task::Reduce)),
                mappers: 0,
                reducers: 0,
                early: 0,
                aborted: false,
                maps_drained_at: None,
                reduce_t0: None,
            }),
            changed: std::sync::Condvar::new(),
        })
    }

    /// Lock the scheduling state, recovering a poisoned guard: every
    /// critical section only pushes, pops and counts, so a panic on some
    /// slot thread never leaves it half-updated — propagating the poison
    /// would turn one panic into a cascade through every sibling slot.
    fn sched(&self) -> std::sync::MutexGuard<'_, Sched> {
        self.sched
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn is_aborted(&self) -> bool {
        self.sched().aborted
    }

    /// Run the job to completion on `slots`, one thread each, and
    /// assemble its result. The job clock starts here.
    pub(crate) fn run<S: Slot>(self, slots: Vec<S>) -> Result<JobResult, MrError> {
        {
            let mut s = self.sched();
            for slot in &slots {
                s.mappers += usize::from(slot.takes() != Takes::Reduces);
                s.reducers += usize::from(slot.takes() != Takes::Maps);
            }
        }
        let t0 = Instant::now();
        let job = &self;
        std::thread::scope(|scope| {
            let start = |mut slot: S| {
                scope.spawn(move || {
                    let _exit = SlotExit(job, slot.takes());
                    // A lost slot has already requeued its claim; the
                    // exit guard checks the others can still finish.
                    let _ = job.drive(&mut slot);
                })
            };
            // A reduce-only slot has nothing to do until the maps drain,
            // which is when the map-only ones end. Its thread starts
            // then, and so takes over a finished map thread's allocator
            // arena instead of growing one of its own beside it: with
            // all threads started together, `median-plain-local` peaks
            // at 156–160 MiB resident instead of 126–130 (three seeds
            // each, on a 2-CPU host).
            let mut map_only = Vec::new();
            let mut reduce_only = Vec::new();
            for slot in slots {
                match slot.takes() {
                    Takes::Maps => map_only.push(start(slot)),
                    Takes::Reduces => reduce_only.push(slot),
                    Takes::Both => drop(start(slot)),
                }
            }
            for thread in map_only {
                // A panic in one (it aborted the job from its exit guard)
                // goes on as the scope would have passed it on.
                if let Err(panic) = thread.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            reduce_only.into_iter().for_each(|slot| drop(start(slot)));
        });
        self.finish(t0)
    }

    /// The slot loop.
    fn drive<S: Slot>(&self, slot: &mut S) -> Result<(), MrError> {
        let name = slot.open(self)?;
        let _att = self.config.recorder.as_ref().map(|r| r.attach(&name));
        loop {
            slot.ready()?;
            // An attempt the fault gate fails never reaches the slot, so
            // the slot is still ready: a remote one's `TaskRequest` is
            // already read.
            let (task, attempt, early) = loop {
                let Some((task, attempt, early)) = self.next_assignment(slot.takes()) else {
                    return slot.close();
                };
                match self.gate(&task, attempt) {
                    Ok(()) => break (task, attempt, early),
                    Err(e) => {
                        self.early_done(early);
                        self.fail(task, attempt, e);
                    }
                }
            };
            let id = task.id();
            match &task {
                Task::Map(_, split) => match slot.map(self, id, attempt, split) {
                    Ok(outcome) => self.settle(task, attempt, outcome, |segments| {
                        self.store.publish(id, segments)
                    }),
                    Err(e) => return self.lost(&name, task, attempt, e),
                },
                Task::Reduce(_) => {
                    let ran = slot.reduce(self, id, attempt);
                    self.early_done(early);
                    match ran {
                        Ok(Some(outcome)) => self.settle(task, attempt, outcome, |outputs| {
                            obs::hist(Metric::ReduceTaskOutputRecords, outputs.len() as u64);
                            *self.outputs[id].lock() = outputs;
                            self.store.release(id);
                            Ok(())
                        }),
                        Ok(None) => {
                            self.retire(&task);
                            return Ok(());
                        }
                        Err(e) => return self.lost(&name, task, attempt, e),
                    }
                }
            }
        }
    }

    /// The fault plan's say on an attempt, before any slot sees it: an
    /// artificial slow-down, then possibly an injected error, which fails
    /// the attempt before any of its work — or fetching — starts. Both
    /// are charged to the job-wide bank, as [`JobState::fetch`] charges
    /// corruption.
    fn gate(&self, task: &Task, attempt: u32) -> Result<(), MrError> {
        let Some(plan) = &self.config.faults else {
            return Ok(());
        };
        let id = task.id() as u64;
        if let Some(delay) = plan.slow(id, attempt) {
            self.counters.add(Counter::FaultsInjected, 1);
            std::thread::sleep(delay);
        }
        let (hit, kind) = match task {
            Task::Map(..) => (plan.map_error(id, attempt), "map"),
            Task::Reduce(_) => (plan.reduce_error(id, attempt), "reduce"),
        };
        if !hit {
            return Ok(());
        }
        self.counters.add(Counter::FaultsInjected, 1);
        Err(MrError::TaskFailed(format!(
            "injected {kind} fault: task {id} attempt {attempt}"
        )))
    }

    /// An early reduce (see [`JobState::next_assignment`]) has ended.
    fn early_done(&self, early: bool) {
        if early {
            self.sched().early -= 1;
            self.changed.notify_all();
        }
    }

    /// The slot died under a task: route the task through the retry
    /// budget as a network failure, and give the slot up.
    fn lost(&self, slot: &str, task: Task, attempt: u32, e: MrError) -> Result<(), MrError> {
        let err = MrError::Net(format!("{slot} lost during {task} attempt {attempt}: {e}"));
        self.fail(task, attempt, err);
        Err(e)
    }

    /// Pick the next task for an idle slot; `None` once there is nothing
    /// left for it (its phases drained, or the job aborted). Maps
    /// strictly first. A slot that takes both is handed a reduce before
    /// the maps drain only while at least one *other* map-capable slot
    /// stays free for maps, which overlaps reduce-side fetch with the
    /// tail of the map phase without starving it. The third field marks
    /// such an early reduce.
    fn next_assignment(&self, takes: Takes) -> Option<(Task, u32, bool)> {
        let mut s = self.sched();
        loop {
            if s.aborted {
                return None;
            }
            if takes != Takes::Reduces {
                if let Some((task, attempt)) = s.maps.claim() {
                    return Some((task, attempt, false));
                }
            }
            let maps_drained = s.maps.drained();
            if maps_drained {
                s.maps_drained_at.get_or_insert_with(Instant::now);
            }
            if takes == Takes::Maps {
                if maps_drained {
                    return None;
                }
            } else if maps_drained || (takes == Takes::Both && s.mappers > s.early + 1) {
                if let Some((task, attempt)) = s.reduces.claim() {
                    s.reduce_t0.get_or_insert_with(Instant::now);
                    s.early += usize::from(!maps_drained);
                    return Some((task, attempt, !maps_drained));
                }
                if maps_drained && s.reduces.drained() {
                    return None;
                }
            }
            // Tasks in flight elsewhere may yet be requeued.
            s = self
                .changed
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Close out a finished attempt: commit its product, absorb its
    /// counter bank and its histogram bank (into the slot thread's trace
    /// sink, when it has one) and retire the task — or, if the attempt or
    /// its commit failed, hand the error to [`JobState::fail`]. This is
    /// the one place that decides which samples a trace holds.
    fn settle<T>(
        &self,
        task: Task,
        attempt: u32,
        outcome: Outcome<T>,
        commit: impl FnOnce(T) -> Result<(), MrError>,
    ) {
        let committed = outcome.and_then(|(product, local, metrics)| {
            commit(product)?;
            self.counters.absorb(&local);
            obs::absorb(&metrics);
            Ok(())
        });
        match committed {
            Ok(()) => self.retire(&task),
            Err(e) => self.fail(task, attempt, e),
        }
    }

    fn queue_of<'s>(s: &'s mut Sched, task: &Task) -> &'s mut Queue {
        match task {
            Task::Map(..) => &mut s.maps,
            Task::Reduce(_) => &mut s.reduces,
        }
    }

    /// Retire a claimed task that will not run again.
    fn retire(&self, task: &Task) {
        let mut s = self.sched();
        Self::queue_of(&mut s, task).in_flight -= 1;
        drop(s);
        self.changed.notify_all();
    }

    /// The job's retry policy: count detected corruption, then either
    /// charge a retry and back off deterministically (`RETRY_BACKOFF *
    /// 2^attempt`, metered as a [`Phase::Retry`] span) or, with the
    /// budget exhausted, collect the error. Returns whether the task
    /// should run again.
    fn retry_after_failure(&self, task: usize, attempt: u32, err: MrError) -> bool {
        if err.is_checksum() {
            self.counters.add(Counter::ChecksumFailures, 1);
        }
        if attempt >= self.config.task_retries {
            self.errors.lock().push(err);
            return false;
        }
        self.counters.add(Counter::TaskRetries, 1);
        // Long enough that a transient fault is not retried into, short
        // enough to vanish beside any task; no caller ever wanted more
        // than "negligible" of it.
        const RETRY_BACKOFF: Duration = Duration::from_micros(100);
        let backoff = RETRY_BACKOFF.saturating_mul(1u32 << attempt.min(20));
        let _retry_span = crate::span!(Phase::Retry, task);
        obs::hist(Metric::RetryBackoffNanos, backoff.as_nanos() as u64);
        std::thread::sleep(backoff);
        true
    }

    /// Requeue a failed task for its next attempt, or abort the job, as
    /// the retry policy decides.
    fn fail(&self, task: Task, attempt: u32, err: MrError) {
        if !self.retry_after_failure(task.id(), attempt, err) {
            self.abort();
            return self.retire(&task);
        }
        let mut s = self.sched();
        let queue = Self::queue_of(&mut s, &task);
        queue.in_flight -= 1;
        queue.pending.push_back((task, attempt + 1));
        drop(s);
        self.changed.notify_all();
    }

    /// Stop handing out work and wake every waiter, on the scheduling
    /// condvar and inside the store.
    fn abort(&self) {
        self.sched().aborted = true;
        self.changed.notify_all();
        self.store.abort();
    }

    /// A slot's thread is ending. If work remains that no live slot can
    /// take — no map-capable slot outside an early reduce (whose fetch
    /// waits on those very maps), or no reduce-capable slot at all — or
    /// the thread is unwinding with a claim it will never retire, fail
    /// the job instead of leaving the others waiting forever.
    fn slot_exited(&self, takes: Takes) {
        let mut s = self.sched();
        s.mappers -= usize::from(takes != Takes::Reduces);
        s.reducers -= usize::from(takes != Takes::Maps);
        let maps_left = !s.maps.drained();
        let work_left = maps_left || !s.reduces.drained();
        let stranded = (maps_left && s.mappers <= s.early) || (work_left && s.reducers == 0);
        let (mappers, reducers) = (s.mappers, s.reducers);
        drop(s);
        if (stranded || std::thread::panicking()) && !self.is_aborted() {
            let mut errors = self.errors.lock();
            if errors.is_empty() {
                errors.push(MrError::Net(format!(
                    "{mappers} map-capable and {reducers} reduce-capable slots remain, \
                     which cannot finish the job"
                )));
            }
            drop(errors);
            self.abort();
        }
    }

    /// Fetch `partition`'s segment from `map_task` for reduce attempt
    /// `attempt`, blocking until that map task has committed; `None` if
    /// it emitted nothing for the partition, `Err` if the job aborted
    /// meanwhile. `index` is the segment's position among the
    /// partition's non-empty segments in map-task order — the
    /// coordinate at which the fault plan may corrupt the fetched copy,
    /// on this one path for every kind of slot. Corruption addresses
    /// *logical* bytes (a flip inside an lz frame would desync
    /// decompression instead of reaching the segment CRC check), and is
    /// charged to the job-wide bank: the attempt it fails discards its
    /// own.
    pub(crate) fn fetch(
        &self,
        partition: usize,
        map_task: usize,
        attempt: u32,
        index: u64,
    ) -> Result<Option<Fetched>, MrError> {
        let Some(handle) = self.store.segment_when_ready(partition, map_task)? else {
            return Ok(None);
        };
        let corruption = self
            .config
            .faults
            .as_ref()
            .and_then(|p| p.corruption(partition as u64, attempt, index));
        Ok(Some(match corruption {
            Some(c) => {
                self.counters.add(Counter::FaultsInjected, 1);
                let mut data = handle.logical_vec()?;
                c.apply(&mut data);
                Fetched::Copy(data)
            }
            None => Fetched::Stored(handle),
        }))
    }

    /// The tail of every job, started at `t0`: surface collected errors,
    /// or snapshot the counters, check their invariants and derive the
    /// stats.
    fn finish(self, t0: Instant) -> Result<JobResult, MrError> {
        let sched = self
            .sched
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let errors = self.errors.into_inner();
        if !errors.is_empty() {
            return Err(MrError::from_task_errors(errors));
        }
        let map_wall_nanos = sched
            .maps_drained_at
            .map_or(0, |at| at.duration_since(t0).as_nanos() as u64);
        let reduce_wall_nanos = sched
            .reduce_t0
            .map_or(0, |reduce_t0| reduce_t0.elapsed().as_nanos() as u64);

        let (config, store, counters) = (self.config, &self.store, &self.counters);
        counters.add(Counter::ShuffleBytes, store.total_bytes());
        counters.add(Counter::ShuffleSpilledBytes, store.spilled_bytes());
        counters.add(Counter::ShuffleSpillReads, store.spill_reads());
        // Max-semantics charged once at job end, so the additive bank
        // holds the true high-water mark.
        counters.add(Counter::ShuffleMemHighWater, store.mem_high_water());
        counters.add(Counter::LzCompressNanos, store.compress_nanos());
        let snapshot = counters.snapshot();
        // Cross-counter accounting must balance on every completed job; a
        // violation means an instrumentation site drifted (debug builds
        // only — see CounterSnapshot::check_invariants).
        #[cfg(debug_assertions)]
        if let Err(violations) = snapshot.check_invariants() {
            panic!("counter invariants violated on job completion: {violations:#?}");
        }
        let stats = JobStats::from_counters(
            &snapshot,
            self.num_maps,
            config.num_reducers,
            self.input_bytes,
            map_wall_nanos,
            reduce_wall_nanos,
        );
        Ok(JobResult {
            outputs: self.outputs.into_iter().map(Mutex::into_inner).collect(),
            counters: snapshot,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::WireCodec;

    fn job(config: &JobConfig, num_maps: usize) -> JobState<'_> {
        let splits = (0..num_maps).map(|_| InputSplit::new(Vec::new())).collect();
        JobState::new(config, splits, usize::MAX, WireCodec::Identity).unwrap()
    }

    #[test]
    fn scheduling_survives_a_poisoned_lock() {
        // A thread panicking while holding the scheduling lock poisons
        // the std mutex; the loop must recover the guard instead of
        // cascading the panic into every other slot.
        let config = JobConfig::default();
        let job = job(&config, 1);
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let _guard = job.sched.lock().unwrap();
                panic!("poison the scheduling lock");
            });
            assert!(handle.join().is_err(), "the poisoning thread panicked");
        });
        assert!(job.sched.is_poisoned(), "mutex must actually be poisoned");
        let (task, attempt, early) = job.next_assignment(Takes::Maps).expect("one map pending");
        assert_eq!((task.id(), attempt, early), (0, 0, false));
        job.retire(&task);
        assert!(job.next_assignment(Takes::Maps).is_none());
    }

    #[test]
    fn reduce_only_slots_wait_for_the_maps_to_drain() {
        let config = JobConfig::default();
        let job = job(&config, 1);
        let (map, ..) = job.next_assignment(Takes::Maps).unwrap();
        std::thread::scope(|s| {
            let reducer = s.spawn(|| job.next_assignment(Takes::Reduces));
            // Whenever this runs, the reduce is handed out after it.
            job.retire(&map);
            let (task, attempt, early) = reducer.join().unwrap().expect("one reduce pending");
            assert!(matches!(task, Task::Reduce(0)));
            assert_eq!((attempt, early), (0, false));
        });
        assert!(job.sched().maps_drained_at.is_some());
    }

    /// A slot that "runs" attempts by returning empty products, and
    /// records each `(task, attempt, reduce)` it is handed. One with
    /// `lost` set dies under its first map, announcing it first; one with
    /// `after` set opens only once that announcement came.
    struct FakeSlot {
        takes: Takes,
        lost: Option<std::sync::mpsc::Sender<()>>,
        after: Option<std::sync::mpsc::Receiver<()>>,
        ran: Arc<Mutex<Vec<(usize, u32, bool)>>>,
    }

    fn fake(takes: Takes) -> FakeSlot {
        FakeSlot {
            takes,
            lost: None,
            after: None,
            ran: Arc::default(),
        }
    }

    impl Slot for FakeSlot {
        fn takes(&self) -> Takes {
            self.takes
        }
        fn open(&mut self, _job: &JobState) -> Result<String, MrError> {
            if let Some(after) = &self.after {
                after.recv().expect("the lost slot announces itself");
            }
            Ok("fake-slot".into())
        }
        fn map(
            &mut self,
            _job: &JobState,
            task: usize,
            attempt: u32,
            _split: &Arc<InputSplit>,
        ) -> Result<Outcome<MapOutput>, MrError> {
            if let Some(lost) = &self.lost {
                lost.send(()).expect("the other slot is waiting");
                return Err(MrError::Net("connection reset".into()));
            }
            self.ran.lock().push((task, attempt, false));
            Ok(run_attempt(task, attempt, |_, _| Ok(Vec::new())))
        }
        fn reduce(
            &mut self,
            _job: &JobState,
            task: usize,
            attempt: u32,
        ) -> Result<Option<Outcome<Vec<KvPair>>>, MrError> {
            self.ran.lock().push((task, attempt, true));
            Ok(Some(run_attempt(task, attempt, |_, _| Ok(Vec::new()))))
        }
    }

    #[test]
    fn an_attempt_the_fault_gate_fails_never_reaches_a_slot() {
        // Every first attempt fails its gate; every second runs clean.
        let plan = crate::fault::FaultPlan::new(crate::fault::FaultConfig {
            map_error_rate: 1.0,
            reduce_error_rate: 1.0,
            attempt_cap: 1,
            ..Default::default()
        });
        let config = JobConfig::default()
            .with_reducers(2)
            .with_retries(1)
            .with_faults(plan);
        let slot = fake(Takes::Both);
        let ran = Arc::clone(&slot.ran);
        let result = job(&config, 3).run(vec![slot]).expect("one retry suffices");
        let mut ran = ran.lock().clone();
        ran.sort_unstable();
        assert_eq!(
            ran,
            [
                (0, 1, false),
                (0, 1, true),
                (1, 1, false),
                (1, 1, true),
                (2, 1, false)
            ]
        );
        assert_eq!(result.counters.get(Counter::FaultsInjected), 3 + 2);
        assert_eq!(result.counters.get(Counter::TaskRetries), 3 + 2);
    }

    #[test]
    fn a_lost_slots_task_is_retried_on_the_slots_that_remain() {
        let config = JobConfig::default().with_reducers(2).with_retries(1);
        let (lost, after) = std::sync::mpsc::channel();
        let slots = vec![
            FakeSlot {
                lost: Some(lost),
                ..fake(Takes::Maps)
            },
            FakeSlot {
                after: Some(after),
                ..fake(Takes::Maps)
            },
            fake(Takes::Reduces),
        ];
        let result = job(&config, 3).run(slots).expect("one map slot suffices");
        assert_eq!(result.counters.get(Counter::TaskRetries), 1);
        assert_eq!(result.outputs.len(), 2);
    }

    #[test]
    fn losing_the_last_slot_fails_the_job_instead_of_hanging_it() {
        let config = JobConfig::default().with_retries(3);
        let (lost, _after) = std::sync::mpsc::channel();
        let slots = vec![FakeSlot {
            lost: Some(lost),
            ..fake(Takes::Both)
        }];
        let err = match job(&config, 3).run(slots) {
            Ok(_) => panic!("no slot is left to run the requeued map"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("cannot finish the job"), "{err}");
    }
}
