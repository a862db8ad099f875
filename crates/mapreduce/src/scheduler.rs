//! The job scheduler: one job state and one slot loop, run by the local
//! engine and by the distributed coordinator alike.
//!
//! Every scheduling decision — task choice, retry, abort, a stranded
//! job — is [`Sched`]'s, a state machine with no lock, clock or sleep
//! that the tests drive alone through thousands of seeded
//! interleavings. A job is its [`JobState`] — that machine under one
//! `std::sync` mutex and condvar, the [`ShuffleStore`], the job-wide
//! counter bank, collected errors, reducer outputs and phase clocks —
//! plus a set of [`Slot`]s, each driven by one thread through the same
//! loop: *next assignment → the fault gate → run the attempt → commit,
//! absorb its counter and histogram banks and retire; or back off and
//! requeue, or abort; on a lost slot requeue and drop the slot*. An
//! in-process slot ([`crate::runner`]) runs the task bodies on its own
//! thread; a remote one ([`crate::dist`]) converses with a worker
//! process. Every decision of a fault plan lives here too.

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
use std::sync::{Arc, OnceLock, PoisonError};
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
#[derive(Default)]
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

/// What [`Sched::next`] hands an idle slot.
pub(crate) enum Next {
    /// Run this attempt of this task; the flag marks an early reduce.
    Run(Task, u32, bool),
    /// Nothing yet: a task in flight elsewhere may yet fail and come back.
    Wait,
    /// Nothing ever: the slot's phases drained, or the job aborted.
    Done,
}

/// Every scheduling decision, with no lock, clock or sleep: [`JobState`]
/// holds it under its mutex and feeds it the slots' events.
#[derive(Default)]
pub(crate) struct Sched {
    maps: Queue,
    reduces: Queue,
    /// Live slots that take maps / that take reduces.
    mappers: usize,
    reducers: usize,
    /// Slots running a reduce handed out before the maps drained. Kept
    /// below `mappers`, so at least one slot always remains for maps.
    early: usize,
    pub(crate) aborted: bool,
}

impl Sched {
    pub(crate) fn new(splits: Vec<InputSplit>, reducers: usize) -> Sched {
        let maps = splits.into_iter().enumerate();
        Sched {
            maps: Queue::new(maps.map(|(id, split)| Task::Map(id, Arc::new(split)))),
            reduces: Queue::new((0..reducers).map(Task::Reduce)),
            ..Sched::default()
        }
    }

    pub(crate) fn join(&mut self, takes: Takes) {
        self.mappers += usize::from(takes != Takes::Reduces);
        self.reducers += usize::from(takes != Takes::Maps);
    }

    /// A slot has gone. Returns whether that strands the job: work remains
    /// and no map-capable slot outside an early reduce (whose fetch waits
    /// on those very maps), or no reduce-capable slot, is left to take it.
    pub(crate) fn exit(&mut self, takes: Takes) -> bool {
        self.mappers -= usize::from(takes != Takes::Reduces);
        self.reducers -= usize::from(takes != Takes::Maps);
        let maps_left = !self.maps.drained();
        let work_left = maps_left || !self.reduces.drained();
        (maps_left && self.mappers <= self.early) || (work_left && self.reducers == 0)
    }

    /// Pick the next task for an idle slot, maps strictly first. A slot
    /// that takes both gets a reduce before the maps drain only while
    /// another map-capable slot stays outside early reduces: fetch
    /// overlaps the map tail without starving it.
    pub(crate) fn next(&mut self, takes: Takes) -> Next {
        if self.aborted {
            return Next::Done;
        }
        if takes != Takes::Reduces {
            if let Some((task, attempt)) = self.maps.claim() {
                return Next::Run(task, attempt, false);
            }
        }
        let maps_drained = self.maps.drained();
        if takes == Takes::Maps {
            return if maps_drained { Next::Done } else { Next::Wait };
        }
        if maps_drained || (takes == Takes::Both && self.mappers > self.early + 1) {
            if let Some((task, attempt)) = self.reduces.claim() {
                self.early += usize::from(!maps_drained);
                return Next::Run(task, attempt, !maps_drained);
            }
            if maps_drained && self.reduces.drained() {
                return Next::Done;
            }
        }
        Next::Wait
    }

    fn queue(&mut self, task: &Task) -> &mut Queue {
        match task {
            Task::Map(..) => &mut self.maps,
            Task::Reduce(_) => &mut self.reduces,
        }
    }

    /// An early reduce's attempt has returned. It stops counting as
    /// early before it commits or backs off: a slot settling or sleeping
    /// out its attempt is no longer held by the maps.
    pub(crate) fn early_done(&mut self) {
        self.early -= 1;
    }

    /// A claim ends for good.
    pub(crate) fn retire(&mut self, task: &Task) {
        self.queue(task).in_flight -= 1;
    }

    /// Put a failed claim back for its next attempt.
    pub(crate) fn requeue(&mut self, task: Task, attempt: u32) {
        self.retire(&task);
        self.queue(&task).pending.push_back((task, attempt + 1));
    }

    pub(crate) fn abort(&mut self) {
        self.aborted = true;
    }

    /// The retry policy: the backoff after attempt `attempt` fails, or
    /// `None` once `retries` retries are spent. Long enough that a
    /// transient fault is not retried into, short enough to vanish beside
    /// any task; no caller ever wanted more than "negligible" of it.
    pub(crate) fn backoff(attempt: u32, retries: u32) -> Option<Duration> {
        const RETRY_BACKOFF: Duration = Duration::from_micros(100);
        (attempt < retries).then(|| RETRY_BACKOFF.saturating_mul(1u32 << attempt.min(20)))
    }
}

/// What one attempt left behind: on success its product with its
/// attempt-local counter bank and histogram bank, absorbed only then, so
/// a retried job reports the same semantic counters and the same
/// distributions as a clean one. A remote attempt has no histogram bank
/// (its worker keeps its samples). Both banks are boxed, so that neither
/// sizes every value an outcome travels in (the histogram bank is 11 KB).
pub(crate) type Outcome<T> = Result<(T, Box<CounterSnapshot>, Option<Box<MetricsBank>>), MrError>;

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
    let mut metrics = Box::<MetricsBank>::default();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&local, &mut metrics))) {
        Ok(result) => result.map(|value| (value, Box::new(local.snapshot()), Some(metrics))),
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

/// One step of the slot loop: open, then per assignment ready and one
/// attempt, then close.
pub(crate) enum Step {
    /// Set the slot up on its own thread.
    Open,
    /// Block until the slot can take an assignment.
    Ready,
    /// Run this attempt of this map task over its split.
    Map(usize, u32, Arc<InputSplit>),
    /// Run this attempt of this reduce task over the job's store.
    Reduce(usize, u32),
    /// No more work for the slot.
    Close,
}

/// How a [`Step`] settled, one variant per step.
pub(crate) enum Settled {
    /// The slot's trace-track name.
    Opened(String),
    Ready,
    Mapped(Outcome<MapOutput>),
    /// `None`: the job aborted while the attempt was fetching, and the
    /// slot has already been closed.
    Reduced(Option<Outcome<Vec<KvPair>>>),
    Closed,
}

/// A place attempts run. Each slot is driven by one thread through
/// [`JobState::run`]'s loop; an `Err` from a step means the slot itself
/// is lost (its connection or worker died), not that a task failed —
/// task failures travel inside the [`Outcome`].
pub(crate) trait Slot: Send {
    fn takes(&self) -> Takes;

    /// Carry out one step and say how it settled.
    fn step(&mut self, job: &JobState, step: Step) -> Result<Settled, MrError>;
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
    /// Signalled on every event fed to `sched`.
    changed: std::sync::Condvar,
    /// When a slot first found the maps drained, and when the first
    /// reduce was handed out.
    maps_drained_at: OnceLock<Instant>,
    reduce_t0: OnceLock<Instant>,
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
            sched: std::sync::Mutex::new(Sched::new(splits, config.num_reducers)),
            changed: std::sync::Condvar::new(),
            maps_drained_at: OnceLock::new(),
            reduce_t0: OnceLock::new(),
        })
    }

    /// Lock the scheduling state, recovering a poisoned guard: every
    /// critical section only pushes, pops and counts, so a panic on some
    /// slot thread never leaves it half-updated — propagating the poison
    /// would turn one panic into a cascade through every sibling slot.
    fn sched(&self) -> std::sync::MutexGuard<'_, Sched> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Feed one event to the scheduling state and wake every waiter.
    fn event<R>(&self, event: impl FnOnce(&mut Sched) -> R) -> R {
        let out = event(&mut self.sched());
        self.changed.notify_all();
        out
    }

    pub(crate) fn is_aborted(&self) -> bool {
        self.sched().aborted
    }

    /// Run the job to completion on `slots`, one thread each, and
    /// assemble its result. The job clock starts here.
    pub(crate) fn run<S: Slot>(self, slots: Vec<S>) -> Result<JobResult, MrError> {
        let mut s = self.sched();
        slots.iter().for_each(|slot| s.join(slot.takes()));
        drop(s);
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

    /// The slot loop. A step that settles as another step's kind is the
    /// slot's fault, and loses it as a dead connection would.
    fn drive<S: Slot>(&self, slot: &mut S) -> Result<(), MrError> {
        let out_of_turn = |step| MrError::Net(format!("the slot's {step} settled out of turn"));
        let Settled::Opened(name) = slot.step(self, Step::Open)? else {
            return Err(out_of_turn("open"));
        };
        let _att = self.config.recorder.as_ref().map(|r| r.attach(&name));
        loop {
            let Settled::Ready = slot.step(self, Step::Ready)? else {
                return Err(out_of_turn("ready"));
            };
            // An attempt the fault gate fails never reaches the slot, so
            // the slot is still ready: a remote one's `TaskRequest` is
            // already read.
            let (task, attempt, early) = loop {
                let Some((task, attempt, early)) = self.next_assignment(slot.takes()) else {
                    let Settled::Closed = slot.step(self, Step::Close)? else {
                        return Err(out_of_turn("close"));
                    };
                    return Ok(());
                };
                match self.gate(&task, attempt) {
                    Ok(()) => break (task, attempt, early),
                    Err(e) => {
                        self.early_done(early);
                        self.fail(task, attempt, e);
                    }
                }
            };
            let step = match &task {
                Task::Map(id, split) => Step::Map(*id, attempt, Arc::clone(split)),
                Task::Reduce(id) => Step::Reduce(*id, attempt),
            };
            let (id, settled) = (task.id(), slot.step(self, step));
            self.early_done(early);
            match (&task, settled) {
                (Task::Map(..), Ok(Settled::Mapped(outcome))) => {
                    self.settle(task, attempt, outcome, |segments| {
                        self.store.publish(id, segments)
                    })
                }
                (Task::Reduce(_), Ok(Settled::Reduced(Some(outcome)))) => {
                    self.settle(task, attempt, outcome, |outputs| {
                        obs::hist(Metric::ReduceTaskOutputRecords, outputs.len() as u64);
                        *self.outputs[id].lock() = outputs;
                        self.store.release(id);
                        Ok(())
                    })
                }
                (Task::Reduce(_), Ok(Settled::Reduced(None))) => {
                    self.retire(&task);
                    return Ok(());
                }
                (_, Ok(_)) => return Err(self.lost(&name, task, attempt, out_of_turn("attempt"))),
                (_, Err(e)) => return Err(self.lost(&name, task, attempt, e)),
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

    /// The slot died under a task: route the task through the retry
    /// budget as a network failure, and give the slot up.
    fn lost(&self, slot: &str, task: Task, attempt: u32, e: MrError) -> MrError {
        let err = MrError::Net(format!("{slot} lost during {task} attempt {attempt}: {e}"));
        self.fail(task, attempt, err);
        e
    }

    /// Wait for [`Sched::next`] to hand `takes` an attempt, stamping the
    /// phase clocks; `None` once there is nothing left for it. The third
    /// field marks an early reduce.
    fn next_assignment(&self, takes: Takes) -> Option<(Task, u32, bool)> {
        let mut s = self.sched();
        loop {
            let next = s.next(takes);
            if s.maps.drained() {
                self.maps_drained_at.get_or_init(Instant::now);
            }
            if let Next::Run(Task::Reduce(_), ..) = next {
                self.reduce_t0.get_or_init(Instant::now);
            }
            match next {
                Next::Run(task, attempt, early) => return Some((task, attempt, early)),
                Next::Done => return None,
                Next::Wait => s = self.changed.wait(s).unwrap_or_else(PoisonError::into_inner),
            }
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
            if let Some(metrics) = metrics {
                obs::absorb(&metrics);
            }
            Ok(())
        });
        match committed {
            Ok(()) => self.retire(&task),
            Err(e) => self.fail(task, attempt, e),
        }
    }

    fn retire(&self, task: &Task) {
        self.event(|s| s.retire(task));
    }

    /// See [`Sched::early_done`].
    fn early_done(&self, early: bool) {
        if early {
            self.event(Sched::early_done);
        }
    }

    /// A failed attempt, through the retry policy: count detected
    /// corruption, then either charge a retry, back off (metered as a
    /// [`Phase::Retry`] span) and requeue the task, or, with the budget
    /// spent, collect the error and abort the job.
    fn fail(&self, task: Task, attempt: u32, err: MrError) {
        if err.is_checksum() {
            self.counters.add(Counter::ChecksumFailures, 1);
        }
        let Some(backoff) = Sched::backoff(attempt, self.config.task_retries) else {
            self.errors.lock().push(err);
            self.abort();
            return self.retire(&task);
        };
        self.counters.add(Counter::TaskRetries, 1);
        {
            let _retry_span = crate::span!(Phase::Retry, task.id());
            obs::hist(Metric::RetryBackoffNanos, backoff.as_nanos() as u64);
            std::thread::sleep(backoff);
        }
        self.event(|s| s.requeue(task, attempt));
    }

    /// Stop handing out work and wake every waiter, on the scheduling
    /// condvar and inside the store.
    fn abort(&self) {
        self.event(Sched::abort);
        self.store.abort();
    }

    /// A slot's thread is ending. If that strands the job, or the thread
    /// is unwinding with a claim it will never retire, fail the job
    /// instead of leaving the others waiting forever.
    fn slot_exited(&self, takes: Takes) {
        let mut s = self.sched();
        let (stranded, mappers, reducers) = (s.exit(takes), s.mappers, s.reducers);
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
        let errors = self.errors.into_inner();
        if !errors.is_empty() {
            return Err(MrError::from_task_errors(errors));
        }
        let map_wall_nanos = self
            .maps_drained_at
            .get()
            .map_or(0, |at| at.duration_since(t0).as_nanos() as u64);
        let reduce_wall_nanos = self
            .reduce_t0
            .get()
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        assert!(job.maps_drained_at.get().is_some());
    }

    /// A slot that "runs" attempts by returning empty products, and
    /// records each `(task, attempt, reduce)` it is handed. One with
    /// `lost` set dies under its first map, announcing it first, or with
    /// `out_of_turn` also set settles that map as a step it was not
    /// given; one with `after` set opens only once that announcement came.
    struct FakeSlot {
        takes: Takes,
        lost: Option<std::sync::mpsc::Sender<()>>,
        out_of_turn: bool,
        after: Option<std::sync::mpsc::Receiver<()>>,
        ran: Arc<Mutex<Vec<(usize, u32, bool)>>>,
    }

    fn fake(takes: Takes) -> FakeSlot {
        FakeSlot {
            takes,
            lost: None,
            out_of_turn: false,
            after: None,
            ran: Arc::default(),
        }
    }

    impl Slot for FakeSlot {
        fn takes(&self) -> Takes {
            self.takes
        }
        fn step(&mut self, _job: &JobState, step: Step) -> Result<Settled, MrError> {
            Ok(match step {
                Step::Open => {
                    if let Some(after) = &self.after {
                        after.recv().expect("the lost slot announces itself");
                    }
                    Settled::Opened("fake-slot".into())
                }
                Step::Ready => Settled::Ready,
                Step::Map(task, attempt, _) => {
                    if let Some(lost) = self.lost.take() {
                        lost.send(()).expect("the other slot is waiting");
                        if self.out_of_turn {
                            return Ok(Settled::Ready);
                        }
                        return Err(MrError::Net("connection reset".into()));
                    }
                    self.ran.lock().push((task, attempt, false));
                    Settled::Mapped(run_attempt(task, attempt, |_, _| Ok(Vec::new())))
                }
                Step::Reduce(task, attempt) => {
                    self.ran.lock().push((task, attempt, true));
                    let outcome = run_attempt(task, attempt, |_, _| Ok(Vec::new()));
                    Settled::Reduced(Some(outcome))
                }
                Step::Close => Settled::Closed,
            })
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

    #[test]
    fn a_step_that_settles_out_of_turn_loses_the_slot_and_requeues_its_task() {
        // With no retry left, the map's loss is the job's error.
        let config = JobConfig::default();
        let (lost, _after) = std::sync::mpsc::channel();
        let slot = FakeSlot {
            lost: Some(lost),
            out_of_turn: true,
            ..fake(Takes::Both)
        };
        match job(&config, 1).run(vec![slot]) {
            Err(MrError::Net(e)) => assert!(
                e.contains("lost during map 0 attempt 0") && e.contains("settled out of turn"),
                "{e}"
            ),
            other => panic!("expected the lost slot's Net error, got {:?}", other.err()),
        }
        // With one, the map comes back as attempt 1 on the slot that remains.
        let config = JobConfig::default().with_retries(1);
        let (lost, after) = std::sync::mpsc::channel();
        let other = FakeSlot {
            after: Some(after),
            ..fake(Takes::Both)
        };
        let ran = Arc::clone(&other.ran);
        let slots = vec![
            FakeSlot {
                lost: Some(lost),
                out_of_turn: true,
                ..fake(Takes::Both)
            },
            other,
        ];
        let result = job(&config, 1).run(slots).expect("the other slot finishes");
        assert_eq!(result.counters.get(Counter::TaskRetries), 1);
        let mut ran = ran.lock().clone();
        ran.sort_unstable();
        assert_eq!(ran, [(0, 0, true), (0, 1, false)]);
    }

    /// The last reduce attempt [`HandOver`] fails: its backoff is
    /// 100 µs · 2^11 = 204.8 ms.
    const LAST_FAILURE: u32 = 11;

    /// One of two slots that take both. The one that draws map 0's first
    /// attempt holds it until the other has failed reduce attempt
    /// [`LAST_FAILURE`], then is lost under it 50 ms later, well inside
    /// that failure's backoff. Every other attempt runs clean.
    struct HandOver(Arc<std::sync::Barrier>);

    impl Slot for HandOver {
        fn takes(&self) -> Takes {
            Takes::Both
        }
        fn step(&mut self, _job: &JobState, step: Step) -> Result<Settled, MrError> {
            Ok(match step {
                Step::Open => Settled::Opened("hand-over".into()),
                Step::Ready => Settled::Ready,
                Step::Map(_, 0, _) => {
                    self.0.wait();
                    std::thread::sleep(Duration::from_millis(50));
                    return Err(MrError::Net("connection reset".into()));
                }
                Step::Map(task, attempt, _) => {
                    Settled::Mapped(run_attempt(task, attempt, |_, _| Ok(Vec::new())))
                }
                Step::Reduce(task, attempt) => {
                    if attempt == LAST_FAILURE {
                        self.0.wait();
                    }
                    Settled::Reduced(Some(run_attempt(task, attempt, |_, _| match attempt {
                        0..=LAST_FAILURE => Err(MrError::TaskFailed("fetch failed".into())),
                        _ => Ok(Vec::new()),
                    })))
                }
                Step::Close => Settled::Closed,
            })
        }
    }

    #[test]
    fn a_slot_backing_off_an_early_reduce_is_free_for_the_maps() {
        // The map's slot is lost while the other slot sleeps out an early
        // reduce's backoff. That slot will take the requeued map once it
        // wakes, so the loss must not strand the job.
        let config = JobConfig::default().with_retries(LAST_FAILURE + 1);
        let met = Arc::new(std::sync::Barrier::new(2));
        let slots = vec![HandOver(Arc::clone(&met)), HandOver(met)];
        let result = job(&config, 1).run(slots).expect("the job finishes");
        // Reduce attempts 0 to LAST_FAILURE, and the lost map.
        let retries = u64::from(LAST_FAILURE) + 2;
        assert_eq!(result.counters.get(Counter::TaskRetries), retries);
    }

    /// What the explorer knows of one slot.
    enum Model {
        /// Between attempts; `true` once told to wait, until the next event.
        Idle(bool),
        /// Running a claim.
        Busy(Task, u32, bool),
        /// Sleeping out the backoff of a failed attempt before requeueing
        /// it; `true` if the slot was lost and exits after the requeue.
        Backoff(Task, u32, bool),
        Gone,
    }

    #[derive(Clone, Copy)]
    enum Event {
        /// An idle slot asks for work.
        Ask,
        /// The attempt commits.
        Commit,
        /// The attempt fails — its own error, the fault gate's or a
        /// refused commit — through the retry policy: into a backoff
        /// while budget is left, finally (aborting the job) once it is
        /// spent.
        Fail,
        /// The slot is lost, under its attempt (which then fails as
        /// `Fail` does) or idle.
        Lose,
        /// A backoff ends and its task goes back to the queue.
        Requeue,
        /// The slot's thread unwinds holding its claim: the slot exits
        /// without retiring it, and the job aborts a step later.
        Unwind,
        /// With the job aborted, a reduce gives its fetch up and exits.
        Abandon,
        /// An abort that an exit called for lands.
        Abort,
    }

    /// One seeded schedule of [`Sched`] alone — no job state, store or
    /// thread — fed events composed as [`JobState`] composes them, each a
    /// random enabled one, and checked at every step.
    struct Explorer {
        sched: Sched,
        rng: StdRng,
        retries: u32,
        num_maps: usize,
        takes: Vec<Takes>,
        slots: Vec<Model>,
        /// Per task, maps then reduces: commits so far, and the attempt
        /// its next claim must carry.
        commits: Vec<u32>,
        attempts: Vec<u32>,
        /// Losses and unwinds the schedule may still inject.
        losses: u32,
        unwinds: u32,
        /// An exit stranded the job or unwound; the abort is yet to land.
        abort_due: bool,
    }

    impl Explorer {
        /// A local (map-only and reduce-only slots), remote (1–4 slots
        /// that take both) or mixed topology; 0–6 maps, 1–4 reduces and a
        /// retry budget of 0–3.
        fn new(seed: u64) -> Explorer {
            let mut rng = StdRng::seed_from_u64(seed);
            let (num_maps, num_reduces) = (rng.random_range(0..7), rng.random_range(1..5));
            let mut takes = match rng.random_range(0..3) {
                0 => vec![Takes::Maps; rng.random_range(1..4)],
                1 => vec![Takes::Both; rng.random_range(1..5)],
                _ => vec![Takes::Both],
            };
            match takes[0] {
                Takes::Maps => takes.extend(vec![Takes::Reduces; rng.random_range(1..4)]),
                _ if takes.len() == 1 => takes.extend((0..rng.random_range(1..4)).map(|_| {
                    [Takes::Maps, Takes::Reduces, Takes::Both][rng.random_range(0..3usize)]
                })),
                _ => {}
            }
            let splits = (0..num_maps).map(|_| InputSplit::new(Vec::new())).collect();
            let mut sched = Sched::new(splits, num_reduces);
            takes.iter().for_each(|&t| sched.join(t));
            Explorer {
                sched,
                retries: rng.random_range(0..4),
                num_maps,
                slots: takes.iter().map(|_| Model::Idle(false)).collect(),
                takes,
                commits: vec![0; num_maps + num_reduces],
                attempts: vec![0; num_maps + num_reduces],
                losses: rng.random_range(0..3),
                unwinds: u32::from(rng.random_bool(0.3)),
                abort_due: false,
                rng,
            }
        }

        fn index(&self, task: &Task) -> usize {
            match task {
                Task::Map(id, _) => *id,
                Task::Reduce(id) => self.num_maps + id,
            }
        }

        fn maps_committed(&self) -> bool {
            self.commits[..self.num_maps].iter().all(|&c| c == 1)
        }

        /// Run the schedule until every slot is gone and every abort has
        /// landed; returns whether the job aborted.
        fn run(mut self) -> bool {
            for _ in 0..100_000 {
                if !self.abort_due && self.slots.iter().all(|s| matches!(s, Model::Gone)) {
                    let aborted = self.sched.aborted;
                    assert!(
                        aborted || self.commits.iter().all(|&c| c == 1),
                        "the job ended unaborted with tasks uncommitted: {:?}",
                        self.commits
                    );
                    return aborted;
                }
                let (slot, event) = self.pick();
                self.apply(slot, event);
            }
            panic!("the schedule never ended");
        }

        /// A random enabled event, weighted. When only asks can make
        /// progress, only asks are enabled, so that a state no ask gets
        /// out of is seen as the hang it would be.
        fn pick(&mut self) -> (usize, Event) {
            let mut progress = Vec::new();
            let mut other = Vec::new();
            if self.abort_due {
                progress.push((4, 0, Event::Abort));
            }
            for (i, slot) in self.slots.iter().enumerate() {
                match slot {
                    Model::Gone => continue,
                    Model::Idle(waited) if !waited => progress.push((4, i, Event::Ask)),
                    Model::Idle(_) => {}
                    Model::Backoff(..) => {
                        progress.push((4, i, Event::Requeue));
                        continue;
                    }
                    Model::Busy(task, ..) => {
                        let reduce = matches!(task, Task::Reduce(_));
                        if !reduce || self.maps_committed() {
                            progress.push((8, i, Event::Commit));
                        }
                        if reduce && self.sched.aborted {
                            progress.push((4, i, Event::Abandon));
                        }
                        other.push((2, i, Event::Fail));
                        if self.unwinds > 0 {
                            other.push((1, i, Event::Unwind));
                        }
                    }
                }
                if self.losses > 0 {
                    other.push((1, i, Event::Lose));
                }
            }
            assert!(
                !progress.is_empty(),
                "hang: nothing in flight can finish and every live slot is told to wait"
            );
            if progress.iter().any(|&(_, _, e)| !matches!(e, Event::Ask)) {
                progress.extend(other);
            }
            let mut at = self
                .rng
                .random_range(0..progress.iter().map(|e| e.0).sum::<u32>());
            for (weight, slot, event) in progress {
                if at < weight {
                    return (slot, event);
                }
                at -= weight;
            }
            unreachable!("the draw is below the total weight")
        }

        fn apply(&mut self, i: usize, event: Event) {
            match event {
                Event::Ask => return self.ask(i),
                Event::Abort => {
                    self.abort_due = false;
                    self.sched.abort();
                }
                _ => match (
                    event,
                    std::mem::replace(&mut self.slots[i], Model::Idle(false)),
                ) {
                    (Event::Commit, Model::Busy(task, _, early)) => {
                        self.early_done(early);
                        let t = self.index(&task);
                        self.commits[t] += 1;
                        self.sched.retire(&task);
                    }
                    (Event::Fail, Model::Busy(task, attempt, early)) => {
                        self.early_done(early);
                        self.fail(i, task, attempt, false);
                    }
                    (Event::Lose, Model::Busy(task, attempt, early)) => {
                        self.losses -= 1;
                        self.early_done(early);
                        self.fail(i, task, attempt, true);
                    }
                    (Event::Lose, _) => {
                        self.losses -= 1;
                        self.exit(i);
                    }
                    (Event::Requeue, Model::Backoff(task, attempt, lost)) => {
                        let t = self.index(&task);
                        self.attempts[t] = attempt + 1;
                        self.sched.requeue(task, attempt);
                        if lost {
                            self.exit(i);
                        }
                    }
                    (Event::Unwind, Model::Busy(..)) => {
                        self.unwinds -= 1;
                        self.slots[i] = Model::Gone;
                        self.sched.exit(self.takes[i]);
                        self.abort_due = true;
                    }
                    (Event::Abandon, Model::Busy(task, _, early)) => {
                        self.early_done(early);
                        self.sched.retire(&task);
                        self.exit(i);
                    }
                    _ => unreachable!("only enabled events are picked"),
                },
            }
            self.changed();
        }

        /// Slot `i` asks for work. An aborted job answers `Done` only,
        /// and `Done` before the slot's phases are over only then.
        fn ask(&mut self, i: usize) {
            let (takes, aborted) = (self.takes[i], self.sched.aborted);
            let next = self.sched.next(takes);
            assert!(
                !aborted || matches!(next, Next::Done),
                "an aborted job kept a slot on"
            );
            match next {
                Next::Run(task, attempt, early) => {
                    self.check_claim(i, &task, attempt, early);
                    self.slots[i] = Model::Busy(task, attempt, early);
                    self.changed();
                }
                Next::Wait => self.slots[i] = Model::Idle(true),
                Next::Done => {
                    let done = match takes {
                        Takes::Maps => self.maps_committed(),
                        _ => self.commits.iter().all(|&c| c == 1),
                    };
                    assert!(aborted || done, "{takes:?} slot let go early");
                    self.exit(i);
                    self.changed();
                }
            }
        }

        /// Every event but a `Wait` may let a waiting slot on.
        fn changed(&mut self) {
            for slot in &mut self.slots {
                if let Model::Idle(waited) = slot {
                    *waited = false;
                }
            }
        }

        /// An attempt has returned, as [`JobState::drive`] reports it
        /// before the commit or the retry policy.
        fn early_done(&mut self, early: bool) {
            if early {
                self.sched.early_done();
            }
        }

        /// [`JobState::fail`]'s decisions for slot `i`'s attempt; the
        /// requeue is a later event, so other slots act during the backoff.
        fn fail(&mut self, i: usize, task: Task, attempt: u32, lost: bool) {
            if Sched::backoff(attempt, self.retries).is_some() {
                self.slots[i] = Model::Backoff(task, attempt, lost);
            } else {
                self.sched.abort();
                self.sched.retire(&task);
                if lost {
                    self.exit(i);
                }
            }
        }

        /// [`JobState::slot_exited`]'s decisions. A job the exit strands
        /// must really be stuck: work left and no live map-capable slot
        /// outside a running early reduce, or no live reduce-capable one.
        fn exit(&mut self, i: usize) {
            self.slots[i] = Model::Gone;
            let stranded = self.sched.exit(self.takes[i]);
            if stranded && !self.sched.aborted && !self.abort_due {
                let live =
                    || (0..self.slots.len()).filter(|&j| !matches!(self.slots[j], Model::Gone));
                let mapper = live().any(|j| {
                    self.takes[j] != Takes::Reduces
                        && !matches!(self.slots[j], Model::Busy(_, _, true))
                });
                let reducer = live().any(|j| self.takes[j] != Takes::Maps);
                let work_left = self.commits.contains(&0);
                assert!(
                    (!self.maps_committed() && !mapper) || (work_left && !reducer),
                    "slot {i}'s exit stranded a job that live slots can finish"
                );
            }
            self.abort_due |= stranded;
        }

        /// The safety properties, on every claim handed out.
        fn check_claim(&self, i: usize, task: &Task, attempt: u32, early: bool) {
            let (t, takes, maps_done) = (self.index(task), self.takes[i], self.maps_committed());
            assert_eq!(self.commits[t], 0, "committed {task} handed out again");
            let running = |s: &Model| matches!(s, Model::Busy(o, ..) if self.index(o) == t);
            assert!(
                !self.slots.iter().any(running),
                "{task} on two slots at once"
            );
            assert_eq!(
                attempt, self.attempts[t],
                "{task} handed out as attempt {attempt}"
            );
            match task {
                Task::Map(..) => assert!(takes != Takes::Reduces && !early, "{takes:?} got {task}"),
                Task::Reduce(_) => {
                    assert!(takes != Takes::Maps, "a map-only slot got {task}");
                    assert!(
                        takes == Takes::Both || maps_done,
                        "{task} before the maps drained"
                    );
                    assert_eq!(early, !maps_done, "{task}'s early flag");
                }
            }
            let free_mapper = |(j, s): (usize, &Model)| {
                j != i
                    && self.takes[j] != Takes::Reduces
                    && !matches!(s, Model::Gone | Model::Busy(_, _, true))
            };
            assert!(
                !early || self.slots.iter().enumerate().any(free_mapper),
                "early {task} leaves no map-capable slot outside early reduces"
            );
        }
    }

    #[test]
    fn fifty_thousand_seeded_schedules_are_safe_live_and_end() {
        const SCHEDULES: u64 = 50_000;
        let mut aborted = 0;
        for seed in 0..SCHEDULES {
            match std::panic::catch_unwind(|| Explorer::new(seed).run()) {
                Ok(a) => aborted += u64::from(a),
                Err(_) => panic!("schedule seed {seed} fails (replay: Explorer::new({seed}))"),
            }
        }
        // Both ends of a job are reached many times over.
        let range = SCHEDULES / 10..SCHEDULES * 9 / 10;
        assert!(
            range.contains(&aborted),
            "{aborted} of {SCHEDULES} schedules aborted"
        );
    }
}
