//! Per-job recording: thread sinks, the ambient attachment, and the
//! drained [`Trace`].
//!
//! A [`Recorder`] is created per job and handed to every worker thread.
//! Each thread *attaches* once (a thread-local pointer plus one
//! registry insertion) and then records spans, and the histogram banks
//! of the attempts it commits, into its own sink: a bounded event ring
//! and a [`MetricsBank`], guarded by a `parking_lot` mutex that only the
//! owning thread ever touches while the job runs — lock-light by
//! construction, locked by a second party only during the final drain,
//! after the worker scopes have ended. Recording with no attachment is
//! a single thread-local read.
//!
//! The sink's event buffer is a bounded ring in the "drop newest"
//! style: past [`EVENT_CAPACITY`] events the sink counts drops instead
//! of growing, so a pathological workload cannot turn tracing into an
//! allocator benchmark. Dropped counts surface in the exported metrics.

use crate::obs::hist::{Metric, MetricsBank};
use crate::obs::span::TraceEvent;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// Maximum buffered events per thread sink; overflow increments a drop
/// counter instead of allocating.
pub const EVENT_CAPACITY: usize = 1 << 16;

struct ThreadSink {
    name: String,
    events: Vec<TraceEvent>,
    dropped: u64,
    hists: MetricsBank,
}

impl ThreadSink {
    fn new(name: String) -> Self {
        ThreadSink {
            name,
            events: Vec::new(),
            dropped: 0,
            hists: MetricsBank::new(),
        }
    }
}

struct Shared {
    epoch: Instant,
    sinks: Mutex<Vec<Arc<Mutex<ThreadSink>>>>,
    warnings: Vec<String>,
}

/// Per-job trace/metrics collector. Cheap to clone (an `Arc`).
#[derive(Clone)]
pub struct Recorder {
    shared: Arc<Shared>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("threads", &self.shared.sinks.lock().len())
            .finish()
    }
}

struct LocalCtx {
    epoch: Instant,
    sink: Arc<Mutex<ThreadSink>>,
}

thread_local! {
    static CURRENT: RefCell<Option<LocalCtx>> = const { RefCell::new(None) };
}

impl Recorder {
    /// A fresh recorder. If the thread-CPU clock is unavailable on this
    /// platform, a one-time warning is recorded into the trace (phase
    /// CPU attribution falls back to wall time — see
    /// [`crate::clock`]).
    pub fn new() -> Self {
        let mut warnings = Vec::new();
        if crate::clock::clock_kind() == crate::clock::ClockKind::Wall {
            warnings.push(
                "thread-CPU clock unavailable on this platform: span cpu_ns and phase \
                 counters fall back to wall-clock attribution and will be skewed under \
                 oversubscription"
                    .to_string(),
            );
        }
        let shared = Arc::new(Shared {
            epoch: Instant::now(),
            sinks: Mutex::new(Vec::new()),
            warnings,
        });
        Recorder { shared }
    }

    /// Attach this thread to the recorder. Spans and histogram samples
    /// recorded by the thread flow into the returned sink until the
    /// [`Attachment`] drops. `name` labels the thread in trace exports.
    pub fn attach(&self, name: &str) -> Attachment {
        let sink = Arc::new(Mutex::new(ThreadSink::new(name.to_string())));
        self.shared.sinks.lock().push(sink.clone());
        let prev = CURRENT.with(|c| {
            c.borrow_mut().replace(LocalCtx {
                epoch: self.shared.epoch,
                sink,
            })
        });
        Attachment { prev }
    }

    /// Drain every thread sink into one [`Trace`]. Call after all
    /// attached worker threads have finished (their attachments
    /// dropped); sinks registered by still-attached threads are drained
    /// as-is.
    pub fn finish(&self) -> Trace {
        let mut trace = Trace::empty();
        let sinks = self.shared.sinks.lock();
        for (tid, sink) in sinks.iter().enumerate() {
            let mut sink = sink.lock();
            trace.threads.push(sink.name.clone());
            trace
                .events
                .extend(sink.events.drain(..).map(|e| (tid as u32, e)));
            trace.dropped_events += sink.dropped;
            trace.hists.merge(&sink.hists);
        }
        trace.warnings.extend(self.shared.warnings.iter().cloned());
        trace.events.sort_by_key(|(tid, e)| (e.wall_start_ns, *tid));
        trace
    }
}

/// RAII attachment of the current thread to a [`Recorder`]; restores
/// the previous attachment (usually none) on drop.
pub struct Attachment {
    prev: Option<LocalCtx>,
}

impl Drop for Attachment {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Nanoseconds since the attached recorder's epoch, or `None` when the
/// thread is not attached. The fast path for every recording hook.
#[inline]
pub(crate) fn current_epoch_nanos() -> Option<u64> {
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| ctx.epoch.elapsed().as_nanos() as u64)
    })
}

/// Push a finished span into the attached sink (no-op when detached).
#[inline]
pub(crate) fn push_event(event: TraceEvent) {
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            let mut sink = ctx.sink.lock();
            if sink.events.len() < EVENT_CAPACITY {
                sink.events.push(event);
            } else {
                sink.dropped += 1;
            }
        }
    });
}

/// Record one histogram sample into the attached sink (no-op when
/// detached).
#[inline]
pub fn hist(metric: Metric, value: u64) {
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            ctx.sink.lock().hists.record(metric, value);
        }
    });
}

/// Merge an attempt's bank into the attached sink (no-op when
/// detached). The scheduler calls this when it commits the attempt,
/// beside absorbing its counter bank, so a trace holds samples of
/// committed attempts only.
pub(crate) fn absorb(bank: &MetricsBank) {
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            ctx.sink.lock().hists.merge(bank);
        }
    });
}

/// True when the calling thread is attached to a recorder.
#[inline]
pub fn recording() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// A drained per-job trace: every span from every thread, the merged
/// histogram bank, and bookkeeping.
#[derive(Debug, Clone)]
pub struct Trace {
    /// `(tid, event)` pairs, sorted by wall start time. `tid` indexes
    /// [`Trace::threads`].
    pub events: Vec<(u32, TraceEvent)>,
    /// Thread labels, by sink registration order.
    pub threads: Vec<String>,
    /// Merged histogram metrics.
    pub hists: MetricsBank,
    /// Job-level warnings (e.g. the wall-clock fallback notice).
    pub warnings: Vec<String>,
    /// Events discarded because a thread sink hit [`EVENT_CAPACITY`].
    pub dropped_events: u64,
}

impl Trace {
    /// An empty trace.
    pub fn empty() -> Self {
        Trace {
            events: Vec::new(),
            threads: Vec::new(),
            hists: MetricsBank::new(),
            warnings: Vec::new(),
            dropped_events: 0,
        }
    }

    /// Number of spans recorded for one phase.
    pub fn span_count(&self, phase: crate::obs::Phase) -> usize {
        self.events.iter().filter(|(_, e)| e.phase == phase).count()
    }

    /// Total wall nanoseconds across one phase's spans (spans may
    /// overlap across threads; this is summed, not unioned).
    pub fn phase_wall_nanos(&self, phase: crate::obs::Phase) -> u64 {
        self.events
            .iter()
            .filter(|(_, e)| e.phase == phase)
            .map(|(_, e)| e.wall_dur_ns)
            .sum()
    }

    /// Total thread-CPU nanoseconds across one phase's spans.
    pub fn phase_cpu_nanos(&self, phase: crate::obs::Phase) -> u64 {
        self.events
            .iter()
            .filter(|(_, e)| e.phase == phase)
            .map(|(_, e)| e.cpu_ns)
            .sum()
    }

    /// Merge another trace into this one (thread ids are re-based).
    pub fn merge(&mut self, other: &Trace) {
        let base = self.threads.len() as u32;
        self.threads.extend(other.threads.iter().cloned());
        self.events
            .extend(other.events.iter().map(|(tid, e)| (tid + base, *e)));
        self.events.sort_by_key(|(tid, e)| (e.wall_start_ns, *tid));
        self.hists.merge(&other.hists);
        self.warnings.extend(other.warnings.iter().cloned());
        self.dropped_events += other.dropped_events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Phase;

    #[test]
    fn spans_flow_into_the_attached_recorder() {
        let rec = Recorder::new();
        {
            let _a = rec.attach("test-thread");
            assert!(recording());
            let g = crate::span!(Phase::MapEmit, 7);
            std::hint::black_box(vec![0u8; 4096]);
            drop(g);
            hist(Metric::MergeFanIn, 4);
        }
        assert!(!recording(), "attachment must restore on drop");
        let trace = rec.finish();
        assert_eq!(trace.threads, vec!["test-thread".to_string()]);
        assert_eq!(trace.span_count(Phase::MapEmit), 1);
        let (_, e) = trace.events[0];
        assert_eq!(e.task, 7);
        assert_eq!(trace.hists.get(Metric::MergeFanIn).sum(), 4);
    }

    #[test]
    fn detached_threads_record_nothing() {
        let rec = Recorder::new();
        drop(crate::span!(Phase::Merge, 0));
        hist(Metric::MergeFanIn, 1);
        let trace = rec.finish();
        assert!(trace.events.is_empty());
        assert!(trace.hists.get(Metric::MergeFanIn).is_empty());
    }

    #[test]
    fn multiple_threads_drain_into_one_trace() {
        let rec = Recorder::new();
        std::thread::scope(|s| {
            for i in 0..4u32 {
                let rec = rec.clone();
                s.spawn(move || {
                    let _a = rec.attach(&format!("worker-{i}"));
                    let _g = crate::span!(Phase::SortSpill, i);
                    hist(Metric::SpillPayloadBytes, 1000 + i as u64);
                });
            }
        });
        let trace = rec.finish();
        assert_eq!(trace.threads.len(), 4);
        assert_eq!(trace.span_count(Phase::SortSpill), 4);
        assert_eq!(trace.hists.get(Metric::SpillPayloadBytes).count(), 4);
        assert!(trace
            .events
            .windows(2)
            .all(|w| w[0].1.wall_start_ns <= w[1].1.wall_start_ns));
    }

    #[test]
    fn nested_attachments_restore_the_outer_recorder() {
        let outer = Recorder::new();
        let inner = Recorder::new();
        let _a = outer.attach("outer");
        {
            let _b = inner.attach("inner");
            drop(crate::span!(Phase::Combine, 0));
        }
        drop(crate::span!(Phase::MapEmit, 0));
        drop(_a);
        assert_eq!(inner.finish().span_count(Phase::Combine), 1);
        let outer_trace = outer.finish();
        assert_eq!(outer_trace.span_count(Phase::MapEmit), 1);
        assert_eq!(outer_trace.span_count(Phase::Combine), 0);
    }

    #[test]
    fn event_ring_caps_and_counts_drops() {
        let rec = Recorder::new();
        {
            let _a = rec.attach("flood");
            for i in 0..(EVENT_CAPACITY + 10) {
                drop(crate::span!(Phase::ReduceGroup, i as u32));
            }
        }
        let trace = rec.finish();
        assert_eq!(trace.events.len(), EVENT_CAPACITY);
        assert_eq!(trace.dropped_events, 10);
    }

    #[test]
    fn merge_rebases_thread_ids() {
        let a = Recorder::new();
        {
            let _g = a.attach("a0");
            drop(crate::span!(Phase::MapEmit, 0));
        }
        let b = Recorder::new();
        {
            let _g = b.attach("b0");
            drop(crate::span!(Phase::Merge, 1));
        }
        let mut ta = a.finish();
        let tb = b.finish();
        ta.merge(&tb);
        assert_eq!(ta.threads, vec!["a0".to_string(), "b0".to_string()]);
        assert_eq!(ta.events.len(), 2);
        let merge_tid = ta
            .events
            .iter()
            .find(|(_, e)| e.phase == Phase::Merge)
            .map(|(tid, _)| *tid)
            .unwrap();
        assert_eq!(ta.threads[merge_tid as usize], "b0");
    }
}
