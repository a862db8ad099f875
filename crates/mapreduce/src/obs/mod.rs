//! Observability: job-wide tracing, histogram metrics, and exporters.
//!
//! The layer has three pieces, designed so the shuffle hot path pays
//! (nearly) nothing for them:
//!
//! * **Spans** ([`span!`](crate::span), [`SpanGuard`], [`Phase`]) —
//!   RAII guards metering the pipeline stages with wall time plus
//!   [thread-CPU time](crate::clock). Recording goes through a
//!   thread-local attachment into a per-thread sink; the sink's mutex
//!   is only ever contended during the final drain.
//! * **Histograms** ([`Histogram`], [`Metric`], [`MetricsBank`]) —
//!   fixed-size log2-bucketed distributions of record sizes, segment
//!   sizes, codec throughput, merge fan-in and friends. No allocation
//!   on record. A task body samples into its attempt's bank, and the
//!   scheduler merges the bank into the thread's sink when it commits
//!   the attempt, as it absorbs the attempt's counters; [`hist`] is
//!   left for the scheduler's own per-commit and per-retry samples.
//!   They say how a quantity is *distributed*; how many bytes a run
//!   moved is said once, by its [`Counter`](crate::Counter)s.
//! * **The run document** ([`LedgerRecord`], [`LedgerSink`],
//!   [`parse_ledger`]) — one JSON line per finished job holding its
//!   configuration, counters, phase rollups and histograms, written and
//!   read through [`json`], the workspace's only JSON module. The
//!   paper's Table I/II views are read off a record's counters, which
//!   [`CounterSnapshot::check_invariants`](crate::CounterSnapshot::check_invariants)
//!   holds to the cross-site accounting identities.
//!   [`chrome_trace_json`] renders the span timeline for trace viewers.
//!
//! Everything is scoped to a per-job [`Recorder`]; there is no global
//! collector, so parallel jobs (and parallel tests) cannot contaminate
//! each other. A thread with no recorder attached is the disabled
//! state: every span and sample that reaches the sink is a thread-local
//! read that misses, and an attempt's bank is dropped unread.

mod drift;
mod export;
mod hist;
pub mod json;
mod ledger;
mod span;
mod trace;

pub use drift::{DriftReport, DriftRow};
pub use export::chrome_trace_json;
pub use hist::{
    bucket_index, Histogram, Metric, MetricsBank, ALL_METRICS, NUM_BUCKETS, NUM_METRICS,
};
pub use ledger::{
    clock_name, host_cpus, parse_ledger, LedgerConfig, LedgerHist, LedgerJob, LedgerRecord,
    LedgerSink, PhaseRollup, LEDGER_MAX_EXACT, LEDGER_SCHEMA,
};
pub use span::{Phase, SpanGuard, TraceEvent, ALL_PHASES, NUM_PHASES};
pub(crate) use trace::absorb;
pub use trace::{hist, recording, Attachment, Recorder, Trace, EVENT_CAPACITY};
