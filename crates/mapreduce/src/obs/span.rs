//! Span recording: RAII guards that meter one pipeline stage.
//!
//! A [`SpanGuard`] samples wall time (against the recorder's epoch) and
//! the thread CPU clock at construction, and writes one [`TraceEvent`]
//! into the calling thread's sink when dropped. When no recorder is
//! attached to the thread, `begin` is a no-op that returns an empty
//! guard.

use crate::obs::trace;

/// The one table of phases: each row is a variant, its stable
/// snake-case name and its Chrome-trace category; row order is pipeline
/// order and the order of [`ALL_PHASES`].
macro_rules! phases {
    ($($(#[$doc:meta])* $variant:ident = $name:literal, $category:literal;)*) => {
        /// The instrumented stages of the shuffle pipeline (Fig. 1), in
        /// pipeline order, and the retry path beside them.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Phase {
            $($(#[$doc])* $variant,)*
        }

        /// Number of phases.
        pub const NUM_PHASES: usize = [$(Phase::$variant),*].len();

        /// All phases, in pipeline order.
        pub const ALL_PHASES: [Phase; NUM_PHASES] = [$(Phase::$variant),*];

        impl Phase {
            /// Snake-case stage name used by the exporters.
            pub fn name(self) -> &'static str {
                match self {
                    $(Phase::$variant => $name,)*
                }
            }

            /// Chrome-trace category for the stage.
            pub fn category(self) -> &'static str {
                match self {
                    $(Phase::$variant => $category,)*
                }
            }
        }
    };
}

phases! {
    /// The user map function emitting records (map task record loop).
    MapEmit = "map_emit", "map";
    /// Arena index sort + spill of one buffer-full of map output.
    SortSpill = "sort_spill", "map";
    /// Combiner running over one sorted spill partition.
    Combine = "combine", "map";
    /// Serializing records through an `IFileWriter` and sealing the
    /// segment (includes codec time; see the codec histograms for the
    /// split).
    IFileWrite = "ifile_write", "map";
    /// A reducer fetching and decompressing its segments.
    ShuffleFetch = "shuffle_fetch", "reduce";
    /// The streaming k-way merge driving a reduce task (map-side spill
    /// merges record under the same phase).
    Merge = "merge", "reduce";
    /// One sort-split window being split, re-sorted and grouped.
    SortSplit = "sort_split", "reduce";
    /// Grouping merged records and running the user reduce function.
    ReduceGroup = "reduce_group", "reduce";
    /// A failed task attempt being backed off and re-queued (the span
    /// covers the backoff wait; one span per retry).
    Retry = "retry", "retry";
}

/// One finished span: a stage execution on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Which stage ran.
    pub phase: Phase,
    /// Task id (map task index or reducer partition).
    pub task: u32,
    /// Wall-clock start, nanoseconds since the recorder's epoch.
    pub wall_start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub wall_dur_ns: u64,
    /// Thread-CPU nanoseconds consumed inside the span.
    pub cpu_ns: u64,
}

/// RAII span: records a [`TraceEvent`] on drop. Obtain one through
/// [`SpanGuard::begin`] or the [`span!`](crate::span) macro.
#[must_use = "a span guard meters the scope it lives in"]
pub struct SpanGuard {
    inner: Option<Open>,
}

struct Open {
    phase: Phase,
    task: u32,
    wall_start_ns: u64,
    cpu_start: u64,
}

impl SpanGuard {
    /// Start a span for `phase` if a recorder is attached to this
    /// thread; otherwise return an inert guard.
    #[inline]
    pub fn begin(phase: Phase, task: u32) -> SpanGuard {
        let Some(wall_start_ns) = trace::current_epoch_nanos() else {
            return SpanGuard { inner: None };
        };
        SpanGuard {
            inner: Some(Open {
                phase,
                task,
                wall_start_ns,
                cpu_start: crate::clock::thread_cpu_nanos(),
            }),
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(open) = self.inner.take() {
            let cpu_ns = crate::clock::since(open.cpu_start);
            let wall_end = trace::current_epoch_nanos().unwrap_or(open.wall_start_ns);
            trace::push_event(TraceEvent {
                phase: open.phase,
                task: open.task,
                wall_start_ns: open.wall_start_ns,
                wall_dur_ns: wall_end.saturating_sub(open.wall_start_ns),
                cpu_ns,
            });
        }
    }
}

/// Open a [`SpanGuard`] for a pipeline stage: `span!(Phase::SortSpill,
/// task_id)`. Bind the result (`let _span = span!(...)`) so the guard
/// covers the intended scope.
#[macro_export]
macro_rules! span {
    ($phase:expr, $task:expr) => {
        $crate::obs::SpanGuard::begin($phase, $task as u32)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_unique() {
        for (i, p) in ALL_PHASES.iter().enumerate() {
            assert_eq!(*p as usize, i, "ALL_PHASES must be in pipeline order");
        }
        let mut names: Vec<&str> = ALL_PHASES.iter().map(|p| p.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), NUM_PHASES);
    }

    #[test]
    fn unattached_span_is_inert() {
        let g = SpanGuard::begin(Phase::MapEmit, 3);
        assert!(g.inner.is_none(), "no recorder attached on this thread");
        drop(g);
    }
}
