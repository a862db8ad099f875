//! Job counters — the engine's analogue of Hadoop's counter framework.
//!
//! The paper reads its headline metric straight off a Hadoop counter
//! ("Map output materialized bytes"); [`Counter::MapOutputMaterializedBytes`]
//! is that counter here.

use std::sync::atomic::{AtomicU64, Ordering};

/// What kind of reading a [`Counter`] is — which decides whether two
/// runs of the same job must agree on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Records and bytes into and out of each phase: a function of the
    /// job's input and configuration alone. Identical between any two
    /// runs of the same job — on any slot kind, under any fault storm
    /// (failed attempts are never absorbed) — and the set the ledger's
    /// determinism gate pins.
    Semantic,
    /// A stopwatch reading (`*Nanos`): never equal twice.
    Clock,
    /// The fault path's own tallies: zero on a clean run, a function of
    /// the fault plan's seed on a faulted one.
    FaultTally,
    /// Which internal path handled the data — where the shuffle store
    /// placed and served segments, what the wire codec saved, how often
    /// keys were split or blocks spliced. Repeatable for one engine and
    /// one configuration (the shuffle budget and wire codec included),
    /// but not part of a job's answer: a local run and a budgeted
    /// distributed run of one job differ here and nowhere in
    /// [`CounterKind::Semantic`].
    Path,
}

/// The one table of counters: each row is a variant, its stable
/// snake-case name and its [`CounterKind`]; row order is slot order and
/// the order of [`ALL_COUNTERS`].
macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident = $name:literal, $kind:ident;)*) => {
        /// All counters the engine maintains.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        /// Number of counter slots.
        pub const NUM_COUNTERS: usize = [$(Counter::$variant),*].len();

        /// Every counter, in declaration order — for reports and exporters.
        pub const ALL_COUNTERS: [Counter; NUM_COUNTERS] = [$(Counter::$variant),*];

        impl Counter {
            /// Stable snake-case name, used as the JSON key in metrics reports.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }

            /// Whether two runs of the same job must agree on this counter.
            pub fn kind(self) -> CounterKind {
                match self {
                    $(Counter::$variant => CounterKind::$kind,)*
                }
            }
        }
    };
}

counters! {
    /// Records read by mappers.
    MapInputRecords = "map_input_records", Semantic;
    /// Key/value pairs emitted by mappers (after any user-level
    /// aggregation — what actually enters the pipeline).
    MapOutputRecords = "map_output_records", Semantic;
    /// Raw serialized bytes of map output (keys + values + record
    /// framing), before compression.
    MapOutputBytes = "map_output_bytes", Semantic;
    /// Bytes of map output actually materialized to "disk" after the
    /// codec ran — the paper's "Map output materialized bytes".
    MapOutputMaterializedBytes = "map_output_materialized_bytes", Semantic;
    /// Key bytes within map output (diagnostic split of MapOutputBytes).
    MapOutputKeyBytes = "map_output_key_bytes", Semantic;
    /// Value bytes within map output.
    MapOutputValueBytes = "map_output_value_bytes", Semantic;
    /// Record-framing overhead bytes within map output.
    MapOutputFramingBytes = "map_output_framing_bytes", Semantic;
    /// Records entering combiners.
    CombineInputRecords = "combine_input_records", Semantic;
    /// Records leaving combiners.
    CombineOutputRecords = "combine_output_records", Semantic;
    /// Spill events.
    Spills = "spills", Semantic;
    /// Bytes fetched across the (simulated) network by reducers.
    ShuffleBytes = "shuffle_bytes", Semantic;
    /// Records entering reducers after merge/group.
    ReduceInputRecords = "reduce_input_records", Semantic;
    /// Distinct keys reduced.
    ReduceInputGroups = "reduce_input_groups", Semantic;
    /// Records emitted by reducers.
    ReduceOutputRecords = "reduce_output_records", Semantic;
    /// Bytes emitted by reducers.
    ReduceOutputBytes = "reduce_output_bytes", Semantic;
    /// Keys split by the routing path (§IV-B case 1): extra records
    /// created.
    RouteSplitRecords = "route_split_records", Path;
    /// Keys split by the sort path (§IV-B case 2): extra records created.
    SortSplitRecords = "sort_split_records", Path;
    /// Nanoseconds spent inside `Codec::compress`.
    CompressNanos = "compress_nanos", Clock;
    /// Nanoseconds spent inside `Codec::decompress`.
    DecompressNanos = "decompress_nanos", Clock;
    /// Nanoseconds spent in user map functions.
    MapFnNanos = "map_fn_nanos", Clock;
    /// Nanoseconds spent in user reduce functions.
    ReduceFnNanos = "reduce_fn_nanos", Clock;
    /// Nanoseconds spent sorting, combining and serializing spills
    /// (map-side per-record pipeline cost).
    SpillNanos = "spill_nanos", Clock;
    /// Nanoseconds spent merging, splitting and grouping at reducers
    /// (reduce-side per-record pipeline cost).
    MergeNanos = "merge_nanos", Clock;
    /// Final map-output segments produced (one per reducer partition per
    /// map task, after spill merging). Each carries a fixed file header,
    /// which is why `MapOutputBytes` exceeds keys + values + framing by
    /// exactly `header * MapOutputSegments`.
    MapOutputSegments = "map_output_segments", Semantic;
    /// Task attempts that failed and were re-queued for another attempt
    /// (fault-tolerance path; a clean run has zero).
    TaskRetries = "task_retries", FaultTally;
    /// Corrupt segments detected at open time: a CRC-32C trailer
    /// mismatch, or a codec that refused to decode the segment (see
    /// [`crate::MrError::is_checksum`]). Every detected failure
    /// triggers a retry, so on a completed job
    /// `ChecksumFailures <= TaskRetries`.
    ChecksumFailures = "checksum_failures", FaultTally;
    /// Faults injected by a configured [`crate::fault::FaultPlan`]
    /// (task errors, corruptions, slow-downs).
    FaultsInjected = "faults_injected", FaultTally;
    /// Key bytes removed from final map-output segments by v3 front
    /// coding. The byte-split identity becomes
    /// `key + value + framing + headers ==
    /// MapOutputBytes + MapOutputKeySavedBytes` (key bytes stay
    /// logical; the saving shows up as raw bytes never written).
    MapOutputKeySavedBytes = "map_output_key_saved_bytes", Semantic;
    /// Front-coded blocks in final map-output segments (0 for v1/v2).
    BlocksWritten = "blocks_written", Semantic;
    /// Blocks the spill merge spliced through still-encoded via the
    /// fence-prefix skip rule. Skips only happen while producing final
    /// segments, so `BlocksSkipped <= BlocksWritten`.
    BlocksSkipped = "blocks_skipped", Path;
    /// Nanoseconds reduce-side fetches spent blocked waiting for map
    /// output that had not been produced yet (distributed runtime only;
    /// the in-process shuffle hands segments over after a full barrier,
    /// so local runs report 0).
    ShuffleFetchWaitNanos = "shuffle_fetch_wait_nanos", Clock;
    /// Nanoseconds the shuffle service spent writing segment bytes into
    /// worker sockets (distributed runtime only). Dividing
    /// `ShuffleBytes` by this yields the run's measured shuffle
    /// bandwidth, which the cluster model consumes.
    ShuffleTransferNanos = "shuffle_transfer_nanos", Clock;
    /// Segment bytes the memory-bounded shuffle store wrote to its
    /// per-partition spill files because the in-memory budget was
    /// exhausted (distributed runtime only; 0 for unbounded budgets).
    /// Stored bytes, each published segment at most once, so never
    /// more than `ShuffleBytes`. Feeds the cluster model's disk term.
    ShuffleSpilledBytes = "shuffle_spilled_bytes", Path;
    /// Segment reads served from a spill file instead of memory
    /// (distributed runtime only). A retried reduce re-fetching a
    /// spilled segment counts again — this is disk traffic, not
    /// distinct segments.
    ShuffleSpillReads = "shuffle_spill_reads", Path;
    /// High-water mark of shuffle bytes resident in memory at once.
    /// Max-semantics recorded once at job end, so it stays additive in
    /// the counter bank. Local runs report their full shuffle volume
    /// (everything is resident); bounded distributed runs report at
    /// most the configured budget.
    ShuffleMemHighWater = "shuffle_mem_high_water", Path;
    /// Wire bytes the shuffle service did *not* send because segments
    /// crossed compressed (distributed runtime with `--wire-codec lz`):
    /// per served segment, logical length minus transmitted length.
    /// `ShuffleBytes` stays the logical volume — this counter is the
    /// discount the cost model's network term applies. Re-fetches by
    /// retried reduces count again, mirroring `ShuffleSpillReads`;
    /// segments served raw (corrupted copies, incompressible segments)
    /// contribute zero.
    ShuffleWireBytesSaved = "shuffle_wire_bytes_saved", Path;
    /// Nanoseconds the shuffle store spent in wire-codec compression at
    /// publish time (distributed runtime only; 0 under `identity`).
    LzCompressNanos = "lz_compress_nanos", Clock;
    /// Nanoseconds reduce workers spent decompressing wire-compressed
    /// segments at fetch time (distributed runtime only).
    LzDecompressNanos = "lz_decompress_nanos", Clock;
}

/// Lock-free counter bank, shared across tasks.
#[derive(Debug)]
pub struct Counters {
    slots: [AtomicU64; NUM_COUNTERS],
}

impl Default for Counters {
    // Derived `Default` stops at 32-element arrays; the bank outgrew it.
    fn default() -> Self {
        Counters {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Counters {
    /// All-zero counters.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Add `delta` to a counter.
    pub fn add(&self, c: Counter, delta: u64) {
        self.slots[c as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Read a counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.slots[c as usize].load(Ordering::Relaxed)
    }

    /// Snapshot every counter (for reports).
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut values = [0u64; NUM_COUNTERS];
        for (i, slot) in self.slots.iter().enumerate() {
            values[i] = slot.load(Ordering::Relaxed);
        }
        CounterSnapshot { values }
    }

    /// Add every value of a snapshot into this bank. The retry path runs
    /// each task attempt against an attempt-local bank and absorbs it
    /// only on success, so failed attempts never skew the semantic
    /// counters — a faulted-but-retried job reports the same numbers as
    /// a clean one.
    pub fn absorb(&self, snapshot: &CounterSnapshot) {
        for (i, c) in ALL_COUNTERS.iter().enumerate() {
            let v = snapshot.values[i];
            if v > 0 {
                self.add(*c, v);
            }
        }
    }
}

/// An immutable copy of all counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: [u64; NUM_COUNTERS],
}

impl CounterSnapshot {
    /// Read a counter from the snapshot.
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// Compression ratio achieved on map output (1.0 = incompressible).
    pub fn materialized_ratio(&self) -> f64 {
        let raw = self.get(Counter::MapOutputBytes);
        if raw == 0 {
            return 1.0;
        }
        self.get(Counter::MapOutputMaterializedBytes) as f64 / raw as f64
    }

    /// Per-counter sum of two snapshots, e.g. to aggregate a multi-job
    /// run into one report.
    pub fn merge(&self, other: &CounterSnapshot) -> CounterSnapshot {
        let mut values = [0u64; NUM_COUNTERS];
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.values[i].saturating_add(other.values[i]);
        }
        CounterSnapshot { values }
    }

    /// Check the cross-counter accounting invariants that every
    /// completed job must satisfy. Returns every violated invariant.
    ///
    /// `MapOutputBytes` includes each segment's fixed file header, which
    /// the key/value/framing split does not.
    pub fn check_invariants(&self) -> Result<(), Vec<String>> {
        let mut violations = Vec::new();
        let key = self.get(Counter::MapOutputKeyBytes);
        let value = self.get(Counter::MapOutputValueBytes);
        let framing = self.get(Counter::MapOutputFramingBytes);
        let headers = crate::ifile::HEADER_LEN as u64 * self.get(Counter::MapOutputSegments);
        let total = self.get(Counter::MapOutputBytes);
        // Key bytes are logical; front coding makes raw bytes smaller by
        // exactly the saved key bytes, so the split balances against
        // `total + saved` (saved is 0 for v1/v2 segments).
        let saved = self.get(Counter::MapOutputKeySavedBytes);
        if key + value + framing + headers != total + saved {
            violations.push(format!(
                "map output split does not add up: key {key} + value {value} + \
                 framing {framing} + headers {headers} != map_output_bytes {total} \
                 + key_saved {saved}"
            ));
        }
        if self.get(Counter::CombineOutputRecords) > self.get(Counter::CombineInputRecords) {
            violations.push(format!(
                "combiner created records: out {} > in {}",
                self.get(Counter::CombineOutputRecords),
                self.get(Counter::CombineInputRecords)
            ));
        }
        if self.get(Counter::ReduceInputGroups) > self.get(Counter::ReduceInputRecords) {
            violations.push(format!(
                "more reduce groups than records: {} > {}",
                self.get(Counter::ReduceInputGroups),
                self.get(Counter::ReduceInputRecords)
            ));
        }
        if self.get(Counter::ShuffleBytes) != self.get(Counter::MapOutputMaterializedBytes) {
            violations.push(format!(
                "shuffle moved {} bytes but {} were materialized",
                self.get(Counter::ShuffleBytes),
                self.get(Counter::MapOutputMaterializedBytes)
            ));
        }
        if self.get(Counter::ChecksumFailures) > self.get(Counter::TaskRetries) {
            violations.push(format!(
                "checksum failures without matching retries: {} > {} — a detected \
                 corruption must always re-queue its task",
                self.get(Counter::ChecksumFailures),
                self.get(Counter::TaskRetries)
            ));
        }
        if self.get(Counter::BlocksSkipped) > self.get(Counter::BlocksWritten) {
            violations.push(format!(
                "more blocks skipped than written: {} > {} — every spliced block \
                 must land in a final segment",
                self.get(Counter::BlocksSkipped),
                self.get(Counter::BlocksWritten)
            ));
        }
        if self.get(Counter::ShuffleSpilledBytes) > self.get(Counter::ShuffleBytes) {
            violations.push(format!(
                "more bytes spilled than shuffled: {} > {} — a map task publishes \
                 once, and a stored segment is never larger than its logical bytes",
                self.get(Counter::ShuffleSpilledBytes),
                self.get(Counter::ShuffleBytes)
            ));
        }
        if self.get(Counter::MapOutputKeySavedBytes) > self.get(Counter::MapOutputKeyBytes) {
            violations.push(format!(
                "front coding saved more key bytes than exist: {} > {}",
                self.get(Counter::MapOutputKeySavedBytes),
                self.get(Counter::MapOutputKeyBytes)
            ));
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let c = Counters::new();
        c.add(Counter::MapOutputBytes, 100);
        c.add(Counter::MapOutputBytes, 23);
        assert_eq!(c.get(Counter::MapOutputBytes), 123);
        assert_eq!(c.get(Counter::ShuffleBytes), 0);
    }

    #[test]
    fn snapshot_is_stable() {
        let c = Counters::new();
        c.add(Counter::Spills, 2);
        let snap = c.snapshot();
        c.add(Counter::Spills, 5);
        assert_eq!(snap.get(Counter::Spills), 2);
        assert_eq!(c.get(Counter::Spills), 7);
    }

    #[test]
    fn materialized_ratio() {
        let c = Counters::new();
        c.add(Counter::MapOutputBytes, 1000);
        c.add(Counter::MapOutputMaterializedBytes, 250);
        assert_eq!(c.snapshot().materialized_ratio(), 0.25);
        assert_eq!(Counters::new().snapshot().materialized_ratio(), 1.0);
    }

    #[test]
    fn the_table_gives_every_slot_a_unique_name_and_a_kind() {
        for (i, c) in ALL_COUNTERS.iter().enumerate() {
            assert_eq!(*c as usize, i, "ALL_COUNTERS must be in declaration order");
        }
        let mut names: Vec<&str> = ALL_COUNTERS.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), NUM_COUNTERS);
        // Every clock is named as one; the determinism gate's set is
        // pinned by size so a new counter is classified on purpose.
        let of = |kind| ALL_COUNTERS.iter().filter(|c| c.kind() == kind).count();
        for c in ALL_COUNTERS {
            assert_eq!(
                c.kind() == CounterKind::Clock,
                c.name().ends_with("_nanos"),
                "{}",
                c.name()
            );
        }
        assert_eq!(of(CounterKind::Semantic), 18);
        assert_eq!(of(CounterKind::FaultTally), 3);
        assert_eq!(of(CounterKind::Path), 7);
    }

    #[test]
    fn merge_adds_per_counter() {
        let a = Counters::new();
        a.add(Counter::Spills, 3);
        let b = Counters::new();
        b.add(Counter::Spills, 4);
        b.add(Counter::MapInputRecords, 10);
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.get(Counter::Spills), 7);
        assert_eq!(merged.get(Counter::MapInputRecords), 10);
        // merge saturates instead of wrapping
        let full = Counters::new();
        full.add(Counter::Spills, u64::MAX);
        let saturated = full.snapshot().merge(&b.snapshot());
        assert_eq!(saturated.get(Counter::Spills), u64::MAX);
    }

    #[test]
    fn invariants_hold_on_consistent_snapshot() {
        let c = Counters::new();
        c.add(Counter::MapOutputKeyBytes, 40);
        c.add(Counter::MapOutputValueBytes, 50);
        c.add(Counter::MapOutputFramingBytes, 10);
        c.add(Counter::MapOutputSegments, 2);
        c.add(Counter::MapOutputBytes, 40 + 50 + 10 + 2 * 6);
        c.add(Counter::MapOutputMaterializedBytes, 30);
        c.add(Counter::ShuffleBytes, 30);
        c.add(Counter::CombineInputRecords, 9);
        c.add(Counter::CombineOutputRecords, 4);
        c.add(Counter::ReduceInputRecords, 4);
        c.add(Counter::ReduceInputGroups, 3);
        assert!(c.snapshot().check_invariants().is_ok());
    }

    #[test]
    fn invariants_catch_violations() {
        let c = Counters::new();
        c.add(Counter::MapOutputBytes, 100); // split counters left at zero
        c.add(Counter::CombineOutputRecords, 5); // combiner out > in (0)
        c.add(Counter::ReduceInputGroups, 2); // groups > records (0)
        c.add(Counter::ShuffleBytes, 7); // != materialized (0)
        let errs = c.snapshot().check_invariants().unwrap_err();
        assert_eq!(errs.len(), 4, "all four invariants flagged: {errs:?}");
    }

    #[test]
    fn absorb_adds_a_snapshot_into_the_bank() {
        let local = Counters::new();
        local.add(Counter::MapOutputBytes, 120);
        local.add(Counter::Spills, 2);
        let shared = Counters::new();
        shared.add(Counter::MapOutputBytes, 30);
        shared.absorb(&local.snapshot());
        assert_eq!(shared.get(Counter::MapOutputBytes), 150);
        assert_eq!(shared.get(Counter::Spills), 2);
        assert_eq!(shared.get(Counter::MapInputRecords), 0);
    }

    #[test]
    fn checksum_failures_require_matching_retries() {
        let c = Counters::new();
        c.add(Counter::ChecksumFailures, 3);
        c.add(Counter::TaskRetries, 2);
        let errs = c.snapshot().check_invariants().unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("checksum failures")),
            "{errs:?}"
        );
        c.add(Counter::TaskRetries, 1);
        assert!(c.snapshot().check_invariants().is_ok());
    }

    #[test]
    fn a_job_spills_no_more_than_it_shuffles() {
        let c = Counters::new();
        c.add(Counter::ShuffleSpilledBytes, 31);
        c.add(Counter::ShuffleBytes, 30);
        c.add(Counter::MapOutputMaterializedBytes, 30);
        let errs = c.snapshot().check_invariants().unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.contains("more bytes spilled than shuffled")),
            "{errs:?}"
        );
        // Every shuffled byte spilled once: a budget-0 store.
        c.add(Counter::ShuffleBytes, 1);
        c.add(Counter::MapOutputMaterializedBytes, 1);
        assert!(c.snapshot().check_invariants().is_ok());
    }

    #[test]
    fn block_and_key_saved_invariants() {
        let c = Counters::new();
        c.add(Counter::BlocksSkipped, 5);
        c.add(Counter::BlocksWritten, 3);
        c.add(Counter::MapOutputKeySavedBytes, 10); // > key bytes (0)
        let errs = c.snapshot().check_invariants().unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("blocks skipped")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("saved more key bytes")),
            "{errs:?}"
        );
        // A consistent v3 snapshot passes: 40 logical key bytes of which
        // 15 were saved by front coding.
        let c = Counters::new();
        c.add(Counter::MapOutputKeyBytes, 40);
        c.add(Counter::MapOutputKeySavedBytes, 15);
        c.add(Counter::MapOutputValueBytes, 50);
        c.add(Counter::MapOutputFramingBytes, 10);
        c.add(Counter::MapOutputSegments, 1);
        c.add(Counter::MapOutputBytes, 40 + 50 + 10 + 6 - 15);
        c.add(Counter::BlocksWritten, 4);
        c.add(Counter::BlocksSkipped, 4);
        assert!(c.snapshot().check_invariants().is_ok());
    }

    #[test]
    fn counters_are_shareable_across_threads() {
        let c = std::sync::Arc::new(Counters::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(Counter::MapInputRecords, 1);
                    }
                });
            }
        });
        assert_eq!(c.get(Counter::MapInputRecords), 4000);
    }
}
