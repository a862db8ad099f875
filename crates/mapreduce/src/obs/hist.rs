//! Log2-bucketed histogram metrics for the shuffle pipeline.
//!
//! Every metric is a fixed-size histogram: 65 buckets where bucket 0
//! holds the value 0 and bucket `k` (1 ≤ k ≤ 64) holds values in
//! `[2^(k-1), 2^k - 1]`. Recording is a `leading_zeros` plus three array
//! increments — no allocation, no branching on bucket count — so the hot
//! path can feed histograms per record. Histograms merge bucket-wise,
//! which is how an attempt's bank folds into its thread's sink on
//! commit, and the threads' banks into the per-job [`Trace`].
//!
//! [`Trace`]: crate::obs::Trace

/// Number of histogram buckets (value 0 plus one per power of two).
pub const NUM_BUCKETS: usize = 65;

/// A fixed-size log2-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index for a sample: 0 for 0, else `64 - leading_zeros`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 for an empty histogram.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Raw bucket counts (index 0 = value 0, index k = `[2^(k-1), 2^k)`).
    pub fn buckets(&self) -> &[u64; NUM_BUCKETS] {
        &self.buckets
    }
}

/// The one table of metrics: each row is a variant and its stable
/// snake-case name; row order is slot order and the order of
/// [`ALL_METRICS`].
macro_rules! metrics {
    ($($(#[$doc:meta])* $variant:ident = $name:literal;)*) => {
        /// Every histogram metric the pipeline records.
        ///
        /// The task bodies sample into their attempt's [`MetricsBank`],
        /// which the scheduler merges into the slot thread's sink when
        /// it commits the attempt, beside its counter bank: a trace
        /// holds committed attempts only. Per-record metrics (emitted
        /// key and value sizes, values per reduce group) are sampled
        /// only while a recorder is attached; per-segment metrics
        /// sample once per *final* materialized segment (the site that
        /// charges the byte counters, which stay the one ledger of a
        /// run's bytes — these histograms are the size
        /// *distribution*); codec metrics sample per segment written or
        /// opened; the remaining metrics sample per spill, merge, fetch,
        /// group or sort-split window, except the two the scheduler
        /// samples itself, per reduce commit and per retry.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Metric {
            $($(#[$doc])* $variant,)*
        }

        /// Number of metric slots.
        pub const NUM_METRICS: usize = [$(Metric::$variant),*].len();

        /// All metrics, in slot order.
        pub const ALL_METRICS: [Metric; NUM_METRICS] = [$(Metric::$variant),*];

        impl Metric {
            /// Snake-case metric name used by the JSON exporters.
            pub fn name(self) -> &'static str {
                match self {
                    $(Metric::$variant => $name,)*
                }
            }
        }
    };
}

metrics! {
    /// Key bytes per emitted map-output record.
    MapEmitKeyBytes = "map_emit_key_bytes";
    /// Value bytes per emitted map-output record.
    MapEmitValueBytes = "map_emit_value_bytes";
    /// Staged payload bytes per spill.
    SpillPayloadBytes = "spill_payload_bytes";
    /// Records entering the combiner, per spilled partition.
    CombineInput = "combine_input_records";
    /// Records leaving the combiner, per spilled partition.
    CombineOutput = "combine_output_records";
    /// Raw (pre-codec, framed, incl. header) bytes per final segment.
    SegRawBytes = "segment_raw_bytes";
    /// Materialized (post-codec) bytes per final segment.
    SegMaterializedBytes = "segment_materialized_bytes";
    /// Codec input bytes per compress call.
    CompressInBytes = "compress_in_bytes";
    /// Codec output bytes per compress call.
    CompressOutBytes = "compress_out_bytes";
    /// Compression cost in nanoseconds per KiB of input.
    CompressNsPerKib = "compress_ns_per_kib";
    /// Decompression cost in nanoseconds per KiB of output.
    DecompressNsPerKib = "decompress_ns_per_kib";
    /// Number of runs entering each streaming k-way merge.
    MergeFanIn = "merge_fan_in";
    /// Bytes per segment fetched by a reducer in the shuffle.
    ShuffleSegmentBytes = "shuffle_segment_bytes";
    /// Values per reduce group.
    ReduceGroupValues = "reduce_group_values";
    /// Records per sort-split window handed to `sort_split`.
    SortSplitWindowRecords = "sort_split_window_records";
    /// Backoff wait per task retry, in nanoseconds.
    RetryBackoffNanos = "retry_backoff_nanos";
    /// Records landing in wide-key tie runs of differing keys
    /// (comparator fallback volume) per radix-sorted spill partition;
    /// runs of byte-identical keys need no comparator and do not count.
    SortPrefixTies = "sort_prefix_ties";
    /// Full-comparator invocations per radix-sorted spill partition
    /// (zero when every record is decided by its wide key alone).
    SortCompareCalls = "sort_compare_calls";
    /// Full-comparator invocations per streaming k-way merge (wide-key
    /// ties at the loser tree).
    MergeCompareCalls = "merge_compare_calls";
    /// Output records per committed reduce task, one sample per reducer
    /// however many attempts it took: the spread is the reducers' skew.
    ReduceTaskOutputRecords = "reduce_task_output_records";
}

/// One histogram per [`Metric`], fixed-size, allocation-free to update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsBank {
    hists: [Histogram; NUM_METRICS],
}

impl Default for MetricsBank {
    fn default() -> Self {
        MetricsBank::new()
    }
}

impl MetricsBank {
    /// An all-empty bank.
    pub fn new() -> Self {
        MetricsBank {
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Record one sample into a metric.
    #[inline]
    pub fn record(&mut self, metric: Metric, value: u64) {
        self.hists[metric as usize].record(value);
    }

    /// The histogram for a metric.
    pub fn get(&self, metric: Metric) -> &Histogram {
        &self.hists[metric as usize]
    }

    /// Merge another bank into this one.
    pub fn merge(&mut self, other: &MetricsBank) {
        for (h, o) in self.hists.iter_mut().zip(other.hists.iter()) {
            h.merge(o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        for k in 1..64usize {
            let lo = 1u64 << (k - 1);
            let hi = (1u64 << k) - 1;
            assert_eq!(bucket_index(lo), k, "lo of bucket {k}");
            assert_eq!(bucket_index(hi), k, "hi of bucket {k}");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
    }

    #[test]
    fn record_tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        for v in [0u64, 1, 7, 8, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 2063);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
        assert!((h.mean() - 2063.0 / 6.0).abs() < 1e-9);
        // 0 → bucket 0; 1 → 1; 7,8 → 3,4; 1023 → 10; 1024 → 11.
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[3], 1);
        assert_eq!(h.buckets()[4], 1);
        assert_eq!(h.buckets()[10], 1);
        assert_eq!(h.buckets()[11], 1);
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.buckets()[64], 2);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 100, 10_000] {
            a.record(v);
        }
        for v in [0u64, 100, u64::MAX] {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 6);
        assert_eq!(merged.min(), 0);
        assert_eq!(merged.max(), u64::MAX);
        let mut reference = Histogram::new();
        for v in [1u64, 100, 10_000, 0, 100, u64::MAX] {
            reference.record(v);
        }
        assert_eq!(merged, reference);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(42);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn bank_records_and_merges() {
        let mut a = MetricsBank::new();
        let mut b = MetricsBank::new();
        a.record(Metric::MapEmitKeyBytes, 16);
        b.record(Metric::MapEmitKeyBytes, 32);
        b.record(Metric::MergeFanIn, 8);
        a.merge(&b);
        assert_eq!(a.get(Metric::MapEmitKeyBytes).count(), 2);
        assert_eq!(a.get(Metric::MapEmitKeyBytes).sum(), 48);
        assert_eq!(a.get(Metric::MergeFanIn).sum(), 8);
        assert!(a.get(Metric::SpillPayloadBytes).is_empty());
    }

    #[test]
    fn the_table_gives_every_slot_a_unique_name() {
        for (i, m) in ALL_METRICS.iter().enumerate() {
            assert_eq!(*m as usize, i, "ALL_METRICS must be in slot order");
        }
        let mut names: Vec<&str> = ALL_METRICS.iter().map(|m| m.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), NUM_METRICS);
        assert_eq!(NUM_METRICS, 20);
    }
}
