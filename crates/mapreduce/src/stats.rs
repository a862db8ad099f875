//! Per-job statistics the cluster cost model replays (§III-E / §IV-D).

use crate::counters::{Counter, CounterSnapshot};

/// Byte and time accounting for one finished job, independent of how fast
/// the machine that ran it happened to be.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JobStats {
    /// Number of map tasks that ran.
    pub num_maps: usize,
    /// Number of reduce tasks.
    pub num_reducers: usize,
    /// Input payload bytes read by mappers.
    pub input_bytes: u64,
    /// Raw (uncompressed, framed) map-output bytes.
    pub map_output_bytes: u64,
    /// Materialized (post-codec) map-output bytes — written to map-side
    /// disk, moved over the network, and written+read again reduce-side.
    pub map_output_materialized_bytes: u64,
    /// Final output bytes.
    pub output_bytes: u64,
    /// Coordinator shuffle-store bytes spilled to its local disk when
    /// the in-memory budget overflowed (written once, read back once
    /// per serve). Zero for local runs and unbounded distributed runs.
    /// Under a wire codec these are *stored* (compressed) bytes — the
    /// spill file holds exactly what the wire ships.
    pub shuffle_spilled_bytes: u64,
    /// Logical shuffle bytes that never crossed the network because the
    /// wire codec shrank their segments (`ShuffleWireBytesSaved`). The
    /// socket moves `map_output_materialized_bytes − this`.
    pub shuffle_wire_saved_bytes: u64,
    /// Nanoseconds compressing segments at shuffle publish
    /// (`LzCompressNanos`; coordinator side, once per segment).
    pub wire_compress_nanos: u64,
    /// Nanoseconds inflating wire-compressed segments at reduce fetch
    /// (`LzDecompressNanos`; worker side, once per fetched copy).
    pub wire_decompress_nanos: u64,
    /// Total nanoseconds inside `Codec::compress` across all tasks.
    pub compress_nanos: u64,
    /// Total nanoseconds inside `Codec::decompress`.
    pub decompress_nanos: u64,
    /// Total nanoseconds inside user map functions.
    pub map_fn_nanos: u64,
    /// Total nanoseconds inside user reduce functions.
    pub reduce_fn_nanos: u64,
    /// Nanoseconds sorting/combining/serializing spills (map side).
    pub spill_nanos: u64,
    /// Nanoseconds merging/splitting/grouping (reduce side).
    pub merge_nanos: u64,
    /// Wall-clock nanoseconds of the map phase (this process).
    pub map_wall_nanos: u64,
    /// Wall-clock nanoseconds of the reduce phase (this process).
    pub reduce_wall_nanos: u64,
}

impl JobStats {
    /// Assemble stats from counters plus phase wall-clocks.
    pub fn from_counters(
        counters: &CounterSnapshot,
        num_maps: usize,
        num_reducers: usize,
        input_bytes: u64,
        map_wall_nanos: u64,
        reduce_wall_nanos: u64,
    ) -> Self {
        JobStats {
            num_maps,
            num_reducers,
            input_bytes,
            map_output_bytes: counters.get(Counter::MapOutputBytes),
            map_output_materialized_bytes: counters.get(Counter::MapOutputMaterializedBytes),
            output_bytes: counters.get(Counter::ReduceOutputBytes),
            shuffle_spilled_bytes: counters.get(Counter::ShuffleSpilledBytes),
            shuffle_wire_saved_bytes: counters.get(Counter::ShuffleWireBytesSaved),
            wire_compress_nanos: counters.get(Counter::LzCompressNanos),
            wire_decompress_nanos: counters.get(Counter::LzDecompressNanos),
            compress_nanos: counters.get(Counter::CompressNanos),
            decompress_nanos: counters.get(Counter::DecompressNanos),
            map_fn_nanos: counters.get(Counter::MapFnNanos),
            reduce_fn_nanos: counters.get(Counter::ReduceFnNanos),
            spill_nanos: counters.get(Counter::SpillNanos),
            merge_nanos: counters.get(Counter::MergeNanos),
            map_wall_nanos,
            reduce_wall_nanos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;

    #[test]
    fn from_counters_copies_the_counters_it_names() {
        let counters = Counters::new();
        counters.add(Counter::MapOutputBytes, 1000);
        counters.add(Counter::MapOutputMaterializedBytes, 123);
        counters.add(Counter::CompressNanos, 2_000_000_000);
        let s = JobStats::from_counters(&counters.snapshot(), 4, 2, 5000, 7, 9);
        assert_eq!((s.num_maps, s.num_reducers, s.input_bytes), (4, 2, 5000));
        assert_eq!(s.map_output_bytes, 1000);
        assert_eq!(s.map_output_materialized_bytes, 123);
        assert_eq!(s.compress_nanos, 2_000_000_000);
        assert_eq!((s.map_wall_nanos, s.reduce_wall_nanos), (7, 9));
    }
}
