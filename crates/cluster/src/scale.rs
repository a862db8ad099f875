//! Scaling measured job statistics to the paper's problem size. §IV-D:
//! the pipeline's code is "all based on streaming algorithms", so per-cell
//! counts are constant and bytes scale linearly in the cell count
//! (`repro scaling` checks it).

use scihadoop_mapreduce::JobStats;

/// Scale a job's byte counts by `factor` (e.g. running a 1024² grid
/// locally and scaling to the paper's 8000²: `factor = 8000² / 1024²`).
/// Task counts scale too, so slot scheduling stays realistic. Every
/// nanosecond field is zeroed: timings belong to the measuring machine,
/// and the paper's cluster prices counted work ([`CostStats`](crate::CostStats)).
pub fn scale_stats(stats: &JobStats, factor: f64) -> JobStats {
    assert!(factor > 0.0, "scale factor must be positive");
    let b = |v: u64| (v as f64 * factor).round() as u64;
    JobStats {
        num_maps: ((stats.num_maps as f64 * factor).round() as usize).max(1),
        num_reducers: stats.num_reducers,
        input_bytes: b(stats.input_bytes),
        map_output_bytes: b(stats.map_output_bytes),
        map_output_materialized_bytes: b(stats.map_output_materialized_bytes),
        output_bytes: b(stats.output_bytes),
        shuffle_spilled_bytes: b(stats.shuffle_spilled_bytes),
        shuffle_wire_saved_bytes: b(stats.shuffle_wire_saved_bytes),
        ..JobStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> JobStats {
        JobStats {
            num_maps: 4,
            num_reducers: 5,
            input_bytes: 1000,
            map_output_bytes: 5000,
            map_output_materialized_bytes: 2000,
            output_bytes: 100,
            shuffle_spilled_bytes: 600,
            shuffle_wire_saved_bytes: 800,
            wire_compress_nanos: 70_000,
            wire_decompress_nanos: 30_000,
            compress_nanos: 1_000_000,
            decompress_nanos: 300_000,
            map_fn_nanos: 2_000_000,
            reduce_fn_nanos: 900_000,
            spill_nanos: 400_000,
            merge_nanos: 500_000,
            map_wall_nanos: 123,
            reduce_wall_nanos: 456,
        }
    }

    #[test]
    fn linear_scaling_of_bytes() {
        let s = scale_stats(&stats(), 10.0);
        assert_eq!(s.input_bytes, 10_000);
        assert_eq!(s.map_output_materialized_bytes, 20_000);
        assert_eq!(s.shuffle_wire_saved_bytes, 8_000);
        assert_eq!(s.num_maps, 40);
        assert_eq!(s.num_reducers, 5, "reducer count is a config, not load");
    }

    #[test]
    fn every_timing_is_dropped() {
        let s = scale_stats(&stats(), 2.0);
        let timings = JobStats {
            num_maps: 8,
            num_reducers: 5,
            input_bytes: 2000,
            map_output_bytes: 10_000,
            map_output_materialized_bytes: 4000,
            output_bytes: 200,
            shuffle_spilled_bytes: 1200,
            shuffle_wire_saved_bytes: 1600,
            ..JobStats::default()
        };
        assert_eq!(s, timings);
    }

    #[test]
    fn tiny_factors_keep_at_least_one_map() {
        let s = scale_stats(&stats(), 0.01);
        assert_eq!(s.num_maps, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_factor_panics() {
        let _ = scale_stats(&stats(), 0.0);
    }
}
