//! The analytic cost model of the Fig. 1 pipeline.

use scihadoop_mapreduce::obs::{DriftReport, DriftRow, LedgerRecord};
use scihadoop_mapreduce::{Counter, JobStats};

/// Hardware description of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Total concurrent map tasks (the paper: 10).
    pub map_slots: usize,
    /// Number of reduce tasks, all concurrent (the paper: 5).
    pub reducers: usize,
    /// Per-node disk streaming bandwidth, MB/s.
    pub disk_mbps: f64,
    /// Per-node network bandwidth, MB/s.
    pub net_mbps: f64,
}

impl ClusterSpec {
    /// The paper's evaluation cluster: 5 nodes, 10 map slots, 5 reducers,
    /// with plausible 2012 commodity hardware (single SATA disk ≈80 MB/s
    /// streaming, GigE ≈110 MB/s). Its CPU is priced by [`CostStats`].
    pub fn paper_cluster() -> Self {
        ClusterSpec {
            nodes: 5,
            map_slots: 10,
            reducers: 5,
            disk_mbps: 80.0,
            net_mbps: 110.0,
        }
    }

    /// A spec describing the machine a ledger record was measured on,
    /// for model-vs-measured reconciliation: the run's own slot counts
    /// (the record's nanos *are* this machine's CPU, charged as-is) and
    /// effectively infinite disk bandwidth, because an in-process
    /// run moves intermediate bytes through memory. `nodes` doubles as
    /// the reduce-side parallelism in [`CostModel`], so it carries the
    /// record's reduce slots.
    ///
    /// Network bandwidth is *measured* when the record came from a
    /// distributed run: the runtime counts socket-write time
    /// (`ShuffleTransferNanos`) against shuffled bytes, and one byte
    /// per nanosecond is 1000 MB/s. Records from in-process runs carry
    /// no transfer time and keep the effectively-unbounded default.
    pub fn local_host(record: &LedgerRecord) -> Self {
        let transfer_nanos = record.counters.get(Counter::ShuffleTransferNanos);
        let net_mbps = if transfer_nanos > 0 {
            let bytes = record.counters.get(Counter::ShuffleBytes);
            (bytes as f64 * 1000.0) / transfer_nanos as f64
        } else {
            1e9
        };
        ClusterSpec {
            nodes: (record.config.reduce_slots as usize).max(1),
            map_slots: (record.config.map_slots as usize).max(1),
            reducers: (record.job.num_reducers as usize).max(1),
            disk_mbps: 1e9,
            net_mbps,
        }
    }
}

/// Rebuild the [`JobStats`] a run's ledger record captured: counters
/// plus the job-shape extras, exactly as the runner assembled them.
pub fn stats_from_ledger(record: &LedgerRecord) -> JobStats {
    JobStats::from_counters(
        &record.counters,
        record.job.num_maps as usize,
        record.job.num_reducers as usize,
        record.job.input_bytes,
        record.job.map_wall_nanos,
        record.job.reduce_wall_nanos,
    )
}

/// Seconds attributed to each pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTimes {
    /// Mappers reading input from distributed storage.
    pub map_read_s: f64,
    /// User map-function CPU.
    pub map_cpu_s: f64,
    /// Codec CPU compressing intermediate data (map side).
    pub map_codec_s: f64,
    /// Writing materialized map output to local disk.
    pub map_write_s: f64,
    /// Network transfer of materialized bytes to reducers, net of the
    /// bytes the wire codec kept off the socket.
    pub shuffle_s: f64,
    /// Wire-codec CPU: compressing segments at shuffle publish plus
    /// inflating them at reduce fetch. Zero under the identity wire
    /// codec, so compressed and raw runs share every other term.
    pub wire_codec_s: f64,
    /// Coordinator-side shuffle-store spill: bytes past the in-memory
    /// budget written to the shuffle host's disk and read back on serve.
    /// Zero whenever the store never spills, so bounded and unbounded
    /// runs share every other term.
    pub shuffle_spill_disk_s: f64,
    /// Reducer-side disk: write fetched data, read it back for the merge
    /// (Fig. 1 steps 4–5).
    pub reduce_disk_s: f64,
    /// Codec CPU decompressing intermediate data (reduce side).
    pub reduce_codec_s: f64,
    /// User reduce-function CPU.
    pub reduce_cpu_s: f64,
    /// Writing final output back to distributed storage.
    pub output_write_s: f64,
}

/// Simulation result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimReport {
    /// Per-stage seconds (work, before slot scheduling).
    pub phases: PhaseTimes,
    /// Map-phase makespan after scheduling tasks onto map slots.
    pub map_makespan_s: f64,
    /// Shuffle + reduce makespan.
    pub reduce_makespan_s: f64,
    /// End-to-end seconds.
    pub total_s: f64,
}

impl SimReport {
    /// Total in minutes (the paper reports minutes).
    pub fn total_minutes(&self) -> f64 {
        self.total_s / 60.0
    }
}

/// The cost model itself.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    spec: ClusterSpec,
}

impl CostModel {
    /// A model over the given hardware.
    pub fn new(spec: ClusterSpec) -> Self {
        CostModel { spec }
    }

    /// Replay a job's byte/CPU accounting through the pipeline, charging
    /// each nanosecond field as-is.
    pub fn simulate(&self, stats: &JobStats) -> SimReport {
        let s = &self.spec;
        let mb = |bytes: u64| bytes as f64 / 1e6;
        let cpu = |nanos: u64| nanos as f64 / 1e9;

        // Aggregate bandwidths: map tasks spread across all nodes' disks;
        // reducers across min(reducers, nodes) nodes.
        let map_disk = s.disk_mbps * s.nodes as f64;
        let reduce_nodes = s.reducers.min(s.nodes).max(1) as f64;
        let reduce_disk = s.disk_mbps * reduce_nodes;
        let net = s.net_mbps * reduce_nodes;

        let phases = PhaseTimes {
            map_read_s: mb(stats.input_bytes) / map_disk,
            map_cpu_s: cpu(stats.map_fn_nanos + stats.spill_nanos),
            map_codec_s: cpu(stats.compress_nanos),
            map_write_s: mb(stats.map_output_materialized_bytes) / map_disk,
            // The wire codec takes its savings off the socket term:
            // only the compressed frames cross the network.
            shuffle_s: mb(stats
                .map_output_materialized_bytes
                .saturating_sub(stats.shuffle_wire_saved_bytes))
                / net,
            wire_codec_s: cpu(stats.wire_compress_nanos + stats.wire_decompress_nanos),
            // Spilled bytes cross one host's disk twice (append on
            // publish, pread on serve) — the shuffle service runs on a
            // single coordinator, so no node aggregation applies.
            shuffle_spill_disk_s: 2.0 * mb(stats.shuffle_spilled_bytes) / s.disk_mbps,
            // Written once and read back at least once on the reducer.
            reduce_disk_s: 2.0 * mb(stats.map_output_materialized_bytes) / reduce_disk,
            reduce_codec_s: cpu(stats.decompress_nanos),
            reduce_cpu_s: cpu(stats.reduce_fn_nanos + stats.merge_nanos),
            output_write_s: mb(stats.output_bytes) / reduce_disk,
        };

        // Map-side CPU runs as uniform tasks scheduled in waves over the
        // map slots; disk terms already use aggregate bandwidth.
        let per_task = (phases.map_cpu_s + phases.map_codec_s) / stats.num_maps.max(1) as f64;
        let waves = (stats.num_maps as f64 / s.map_slots.max(1) as f64).ceil();
        let map_cpu_parallel = per_task * waves;
        let map_makespan_s = phases.map_read_s + phases.map_write_s + map_cpu_parallel;

        let reduce_cpu_parallel = (phases.reduce_codec_s + phases.reduce_cpu_s) / reduce_nodes;
        // Publish-side compression is serialized on the coordinator;
        // fetch-side inflation spreads across the reduce nodes. Charging
        // the whole term unparallelized keeps the model conservative.
        let reduce_makespan_s = phases.shuffle_s
            + phases.wire_codec_s
            + phases.shuffle_spill_disk_s
            + phases.reduce_disk_s
            + reduce_cpu_parallel
            + phases.output_write_s;

        SimReport {
            phases,
            map_makespan_s,
            reduce_makespan_s,
            total_s: map_makespan_s + reduce_makespan_s,
        }
    }

    /// Replay a ledger record through the model and compare the
    /// simulated makespans against the run's wall clocks and the
    /// simulated CPU terms against the drained span CPU. These are
    /// calibration envelopes, not identities (spans nest, so their CPU
    /// sum over-counts, and wall clocks include scheduling the model
    /// does not see). The model's byte terms are the record's own
    /// counters, so there is no byte row to report.
    pub fn reconcile(&self, record: &LedgerRecord) -> DriftReport {
        let stats = stats_from_ledger(record);
        let sim = self.simulate(&stats);
        let mut rows = Vec::new();
        rows.push(DriftRow {
            name: "map_makespan",
            predicted: sim.map_makespan_s,
            measured: record.job.map_wall_nanos as f64 / 1e9,
        });
        rows.push(DriftRow {
            name: "reduce_makespan",
            predicted: sim.reduce_makespan_s,
            measured: record.job.reduce_wall_nanos as f64 / 1e9,
        });
        rows.push(DriftRow {
            name: "total",
            predicted: sim.total_s,
            measured: (record.job.map_wall_nanos + record.job.reduce_wall_nanos) as f64 / 1e9,
        });
        let p = &sim.phases;
        let measured_cpu = record.phase_cpu_total_nanos() as f64 / 1e9;
        if measured_cpu > 0.0 {
            rows.push(DriftRow {
                name: "pipeline_cpu",
                predicted: p.map_cpu_s + p.map_codec_s + p.reduce_codec_s + p.reduce_cpu_s,
                measured: measured_cpu,
            });
        }
        DriftReport {
            label: record.label.clone(),
            rows,
        }
    }
}

/// The paper cluster's cost statistics, in Herodotou's split: what 2012
/// Hadoop charged per unit of counted work. [`CostStats::fit`] takes them
/// from the paper's own rows, so no nanosecond measured here reaches the
/// paper's minutes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostStats {
    /// Engine CPU per raw intermediate byte, charged on each side: spill
    /// (serialize, sort) on the map side, merge and reduce on the other.
    pub engine_ns_per_byte: f64,
    /// Codec CPU per raw intermediate byte, charged compressing and again
    /// inflating, only on a job that ran a codec.
    pub codec_ns_per_byte: f64,
}

impl CostStats {
    /// `stats`, counts from [`scale_stats`](crate::scale_stats) with no
    /// nanosecond field set, with its CPU priced from its raw bytes.
    pub fn price(&self, stats: &JobStats, ran_codec: bool) -> JobStats {
        let ns = |per_byte: f64| (per_byte * stats.map_output_bytes as f64).round() as u64;
        let codec = if ran_codec {
            ns(self.codec_ns_per_byte)
        } else {
            0
        };
        JobStats {
            spill_nanos: ns(self.engine_ns_per_byte),
            merge_nanos: ns(self.engine_ns_per_byte),
            compress_nanos: codec,
            decompress_nanos: codec,
            ..*stats
        }
    }

    /// The costs under which `model` reads `baseline`'s minutes for a job
    /// that ran no codec, then `codec`'s for one that ran a codec. A row's
    /// total is affine in the one cost it is solved for, so two `simulate`
    /// calls fix each.
    pub fn fit(model: &CostModel, baseline: (&JobStats, f64), codec: (&JobStats, f64)) -> Self {
        let minutes = |stats, engine_ns_per_byte, codec_ns_per_byte| {
            let costs = CostStats {
                engine_ns_per_byte,
                codec_ns_per_byte,
            };
            // The baseline is solved at a zero codec cost, so pricing it
            // as a codec job charges it nothing extra.
            model.simulate(&costs.price(stats, true)).total_minutes()
        };
        let solve = |target: f64, at: &dyn Fn(f64) -> f64| {
            let zero = at(0.0);
            (target - zero) / (at(1.0) - zero)
        };
        let engine = solve(baseline.1, &|c| minutes(baseline.0, c, 0.0));
        let codec = solve(codec.1, &|c| minutes(codec.0, engine, c));
        CostStats {
            engine_ns_per_byte: engine,
            codec_ns_per_byte: codec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale_stats;

    fn stats(materialized: u64, compress_nanos: u64) -> JobStats {
        JobStats {
            num_maps: 100,
            num_reducers: 5,
            input_bytes: 256_000_000,
            map_output_bytes: materialized * 2,
            map_output_materialized_bytes: materialized,
            output_bytes: 10_000_000,
            shuffle_spilled_bytes: 0,
            shuffle_wire_saved_bytes: 0,
            wire_compress_nanos: 0,
            wire_decompress_nanos: 0,
            compress_nanos,
            decompress_nanos: compress_nanos / 3,
            map_fn_nanos: 50_000_000_000,
            reduce_fn_nanos: 20_000_000_000,
            spill_nanos: 10_000_000_000,
            merge_nanos: 5_000_000_000,
            map_wall_nanos: 0,
            reduce_wall_nanos: 0,
        }
    }

    #[test]
    fn spilled_bytes_add_a_disk_term_only_when_present() {
        let m = CostModel::new(ClusterSpec::paper_cluster());
        let base = m.simulate(&stats(1_000_000_000, 0));
        assert_eq!(base.phases.shuffle_spill_disk_s, 0.0);
        let mut with_spill = stats(1_000_000_000, 0);
        with_spill.shuffle_spilled_bytes = 500_000_000;
        let spilled = m.simulate(&with_spill);
        assert!(spilled.phases.shuffle_spill_disk_s > 0.0);
        assert!(spilled.total_s > base.total_s);
        // The spill term is additive: no other phase moves.
        assert_eq!(spilled.phases.shuffle_s, base.phases.shuffle_s);
        assert_eq!(spilled.phases.reduce_disk_s, base.phases.reduce_disk_s);
    }

    #[test]
    fn wire_savings_shrink_the_shuffle_term_and_codec_cpu_pushes_back() {
        let m = CostModel::new(ClusterSpec::paper_cluster());
        let base = m.simulate(&stats(1_000_000_000, 0));
        assert_eq!(base.phases.wire_codec_s, 0.0);

        // Free compression (the lz design point): 60% of the shuffle
        // never hits the socket, every other term unchanged.
        let mut saved = stats(1_000_000_000, 0);
        saved.shuffle_wire_saved_bytes = 600_000_000;
        let compressed = m.simulate(&saved);
        assert!(compressed.phases.shuffle_s < base.phases.shuffle_s);
        assert!((compressed.phases.shuffle_s / base.phases.shuffle_s - 0.4).abs() < 1e-9);
        assert_eq!(compressed.phases.map_write_s, base.phases.map_write_s);
        assert_eq!(compressed.phases.reduce_disk_s, base.phases.reduce_disk_s);
        assert!(compressed.total_s < base.total_s);

        // Costed compression: the codec CPU term is additive and can
        // eat the byte savings — the §III-E trade again, on the wire.
        saved.wire_compress_nanos = 500_000_000_000;
        saved.wire_decompress_nanos = 100_000_000_000;
        let costed = m.simulate(&saved);
        assert!(costed.phases.wire_codec_s > 0.0);
        assert!(costed.total_s > compressed.total_s);

        // Saved bytes can never exceed the materialized bytes; a
        // malformed record saturates instead of wrapping.
        let mut over = stats(1_000_000_000, 0);
        over.shuffle_wire_saved_bytes = u64::MAX;
        assert_eq!(m.simulate(&over).phases.shuffle_s, 0.0);
    }

    #[test]
    fn more_intermediate_bytes_cost_more_time() {
        let m = CostModel::new(ClusterSpec::paper_cluster());
        let small = m.simulate(&stats(1_000_000_000, 0));
        let large = m.simulate(&stats(50_000_000_000, 0));
        assert!(large.total_s > small.total_s);
        assert!(large.phases.shuffle_s > small.phases.shuffle_s);
    }

    #[test]
    fn expensive_codec_can_lose_despite_byte_savings() {
        // The §III-E result in miniature: 4.5x fewer bytes, but codec CPU
        // large enough that total time worsens.
        let m = CostModel::new(ClusterSpec::paper_cluster());
        let baseline = m.simulate(&stats(55_500_000_000, 0));
        let compressed = m.simulate(&stats(12_300_000_000, 4_000_000_000_000));
        assert!(
            compressed.total_s > baseline.total_s,
            "codec CPU should dominate: {} vs {}",
            compressed.total_s,
            baseline.total_s
        );
    }

    #[test]
    fn cheap_byte_reduction_wins() {
        // The §IV-D result in miniature: fewer bytes, negligible CPU.
        let m = CostModel::new(ClusterSpec::paper_cluster());
        let baseline = m.simulate(&stats(55_500_000_000, 0));
        let aggregated = m.simulate(&stats(21_800_000_000, 0));
        assert!(aggregated.total_s < baseline.total_s);
    }

    #[test]
    fn more_map_slots_speed_up_cpu_bound_jobs() {
        let mut spec = ClusterSpec::paper_cluster();
        let st = stats(1_000_000_000, 500_000_000_000);
        let slow = CostModel::new(spec).simulate(&st);
        spec.map_slots = 40;
        let fast = CostModel::new(spec).simulate(&st);
        assert!(fast.map_makespan_s < slow.map_makespan_s);
    }

    /// The paper column as `cluster_experiment` builds it: scale to
    /// 8000², fit the costs to the first two rows, price every row.
    fn paper_column(rows: [JobStats; 3]) -> Vec<f64> {
        let m = CostModel::new(ClusterSpec::paper_cluster());
        let [baseline, transform, agg] = rows.map(|r| scale_stats(&r, 100.0));
        let costs = CostStats::fit(&m, (&baseline, 183.0), (&transform, 377.0));
        [(baseline, false), (transform, true), (agg, false)]
            .iter()
            .map(|(row, ran_codec)| m.simulate(&costs.price(row, *ran_codec)).total_minutes())
            .collect()
    }

    fn paper_rows() -> [JobStats; 3] {
        let baseline = stats(1_000_000_000, 0);
        let transform = JobStats {
            map_output_materialized_bytes: 200_000_000,
            ..stats(1_000_000_000, 300_000_000_000)
        };
        [baseline, transform, stats(250_000_000, 0)]
    }

    #[test]
    fn the_fit_reproduces_the_paper_rows_it_is_fitted_to() {
        let minutes = paper_column(paper_rows());
        assert!((minutes[0] - 183.0).abs() < 1e-6, "{minutes:?}");
        assert!((minutes[1] - 377.0).abs() < 1e-6, "{minutes:?}");
        assert!(
            minutes[2] < minutes[0],
            "fewer bytes, less work: {minutes:?}"
        );
    }

    #[test]
    fn the_paper_column_reads_no_clock() {
        let doubled = |s: JobStats| JobStats {
            wire_compress_nanos: 2 * s.wire_compress_nanos,
            wire_decompress_nanos: 2 * s.wire_decompress_nanos,
            compress_nanos: 2 * s.compress_nanos,
            decompress_nanos: 2 * s.decompress_nanos,
            map_fn_nanos: 2 * s.map_fn_nanos,
            reduce_fn_nanos: 2 * s.reduce_fn_nanos,
            spill_nanos: 2 * s.spill_nanos,
            merge_nanos: 2 * s.merge_nanos,
            map_wall_nanos: 2 * s.map_wall_nanos + 1,
            reduce_wall_nanos: 2 * s.reduce_wall_nanos + 1,
            ..s
        };
        let bits = |minutes: Vec<f64>| minutes.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
        let once = bits(paper_column(paper_rows()));
        assert_eq!(bits(paper_column(paper_rows().map(doubled))), once);
    }

    #[test]
    fn phases_sum_to_total() {
        let m = CostModel::new(ClusterSpec::paper_cluster());
        let r = m.simulate(&stats(5_000_000_000, 1_000_000_000));
        assert!((r.map_makespan_s + r.reduce_makespan_s - r.total_s).abs() < 1e-9);
        assert!(r.total_minutes() > 0.0);
    }

    fn synthetic_record() -> LedgerRecord {
        use scihadoop_mapreduce::obs::{LedgerConfig, LedgerJob, PhaseRollup, NUM_PHASES};
        use scihadoop_mapreduce::Counters;
        let counters = Counters::new();
        counters.add(Counter::MapOutputBytes, 2_000_000);
        counters.add(Counter::MapOutputMaterializedBytes, 1_000_000);
        counters.add(Counter::ShuffleBytes, 1_000_000);
        counters.add(Counter::MapFnNanos, 50_000_000);
        counters.add(Counter::SpillNanos, 10_000_000);
        counters.add(Counter::ReduceFnNanos, 20_000_000);
        counters.add(Counter::MergeNanos, 5_000_000);
        let mut phases = [PhaseRollup::default(); NUM_PHASES];
        phases[0] = PhaseRollup {
            count: 4,
            wall_ns: 120_000_000,
            cpu_ns: 100_000_000,
        };
        LedgerRecord {
            label: "synthetic".into(),
            clock: "thread_cpu".into(),
            host_cpus: 4,
            dropped_events: 0,
            config: LedgerConfig {
                codec: "identity".into(),
                num_reducers: 3,
                map_slots: 2,
                reduce_slots: 2,
                spill_buffer_bytes: 1 << 20,
                framing: "sequence_file".into(),
                ifile_version: 2,
                combiner: false,
                task_retries: 0,
                faults: None,
            },
            job: LedgerJob {
                num_maps: 4,
                num_reducers: 3,
                input_bytes: 4_000_000,
                map_wall_nanos: 80_000_000,
                reduce_wall_nanos: 40_000_000,
            },
            counters: counters.snapshot(),
            phases,
            histograms: Vec::new(),
        }
    }

    #[test]
    fn local_host_measures_net_bandwidth_from_distributed_records() {
        let record = synthetic_record();
        // In-process record: no transfer time → unbounded network.
        assert_eq!(ClusterSpec::local_host(&record).net_mbps, 1e9);
        // Distributed record: 1 MB shuffled in 10 ms of socket writes
        // is 100 MB/s.
        let mut dist = record;
        let counters = scihadoop_mapreduce::Counters::new();
        for c in scihadoop_mapreduce::ALL_COUNTERS {
            counters.add(c, dist.counters.get(c));
        }
        counters.add(Counter::ShuffleTransferNanos, 10_000_000);
        dist.counters = counters.snapshot();
        let spec = ClusterSpec::local_host(&dist);
        assert!((spec.net_mbps - 100.0).abs() < 1e-9, "{}", spec.net_mbps);
    }

    #[test]
    fn ledger_record_rebuilds_job_stats() {
        let record = synthetic_record();
        let stats = stats_from_ledger(&record);
        assert_eq!(stats.num_maps, 4);
        assert_eq!(stats.num_reducers, 3);
        assert_eq!(stats.input_bytes, 4_000_000);
        assert_eq!(stats.map_output_bytes, 2_000_000);
        assert_eq!(stats.map_output_materialized_bytes, 1_000_000);
        assert_eq!(stats.map_wall_nanos, 80_000_000);
    }

    #[test]
    fn reconcile_reports_time_rows_with_signed_error() {
        let record = synthetic_record();
        let model = CostModel::new(ClusterSpec::local_host(&record));
        let report = model.reconcile(&record);
        assert_eq!(report.label, "synthetic");
        let names: Vec<&str> = report.rows.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            ["map_makespan", "reduce_makespan", "total", "pipeline_cpu"]
        );
        for name in names {
            let row = report.row(name).unwrap_or_else(|| panic!("{name} row"));
            assert!(row.predicted > 0.0, "{name} predicted");
            assert!(row.measured > 0.0, "{name} measured");
        }
        // Infinite bandwidth: the model can only charge the recorded
        // CPU, so predictions stay below the walls.
        let total = report.row("total").expect("total");
        assert!(total.predicted <= total.measured * 1.001);
    }

    #[test]
    fn local_host_spec_mirrors_the_record() {
        let record = synthetic_record();
        let spec = ClusterSpec::local_host(&record);
        assert_eq!(spec.map_slots, 2);
        assert_eq!(spec.nodes, 2);
        assert_eq!(spec.reducers, 3);
    }

    #[test]
    fn zero_stats_simulate_to_zero() {
        let m = CostModel::new(ClusterSpec::paper_cluster());
        let z = JobStats {
            num_maps: 0,
            num_reducers: 0,
            input_bytes: 0,
            map_output_bytes: 0,
            map_output_materialized_bytes: 0,
            output_bytes: 0,
            shuffle_spilled_bytes: 0,
            shuffle_wire_saved_bytes: 0,
            wire_compress_nanos: 0,
            wire_decompress_nanos: 0,
            compress_nanos: 0,
            decompress_nanos: 0,
            map_fn_nanos: 0,
            reduce_fn_nanos: 0,
            spill_nanos: 0,
            merge_nanos: 0,
            map_wall_nanos: 0,
            reduce_wall_nanos: 0,
        };
        let r = m.simulate(&z);
        assert_eq!(r.total_s, 0.0);
    }
}
