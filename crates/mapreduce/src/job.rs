//! Job configuration and results.

use crate::counters::CounterSnapshot;
use crate::error::MrError;
use crate::ifile::{Framing, IFileVersion};
use crate::keysem::{DefaultKeySemantics, KeySemantics};
use crate::record::{InputSplit, KvPair, Mapper, Reducer};
use crate::runner;
use crate::stats::JobStats;
use scihadoop_compress::{Codec, IdentityCodec};
use std::sync::Arc;

/// Everything that configures a job besides the user functions.
#[derive(Clone)]
pub struct JobConfig {
    /// Number of reduce tasks (the paper's cluster runs 5).
    pub num_reducers: usize,
    /// Concurrent map tasks (the paper's cluster has 10 map slots).
    pub map_slots: usize,
    /// Concurrent reduce tasks.
    pub reduce_slots: usize,
    /// Codec applied to every materialized intermediate segment.
    pub codec: Arc<dyn Codec>,
    /// Key behaviour (routing, sorting, splitting, grouping).
    pub key_semantics: Arc<dyn KeySemantics>,
    /// Optional combiner, run on each sorted spill (Fig. 1 step 3).
    pub combiner: Option<Arc<dyn Reducer>>,
    /// Map-side sort-buffer spill threshold in bytes.
    pub spill_buffer_bytes: usize,
    /// Intermediate record framing (of the flat v1/v2 layouts; v3
    /// frames no records).
    pub framing: Framing,
    /// On-disk IFile format for intermediate segments: v3 (default),
    /// blocks of front-coded key groups in column order; v1 plain and
    /// v2 CRC-trailed framed records, the paper's Hadoop layouts.
    pub ifile_version: IFileVersion,
    /// Optional tracing/metrics recorder; worker threads attach to it
    /// and record spans + histograms (see [`crate::obs`]).
    pub recorder: Option<crate::obs::Recorder>,
    /// Retry budget per task: a failed attempt is re-queued until it has
    /// failed `task_retries + 1` times. Zero (default) preserves the old
    /// fail-fast behavior.
    pub task_retries: u32,
    /// Optional fault-injection plan (testing/experiments only).
    pub faults: Option<Arc<crate::fault::FaultPlan>>,
}

impl std::fmt::Debug for JobConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobConfig")
            .field("num_reducers", &self.num_reducers)
            .field("map_slots", &self.map_slots)
            .field("reduce_slots", &self.reduce_slots)
            .field("codec", &self.codec.name())
            .field("combiner", &self.combiner.is_some())
            .field("spill_buffer_bytes", &self.spill_buffer_bytes)
            .field("framing", &self.framing)
            .field("ifile_version", &self.ifile_version)
            .field("recorder", &self.recorder.is_some())
            .field("task_retries", &self.task_retries)
            .field("faults", &self.faults.as_ref().map(|p| p.config()))
            .finish()
    }
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            num_reducers: 1,
            map_slots: 2,
            reduce_slots: 2,
            codec: Arc::new(IdentityCodec),
            key_semantics: Arc::new(DefaultKeySemantics),
            combiner: None,
            spill_buffer_bytes: 16 << 20,
            framing: Framing::SequenceFile,
            ifile_version: IFileVersion::default(),
            recorder: None,
            task_retries: 0,
            faults: None,
        }
    }
}

impl JobConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), MrError> {
        if self.num_reducers == 0 {
            return Err(MrError::Config("num_reducers must be > 0".into()));
        }
        if self.map_slots == 0 || self.reduce_slots == 0 {
            return Err(MrError::Config("slots must be > 0".into()));
        }
        if self.spill_buffer_bytes == 0 {
            return Err(MrError::Config("spill buffer must be > 0".into()));
        }
        Ok(())
    }

    /// Builder-style setter for the reducer count.
    pub fn with_reducers(mut self, n: usize) -> Self {
        self.num_reducers = n;
        self
    }

    /// Builder-style setter for the codec.
    pub fn with_codec(mut self, codec: Arc<dyn Codec>) -> Self {
        self.codec = codec;
        self
    }

    /// Builder-style setter for key semantics.
    pub fn with_key_semantics(mut self, ks: Arc<dyn KeySemantics>) -> Self {
        self.key_semantics = ks;
        self
    }

    /// Builder-style setter for the combiner.
    pub fn with_combiner(mut self, c: Arc<dyn Reducer>) -> Self {
        self.combiner = Some(c);
        self
    }

    /// Builder-style setter for framing.
    pub fn with_framing(mut self, framing: Framing) -> Self {
        self.framing = framing;
        self
    }

    /// Builder-style setter for the intermediate segment format version.
    pub fn with_ifile_version(mut self, version: IFileVersion) -> Self {
        self.ifile_version = version;
        self
    }

    /// Builder-style setter for slots.
    pub fn with_slots(mut self, map_slots: usize, reduce_slots: usize) -> Self {
        self.map_slots = map_slots;
        self.reduce_slots = reduce_slots;
        self
    }

    /// Builder-style setter for the spill threshold.
    pub fn with_spill_buffer(mut self, bytes: usize) -> Self {
        self.spill_buffer_bytes = bytes;
        self
    }

    /// Builder-style setter for the tracing/metrics recorder.
    pub fn with_recorder(mut self, recorder: crate::obs::Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Builder-style setter for the per-task retry budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.task_retries = retries;
        self
    }

    /// Builder-style setter for the fault-injection plan.
    pub fn with_faults(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }
}

/// The result of a finished job.
pub struct JobResult {
    /// Final output, one vector per reducer, in that reducer's key order.
    pub outputs: Vec<Vec<KvPair>>,
    /// Counter values at completion.
    pub counters: CounterSnapshot,
    /// Per-phase wall-clock and byte accounting for the cluster model.
    pub stats: JobStats,
}

impl JobResult {
    /// All outputs flattened (order: reducer 0's keys, then reducer 1's…).
    pub fn all_outputs(&self) -> Vec<KvPair> {
        self.outputs.iter().flatten().cloned().collect()
    }
}

/// A configured job, ready to run.
pub struct Job {
    config: JobConfig,
}

impl Job {
    /// Create a job with the given configuration.
    pub fn new(config: JobConfig) -> Self {
        Job { config }
    }

    /// The configuration.
    pub fn config(&self) -> &JobConfig {
        &self.config
    }

    /// Execute map → shuffle → reduce over the input splits.
    pub fn run(
        &self,
        splits: Vec<InputSplit>,
        mapper: Arc<dyn Mapper>,
        reducer: Arc<dyn Reducer>,
    ) -> Result<JobResult, MrError> {
        runner::run_job(&self.config, splits, mapper, reducer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(JobConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(JobConfig::default().with_reducers(0).validate().is_err());
        assert!(JobConfig::default().with_slots(0, 1).validate().is_err());
        assert!(JobConfig::default().with_slots(1, 0).validate().is_err());
        assert!(JobConfig::default()
            .with_spill_buffer(0)
            .validate()
            .is_err());
    }

    #[test]
    fn builders_compose() {
        let cfg = JobConfig::default()
            .with_reducers(5)
            .with_slots(10, 5)
            .with_framing(Framing::IFile)
            .with_spill_buffer(1024);
        assert_eq!(cfg.num_reducers, 5);
        assert_eq!(cfg.map_slots, 10);
        assert_eq!(cfg.reduce_slots, 5);
        assert_eq!(cfg.framing, Framing::IFile);
        assert_eq!(cfg.spill_buffer_bytes, 1024);
    }
}
