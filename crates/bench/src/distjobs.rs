//! The verification wordcount, and how a described job becomes a
//! runnable one.
//!
//! The distributed runtime re-executes the current binary to get worker
//! processes, so the coordinator and every worker must reconstruct the
//! *same* `(JobConfig, Mapper, Reducer)` triple from nothing but the
//! opaque payload carried in `SCIHADOOP_DIST_JOB`. That payload is the
//! job's [`LedgerConfig`] as JSON — the same object its ledger record
//! carries as `config` — and [`job_config`] is the one way back from a
//! description to a `JobConfig`. The workload is fixed to the wordcount
//! below: the worker never needs the input, which the coordinator ships
//! split by split.
//!
//! [`dist_worker`] is the bootstrap a binary hands control to when
//! [`scihadoop_mapreduce::dist::worker_env`] detects the worker
//! environment.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::codecs::codec_by_name;
use scihadoop_mapreduce::obs::LedgerConfig;
use scihadoop_mapreduce::{
    Emit, FaultConfig, FaultPlan, FnMapper, FnReducer, Framing, IFileVersion, JobConfig, Mapper,
    MrError, Reducer, WorkerEnv,
};
use std::sync::Arc;

/// The identity-emit mapper every wordcount in this crate runs.
pub fn wordcount_mapper() -> impl Mapper {
    FnMapper(|k: &[u8], v: &[u8], out: &mut dyn Emit| out.emit(k, v))
}

/// The summing reducer (and combiner) every wordcount in this crate
/// runs: 1-byte raw counts or 8-byte partial sums from a previous
/// combine pass in, both big-endian integers, and 8-byte big-endian
/// totals out.
pub fn wordcount_reducer() -> impl Reducer {
    FnReducer(|k: &[u8], values: &[&[u8]], out: &mut dyn Emit| {
        let total: u64 = values
            .iter()
            .map(|v| v.iter().fold(0u64, |n, &b| n << 8 | u64::from(b)))
            .sum();
        out.emit(k, &total.to_be_bytes());
    })
}

/// Rebuild the job a description describes: the wordcount's config,
/// with `combiner: true` meaning [`wordcount_reducer`], the default key
/// semantics and no recorder. Deterministic in the description, so the
/// coordinator's config and every worker's are interchangeable. The
/// description may have crossed a process boundary: a name nothing
/// builds, a plan that does not parse or a number that does not fit its
/// field is refused, never narrowed.
pub fn job_config(desc: &LedgerConfig) -> Result<JobConfig, MrError> {
    fn narrow<T: TryFrom<u64>>(key: &str, n: u64) -> Result<T, MrError> {
        T::try_from(n).map_err(|_| MrError::Config(format!("{key} {n} does not fit")))
    }
    let framing = match desc.framing.as_str() {
        "ifile" => Framing::IFile,
        "sequence_file" => Framing::SequenceFile,
        other => return Err(MrError::Config(format!("unknown framing {other:?}"))),
    };
    let ifile_version = match desc.ifile_version {
        1 => IFileVersion::V1,
        2 => IFileVersion::V2,
        3 => IFileVersion::V3,
        n => return Err(MrError::Config(format!("unknown ifile_version {n}"))),
    };
    let mut config = JobConfig::default()
        .with_codec(codec_by_name(&desc.codec).map_err(MrError::Config)?)
        .with_reducers(narrow("num_reducers", desc.num_reducers)?)
        .with_slots(
            narrow("map_slots", desc.map_slots)?,
            narrow("reduce_slots", desc.reduce_slots)?,
        )
        .with_spill_buffer(narrow("spill_buffer_bytes", desc.spill_buffer_bytes)?)
        .with_framing(framing)
        .with_ifile_version(ifile_version)
        .with_retries(narrow("task_retries", desc.task_retries)?);
    if desc.combiner {
        config = config.with_combiner(Arc::new(wordcount_reducer()));
    }
    if let Some(faults) = &desc.faults {
        config = config.with_faults(FaultPlan::new(FaultConfig::parse(faults)?));
    }
    config.validate()?;
    Ok(config)
}

/// Read a worker's payload: a [`LedgerConfig`] in its canonical JSON,
/// rebuilt by [`job_config`].
fn payload_config(payload: &str) -> Result<JobConfig, MrError> {
    let desc = LedgerConfig::from_json(payload)
        .map_err(|e| MrError::Config(format!("job payload: {e}")))?;
    job_config(&desc)
}

/// Worker-process bootstrap: rebuild the job from the environment's
/// payload and serve tasks until the coordinator says `Shutdown`.
/// Returns a process exit code; callers (`repro` main, test harness
/// entry points) should `std::process::exit` with it.
pub fn dist_worker(env: &WorkerEnv) -> i32 {
    let run = || -> Result<(), MrError> {
        scihadoop_mapreduce::run_worker(
            env.transport,
            &env.addr,
            env.worker,
            &payload_config(&env.job_payload)?,
            &wordcount_mapper(),
            &wordcount_reducer(),
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
    use scihadoop_mapreduce::Transport;

    /// The description of a storm wordcount, as `repro` builds it.
    fn storm() -> LedgerConfig {
        let config = JobConfig::default()
            .with_reducers(3)
            .with_framing(Framing::IFile)
            .with_retries(3)
            .with_faults(FaultPlan::new(
                FaultConfig::parse("seed=42,map=0.4,corrupt=0.3,cap=2").unwrap(),
            ));
        LedgerConfig::of(&config)
    }

    /// `storm()`'s payload with `from` replaced by `to` (exactly once).
    fn edited(from: &str, to: &str) -> String {
        let payload = storm().to_json();
        assert_eq!(payload.matches(from).count(), 1, "{from} in {payload}");
        payload.replace(from, to)
    }

    fn config_error(payload: &str) -> String {
        match payload_config(payload) {
            Err(MrError::Config(e)) => e,
            other => panic!("{payload}: expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn the_payload_is_the_ledger_config_and_spells_the_plan_in_full() {
        let payload = storm().to_json();
        assert!(payload.contains(
            "\"faults\":\"seed=42,map=0.4,reduce=0,corrupt=0.3,slow=0,slow_ms=1,cap=2\""
        ));
        let config = payload_config(&payload).unwrap();
        assert_eq!(config.num_reducers, 3);
        assert_eq!(config.task_retries, 3);
        assert_eq!(config.framing, Framing::IFile);
        assert_eq!(
            config.faults.as_ref().map(|p| p.config().clone()),
            Some(FaultConfig::parse("seed=42,map=0.4,corrupt=0.3,cap=2").unwrap())
        );
    }

    #[test]
    fn every_bad_payload_is_a_config_error() {
        let retries = "\"task_retries\":3";
        let cases = [
            // Not a description at all.
            String::new(),
            "task_retries=3".to_string(),
            // An unknown key (the old spec's segment-format knob, or
            // any other), a missing key, a reordered key.
            edited(retries, &format!("{retries},\"ifile\":3")),
            edited("\"faults\":", "\"frobnicate\":1,\"faults\":"),
            edited(&format!(",{retries}"), ""),
            edited(
                &format!("\"combiner\":false,{retries}"),
                &format!("{retries},\"combiner\":false"),
            ),
            // A value of the wrong type, or not an integer.
            edited(retries, "\"task_retries\":\"3\""),
            edited(retries, "\"task_retries\":1.5"),
            edited(retries, "\"task_retries\":-1"),
            // Names and numbers nothing builds.
            edited("\"codec\":\"identity\"", "\"codec\":\"no-such-codec\""),
            edited("cap=2", "cap=two"),
            edited("map=0.4", "map=1.5"),
            edited("\"ifile_version\":3", "\"ifile_version\":4"),
            edited("\"framing\":\"ifile\"", "\"framing\":\"hadoop\""),
            edited("\"num_reducers\":3", "\"num_reducers\":0"),
            // Valid JSON in a spelling no writer of ours produces.
            edited(retries, "\"task_retries\":3.0"),
            format!(" {}", storm().to_json()),
        ];
        for payload in &cases {
            config_error(payload);
        }
        // 2^32 + 1 once narrowed to a retry budget of 1.
        let e = config_error(&edited(retries, "\"task_retries\":4294967297"));
        assert!(e.contains("task_retries 4294967297"), "{e}");
    }

    #[test]
    fn a_worker_given_a_bad_payload_exits_1() {
        let env = WorkerEnv {
            addr: String::new(),
            transport: Transport::Uds,
            worker: 0,
            job_payload: edited("\"task_retries\":3", "\"task_retries\":4294967297"),
        };
        assert_eq!(dist_worker(&env), 1);
    }

    /// A description rebuilt into a config describes itself again, for
    /// every codec name the grammar generates (in the spelling the
    /// codec reports) × plan on/off × combiner on/off × v2/v3.
    #[test]
    fn a_description_is_a_fixpoint_of_job_config() {
        let plan = storm().faults;
        for base in ["identity", "lz", "deflate", "bzip"] {
            for prefix in ["", "transform+"] {
                let codec = codec_by_name(&format!("{prefix}{base}")).unwrap();
                for faults in [None, plan.clone()] {
                    for combiner in [false, true] {
                        for ifile_version in [2, 3] {
                            let desc = LedgerConfig {
                                codec: codec.name().to_string(),
                                faults: faults.clone(),
                                combiner,
                                ifile_version,
                                ..storm()
                            };
                            let config = job_config(&desc).unwrap();
                            assert_eq!(LedgerConfig::of(&config), desc);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_reducer_sums_raw_counts_and_partial_sums_alike() {
        let mut out = Vec::new();
        let mut emit = |_: &[u8], v: &[u8]| out.push(v.to_vec());
        let partial = 300u64.to_be_bytes();
        wordcount_reducer().reduce(b"k", &[&[1], &partial, &[255]], &mut emit);
        assert_eq!(out, [556u64.to_be_bytes().to_vec()]);
    }
}
