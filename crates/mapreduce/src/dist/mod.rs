//! Multi-process distributed runtime: the job's scheduler (`scheduler.rs`)
//! runs in a coordinator process with one *remote slot* per worker;
//! worker processes (or threads, for hermetic tests) connect over the
//! platform's socket (`net.rs`: Unix-domain where the platform has them,
//! loopback TCP where it has none), pull map/reduce assignments, and
//! stream IFile segments back and forth. Task choice, retries, backoff,
//! abort, the two counter banks of an attempt and fault-plan corruption
//! of fetched segments are the scheduler's and identical to a local
//! job's; this module adds only the sockets and the frames on them.
//!
//! # Protocol
//!
//! One connection per worker, framed by `wire` (u32 length prefix +
//! tag byte), carrying one conversation. The worker speaks first, and
//! the frames a connection carries, both directions interleaved in the
//! order they are sent, are a sentence of this grammar:
//!
//! ```text
//! Conversation = Hello (TaskRequest Task)* TaskRequest Shutdown
//! Task         = MapTask MapSegment* (MapDone | TaskFailed)
//!              | ReduceTask (TaskFailed
//!                           | FetchStart FetchSegment* (SegmentsDone (ReduceDone | TaskFailed)
//!                                                      | FetchFailed TaskFailed
//!                                                      | Shutdown))
//! ```
//!
//! The worker sends `Hello`, `TaskRequest`, `MapSegment`, `MapDone`,
//! `FetchStart`, `ReduceDone` and `TaskFailed`; the coordinator sends
//! the rest. Either end answers a frame the grammar does not allow at
//! that point with a [`MrError::Net`] that names it, and gives the
//! connection up.
//!
//! - **Map**: `MapTask` carries the split. The worker runs the attempt
//!   and sends one `MapSegment` per non-empty partition — a second one
//!   for the same partition is a violation — which the coordinator
//!   stages and publishes only on `MapDone`.
//! - **Reduce**: the worker's fault gate runs *before* any fetch;
//!   `FetchStart` says it passed. The coordinator then sends the
//!   partition's segments, one whole segment per `FetchSegment` frame,
//!   **in canonical map-task order**, blocking per segment until that map
//!   task has completed — the pipelined fetch-while-map overlap — and
//!   closes the stream with `SegmentsDone`. A segment the store cannot
//!   serve (its spill read fails) ends the stream with `FetchFailed`
//!   instead, and the worker fails the attempt with `TaskFailed`: the
//!   attempt is retried, the worker kept. The inner `Shutdown` releases
//!   a worker whose fetch was cut short because the job aborted, and ends
//!   the conversation.
//!
//! The blocking socket is the only flow control: a peer that reads
//! slower than the other writes stalls that `write_all`, nothing else.
//! `MapDone`, `ReduceDone` and `TaskFailed` name their `(task, attempt)`
//! and carry the attempt's counter banks. A worker that dies mid-task
//! surfaces as a lost slot: its task goes back through the retry budget
//! as a network failure, not a hung job. So does a peer that goes
//! silent: no read or write on a connection, nor the wait for a worker to
//! connect, lasts longer than one deadline (30 s).
//!
//! # Entry points
//!
//! [`run_distributed`] spawns real worker processes by re-executing
//! `current_exe()` with the `SCIHADOOP_DIST_*` environment set; the
//! worker `main` must call [`worker_env`] early and hand off to the
//! job-specific bootstrap. [`run_distributed_with_threads`] runs the
//! same coordinator against in-process worker threads over real
//! sockets — the full wire protocol without process spawning.

mod coordinator;
mod net;
mod wire;
mod worker;

pub use crate::shuffle::{
    auto_shuffle_mem_bytes, SegmentHandle, SegmentRepr, ShuffleStore, SpilledHandle,
};
pub use coordinator::{run_distributed, run_distributed_with_threads};
pub use net::Transport;
pub use worker::run_worker;

use crate::error::MrError;
use std::time::Duration;

/// The longest any socket wait lasts: an accept, and each read and write.
/// 70× the longest gap between two frames measured (0.43 s); a task
/// silent for longer is taken for a hung peer.
const DEADLINE: Duration = Duration::from_secs(30);

/// Environment variable carrying the coordinator's socket address.
pub const ENV_ADDR: &str = "SCIHADOOP_DIST_ADDR";
/// Environment variable carrying this worker's numeric id.
pub const ENV_WORKER: &str = "SCIHADOOP_DIST_WORKER";
/// Environment variable carrying the opaque job payload the worker's
/// bootstrap turns back into a `(JobConfig, Mapper, Reducer)` triple.
pub const ENV_JOB: &str = "SCIHADOOP_DIST_JOB";

/// Transparent compression applied to shuffle bytes in flight and at
/// rest: segments are compressed once at publish (so spills hit disk
/// small and serving stays zero-copy of the compressed bytes) and
/// decompressed by the fetching reducer before its CRC check. Placement
/// and framing only — reduce inputs, outputs, and every job-level
/// counter except the new wire/codec telemetry are byte-identical to
/// [`WireCodec::Identity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// Raw segment bytes on the wire and on spill disk.
    #[default]
    Identity,
    /// [`scihadoop_compress::lz`] frames: LZ4-class speed, no entropy
    /// stage. Used only for segments it actually shrinks; segments that
    /// don't compress are stored and served raw.
    Lz,
}

impl WireCodec {
    /// Parse a `--wire-codec` grammar name.
    pub fn parse(s: &str) -> Result<Self, MrError> {
        match s {
            "identity" => Ok(WireCodec::Identity),
            "lz" => Ok(WireCodec::Lz),
            other => Err(MrError::Config(format!(
                "unknown wire codec {other:?}: expected identity|lz"
            ))),
        }
    }

    /// The grammar name, inverse of [`WireCodec::parse`].
    pub fn name(self) -> &'static str {
        match self {
            WireCodec::Identity => "identity",
            WireCodec::Lz => "lz",
        }
    }
}

/// Settings for the distributed runtime, separate from [`crate::JobConfig`]
/// because they describe *where* the job runs, not what it computes.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Number of worker processes (or threads) to run tasks on.
    pub workers: usize,
    /// Unread: the build picks the socket family. Kept, with
    /// [`DistConfig::with_transport`], only because the `benchmark/`
    /// package sets it; both go when that package is next changed
    /// (ROADMAP item 2).
    pub transport: Transport,
    /// Arguments passed to re-executions of `current_exe()` when
    /// spawning worker processes (e.g. the libtest filter that routes a
    /// test binary into its worker entry point). Unused in thread mode.
    pub worker_args: Vec<String>,
    /// Opaque job description exported to worker processes via
    /// [`ENV_JOB`]; the worker bootstrap parses it back into the same
    /// config/mapper/reducer the coordinator uses. Unused in thread
    /// mode. Must be non-empty for [`run_distributed`].
    pub job_payload: String,
    /// In-memory budget for the job's shuffle store, in bytes. A
    /// published segment that fits what is left of it stays resident
    /// until its partition's reduce commits; one that does not goes to
    /// its partition's spill file and is served back by positioned
    /// reads. `None` sizes the budget from available machine memory
    /// ([`auto_shuffle_mem_bytes`]); `Some(0)` spills everything,
    /// `Some(usize::MAX)` never spills. Placement only — the served
    /// bytes are identical either way.
    pub shuffle_mem_bytes: Option<usize>,
    /// Shuffle wire/spill compression.
    pub wire_codec: WireCodec,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            workers: 3,
            transport: Transport::default(),
            worker_args: Vec::new(),
            job_payload: String::new(),
            shuffle_mem_bytes: None,
            wire_codec: WireCodec::default(),
        }
    }
}

impl DistConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), MrError> {
        if self.workers == 0 {
            return Err(MrError::Config("dist workers must be > 0".into()));
        }
        Ok(())
    }

    /// Builder-style setter for the worker count.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Builder-style setter for the unread [`DistConfig::transport`].
    pub fn with_transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Builder-style setter for worker-process arguments.
    pub fn with_worker_args(mut self, args: &[&str]) -> Self {
        self.worker_args = args.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Builder-style setter for the job payload.
    pub fn with_job_payload(mut self, payload: &str) -> Self {
        self.job_payload = payload.to_string();
        self
    }

    /// Builder-style setter for the shuffle store's in-memory budget.
    pub fn with_shuffle_mem_bytes(mut self, bytes: Option<usize>) -> Self {
        self.shuffle_mem_bytes = bytes;
        self
    }

    /// Builder-style setter for shuffle wire/spill compression.
    pub fn with_wire_codec(mut self, codec: WireCodec) -> Self {
        self.wire_codec = codec;
        self
    }

    /// The effective shuffle memory budget: the configured value, or
    /// the machine-sized default.
    pub fn shuffle_mem_budget(&self) -> usize {
        self.shuffle_mem_bytes
            .unwrap_or_else(auto_shuffle_mem_bytes)
    }
}

/// What a spawned worker process reads from its environment.
#[derive(Debug, Clone)]
pub struct WorkerEnv {
    /// Coordinator address ([`ENV_ADDR`]).
    pub addr: String,
    /// Always [`Transport::Uds`], and unread. Kept only because the
    /// `benchmark/` package passes it to [`run_worker`]; it goes when that
    /// package is next changed (ROADMAP item 2).
    pub transport: Transport,
    /// This worker's id ([`ENV_WORKER`]).
    pub worker: u32,
    /// Opaque job description ([`ENV_JOB`]).
    pub job_payload: String,
}

/// Detect a worker-process environment. `None` means this process is
/// not a spawned worker (the common case); binaries that can host
/// workers call this first thing in `main` and divert into their worker
/// bootstrap when it returns `Some`. Malformed values in a set
/// environment error out rather than silently running the normal path.
pub fn worker_env() -> Result<Option<WorkerEnv>, MrError> {
    worker_env_from(|key| std::env::var(key).ok())
}

/// [`worker_env`] over any variable lookup.
fn worker_env_from(var: impl Fn(&str) -> Option<String>) -> Result<Option<WorkerEnv>, MrError> {
    let Some(addr) = var(ENV_ADDR) else {
        return Ok(None);
    };
    let get = |key: &str| {
        var(key).ok_or_else(|| {
            MrError::Config(format!(
                "{ENV_ADDR} is set but {key} is missing from the environment"
            ))
        })
    };
    let worker = get(ENV_WORKER)?
        .parse::<u32>()
        .map_err(|e| MrError::Config(format!("bad {ENV_WORKER}: {e}")))?;
    let job_payload = get(ENV_JOB)?;
    Ok(Some(WorkerEnv {
        addr,
        transport: Transport::Uds,
        worker,
        job_payload,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one scripted conversation on a thread of its own and fail the
    /// test, rather than hang it, if it neither returns nor panics in
    /// time.
    pub(super) fn within_deadline<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let conversation = std::thread::spawn(f);
        let t0 = std::time::Instant::now();
        while !conversation.is_finished() {
            assert!(t0.elapsed() < DEADLINE, "the conversation hung");
            std::thread::sleep(Duration::from_millis(1));
        }
        conversation
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    #[test]
    fn dist_config_validates() {
        assert!(DistConfig::default().validate().is_ok());
        assert!(DistConfig::default().with_workers(0).validate().is_err());
    }

    #[test]
    fn wire_codec_names_round_trip() {
        for codec in [WireCodec::Identity, WireCodec::Lz] {
            assert_eq!(WireCodec::parse(codec.name()).unwrap(), codec);
        }
        assert!(WireCodec::parse("deflate").is_err());
        assert!(WireCodec::parse("").is_err());
    }

    #[test]
    fn worker_env_absent_means_not_a_worker() {
        // The test runner never sets the dist environment for itself.
        assert!(worker_env().unwrap().is_none());
    }

    #[test]
    fn worker_env_needs_the_address_the_id_and_the_job_and_nothing_else() {
        let vars = [
            (ENV_ADDR, "shuffle.sock"),
            (ENV_WORKER, "2"),
            (ENV_JOB, "records=8"),
        ];
        let env = worker_env_from(|key| {
            let found = vars.iter().find(|(k, _)| *k == key);
            found.map(|(_, v)| v.to_string())
        })
        .unwrap()
        .unwrap();
        assert_eq!(
            (env.addr.as_str(), env.worker, env.job_payload.as_str()),
            ("shuffle.sock", 2, "records=8")
        );
        // Once the address is set, the id and the job are required.
        for missing in [ENV_WORKER, ENV_JOB] {
            let err = worker_env_from(|key| {
                let found = vars.iter().find(|(k, _)| *k == key && key != missing);
                found.map(|(_, v)| v.to_string())
            })
            .unwrap_err();
            assert!(err.to_string().contains(missing), "{err}");
        }
    }
}
