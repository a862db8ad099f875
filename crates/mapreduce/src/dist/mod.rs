//! Multi-process distributed runtime: the job's scheduler (`scheduler.rs`)
//! runs in a coordinator process with one *remote slot* per worker, and
//! worker processes (or threads, for hermetic tests) connect over the
//! platform's socket (`net.rs`), pull map and reduce assignments, and
//! stream IFile segments both ways. Every scheduling and fault-plan
//! decision is the scheduler's, as in a local job; this module adds only
//! the sockets and the frames on them.
//!
//! # Protocol
//!
//! One connection per worker, framed by `wire` (u32 length prefix + tag
//! byte), carries one conversation, and the worker speaks first. Each
//! end of it is a pure state machine whose module doc is that end's
//! transition table: `coordinator_machine.rs` for a remote slot,
//! `worker_machine.rs` for a worker. Either end answers a frame its
//! table does not allow with a [`MrError::Net`] that names it, and gives
//! the connection up. A worker that dies or goes silent mid-task is a
//! lost slot: its task goes back through the retry budget as a network
//! failure, not a hung job. No read or write on a connection, nor the
//! wait for a worker to connect, lasts longer than one deadline (30 s),
//! and the blocking socket is the only flow control. The tests' seeded
//! explorer runs both machines against the scheduler (DESIGN §14).
//!
//! # Entry points
//!
//! [`run_distributed`] re-executes `current_exe()` as each worker, whose
//! `main` must call [`worker_env`] early and hand off to the job's
//! bootstrap; [`run_distributed_with_threads`] runs the same coordinator
//! against worker threads over real sockets.
//!
//! Every frame comes from a peer, so outside the tests no module here
//! unwraps or indexes.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

mod coordinator;
mod coordinator_machine;
mod net;
mod wire;
mod worker;
mod worker_machine;

pub use crate::shuffle::{
    auto_shuffle_mem_bytes, SegmentHandle, SegmentRepr, ShuffleStore, SpilledHandle,
};
pub use coordinator::{run_distributed, run_distributed_with_threads};
pub use net::Transport;
pub use worker::run_worker;

use crate::error::MrError;
use std::ffi::{OsStr, OsString};
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

/// glibc's malloc settings for a spawned worker, passed as
/// `GLIBC_TUNABLES`: never `mmap` a buffer under 32 MiB (the largest
/// threshold glibc allows on 64-bit) and trim the heap only past 64 MiB,
/// above a worker's peak heap. By default a fresh process maps every
/// buffer of 128 KiB or more and unmaps it when the task ends, so the
/// next task faults the same pages back in, at about 2.5 µs a page on a
/// 2-core VM. The two workers of a 512² `median-plain-proc` job (16 maps,
/// 5 reduces) took about 31,600 minor faults per job by default and
/// 6,600 with this setting; a worker's peak RSS (`VmHWM`) rose from
/// about 12.8 to 15.3 MiB. Only spawned workers get it: thread workers
/// share a host process whose allocator is not the job's to set.
const WORKER_MALLOC_TUNABLES: &str =
    "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=67108864";

/// The `GLIBC_TUNABLES` a spawned worker gets: [`WORKER_MALLOC_TUNABLES`],
/// then the value the coordinator inherited, if any, after a `:`. glibc
/// applies the last setting of a tunable it reads, so the inherited
/// value still wins.
fn worker_tunables(inherited: Option<&OsStr>) -> OsString {
    let mut tunables = OsString::from(WORKER_MALLOC_TUNABLES);
    if let Some(theirs) = inherited {
        tunables.push(":");
        tunables.push(theirs);
    }
    tunables
}

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
    /// test, rather than hang it, if it neither returns nor panics within
    /// `limit`.
    pub(super) fn within_deadline<T: Send + 'static>(
        limit: Duration,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let conversation = std::thread::spawn(f);
        let t0 = std::time::Instant::now();
        while !conversation.is_finished() {
            assert!(t0.elapsed() < limit, "the conversation hung");
            std::thread::sleep(Duration::from_millis(1));
        }
        conversation
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    #[test]
    fn the_conversations_values_stay_small() {
        // Every frame, event and action is moved by value, and a settled
        // attempt's outcome rides in an action or an event: a counter bank
        // or a histogram bank (11,040 B) inline would size each.
        use std::mem::size_of;
        use {coordinator_machine as coord, worker_machine as work};
        let sizes = [
            ("Msg", size_of::<wire::Msg>(), 48),
            ("coordinator Event", size_of::<coord::Event>(), 64),
            ("coordinator Action", size_of::<coord::Action>(), 64),
            ("worker Event", size_of::<work::Event>(), 64),
        ];
        for (name, size, bound) in sizes {
            assert!(size <= bound, "{name} is {size} B, over {bound}");
        }
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
    fn a_spawned_worker_gets_our_tunables_then_the_inherited_ones() {
        assert_eq!(worker_tunables(None), WORKER_MALLOC_TUNABLES);
        let theirs = "glibc.malloc.arena_max=1:glibc.malloc.trim_threshold=0";
        assert_eq!(
            worker_tunables(Some(OsStr::new(theirs))),
            format!("{WORKER_MALLOC_TUNABLES}:{theirs}").as_str()
        );
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

#[cfg(test)]
mod explorer {
    //! The seeded conversation explorer. The schedule explorer in
    //! `scheduler.rs`'s tests drives `Sched` alone; this one composes it,
    //! as `JobState` does, with one
    //! coordinator machine per remote slot and one worker machine per
    //! worker, over an in-memory network of real encoded frames, on a
    //! virtual clock, one step at a time. Task bodies are the engine's own
    //! over three-record splits, memoized. Each conversation draws its job
    //! shape, its retry budget, lz or raw segments, failed attempts and
    //! fetches, and faults on up to every worker's connection:
    //!
    //! - the worker dies instead of sending its `k`th frame (a close at
    //!   frame `k`), or dies with that frame cut short (a truncated frame);
    //! - it goes quiet instead, past `DEADLINE` on the virtual clock;
    //! - it says `Hello` twice;
    //! - on its first map it first sends a `MapDone` of another attempt;
    //! - a frame that the receiving end's state does not take arrives while
    //!   that end awaits one.
    //!
    //! Every run must end with every slot gone, every worker ended, quiet
    //! or dead, and nothing wedged on the way; then either with the local
    //! engine's outputs and 18 semantic counters, every task committed once
    //! and every task a lost slot held committed by a later attempt, or with
    //! a structured [`MrError`], which a run with no fault and no failure
    //! may not end in.

    use super::coordinator_machine::{self as coord, Coordinator, Segment};
    use super::wire::{encode, read_msg, tests::Source, Msg};
    use super::worker_machine::{self as work, Worker};
    use super::DEADLINE;
    use crate::counters::{Counter, CounterKind, CounterSnapshot, Counters, ALL_COUNTERS};
    use crate::error::MrError;
    use crate::record::{Emit, FnMapper, FnReducer, InputSplit, KvPair, Mapper, Reducer};
    use crate::scheduler::{
        run_attempt, MapOutput, Next, Outcome, Sched, Settled, Step, Takes, Task,
    };
    use crate::shuffle::inflate;
    use crate::{runner, Job, JobConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet, VecDeque};
    use std::sync::Arc;

    /// Conversations the test runs.
    const CONVERSATIONS: u64 = 10_000;
    /// The virtual clock ticks a millisecond a step.
    const DEADLINE_MS: u64 = DEADLINE.as_millis() as u64;

    fn split(task: usize) -> InputSplit {
        let record = |i: usize| {
            let key = format!("key-{}", (task * 7 + i * 3) % 11).into_bytes();
            KvPair::new(key, vec![b'a' + i as u8; 1 + i])
        };
        InputSplit::new((0..3).map(record).collect())
    }

    fn mapper() -> Arc<dyn Mapper> {
        Arc::new(FnMapper(|k: &[u8], v: &[u8], out: &mut dyn Emit| {
            out.emit(k, v)
        }))
    }

    fn reducer() -> Arc<dyn Reducer> {
        Arc::new(FnReducer(|k: &[u8], vs: &[&[u8]], out: &mut dyn Emit| {
            out.emit(k, &vs.concat())
        }))
    }

    /// A product and the counter bank that came with it.
    type Banked<T> = (T, Box<CounterSnapshot>);

    type Segments = Vec<Vec<u8>>;

    /// A map's segments (`Ok`) or a reduce's outputs (`Err`).
    type Product = Result<MapOutput, Vec<KvPair>>;

    /// The task bodies' products, and each job shape's clean run, by the
    /// local engine, computed once per key.
    #[derive(Default)]
    struct Bodies {
        maps: HashMap<(usize, usize), Banked<MapOutput>>,
        /// By the reduce's `reduces * 100 + task` and its segments.
        reduces: HashMap<(usize, Segments), Banked<Vec<KvPair>>>,
        clean: HashMap<(usize, usize), Banked<Vec<Vec<KvPair>>>>,
    }

    thread_local! {
        static BODIES: RefCell<Bodies> = RefCell::default();
    }

    fn config(reduces: usize) -> JobConfig {
        JobConfig::default().with_reducers(reduces)
    }

    fn map_body(reduces: usize, task: usize, attempt: u32) -> Outcome<MapOutput> {
        let (segments, local) = BODIES.with_borrow_mut(|b| {
            let run = || {
                let outcome =
                    runner::map_attempt(&config(reduces), task, attempt, &split(task), &*mapper());
                let (segments, local, _) = outcome.unwrap();
                (segments, local)
            };
            b.maps.entry((reduces, task)).or_insert_with(run).clone()
        });
        Ok((segments, local, Default::default()))
    }

    fn reduce_body(reduces: usize, task: usize, segments: Vec<Vec<u8>>) -> Outcome<Vec<KvPair>> {
        let (outputs, local) = BODIES.with_borrow_mut(|b| {
            let run = |segments: &Vec<Vec<u8>>| {
                let reducer = reducer();
                let outcome = run_attempt(task, 0, |local, metrics| {
                    runner::run_reduce_task(
                        &config(reduces),
                        task,
                        segments,
                        &*reducer,
                        local,
                        metrics,
                    )
                });
                let (outputs, local, _) = outcome.unwrap();
                (outputs, local)
            };
            let key = (reduces * 100 + task, segments);
            b.reduces
                .entry(key.clone())
                .or_insert_with(|| run(&key.1))
                .clone()
        });
        Ok((outputs, local, Default::default()))
    }

    fn clean_run(maps: usize, reduces: usize) -> Banked<Vec<Vec<KvPair>>> {
        BODIES.with_borrow_mut(|b| {
            let run = || {
                let splits = (0..maps).map(split).collect();
                let result = Job::new(config(reduces))
                    .run(splits, mapper(), reducer())
                    .unwrap();
                (result.outputs, Box::new(result.counters))
            };
            b.clean.entry((maps, reduces)).or_insert_with(run).clone()
        })
    }

    /// A fault on one worker's connection.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fault {
        /// The worker dies instead of sending its `k`th frame.
        Die(u32),
        /// The worker sends its `k`th frame cut short, and dies.
        Truncate(u32),
        /// The worker goes quiet instead of sending its `k`th frame.
        Quiet(u32),
        DuplicateHello,
        StaleMapDone,
        /// A frame its state does not take reaches the coordinator's end
        /// (`true`) or the worker's, while that end awaits one.
        WrongFrame(bool),
    }

    /// Attempt failures a conversation may draw.
    const MAP_FAILS: u8 = 0;
    const REDUCE_FAILS: u8 = 1;
    const FETCH_FAILS: u8 = 2;

    /// Where a coordinator slot's thread is in `JobState::drive`.
    enum Drive {
        /// In its `Open` step.
        Opening,
        /// In its `Ready` step.
        Readying,
        /// Asking for an assignment; told to wait (`true`) until the next
        /// event.
        Idle(bool),
        /// Running a claim: its attempt, and whether it is an early reduce.
        Busy(Task, u32, bool),
        /// Sleeping out a failed attempt's backoff; `true` if the slot was
        /// lost and exits after the requeue.
        Backoff(Task, u32, bool),
        Gone,
    }

    struct Slot {
        machine: Coordinator,
        drive: Drive,
        /// A `Fetch` to resolve: partition, map task, attempt, index.
        fetch: Option<(usize, usize, u32, u64)>,
        /// When its read started to wait.
        since: Option<u64>,
        /// Whether it ended by closing its worker (not by being lost).
        closed: bool,
    }

    #[derive(PartialEq)]
    enum Life {
        Live,
        Quiet,
        Dead,
        Ended(bool),
    }

    struct Peer {
        machine: Worker,
        life: Life,
        /// An attempt or inflation its machine asked for, to run as a later
        /// step.
        attempt: Option<work::Action>,
        since: Option<u64>,
        sent: u32,
        fault: Option<Fault>,
        /// Whether a one-shot fault has been spent.
        spent: bool,
    }

    /// One connection: bytes in flight each way, and which ends are open.
    struct Link {
        up: VecDeque<u8>,
        down: VecDeque<u8>,
        coordinator_open: bool,
        worker_open: bool,
    }

    fn framed(pipe: &VecDeque<u8>) -> bool {
        let len = |i| pipe.get(i).copied().unwrap_or(0) as usize;
        pipe.len() >= 4 && pipe.len() >= 4 + (len(0) | len(1) << 8 | len(2) << 16 | len(3) << 24)
    }

    /// One move of the conversation: a step of one slot's or one
    /// worker's thread.
    #[derive(Clone, Copy)]
    enum Move {
        Read(usize),
        Timeout(usize),
        Fetch(usize),
        Ask(usize),
        Requeue(usize),
        WorkerRead(usize),
        WorkerTimeout(usize),
        Run(usize),
        Inject(usize),
    }

    struct Conversation {
        rng: StdRng,
        sched: Sched,
        retries: u32,
        maps: usize,
        reduces: usize,
        lz: bool,
        failures: HashSet<(u8, usize, u32)>,
        faulted: bool,
        slots: Vec<Slot>,
        peers: Vec<Peer>,
        links: Vec<Link>,
        published: Vec<Option<MapOutput>>,
        outputs: Vec<Vec<KvPair>>,
        /// Per task, maps then reduces: commits, and the committing attempt.
        commits: Vec<u32>,
        committed_at: Vec<u32>,
        /// Tasks (as above) and attempts a lost slot held.
        lost: Vec<(usize, u32)>,
        counters: Counters,
        errors: Vec<MrError>,
        now: u64,
    }

    impl Conversation {
        fn new(seed: u64) -> Conversation {
            let mut rng = StdRng::seed_from_u64(seed);
            let (maps, reduces) = (rng.random_range(0..6), rng.random_range(1..4));
            let workers = rng.random_range(1..5);
            let retries = rng.random_range(0..4);
            let eventful = rng.random_bool(0.7);
            let mut failures = HashSet::new();
            if eventful && rng.random_bool(0.5) {
                for attempt in 0..4 {
                    for (kind, tasks) in [(MAP_FAILS, maps), (REDUCE_FAILS, reduces)] {
                        for task in (0..tasks).filter(|_| rng.random_bool(0.1)) {
                            failures.insert((kind, task, attempt));
                        }
                    }
                    for at in (0..reduces * 8).filter(|_| rng.random_bool(0.03)) {
                        failures.insert((FETCH_FAILS, at, attempt));
                    }
                }
            }
            let fault = |rng: &mut StdRng| {
                let k = rng.random_range(0..12);
                match rng.random_range(0..6) {
                    0 => Fault::Die(k),
                    1 => Fault::Truncate(k),
                    2 => Fault::Quiet(k),
                    3 => Fault::DuplicateHello,
                    4 => Fault::StaleMapDone,
                    _ => Fault::WrongFrame(rng.random_bool(0.5)),
                }
            };
            let faults: Vec<Option<Fault>> = (0..workers)
                .map(|_| (eventful && rng.random_bool(0.4)).then(|| fault(&mut rng)))
                .collect();
            let mut sched = Sched::new((0..maps).map(split).collect(), reduces);
            (0..workers).for_each(|_| sched.join(Takes::Both));
            let mut c = Conversation {
                sched,
                retries,
                maps,
                reduces,
                lz: rng.random_bool(0.5),
                faulted: !failures.is_empty() || faults.iter().any(Option::is_some),
                failures,
                slots: Vec::new(),
                peers: Vec::new(),
                links: Vec::new(),
                published: vec![None; maps],
                outputs: vec![Vec::new(); reduces],
                commits: vec![0; maps + reduces],
                committed_at: vec![0; maps + reduces],
                lost: Vec::new(),
                counters: Counters::new(),
                errors: Vec::new(),
                now: 0,
                rng,
            };
            for (w, fault) in faults.into_iter().enumerate() {
                let (machine, opening) = Worker::start(w as u32);
                c.slots.push(Slot {
                    machine: Coordinator::new(maps, reduces),
                    drive: Drive::Opening,
                    fetch: None,
                    since: None,
                    closed: false,
                });
                c.peers.push(Peer {
                    machine,
                    life: Life::Live,
                    attempt: None,
                    since: None,
                    sent: 0,
                    fault,
                    spent: false,
                });
                c.links.push(Link {
                    up: VecDeque::new(),
                    down: VecDeque::new(),
                    coordinator_open: true,
                    worker_open: true,
                });
                c.carry_out(w, opening);
                c.feed_slot(w, coord::Event::Step(Step::Open));
            }
            c
        }

        fn index(&self, task: &Task) -> usize {
            match task {
                Task::Map(id, _) => *id,
                Task::Reduce(id) => self.maps + id,
            }
        }

        /// Whether slot `i` waits on a frame, and whether one (or the end
        /// of the stream) is there.
        fn slot_reads(&self, i: usize) -> (bool, bool) {
            let waits = matches!(
                self.slots[i].drive,
                Drive::Opening | Drive::Readying | Drive::Busy(..)
            ) && self.slots[i].fetch.is_none();
            let link = &self.links[i];
            (waits, framed(&link.up) || !link.worker_open)
        }

        fn peer_reads(&self, w: usize) -> (bool, bool) {
            let peer = &self.peers[w];
            let waits = peer.life == Life::Live && peer.attempt.is_none();
            let link = &self.links[w];
            (waits, framed(&link.down) || !link.coordinator_open)
        }

        fn done(&self) -> bool {
            self.slots.iter().all(|s| matches!(s.drive, Drive::Gone))
                && self.peers.iter().all(|p| p.life != Life::Live)
        }

        /// Start or stop each blocked read's clock; the enabled steps,
        /// weighted.
        fn enabled(&mut self) -> Vec<(u32, Move)> {
            let mut steps = Vec::new();
            for i in 0..self.slots.len() {
                let (waits, readable) = self.slot_reads(i);
                let blocked = waits && !readable;
                let since = &mut self.slots[i].since;
                *since = if blocked {
                    Some(since.unwrap_or(self.now))
                } else {
                    None
                };
                if waits && readable {
                    steps.push((4, Move::Read(i)));
                }
                if since.is_some_and(|t| self.now >= t + DEADLINE_MS) {
                    steps.push((1, Move::Timeout(i)));
                }
                let slot = &self.slots[i];
                if let Some((_, map_task, ..)) = slot.fetch {
                    if self.sched.aborted || self.published[map_task].is_some() {
                        steps.push((4, Move::Fetch(i)));
                    }
                }
                match slot.drive {
                    Drive::Idle(false) => steps.push((4, Move::Ask(i))),
                    Drive::Backoff(..) => steps.push((4, Move::Requeue(i))),
                    _ => {}
                }
            }
            for w in 0..self.peers.len() {
                let (waits, readable) = self.peer_reads(w);
                let blocked = waits && !readable;
                let since = &mut self.peers[w].since;
                *since = if blocked {
                    Some(since.unwrap_or(self.now))
                } else {
                    None
                };
                if waits && readable {
                    steps.push((4, Move::WorkerRead(w)));
                }
                if since.is_some_and(|t| self.now >= t + DEADLINE_MS) {
                    steps.push((1, Move::WorkerTimeout(w)));
                }
                if self.peers[w].attempt.is_some() {
                    steps.push((4, Move::Run(w)));
                }
                if let (Some(Fault::WrongFrame(to_coordinator)), false) =
                    (self.peers[w].fault, self.peers[w].spent)
                {
                    let link = &self.links[w];
                    let open = link.coordinator_open && link.worker_open;
                    let (waits, inbox) = match to_coordinator {
                        true => (self.slot_reads(w).0, &link.up),
                        false => (waits, &link.down),
                    };
                    if open && waits && inbox.is_empty() {
                        steps.push((1, Move::Inject(w)));
                    }
                }
            }
            steps
        }

        /// Run the conversation to its end, checking each step; returns
        /// whether the job failed.
        fn run(mut self) -> bool {
            for _ in 0..200_000 {
                if self.done() {
                    return self.check_end();
                }
                let steps = self.enabled();
                if steps.is_empty() {
                    // Only a read's deadline can end the wait, and only a
                    // quiet worker may make one pass.
                    let quiet = self.peers.iter().any(|p| p.life == Life::Quiet);
                    let clocks = self.slots.iter().map(|s| s.since);
                    let clocks = clocks.chain(self.peers.iter().map(|p| p.since));
                    match clocks.flatten().min() {
                        Some(t) if quiet => self.now = self.now.max(t + DEADLINE_MS),
                        _ => panic!("wedged: no step can be taken and no deadline can pass"),
                    }
                    continue;
                }
                let total = steps.iter().map(|s| s.0).sum::<u32>();
                let mut at = self.rng.random_range(0..total);
                let step = steps
                    .into_iter()
                    .find(|&(weight, _)| {
                        at < weight || {
                            at -= weight;
                            false
                        }
                    })
                    .map(|(_, step)| step)
                    .unwrap();
                self.apply(step);
                self.now += 1;
            }
            panic!("the conversation never ended");
        }

        fn apply(&mut self, step: Move) {
            match step {
                Move::Read(i) => match read_msg(&mut self.links[i].up) {
                    Ok(msg) => self.feed_slot(i, coord::Event::Frame(msg)),
                    Err(e) => self.lose(i, e),
                },
                Move::Timeout(i) => {
                    self.lose(i, MrError::Net("read frame length: timed out".into()))
                }
                Move::Fetch(i) => {
                    let Some((partition, map_task, attempt, _)) = self.slots[i].fetch.take() else {
                        unreachable!("a fetch step has a fetch")
                    };
                    let event = if self.sched.aborted {
                        coord::Event::Aborted
                    } else if self.failures.contains(&(
                        FETCH_FAILS,
                        partition * 8 + map_task,
                        attempt,
                    )) {
                        coord::Event::Fetched(Err(MrError::Checksum("spill read failed".into())))
                    } else {
                        let published = self.published[map_task].as_ref().unwrap();
                        let found = published.iter().find(|(p, _)| *p == partition);
                        let segment = found.map(|(_, data)| match self.lz {
                            true => {
                                let frame = scihadoop_compress::lz::compress(data);
                                let saved = data.len().saturating_sub(frame.len()) as u64;
                                Segment {
                                    comp: true,
                                    data: Arc::new(frame),
                                    saved,
                                }
                            }
                            false => Segment {
                                comp: false,
                                data: Arc::new(data.clone()),
                                saved: 0,
                            },
                        });
                        coord::Event::Fetched(Ok(segment))
                    };
                    self.feed_slot(i, event);
                }
                Move::Ask(i) => self.ask(i),
                Move::Requeue(i) => {
                    let Drive::Backoff(task, attempt, lost) =
                        std::mem::replace(&mut self.slots[i].drive, Drive::Readying)
                    else {
                        unreachable!("a requeue step backs off")
                    };
                    self.sched.requeue(task, attempt);
                    match lost {
                        true => self.exit(i),
                        false => self.feed_slot(i, coord::Event::Step(Step::Ready)),
                    }
                }
                Move::WorkerRead(w) => match read_msg(&mut self.links[w].down) {
                    Ok(msg) => self.feed_peer(w, work::Event::Frame(msg)),
                    Err(_) => self.end_peer(w, false),
                },
                Move::WorkerTimeout(w) => self.end_peer(w, false),
                Move::Run(w) => {
                    let event = match self.peers[w].attempt.take() {
                        Some(work::Action::Map(task, attempt, _)) => {
                            let failed = self.failures.contains(&(MAP_FAILS, task, attempt));
                            work::Event::Mapped(match failed {
                                true => Err(MrError::TaskFailed("map body failed".into())),
                                false => map_body(self.reduces, task, attempt),
                            })
                        }
                        Some(work::Action::Inflate(frame)) => {
                            work::Event::Inflated(inflate(&frame), 0)
                        }
                        Some(work::Action::Reduce(task, attempt, segments, _)) => {
                            let failed = self.failures.contains(&(REDUCE_FAILS, task, attempt));
                            work::Event::Reduced(match failed {
                                true => Err(MrError::TaskFailed("reduce body failed".into())),
                                false => reduce_body(self.reduces, task, segments),
                            })
                        }
                        _ => unreachable!("a run step has an attempt"),
                    };
                    self.feed_peer(w, event);
                }
                Move::Inject(w) => {
                    let Some(Fault::WrongFrame(to_coordinator)) = self.peers[w].fault else {
                        unreachable!("an inject step has its fault")
                    };
                    self.peers[w].spent = true;
                    let expects = match to_coordinator {
                        true => self.slots[w].machine.expects(),
                        false => self.peers[w].machine.expects(),
                    };
                    let bytes = (0..64)
                        .map(|_| self.rng.random_range(0..256u32) as u8)
                        .collect();
                    let mut frames = Msg::one_of_each(&mut Source { bytes, at: 0 });
                    frames.retain(|m| !expects.contains(&m.name()));
                    let msg = &frames[self.rng.random_range(0..frames.len())];
                    let inbox = match to_coordinator {
                        true => &mut self.links[w].up,
                        false => &mut self.links[w].down,
                    };
                    inbox.extend(encode(msg).unwrap());
                }
            }
            if !matches!(step, Move::Ask(_)) {
                self.changed();
            }
        }

        /// Every event but a `Wait` may let a waiting slot on.
        fn changed(&mut self) {
            for slot in &mut self.slots {
                if let Drive::Idle(waited) = &mut slot.drive {
                    *waited = false;
                }
            }
        }

        /// `JobState::next_assignment` for slot `i`, then the attempt, or
        /// the slot's close.
        fn ask(&mut self, i: usize) {
            match self.sched.next(Takes::Both) {
                Next::Run(task, attempt, early) => {
                    let t = self.index(&task);
                    assert_eq!(self.commits[t], 0, "a committed task was handed out again");
                    let step = match &task {
                        Task::Map(id, split) => Step::Map(*id, attempt, Arc::clone(split)),
                        Task::Reduce(id) => Step::Reduce(*id, attempt),
                    };
                    self.slots[i].drive = Drive::Busy(task, attempt, early);
                    self.feed_slot(i, coord::Event::Step(step));
                    self.changed();
                }
                Next::Wait => self.slots[i].drive = Drive::Idle(true),
                Next::Done => {
                    self.feed_slot(i, coord::Event::Step(Step::Close));
                    self.changed();
                }
            }
        }

        /// Feed slot `i`'s machine and carry out its actions, as
        /// `RemoteSlot::step` does.
        fn feed_slot(&mut self, i: usize, event: coord::Event) {
            let actions = match self.slots[i].machine.on(event) {
                Ok(actions) => actions,
                Err(e) => return self.lose(i, e),
            };
            for action in actions {
                let msg = match action {
                    coord::Action::Send(msg) => msg,
                    coord::Action::Serve(Segment { comp, data, .. }) => {
                        Msg::FetchSegment { comp, data }
                    }
                    coord::Action::Fetch((partition, attempt), map_task, index) => {
                        self.slots[i].fetch = Some((partition, map_task, attempt, index));
                        continue;
                    }
                    coord::Action::Settled(settled) => return self.settled(i, settled),
                };
                if !self.links[i].worker_open {
                    let e = MrError::Net(format!("write {}: broken pipe", msg.name()));
                    return self.lose(i, e);
                }
                self.links[i].down.extend(encode(&msg).unwrap());
            }
        }

        fn early_done(&mut self, early: bool) {
            if early {
                self.sched.early_done();
            }
        }

        /// `JobState::drive` on slot `i`'s settled step: settle the
        /// attempt or end the slot, then take the loop's next step. A step
        /// that settles out of turn loses the slot.
        fn settled(&mut self, i: usize, settled: Settled) {
            let drive = std::mem::replace(&mut self.slots[i].drive, Drive::Readying);
            match (drive, settled) {
                (Drive::Opening, Settled::Opened(_)) => {}
                (Drive::Readying, Settled::Ready) => self.slots[i].drive = Drive::Idle(false),
                (Drive::Busy(task @ Task::Map(..), attempt, early), Settled::Mapped(outcome)) => {
                    let outcome = outcome.map(|(segments, local, _)| (Ok(segments), local));
                    self.settle(i, task, attempt, early, outcome);
                }
                (
                    Drive::Busy(task @ Task::Reduce(_), attempt, early),
                    Settled::Reduced(Some(outcome)),
                ) => {
                    let outcome = outcome.map(|(outputs, local, _)| (Err(outputs), local));
                    self.settle(i, task, attempt, early, outcome);
                }
                (Drive::Busy(task @ Task::Reduce(_), _, early), Settled::Reduced(None)) => {
                    self.early_done(early);
                    self.sched.retire(&task);
                    self.slots[i].closed = true;
                    self.exit(i);
                }
                (Drive::Idle(_), Settled::Closed) => {
                    self.slots[i].closed = true;
                    self.exit(i);
                }
                (drive, _) => {
                    self.slots[i].drive = drive;
                    return self.lose(i, MrError::Net("settled out of turn".into()));
                }
            }
            if let Drive::Readying = self.slots[i].drive {
                self.feed_slot(i, coord::Event::Step(Step::Ready));
            }
        }

        /// `JobState::settle` of slot `i`'s attempt.
        fn settle(
            &mut self,
            i: usize,
            task: Task,
            attempt: u32,
            early: bool,
            outcome: Result<Banked<Product>, MrError>,
        ) {
            self.early_done(early);
            match outcome {
                Ok((product, local)) => {
                    let t = self.index(&task);
                    match (product, &task) {
                        (Ok(segments), Task::Map(id, _)) => self.published[*id] = Some(segments),
                        (Err(outputs), Task::Reduce(id)) => self.outputs[*id] = outputs,
                        _ => panic!("{task} settled with the other kind's product"),
                    }
                    self.counters.absorb(&local);
                    self.commits[t] += 1;
                    self.committed_at[t] = attempt;
                    assert_eq!(self.commits[t], 1, "{task} committed twice");
                    self.sched.retire(&task);
                }
                Err(e) => self.fail(i, task, attempt, e, false),
            }
        }

        /// `JobState::fail` for slot `i`'s attempt.
        fn fail(&mut self, i: usize, task: Task, attempt: u32, err: MrError, lost: bool) {
            if err.is_checksum() {
                self.counters.add(Counter::ChecksumFailures, 1);
            }
            if Sched::backoff(attempt, self.retries).is_some() {
                self.counters.add(Counter::TaskRetries, 1);
                self.slots[i].drive = Drive::Backoff(task, attempt, lost);
                return;
            }
            self.errors.push(err);
            self.sched.abort();
            self.sched.retire(&task);
            if lost {
                self.exit(i);
            }
        }

        /// Slot `i` is lost: the worker broke the protocol, hung up or
        /// went quiet. Its claim goes through the retry policy, and the
        /// slot goes.
        fn lose(&mut self, i: usize, e: MrError) {
            self.links[i].coordinator_open = false;
            self.slots[i].fetch = None;
            match std::mem::replace(&mut self.slots[i].drive, Drive::Gone) {
                Drive::Busy(task, attempt, early) => {
                    self.early_done(early);
                    self.lost.push((self.index(&task), attempt));
                    let err = MrError::Net(format!("lost during {task} attempt {attempt}: {e}"));
                    self.fail(i, task, attempt, err, true);
                }
                _ => self.exit(i),
            }
        }

        /// `JobState::slot_exited`.
        fn exit(&mut self, i: usize) {
            self.slots[i].drive = Drive::Gone;
            self.links[i].coordinator_open = false;
            if self.sched.exit(Takes::Both) && !self.sched.aborted {
                if self.errors.is_empty() {
                    let e = "the slots left cannot finish the job".into();
                    self.errors.push(MrError::Net(e));
                }
                self.sched.abort();
            }
        }

        fn feed_peer(&mut self, w: usize, event: work::Event) {
            match self.peers[w].machine.on(event) {
                Ok(actions) => self.carry_out(w, actions),
                Err(_) => self.end_peer(w, false),
            }
        }

        /// Worker `w`'s shell, with its connection's fault.
        fn carry_out(&mut self, w: usize, actions: Vec<work::Action>) {
            for action in actions {
                if self.peers[w].life != Life::Live {
                    return;
                }
                match action {
                    work::Action::Send(msg) => self.send_up(w, msg),
                    work::Action::End => self.end_peer(w, true),
                    work::Action::Map(task, attempt, _) => {
                        if self.peers[w].fault == Some(Fault::StaleMapDone) && !self.peers[w].spent
                        {
                            self.peers[w].spent = true;
                            let attempt = attempt.checked_sub(1).unwrap_or(attempt + 1);
                            let local = Box::new(Counters::new().snapshot());
                            self.send_up(
                                w,
                                Msg::MapDone {
                                    task: task as u32,
                                    attempt,
                                    local,
                                },
                            );
                        }
                        self.peers[w].attempt = Some(action);
                    }
                    work::Action::Inflate(_) | work::Action::Reduce(..) => {
                        self.peers[w].attempt = Some(action)
                    }
                }
            }
        }

        fn send_up(&mut self, w: usize, msg: Msg) {
            if self.peers[w].life != Life::Live {
                return;
            }
            if !self.links[w].coordinator_open {
                return self.end_peer(w, false);
            }
            let k = self.peers[w].sent;
            self.peers[w].sent += 1;
            let frame = encode(&msg).unwrap();
            let up = &mut self.links[w].up;
            match self.peers[w].fault {
                Some(Fault::Die(n)) if n == k => return self.die(w),
                Some(Fault::Truncate(n)) if n == k => {
                    let cut = self.rng.random_range(1..frame.len());
                    up.extend(&frame[..cut]);
                    return self.die(w);
                }
                Some(Fault::Quiet(n)) if n == k => {
                    self.peers[w].life = Life::Quiet;
                    return;
                }
                Some(Fault::DuplicateHello) if matches!(msg, Msg::Hello { .. }) => {
                    up.extend(&frame)
                }
                _ => {}
            }
            up.extend(frame);
        }

        fn die(&mut self, w: usize) {
            self.peers[w].life = Life::Dead;
            self.links[w].worker_open = false;
        }

        fn end_peer(&mut self, w: usize, ok: bool) {
            self.peers[w].life = Life::Ended(ok);
            self.peers[w].attempt = None;
            self.links[w].worker_open = false;
        }

        /// The checks on a finished conversation; returns whether the job
        /// failed.
        fn check_end(self) -> bool {
            for (slot, peer) in self.slots.iter().zip(&self.peers) {
                if slot.closed && peer.fault.is_none() {
                    assert!(
                        peer.life == Life::Ended(true),
                        "a released worker ended in an error"
                    );
                }
            }
            if !self.errors.is_empty() {
                assert!(self.sched.aborted, "a failed job was not aborted");
                assert!(
                    self.faulted,
                    "a run with no fault and no failure failed: {:?}",
                    self.errors
                );
                for e in &self.errors {
                    assert!(
                        matches!(
                            e,
                            MrError::Net(_) | MrError::TaskFailed(_) | MrError::Checksum(_)
                        ),
                        "{e:?}"
                    );
                }
                return true;
            }
            assert!(!self.sched.aborted, "an aborted job collected no error");
            assert!(
                self.commits.iter().all(|&c| c == 1),
                "tasks left: {:?}",
                self.commits
            );
            for &(t, attempt) in &self.lost {
                assert!(
                    self.committed_at[t] > attempt,
                    "a lost slot's task did not come back"
                );
            }
            let (outputs, counters) = clean_run(self.maps, self.reduces);
            assert_eq!(
                self.outputs, outputs,
                "the outputs differ from the clean run's"
            );
            let shuffled = self
                .published
                .iter()
                .flatten()
                .flatten()
                .map(|(_, d)| d.len() as u64);
            self.counters.add(Counter::ShuffleBytes, shuffled.sum());
            let ours = self.counters.snapshot();
            let semantic = ALL_COUNTERS
                .into_iter()
                .filter(|c| c.kind() == CounterKind::Semantic);
            for c in semantic {
                assert_eq!(
                    ours.get(c),
                    counters.get(c),
                    "{} differs from the clean run's",
                    c.name()
                );
            }
            false
        }
    }

    #[test]
    fn ten_thousand_seeded_conversations_end_clean_or_in_a_structured_error() {
        let mut failed = 0;
        for seed in 0..CONVERSATIONS {
            match std::panic::catch_unwind(|| Conversation::new(seed).run()) {
                Ok(f) => failed += u64::from(f),
                Err(_) => {
                    panic!("conversation seed {seed} fails (replay: Conversation::new({seed}))")
                }
            }
        }
        // Both ends of a job are reached many times over.
        let range = CONVERSATIONS / 20..CONVERSATIONS / 2;
        assert!(
            range.contains(&failed),
            "{failed} of {CONVERSATIONS} conversations failed"
        );
    }
}
