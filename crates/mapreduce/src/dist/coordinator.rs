//! The coordinator: schedules map/reduce tasks onto connected workers,
//! runs the shuffle service, merges per-attempt counter banks, and
//! assembles the final [`JobResult`]. One thread per worker connection;
//! shared state is the same [`WorkQueue`] retry machinery the local
//! thread pool uses, so task re-execution across processes follows the
//! job's retry budget and deterministic backoff.

use super::net::{Listener, Stream};
use super::shuffle::{SegmentRepr, ShuffleStore, SpilledHandle};
use super::wire::{
    encode_seg_chunk, expect_credit, read_msg_capped, write_msg_capped, Msg, CAP_LZ,
};
use super::DistConfig;
use crate::counters::{Counter, Counters};
use crate::error::MrError;
use crate::job::{JobConfig, JobResult};
use crate::record::{InputSplit, KvPair, Mapper, Reducer};
use crate::runner::WorkQueue;
use parking_lot::Mutex;
use scihadoop_compress::checksum::Crc32c;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run a distributed job on freshly spawned worker *processes*: the
/// current executable is re-executed with `dist.worker_args` and the
/// `SCIHADOOP_DIST_*` environment, and must route itself into a
/// bootstrap that parses `dist.job_payload` and calls
/// [`run_worker`](super::run_worker).
pub fn run_distributed(
    config: &JobConfig,
    dist: &DistConfig,
    splits: Vec<InputSplit>,
) -> Result<JobResult, MrError> {
    if dist.job_payload.is_empty() {
        return Err(MrError::Config(
            "dist.job_payload must describe the job for spawned worker processes".into(),
        ));
    }
    run_coordinator(config, dist, splits, Launch::Processes)
}

/// Run the same coordinator against in-process worker *threads*
/// connected over real sockets: the full wire protocol — framing,
/// credits, streaming, retries — without process spawning. This is the
/// hermetic test path; it shares every line of coordinator and worker
/// code with the process path except the launcher.
pub fn run_distributed_with_threads(
    config: &JobConfig,
    dist: &DistConfig,
    splits: Vec<InputSplit>,
    mapper: Arc<dyn Mapper>,
    reducer: Arc<dyn Reducer>,
) -> Result<JobResult, MrError> {
    run_coordinator(config, dist, splits, Launch::Threads { mapper, reducer })
}

enum Launch {
    Processes,
    Threads {
        mapper: Arc<dyn Mapper>,
        reducer: Arc<dyn Reducer>,
    },
}

enum Handles {
    Processes(Vec<std::process::Child>),
    Threads(Vec<std::thread::JoinHandle<Result<(), MrError>>>),
}

impl Handles {
    /// Whether any worker has already exited — a worker that dies before
    /// connecting would otherwise stall the accept loop to its deadline.
    fn any_dead(&mut self) -> bool {
        match self {
            Handles::Processes(children) => children
                .iter_mut()
                .any(|c| matches!(c.try_wait(), Ok(Some(_)))),
            Handles::Threads(joins) => joins.iter().any(|j| j.is_finished()),
        }
    }

    /// Collect every worker. On a failed job, processes are killed
    /// outright; on success they received `Shutdown` and get a grace
    /// period to exit before being killed as stragglers.
    fn reap(self, failed: bool) {
        match self {
            Handles::Processes(mut children) => {
                if failed {
                    for c in &mut children {
                        let _ = c.kill();
                    }
                }
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    let pending = children
                        .iter_mut()
                        .any(|c| matches!(c.try_wait(), Ok(None)));
                    if !pending {
                        break;
                    }
                    if Instant::now() >= deadline {
                        for c in &mut children {
                            let _ = c.kill();
                        }
                        for c in &mut children {
                            let _ = c.wait();
                        }
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            Handles::Threads(joins) => {
                // Worker errors after an abort are expected (their
                // sockets died with the job); the job error, if any, is
                // already collected.
                for j in joins {
                    let _ = j.join();
                }
            }
        }
    }
}

fn spawn_worker_processes(
    dist: &DistConfig,
    addr: &str,
) -> Result<Vec<std::process::Child>, MrError> {
    let exe = std::env::current_exe()
        .map_err(|e| MrError::Config(format!("cannot locate current executable: {e}")))?;
    let mut children: Vec<std::process::Child> = Vec::with_capacity(dist.workers);
    for worker in 0..dist.workers {
        let spawned = std::process::Command::new(&exe)
            .args(&dist.worker_args)
            .env(super::ENV_ADDR, addr)
            .env(super::ENV_TRANSPORT, dist.transport.name())
            .env(super::ENV_WORKER, worker.to_string())
            .env(super::ENV_JOB, &dist.job_payload)
            .stdin(std::process::Stdio::null())
            // Worker stdout is libtest/CLI chatter; stderr stays visible
            // so a worker panic is diagnosable from the coordinator run.
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .spawn();
        match spawned {
            Ok(child) => children.push(child),
            Err(e) => {
                for mut c in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(MrError::Net(format!("spawn worker {worker}: {e}")));
            }
        }
    }
    Ok(children)
}

/// Everything the connection-serving threads share.
struct Shared<'a> {
    config: &'a JobConfig,
    dist: &'a DistConfig,
    splits: &'a [InputSplit],
    num_maps: usize,
    map_queue: WorkQueue<usize>,
    reduce_queue: WorkQueue<usize>,
    store: ShuffleStore,
    counters: Counters,
    errors: Mutex<Vec<MrError>>,
    outputs: Vec<Mutex<Vec<KvPair>>>,
    /// Connections still being served; a death here changes scheduling.
    live: AtomicUsize,
    /// Workers currently running a reduce handed out before the map
    /// phase drained (pipelined fetch-while-map). Bounded to `live - 1`
    /// so at least one worker always remains available for maps.
    early_reduces: Mutex<usize>,
    map_t0: Instant,
    maps_drained_at: Mutex<Option<Instant>>,
    reduce_t0: Mutex<Option<Instant>>,
}

impl Shared<'_> {
    fn abort_all(&self) {
        self.map_queue.abort();
        self.reduce_queue.abort();
        self.store.abort();
    }

    fn note_maps_drained(&self) {
        if self.map_queue.is_drained() {
            let mut at = self.maps_drained_at.lock();
            if at.is_none() {
                *at = Some(Instant::now());
            }
        }
    }
}

fn run_coordinator(
    config: &JobConfig,
    dist: &DistConfig,
    splits: Vec<InputSplit>,
    launch: Launch,
) -> Result<JobResult, MrError> {
    config.validate()?;
    dist.validate()?;
    let num_maps = splits.len();
    let input_bytes: u64 = splits.iter().map(|s| s.bytes()).sum();

    let listener = Listener::bind(dist.transport)?;
    let addr = listener.addr()?;

    let mut handles = match launch {
        Launch::Processes => Handles::Processes(spawn_worker_processes(dist, &addr)?),
        Launch::Threads { mapper, reducer } => {
            let mut joins = Vec::with_capacity(dist.workers);
            for worker in 0..dist.workers {
                let config = config.clone();
                let addr = addr.clone();
                let transport = dist.transport;
                let mapper = Arc::clone(&mapper);
                let reducer = Arc::clone(&reducer);
                joins.push(std::thread::spawn(move || {
                    super::run_worker(
                        transport,
                        &addr,
                        worker as u32,
                        &config,
                        mapper.as_ref(),
                        reducer.as_ref(),
                    )
                }));
            }
            Handles::Threads(joins)
        }
    };

    // All workers connect before the job clock starts.
    let mut conns = Vec::with_capacity(dist.workers);
    for _ in 0..dist.workers {
        match listener.accept_deadline(dist.spawn_timeout, &mut || !handles.any_dead()) {
            Ok(stream) => conns.push(stream),
            Err(e) => {
                handles.reap(true);
                return Err(e);
            }
        }
    }

    let shared = Shared {
        config,
        dist,
        splits: &splits,
        num_maps,
        map_queue: WorkQueue::new((0..num_maps).collect()),
        reduce_queue: WorkQueue::new((0..config.num_reducers).collect()),
        store: ShuffleStore::new_with_codec(
            config.num_reducers,
            num_maps,
            dist.shuffle_mem_budget(),
            dist.wire_codec,
        ),
        counters: Counters::new(),
        errors: Mutex::new(Vec::new()),
        outputs: (0..config.num_reducers)
            .map(|_| Mutex::new(Vec::new()))
            .collect(),
        live: AtomicUsize::new(dist.workers),
        early_reduces: Mutex::new(0),
        map_t0: Instant::now(),
        maps_drained_at: Mutex::new(None),
        reduce_t0: Mutex::new(None),
    };

    std::thread::scope(|scope| {
        for stream in conns {
            let shared = &shared;
            scope.spawn(move || {
                let result = serve_connection(shared, stream);
                let live = shared.live.fetch_sub(1, Ordering::AcqRel) - 1;
                if result.is_err() {
                    // This worker died. Its in-flight task (if any) was
                    // already requeued; check the remaining workers can
                    // still make progress — every live one may be
                    // parked in an early reduce waiting on map outputs
                    // that now have no one to produce them.
                    let early = *shared.early_reduces.lock();
                    let work_left =
                        !shared.map_queue.is_drained() || !shared.reduce_queue.is_drained();
                    let maps_stuck = !shared.map_queue.is_drained() && early >= live;
                    if work_left && (live == 0 || maps_stuck) {
                        let mut errors = shared.errors.lock();
                        if errors.is_empty() {
                            errors.push(MrError::Net(format!(
                                "{live} live workers remain, which cannot finish the job"
                            )));
                        }
                        drop(errors);
                        shared.abort_all();
                    }
                }
            });
        }
    });

    let mut collected = std::mem::take(&mut *shared.errors.lock());
    if collected.is_empty() && (!shared.map_queue.is_drained() || !shared.reduce_queue.is_drained())
    {
        collected.push(MrError::Net(
            "all workers exited before the job completed".into(),
        ));
    }
    handles.reap(!collected.is_empty());
    if !collected.is_empty() {
        return Err(MrError::from_task_errors(collected));
    }

    let map_wall_nanos = shared
        .maps_drained_at
        .lock()
        .unwrap_or(shared.map_t0)
        .duration_since(shared.map_t0)
        .as_nanos() as u64;
    let reduce_wall_nanos = shared
        .reduce_t0
        .lock()
        .map(|t0| t0.elapsed().as_nanos() as u64)
        .unwrap_or(0);

    shared
        .counters
        .add(Counter::ShuffleBytes, shared.store.total_bytes());
    shared
        .counters
        .add(Counter::ShuffleSpilledBytes, shared.store.spilled_bytes());
    shared
        .counters
        .add(Counter::ShuffleSpillReads, shared.store.spill_reads());
    // Max-semantics charged once at job end, so the additive bank holds
    // the true high-water mark.
    shared
        .counters
        .add(Counter::ShuffleMemHighWater, shared.store.mem_high_water());
    shared.counters.add(
        Counter::ShuffleSpillDeadBytes,
        shared.store.spill_dead_bytes(),
    );
    shared
        .counters
        .add(Counter::LzCompressNanos, shared.store.compress_nanos());
    crate::runner::finish_job(
        config,
        &shared.counters,
        shared.outputs.iter().map(|m| m.lock().clone()).collect(),
        num_maps,
        input_bytes,
        map_wall_nanos,
        reduce_wall_nanos,
    )
}

enum Assignment {
    Map(usize, u32),
    Reduce {
        task: usize,
        attempt: u32,
        early: bool,
    },
    Shutdown,
}

/// Pick the next task for an idle worker. Maps strictly first; a reduce
/// is handed out before the map phase drains only while at least one
/// *other* live worker stays free for maps (the early-reduce reserve),
/// which is what overlaps reduce-side fetch with the tail of the map
/// phase without starving it.
fn next_assignment(shared: &Shared) -> Assignment {
    loop {
        if shared.map_queue.is_aborted() || shared.reduce_queue.is_aborted() {
            return Assignment::Shutdown;
        }
        if let Some((task, attempt)) = shared.map_queue.try_claim() {
            return Assignment::Map(task, attempt);
        }
        if shared.map_queue.is_drained() {
            shared.note_maps_drained();
            if let Some((task, attempt)) = shared.reduce_queue.try_claim() {
                return Assignment::Reduce {
                    task,
                    attempt,
                    early: false,
                };
            }
            if shared.reduce_queue.is_drained() {
                return Assignment::Shutdown;
            }
        } else {
            let live = shared.live.load(Ordering::Acquire);
            let mut early = shared.early_reduces.lock();
            if live > *early + 1 {
                if let Some((task, attempt)) = shared.reduce_queue.try_claim() {
                    *early += 1;
                    return Assignment::Reduce {
                        task,
                        attempt,
                        early: true,
                    };
                }
            }
            drop(early);
        }
        // Tasks are in flight on other workers and may yet be requeued;
        // poll until one comes back or the phase drains.
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// Serve one worker connection until shutdown. An `Err` means the
/// connection (or the worker behind it) failed; any task it was running
/// has already been routed through the retry budget.
fn serve_connection(shared: &Shared, mut stream: Stream) -> Result<(), MrError> {
    let cap = shared.dist.max_frame_bytes;
    let (worker, wire_caps) = match read_msg_capped(&mut stream, cap)? {
        Msg::Hello { worker, wire_caps } => (worker, wire_caps),
        other => {
            return Err(MrError::Net(format!(
                "expected Hello, got {}",
                other.name()
            )))
        }
    };
    // A worker that never advertised lz capability is served raw
    // (logical) bytes even when the store holds compressed frames, so
    // capability skew degrades throughput, not correctness.
    let lz_ok = wire_caps & CAP_LZ != 0;
    let _att = shared
        .config
        .recorder
        .as_ref()
        .map(|r| r.attach(&format!("dist-conn-{worker}")));
    loop {
        match read_msg_capped(&mut stream, cap)? {
            Msg::TaskRequest => {}
            other => {
                return Err(MrError::Net(format!(
                    "worker {worker}: expected TaskRequest, got {}",
                    other.name()
                )))
            }
        }
        match next_assignment(shared) {
            Assignment::Shutdown => {
                write_msg_capped(&mut stream, &Msg::Shutdown, cap)?;
                return Ok(());
            }
            Assignment::Map(task, attempt) => {
                if let Err(e) = serve_map(shared, &mut stream, task, attempt) {
                    fail_task(
                        shared,
                        false,
                        task,
                        attempt,
                        MrError::Net(format!(
                            "worker {worker} lost during map {task} attempt {attempt}: {e}"
                        )),
                    );
                    return Err(e);
                }
            }
            Assignment::Reduce {
                task,
                attempt,
                early,
            } => {
                let served = serve_reduce(shared, &mut stream, task, attempt, lz_ok);
                if early {
                    *shared.early_reduces.lock() -= 1;
                }
                match served {
                    Ok(false) => {}
                    Ok(true) => return Ok(()), // job aborted; worker released
                    Err(e) => {
                        fail_task(
                            shared,
                            true,
                            task,
                            attempt,
                            MrError::Net(format!(
                                "worker {worker} lost during reduce {task} attempt {attempt}: {e}"
                            )),
                        );
                        return Err(e);
                    }
                }
            }
        }
    }
}

/// Rebuild a worker-reported failure as a structured error. Only the
/// checksum distinction survives the wire (it drives the corruption
/// counters and nothing else branches on the variant); the display
/// string carries the rest.
fn rebuild_error(checksum: bool, error: String) -> MrError {
    if checksum {
        MrError::Checksum(error)
    } else {
        MrError::TaskFailed(error)
    }
}

/// Route a failed attempt through the job's retry policy: requeue it
/// within the budget, otherwise abort the job.
fn fail_task(shared: &Shared, reduce: bool, task: usize, attempt: u32, err: MrError) {
    let queue = if reduce {
        &shared.reduce_queue
    } else {
        &shared.map_queue
    };
    let retry = crate::runner::retry_after_failure(
        shared.config,
        &shared.counters,
        &shared.errors,
        task,
        attempt,
        err,
    );
    if retry {
        queue.requeue(task, attempt + 1);
    } else {
        shared.abort_all();
        queue.finish();
    }
}

/// Run one map assignment to completion: send the task, credit each
/// received segment, and commit the attempt's outputs to the shuffle
/// store on `MapDone` (staged segments from a failed attempt are
/// dropped, never published).
fn serve_map(
    shared: &Shared,
    stream: &mut Stream,
    task: usize,
    attempt: u32,
) -> Result<(), MrError> {
    let cap = shared.dist.max_frame_bytes;
    write_msg_capped(
        stream,
        &Msg::MapTask {
            task: task as u32,
            attempt,
            credits: shared.dist.push_credits,
            split: shared.splits[task].clone(),
        },
        cap,
    )?;
    let mut staged: Vec<(usize, Vec<u8>)> = Vec::new();
    loop {
        match read_msg_capped(stream, cap)? {
            Msg::MapSegment { partition, data } => {
                let partition = partition as usize;
                if partition >= shared.config.num_reducers {
                    return Err(MrError::Net(format!(
                        "map {task}: segment for partition {partition} out of range"
                    )));
                }
                staged.push((partition, data));
                write_msg_capped(stream, &Msg::Credit, cap)?;
            }
            Msg::MapDone {
                task: t,
                attempt: a,
                local,
                harness,
            } => {
                if (t as usize, a) != (task, attempt) {
                    return Err(MrError::Net(format!(
                        "MapDone for task {t} attempt {a}, expected {task}/{attempt}"
                    )));
                }
                shared.counters.absorb(&harness);
                shared.counters.absorb(&local);
                shared.store.publish(task, staged)?;
                shared.map_queue.finish();
                shared.note_maps_drained();
                return Ok(());
            }
            Msg::TaskFailed {
                task: t,
                attempt: a,
                reduce,
                checksum,
                error,
                harness,
            } => {
                if (t as usize, a, reduce) != (task, attempt, false) {
                    return Err(MrError::Net(format!(
                        "TaskFailed for {}-task {t} attempt {a}, expected map {task}/{attempt}",
                        if reduce { "reduce" } else { "map" }
                    )));
                }
                shared.counters.absorb(&harness);
                fail_task(shared, false, task, attempt, rebuild_error(checksum, error));
                return Ok(());
            }
            other => {
                return Err(MrError::Net(format!(
                    "map {task}: unexpected {}",
                    other.name()
                )))
            }
        }
    }
}

/// Where one segment's chunk payloads come from: a resident byte slice
/// (in-memory segment, or a corrupted copy) or a spilled segment read
/// straight from its spill file into the outgoing frame.
enum ChunkSource<'a> {
    Slice(&'a [u8]),
    Spilled(&'a SpilledHandle),
}

impl ChunkSource<'_> {
    fn len(&self) -> usize {
        match self {
            ChunkSource::Slice(data) => data.len(),
            ChunkSource::Spilled(h) => h.len(),
        }
    }
}

/// Run one reduce assignment: stream the partition's segments (in
/// canonical map-task order, blocking per segment until its producer
/// finishes — the fetch-while-map overlap) under the worker's credit
/// window, then collect the result. Wire corruption from the fault plan
/// is applied here, to the transmitted copy, at the same
/// `(task, attempt, index)` coordinates the local path uses.
///
/// Compressed segments stream their stored lz frames (`comp` set,
/// spilled ones still `pread` zero-copy into the wire frame) to workers
/// that advertised [`CAP_LZ`]; the difference between logical and
/// transmitted length is charged to `ShuffleWireBytesSaved` at serve
/// time, so re-fetches by retried attempts count again — true wire
/// semantics. Corrupted segments are always materialized to *logical*
/// bytes first and sent raw: the fault plan's coordinates address
/// logical segment bytes, which is what keeps a compressed run
/// byte-identical to identity under a fault storm.
///
/// Returns `Ok(true)` if the job aborted mid-stream and the worker was
/// released with `Shutdown`.
fn serve_reduce(
    shared: &Shared,
    stream: &mut Stream,
    task: usize,
    attempt: u32,
    lz_ok: bool,
) -> Result<bool, MrError> {
    {
        let mut t0 = shared.reduce_t0.lock();
        if t0.is_none() {
            *t0 = Some(Instant::now());
        }
    }
    let cap = shared.dist.max_frame_bytes;
    write_msg_capped(
        stream,
        &Msg::ReduceTask {
            task: task as u32,
            attempt,
        },
        cap,
    )?;
    let window = match read_msg_capped(stream, cap)? {
        Msg::FetchStart { credits } => {
            if credits == 0 {
                return Err(MrError::Net(format!(
                    "reduce {task}: zero-credit fetch window"
                )));
            }
            credits
        }
        Msg::TaskFailed {
            task: t,
            attempt: a,
            reduce,
            checksum,
            error,
            harness,
        } => {
            // The worker's fault gate fired before any fetch — exactly
            // like the local path, where `fault_gate` precedes the
            // segment take, so no shuffle traffic and no corruption
            // charges for this attempt.
            if (t as usize, a, reduce) != (task, attempt, true) {
                return Err(MrError::Net(format!(
                    "TaskFailed for task {t} attempt {a}, expected reduce {task}/{attempt}"
                )));
            }
            shared.counters.absorb(&harness);
            fail_task(shared, true, task, attempt, rebuild_error(checksum, error));
            return Ok(false);
        }
        other => {
            return Err(MrError::Net(format!(
                "reduce {task}: expected FetchStart, got {}",
                other.name()
            )))
        }
    };

    let mut credits = window;
    let mut index: u64 = 0;
    let mut wait_nanos = 0u64;
    let mut transfer_nanos = 0u64;
    let mut wire_saved = 0u64;
    let chunk_bytes = shared.dist.chunk_bytes;
    {
        // Mark this partition actively fetched for the duration of the
        // segment stream: the store's eviction policy keeps its
        // resident segments in memory while we are about to need them.
        let _fetch = shared.store.fetch_guard(task);
        // Double-buffered frames: the next chunk is assembled — for
        // spilled segments, `pread` straight into the frame's payload
        // region — right after the previous one is written, so the disk
        // read overlaps the in-flight chunk's socket round trip instead
        // of serializing behind the credit wait.
        let mut frames: [Vec<u8>; 2] = [Vec::new(), Vec::new()];
        let mut cur = 0usize;
        for map_task in 0..shared.num_maps {
            let wait_t0 = Instant::now();
            let handle = match shared.store.segment_when_ready(task, map_task) {
                Ok(handle) => handle,
                Err(_) => {
                    // Job aborted while waiting on a map output: release
                    // the worker cleanly; the abort's cause is already
                    // collected elsewhere.
                    write_msg_capped(stream, &Msg::Shutdown, cap)?;
                    shared.reduce_queue.finish();
                    return Ok(true);
                }
            };
            wait_nanos += wait_t0.elapsed().as_nanos() as u64;
            let Some(handle) = handle else { continue };
            // Two cases rebuffer through a materialized Vec; the clean
            // capable path never does:
            //  - Wire corruption needs the whole *logical* segment (the
            //    fault plan's coordinates address uncompressed bytes —
            //    the same bytes the local engine corrupts — and a flip
            //    inside an lz frame would desync decompression instead
            //    of reaching the segment CRC check). Corrupted copies
            //    ship raw.
            //  - A worker without lz capability gets logical bytes even
            //    when the store holds a compressed frame.
            let materialized: Option<Vec<u8>> = match shared
                .config
                .faults
                .as_ref()
                .and_then(|p| p.corruption(task as u64, attempt, index))
            {
                Some(c) => {
                    shared.counters.add(Counter::FaultsInjected, 1);
                    let mut data = handle.logical_vec()?;
                    c.apply(&mut data);
                    Some(data)
                }
                None if handle.is_comp() && !lz_ok => Some(handle.logical_vec()?),
                None => None,
            };
            let comp = materialized.is_none() && handle.is_comp();
            let orig_len = if comp { handle.logical_len() as u32 } else { 0 };
            let src: ChunkSource = match (&materialized, &handle.repr) {
                (Some(data), _) => ChunkSource::Slice(data),
                (None, SegmentRepr::Mem(data)) => ChunkSource::Slice(data),
                (None, SegmentRepr::Spilled(h)) => ChunkSource::Spilled(h),
            };
            let total = src.len();
            if comp {
                wire_saved += (handle.logical_len() - total) as u64;
            }
            let mut crc = Crc32c::new();
            let mut off = 0usize;
            let mut sent_any = false;
            while off < total || !sent_any {
                let end = (off + chunk_bytes).min(total);
                let last = end == total;
                let frame = &mut frames[cur];
                match &src {
                    ChunkSource::Slice(data) => encode_seg_chunk(
                        frame,
                        index as u32,
                        last,
                        comp,
                        orig_len,
                        end - off,
                        cap,
                        |buf| {
                            buf.copy_from_slice(&data[off..end]);
                            Ok(())
                        },
                    )?,
                    ChunkSource::Spilled(h) => {
                        encode_seg_chunk(
                            frame,
                            index as u32,
                            last,
                            comp,
                            orig_len,
                            end - off,
                            cap,
                            |buf| h.read_range(off, buf),
                        )?;
                        // Re-verify the spill-time CRC incrementally;
                        // the final chunk is checked *before* it is
                        // sent, so disk corruption never reaches a
                        // worker.
                        crc.update(&frame[frame.len() - (end - off)..]);
                        if last {
                            let got = crc.finish();
                            if got != h.crc() {
                                return Err(h.crc_error(got));
                            }
                        }
                    }
                }
                if credits == 0 {
                    expect_credit(stream)?;
                    credits += 1;
                }
                let send_t0 = Instant::now();
                stream
                    .write_all(&frames[cur])
                    .map_err(|e| MrError::Net(format!("write SegChunk: {e}")))?;
                transfer_nanos += send_t0.elapsed().as_nanos() as u64;
                credits -= 1;
                sent_any = true;
                off = end;
                cur ^= 1;
            }
            index += 1;
        }
    }
    // Drain the credit window before closing the stream so no Credit
    // frame is left in flight to be misread as the next conversation.
    while credits < window {
        expect_credit(stream)?;
        credits += 1;
    }
    write_msg_capped(
        stream,
        &Msg::SegmentsDone {
            count: index as u32,
        },
        cap,
    )?;
    shared
        .counters
        .add(Counter::ShuffleFetchWaitNanos, wait_nanos);
    shared
        .counters
        .add(Counter::ShuffleTransferNanos, transfer_nanos);
    shared
        .counters
        .add(Counter::ShuffleWireBytesSaved, wire_saved);

    match read_msg_capped(stream, cap)? {
        Msg::ReduceDone {
            task: t,
            attempt: a,
            local,
            harness,
            outputs,
        } => {
            if (t as usize, a) != (task, attempt) {
                return Err(MrError::Net(format!(
                    "ReduceDone for task {t} attempt {a}, expected {task}/{attempt}"
                )));
            }
            shared.counters.absorb(&harness);
            shared.counters.absorb(&local);
            *shared.outputs[task].lock() = outputs;
            shared.reduce_queue.finish();
            Ok(false)
        }
        Msg::TaskFailed {
            task: t,
            attempt: a,
            reduce,
            checksum,
            error,
            harness,
        } => {
            if (t as usize, a, reduce) != (task, attempt, true) {
                return Err(MrError::Net(format!(
                    "TaskFailed for task {t} attempt {a}, expected reduce {task}/{attempt}"
                )));
            }
            shared.counters.absorb(&harness);
            fail_task(shared, true, task, attempt, rebuild_error(checksum, error));
            Ok(false)
        }
        other => Err(MrError::Net(format!(
            "reduce {task}: expected ReduceDone or TaskFailed, got {}",
            other.name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Transport;
    use crate::fault::{FaultConfig, FaultPlan};
    use crate::record::{Emit, FnMapper, FnReducer};
    use crate::Job;

    fn word_splits(num_splits: usize, records_per_split: usize) -> Vec<InputSplit> {
        (0..num_splits)
            .map(|s| {
                InputSplit::new(
                    (0..records_per_split)
                        .map(|i| {
                            let n = s * records_per_split + i;
                            KvPair::new(format!("word-{:03}", n % 97).into_bytes(), b"1".to_vec())
                        })
                        .collect(),
                )
            })
            .collect()
    }

    fn count_mapper() -> Arc<dyn Mapper> {
        Arc::new(FnMapper(|k: &[u8], v: &[u8], out: &mut dyn Emit| {
            out.emit(k, v);
        }))
    }

    fn sum_reducer() -> Arc<dyn Reducer> {
        Arc::new(FnReducer(
            |key: &[u8], values: &[&[u8]], out: &mut dyn Emit| {
                let total: u64 = values
                    .iter()
                    .map(|v| std::str::from_utf8(v).unwrap().parse::<u64>().unwrap())
                    .sum();
                out.emit(key, total.to_string().as_bytes());
            },
        ))
    }

    fn assert_same_outputs(local: &JobResult, dist: &JobResult) {
        assert_eq!(local.outputs.len(), dist.outputs.len());
        for (r, (l, d)) in local.outputs.iter().zip(dist.outputs.iter()).enumerate() {
            assert_eq!(l, d, "reducer {r} outputs diverge");
        }
    }

    #[test]
    fn thread_mode_tcp_matches_the_local_engine() {
        let config = JobConfig::default().with_reducers(3).with_slots(4, 2);
        let splits = word_splits(6, 40);
        let local = Job::new(config.clone())
            .run(splits.clone(), count_mapper(), sum_reducer())
            .unwrap();
        let dist_cfg = DistConfig::default()
            .with_workers(3)
            .with_transport(Transport::Tcp);
        let dist =
            run_distributed_with_threads(&config, &dist_cfg, splits, count_mapper(), sum_reducer())
                .unwrap();
        assert_same_outputs(&local, &dist);
        assert_eq!(
            local.counters.get(Counter::MapOutputRecords),
            dist.counters.get(Counter::MapOutputRecords)
        );
        assert_eq!(
            local.counters.get(Counter::ReduceOutputRecords),
            dist.counters.get(Counter::ReduceOutputRecords)
        );
        assert_eq!(
            local.counters.get(Counter::ShuffleBytes),
            dist.counters.get(Counter::ShuffleBytes)
        );
    }

    #[cfg(unix)]
    #[test]
    fn thread_mode_uds_survives_a_fault_storm_byte_identically() {
        let faults =
            FaultConfig::parse("seed=42,map=0.4,reduce=0.3,corrupt=0.3,slow=0.1,slow_ms=1,cap=2")
                .unwrap();
        let config = JobConfig::default()
            .with_reducers(3)
            .with_slots(4, 2)
            .with_retries(4)
            .with_retry_backoff(Duration::from_micros(10))
            .with_faults(FaultPlan::new(faults));
        let splits = word_splits(5, 32);
        let local = Job::new(config.clone())
            .run(splits.clone(), count_mapper(), sum_reducer())
            .unwrap();
        let dist = run_distributed_with_threads(
            &config,
            &DistConfig::default().with_workers(3),
            splits,
            count_mapper(),
            sum_reducer(),
        )
        .unwrap();
        assert_same_outputs(&local, &dist);
        assert_eq!(
            local.counters.get(Counter::FaultsInjected),
            dist.counters.get(Counter::FaultsInjected),
            "fault plans must fire at identical coordinates"
        );
        assert_eq!(
            local.counters.get(Counter::ChecksumFailures),
            dist.counters.get(Counter::ChecksumFailures)
        );
        assert!(dist.counters.get(Counter::TaskRetries) > 0);
    }

    #[test]
    fn zero_budget_fault_storm_spills_everything_and_stays_byte_identical() {
        // Every segment is forced through the spill file, and the storm
        // (task faults + wire corruption + retries) exercises re-fetch
        // of already-spilled segments after mid-job attempt deaths.
        let faults =
            FaultConfig::parse("seed=42,map=0.4,reduce=0.3,corrupt=0.3,slow=0.1,slow_ms=1,cap=2")
                .unwrap();
        let config = JobConfig::default()
            .with_reducers(3)
            .with_slots(4, 2)
            .with_retries(4)
            .with_retry_backoff(Duration::from_micros(10))
            .with_faults(FaultPlan::new(faults));
        let splits = word_splits(5, 32);
        let local = Job::new(config.clone())
            .run(splits.clone(), count_mapper(), sum_reducer())
            .unwrap();
        let dist = run_distributed_with_threads(
            &config,
            &DistConfig::default()
                .with_workers(3)
                .with_transport(Transport::Tcp)
                .with_shuffle_mem_bytes(Some(0)),
            splits,
            count_mapper(),
            sum_reducer(),
        )
        .unwrap();
        assert_same_outputs(&local, &dist);
        for c in [
            Counter::ShuffleBytes,
            Counter::FaultsInjected,
            Counter::ChecksumFailures,
        ] {
            assert_eq!(
                local.counters.get(c),
                dist.counters.get(c),
                "counter {} must match under full spill",
                c.name()
            );
        }
        // Placement counters: nothing was ever resident, and retried
        // attempts republish, so spill volume can exceed shuffle bytes.
        assert_eq!(dist.counters.get(Counter::ShuffleMemHighWater), 0);
        assert!(
            dist.counters.get(Counter::ShuffleSpilledBytes)
                >= dist.counters.get(Counter::ShuffleBytes)
        );
        assert!(dist.counters.get(Counter::ShuffleSpillReads) > 0);
    }

    #[test]
    fn wire_lz_fault_storm_is_byte_identical_and_saves_wire_bytes() {
        use crate::dist::WireCodec;
        // Same storm as the uds test, but with wire compression on and
        // a tight memory budget so compressed frames also cross the
        // spill path. Outputs and every job-semantics counter must be
        // byte-identical to the identity-codec run; only the new
        // wire/codec telemetry may differ.
        let faults =
            FaultConfig::parse("seed=42,map=0.4,reduce=0.3,corrupt=0.3,slow=0.1,slow_ms=1,cap=2")
                .unwrap();
        let config = JobConfig::default()
            .with_reducers(3)
            .with_slots(4, 2)
            .with_retries(4)
            .with_retry_backoff(Duration::from_micros(10))
            .with_faults(FaultPlan::new(faults));
        let splits = word_splits(5, 32);
        let identity = run_distributed_with_threads(
            &config,
            &DistConfig::default()
                .with_workers(3)
                .with_transport(Transport::Tcp),
            splits.clone(),
            count_mapper(),
            sum_reducer(),
        )
        .unwrap();
        for budget in [None, Some(0), Some(512)] {
            let lz = run_distributed_with_threads(
                &config,
                &DistConfig::default()
                    .with_workers(3)
                    .with_transport(Transport::Tcp)
                    .with_shuffle_mem_bytes(budget)
                    .with_wire_codec(WireCodec::Lz),
                splits.clone(),
                count_mapper(),
                sum_reducer(),
            )
            .unwrap();
            assert_same_outputs(&identity, &lz);
            for c in [
                Counter::MapOutputRecords,
                Counter::ReduceOutputRecords,
                Counter::ShuffleBytes,
                Counter::MapOutputMaterializedBytes,
                Counter::FaultsInjected,
                Counter::ChecksumFailures,
            ] {
                assert_eq!(
                    identity.counters.get(c),
                    lz.counters.get(c),
                    "counter {} must not depend on the wire codec (budget {budget:?})",
                    c.name()
                );
            }
            assert!(
                lz.counters.get(Counter::ShuffleWireBytesSaved) > 0,
                "word-count segments compress, so the wire must shrink (budget {budget:?})"
            );
            assert!(lz.counters.get(Counter::LzCompressNanos) > 0);
            assert!(lz.counters.get(Counter::LzDecompressNanos) > 0);
            assert!(
                lz.counters.get(Counter::ShuffleWireBytesSaved)
                    < lz.counters.get(Counter::ShuffleBytes)
                        + lz.counters.get(Counter::TaskRetries)
                            * lz.counters.get(Counter::ShuffleBytes),
                "saved bytes are bounded by logical volume times fetch attempts"
            );
        }
        assert_eq!(identity.counters.get(Counter::ShuffleWireBytesSaved), 0);
        assert_eq!(identity.counters.get(Counter::LzCompressNanos), 0);
    }

    #[test]
    fn exhausted_retries_fail_the_distributed_job() {
        // reduce=1.0 fails attempt 0 of every reduce; with no retry
        // budget the first injected failure must fail the whole job.
        let faults = FaultConfig::parse("seed=7,reduce=1.0").unwrap();
        let config = JobConfig::default()
            .with_reducers(2)
            .with_retry_backoff(Duration::from_micros(1))
            .with_faults(FaultPlan::new(faults));
        let err = match run_distributed_with_threads(
            &config,
            &DistConfig::default()
                .with_workers(2)
                .with_transport(Transport::Tcp),
            word_splits(3, 16),
            count_mapper(),
            sum_reducer(),
        ) {
            Ok(_) => panic!("job must fail once the retry budget is exhausted"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("injected reduce fault"), "{err}");
    }
}
