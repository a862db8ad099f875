//! The coordinator side of a distributed job: launch the workers,
//! accept their connections, and run the job's [`scheduler`](crate::scheduler)
//! loop with one remote slot per connection. A remote slot is the
//! conversation with one worker — ship the task, stage or stream the
//! segments under credit flow control, read back the attempt's
//! [`Outcome`].

use super::net::{Listener, Stream};
use super::wire::{
    encode_seg_chunk, expect_credit, read_msg_capped, write_msg_capped, Msg, CAP_LZ,
};
use super::DistConfig;
use crate::counters::Counter;
use crate::error::MrError;
use crate::job::{JobConfig, JobResult};
use crate::record::{InputSplit, KvPair, Mapper, Reducer};
use crate::scheduler::{Fetched, JobState, MapOutput, Outcome, Slot, Takes};
use crate::shuffle::{SegmentRepr, SpilledHandle};
use scihadoop_compress::checksum::Crc32c;
use std::io::Write;
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

fn run_coordinator(
    config: &JobConfig,
    dist: &DistConfig,
    splits: Vec<InputSplit>,
    launch: Launch,
) -> Result<JobResult, MrError> {
    dist.validate()?;
    let job = JobState::new(config, splits, dist.shuffle_mem_budget(), dist.wire_codec)?;

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
    let mut slots = Vec::with_capacity(dist.workers);
    for _ in 0..dist.workers {
        match listener.accept_deadline(dist.spawn_timeout, &mut || !handles.any_dead()) {
            Ok(stream) => slots.push(RemoteSlot {
                stream,
                dist,
                worker: 0,
                lz_ok: false,
            }),
            Err(e) => {
                handles.reap(true);
                return Err(e);
            }
        }
    }

    let result = job.run(slots);
    handles.reap(result.is_err());
    result
}

/// One worker connection. The worker drives: it announces itself with
/// `Hello`, then asks for work with `TaskRequest` before every
/// assignment.
struct RemoteSlot<'a> {
    stream: Stream,
    dist: &'a DistConfig,
    /// From the worker's `Hello`.
    worker: u32,
    /// Whether the worker advertised lz capability. One that did not is
    /// served raw (logical) bytes even when the store holds compressed
    /// frames, so capability skew degrades throughput, not correctness.
    lz_ok: bool,
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

/// The fall-through arm of both conversations: `msg` is either the
/// worker's `TaskFailed` for the attempt this slot is running —
/// `expect` is its `(task, attempt, reduce)` — or a protocol violation.
fn task_failed<T>(msg: Msg, expect: (usize, u32, bool)) -> Result<Outcome<T>, MrError> {
    let kind = if expect.2 { "reduce" } else { "map" };
    match msg {
        Msg::TaskFailed {
            task,
            attempt,
            reduce,
            checksum,
            error,
            harness,
        } if (task as usize, attempt, reduce) == expect => Ok(Outcome {
            harness,
            result: Err(rebuild_error(checksum, error)),
        }),
        other => Err(MrError::Net(format!(
            "{kind} {} attempt {}: unexpected {}",
            expect.0,
            expect.1,
            other.name()
        ))),
    }
}

impl RemoteSlot<'_> {
    fn send(&mut self, msg: &Msg) -> Result<(), MrError> {
        write_msg_capped(&mut self.stream, msg, self.dist.max_frame_bytes)
    }

    fn recv(&mut self) -> Result<Msg, MrError> {
        read_msg_capped(&mut self.stream, self.dist.max_frame_bytes)
    }
}

impl Slot for RemoteSlot<'_> {
    fn takes(&self) -> Takes {
        Takes::Both
    }

    fn open(&mut self, _job: &JobState) -> Result<String, MrError> {
        match self.recv()? {
            Msg::Hello { worker, wire_caps } => {
                self.worker = worker;
                self.lz_ok = wire_caps & CAP_LZ != 0;
                Ok(format!("dist-conn-{worker}"))
            }
            other => Err(MrError::Net(format!(
                "expected Hello, got {}",
                other.name()
            ))),
        }
    }

    fn ready(&mut self) -> Result<(), MrError> {
        match self.recv()? {
            Msg::TaskRequest => Ok(()),
            other => Err(MrError::Net(format!(
                "worker {}: expected TaskRequest, got {}",
                self.worker,
                other.name()
            ))),
        }
    }

    fn close(&mut self) -> Result<(), MrError> {
        self.send(&Msg::Shutdown)
    }

    /// Send the task, credit each received segment, and hand the staged
    /// segments over with `MapDone` (those of a failed attempt are
    /// dropped, never published).
    fn map(
        &mut self,
        job: &JobState,
        task: usize,
        attempt: u32,
        split: &InputSplit,
    ) -> Result<Outcome<MapOutput>, MrError> {
        self.send(&Msg::MapTask {
            task: task as u32,
            attempt,
            credits: self.dist.push_credits,
            split: split.clone(),
        })?;
        let mut staged: MapOutput = Vec::new();
        loop {
            match self.recv()? {
                Msg::MapSegment { partition, data } => {
                    let partition = partition as usize;
                    if partition >= job.config.num_reducers {
                        return Err(MrError::Net(format!(
                            "map {task}: segment for partition {partition} out of range"
                        )));
                    }
                    staged.push((partition, data));
                    self.send(&Msg::Credit)?;
                }
                Msg::MapDone {
                    task: t,
                    attempt: a,
                    local,
                    harness,
                } if (t as usize, a) == (task, attempt) => {
                    return Ok(Outcome {
                        harness,
                        result: Ok((staged, local)),
                    })
                }
                other => return task_failed(other, (task, attempt, false)),
            }
        }
    }

    /// Stream the partition's segments (in canonical map-task order,
    /// blocking per segment until its producer commits — the
    /// fetch-while-map overlap) under the worker's credit window, then
    /// collect the result.
    ///
    /// Compressed segments stream their stored lz frames (`comp` set,
    /// spilled ones still `pread` zero-copy into the wire frame) to
    /// workers that advertised [`CAP_LZ`]; the difference between logical
    /// and transmitted length is charged to `ShuffleWireBytesSaved` at
    /// serve time, so re-fetches by retried attempts count again — true
    /// wire semantics. Copies the fault plan corrupted are logical bytes
    /// and ship raw, which is what keeps a compressed run byte-identical
    /// to identity under a fault storm.
    fn reduce(
        &mut self,
        job: &JobState,
        task: usize,
        attempt: u32,
    ) -> Result<Option<Outcome<Vec<KvPair>>>, MrError> {
        let expect = (task, attempt, true);
        self.send(&Msg::ReduceTask {
            task: task as u32,
            attempt,
        })?;
        // The worker's fault gate runs before any fetch: an attempt it
        // fails costs no shuffle traffic and meets no corruption.
        let window = match self.recv()? {
            Msg::FetchStart { credits: 0 } => {
                return Err(MrError::Net(format!(
                    "reduce {task}: zero-credit fetch window"
                )))
            }
            Msg::FetchStart { credits } => credits,
            other => return task_failed(other, expect).map(Some),
        };

        let cap = self.dist.max_frame_bytes;
        let chunk_bytes = self.dist.chunk_bytes;
        let mut credits = window;
        let mut index: u64 = 0;
        let mut wait_nanos = 0u64;
        let mut transfer_nanos = 0u64;
        let mut wire_saved = 0u64;
        {
            // Mark this partition actively fetched for the duration of the
            // segment stream: the store's eviction policy keeps its
            // resident segments in memory while we are about to need them.
            let _fetch = job.store.fetch_guard(task);
            // Double-buffered frames: the next chunk is assembled — for
            // spilled segments, `pread` straight into the frame's payload
            // region — right after the previous one is written, so the disk
            // read overlaps the in-flight chunk's socket round trip instead
            // of serializing behind the credit wait.
            let mut frames: [Vec<u8>; 2] = [Vec::new(), Vec::new()];
            let mut cur = 0usize;
            for map_task in 0..job.num_maps {
                let wait_t0 = Instant::now();
                let fetched = match job.fetch(task, map_task, attempt, index) {
                    Ok(fetched) => fetched,
                    Err(_) if job.is_aborted() => {
                        // Release the worker cleanly; the abort's cause
                        // is already collected elsewhere.
                        self.send(&Msg::Shutdown)?;
                        return Ok(None);
                    }
                    Err(e) => return Err(e),
                };
                wait_nanos += wait_t0.elapsed().as_nanos() as u64;
                let fetched = match fetched {
                    None => continue,
                    Some(Fetched::Stored(h)) if h.is_comp() && !self.lz_ok => {
                        Fetched::Copy(h.logical_vec()?)
                    }
                    Some(fetched) => fetched,
                };
                let (src, comp, orig_len) = match &fetched {
                    Fetched::Copy(data) => (ChunkSource::Slice(data), false, 0),
                    Fetched::Stored(h) => {
                        let src = match &h.repr {
                            SegmentRepr::Mem(data) => ChunkSource::Slice(data),
                            SegmentRepr::Spilled(s) => ChunkSource::Spilled(s),
                        };
                        let orig_len = if h.is_comp() { h.logical_len() } else { 0 };
                        (src, h.is_comp(), orig_len)
                    }
                };
                let total = src.len();
                if comp {
                    wire_saved += (orig_len - total) as u64;
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
                            orig_len as u32,
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
                                orig_len as u32,
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
                        expect_credit(&mut self.stream)?;
                        credits += 1;
                    }
                    let send_t0 = Instant::now();
                    self.stream
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
            expect_credit(&mut self.stream)?;
            credits += 1;
        }
        self.send(&Msg::SegmentsDone {
            count: index as u32,
        })?;
        job.counters.add(Counter::ShuffleFetchWaitNanos, wait_nanos);
        job.counters
            .add(Counter::ShuffleTransferNanos, transfer_nanos);
        job.counters.add(Counter::ShuffleWireBytesSaved, wire_saved);

        match self.recv()? {
            Msg::ReduceDone {
                task: t,
                attempt: a,
                local,
                harness,
                outputs,
            } if (t as usize, a) == (task, attempt) => Ok(Some(Outcome {
                harness,
                result: Ok((outputs, local)),
            })),
            other => task_failed(other, expect).map(Some),
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
}
