//! The coordinator side of a distributed job: launch the workers,
//! accept their connections, and run the job's [`scheduler`](crate::scheduler)
//! loop with one remote slot per connection. A remote slot is the
//! conversation with one worker — ship the task, stage or stream the
//! segments, read back the attempt's [`Outcome`] — and the blocking
//! socket is its only flow control.

use super::net::{Listener, Stream};
use super::wire::{encode, read_msg, write_msg, Msg};
use super::DistConfig;
use crate::counters::Counter;
use crate::error::MrError;
use crate::job::{JobConfig, JobResult};
use crate::record::{InputSplit, KvPair, Mapper, Reducer};
use crate::scheduler::{Fetched, JobState, MapOutput, Outcome, Slot, Takes};
use crate::shuffle::SegmentRepr;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long to wait for all workers to connect before giving up.
const ACCEPT_DEADLINE: Duration = Duration::from_secs(30);

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
/// streaming, retries — without process spawning. This is the
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
        match listener.accept_deadline(ACCEPT_DEADLINE, &mut || !handles.any_dead()) {
            Ok(stream) => slots.push(RemoteSlot { stream, worker: 0 }),
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
struct RemoteSlot {
    stream: Stream,
    /// From the worker's `Hello`.
    worker: u32,
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

impl RemoteSlot {
    fn send(&mut self, msg: &Msg) -> Result<(), MrError> {
        write_msg(&mut self.stream, msg)
    }

    fn recv(&mut self) -> Result<Msg, MrError> {
        read_msg(&mut self.stream)
    }
}

impl Slot for RemoteSlot {
    fn takes(&self) -> Takes {
        Takes::Both
    }

    fn open(&mut self, _job: &JobState) -> Result<String, MrError> {
        match self.recv()? {
            Msg::Hello { worker } => {
                self.worker = worker;
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

    /// Send the task, stage each received segment, and hand the staged
    /// segments over with `MapDone` (those of a failed attempt are
    /// dropped, never published). A partition is staged at most once.
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
                    if staged.iter().any(|(p, _)| *p == partition) {
                        return Err(MrError::Net(format!(
                            "map {task}: second segment for partition {partition}"
                        )));
                    }
                    staged.push((partition, data));
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
    /// fetch-while-map overlap), then collect the result. A worker that
    /// reads slower than segments are served blocks the `write_all`, so
    /// `ShuffleTransferNanos` is time in the socket write *including*
    /// that backpressure.
    ///
    /// Each segment is one `FetchSegment` frame of its stored bytes: a
    /// resident segment's straight from the store, a spilled one's read
    /// whole (its spill CRC checked before any byte leaves). Compressed
    /// segments ship their stored lz frames (`comp` set); the difference
    /// between logical and transmitted length is charged to
    /// `ShuffleWireBytesSaved` at serve time, so re-fetches by retried
    /// attempts count again — true wire semantics. Copies the fault plan
    /// corrupted are logical bytes and ship raw, which is what keeps a
    /// compressed run byte-identical to identity under a fault storm.
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
        match self.recv()? {
            Msg::FetchStart => {}
            other => return task_failed(other, expect).map(Some),
        }

        let mut served = 0u32;
        let mut wait_nanos = 0u64;
        let mut transfer_nanos = 0u64;
        let mut wire_saved = 0u64;
        for map_task in 0..job.num_maps {
            let wait_t0 = Instant::now();
            let fetched = match job.fetch(task, map_task, attempt, u64::from(served)) {
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
            let Some(fetched) = fetched else { continue };
            let (comp, data) = match fetched {
                Fetched::Copy(data) => (false, Arc::new(data)),
                Fetched::Stored(h) => {
                    if h.is_comp() {
                        wire_saved += (h.logical_len() - h.len()) as u64;
                    }
                    let data = match &h.repr {
                        SegmentRepr::Mem(data) => Arc::clone(data),
                        SegmentRepr::Spilled(_) => Arc::new(h.to_vec()?),
                    };
                    (h.is_comp(), data)
                }
            };
            // The one copy: into the frame, outside the transfer clock.
            let frame = encode(&Msg::FetchSegment { comp, data })?;
            let send_t0 = Instant::now();
            self.stream
                .write_all(&frame)
                .map_err(|e| MrError::Net(format!("write FetchSegment: {e}")))?;
            transfer_nanos += send_t0.elapsed().as_nanos() as u64;
            served += 1;
        }
        self.send(&Msg::SegmentsDone { count: served })?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;
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

    /// What the scripted worker's frames are fed to.
    #[derive(Clone, Copy)]
    enum Step {
        Open,
        Ready,
        /// `map(task 0, attempt 1)` of a two-reducer job.
        Map,
        /// `reduce(task 1, attempt 1)` of the same job, one segment
        /// published for the partition.
        Reduce,
    }

    /// Run `step` of a remote slot against a scripted worker that says
    /// `script`, then `tail` raw bytes, then half-closes; the slot must
    /// come back lost, and the error is returned.
    fn lost_slot(step: Step, script: Vec<Msg>, tail: &'static [u8]) -> String {
        crate::dist::tests::within_deadline(move || {
            let listener = Listener::bind(Transport::Tcp).unwrap();
            let mut peer = std::net::TcpStream::connect(listener.addr().unwrap()).unwrap();
            let stream = listener
                .accept_deadline(Duration::from_secs(5), &mut || true)
                .unwrap();
            let mut slot = RemoteSlot { stream, worker: 0 };
            for msg in &script {
                write_msg(&mut peer, msg).unwrap();
            }
            peer.write_all(tail).unwrap();
            peer.shutdown(std::net::Shutdown::Write).unwrap();

            let config = JobConfig::default().with_reducers(2);
            let split = InputSplit::new(vec![KvPair::new(b"k".to_vec(), b"v".to_vec())]);
            let job = JobState::new(
                &config,
                vec![split.clone()],
                usize::MAX,
                crate::dist::WireCodec::Identity,
            )
            .unwrap();
            job.store.publish(0, vec![(1, vec![7u8; 100])]).unwrap();
            let lost = match step {
                Step::Open => slot.open(&job).err(),
                Step::Ready => slot.ready().err(),
                Step::Map => slot.map(&job, 0, 1, &split).err(),
                Step::Reduce => slot.reduce(&job, 1, 1).err(),
            };
            match lost.expect("the slot must be lost, not settle an outcome") {
                MrError::Net(e) => e,
                other => panic!("expected a Net error, got {other:?}"),
            }
        })
    }

    #[test]
    fn the_coordinator_refuses_frames_the_grammar_does_not_allow() {
        let bank = || Counters::new().snapshot();
        let map_done = |task, attempt| Msg::MapDone {
            task,
            attempt,
            local: bank(),
            harness: bank(),
        };
        let reduce_done = |task, attempt| Msg::ReduceDone {
            task,
            attempt,
            local: bank(),
            harness: bank(),
            outputs: Vec::new(),
        };
        let failed = |task, attempt, reduce| Msg::TaskFailed {
            task,
            attempt,
            reduce,
            checksum: false,
            error: "scripted".into(),
            harness: bank(),
        };
        let segment = |partition| Msg::MapSegment {
            partition,
            data: vec![1, 2, 3],
        };
        let hello = Msg::Hello { worker: 5 };
        use Step::*;
        let cases: Vec<(Step, Vec<Msg>, &'static [u8], &str)> = vec![
            (
                Open,
                vec![Msg::TaskRequest],
                b"",
                "expected Hello, got TaskRequest",
            ),
            (
                Ready,
                vec![hello.clone()],
                b"",
                "expected TaskRequest, got Hello",
            ),
            (
                Ready,
                vec![map_done(0, 1)],
                b"",
                "expected TaskRequest, got MapDone",
            ),
            // Stale or foreign (task, attempt) on every closing frame.
            (
                Map,
                vec![segment(1), map_done(0, 0)],
                b"",
                "map 0 attempt 1: unexpected MapDone",
            ),
            (
                Map,
                vec![map_done(1, 1)],
                b"",
                "map 0 attempt 1: unexpected MapDone",
            ),
            (
                Map,
                vec![failed(0, 0, false)],
                b"",
                "map 0 attempt 1: unexpected TaskFailed",
            ),
            (
                Map,
                vec![failed(0, 1, true)],
                b"",
                "map 0 attempt 1: unexpected TaskFailed",
            ),
            (
                Reduce,
                vec![failed(1, 0, true)],
                b"",
                "reduce 1 attempt 1: unexpected TaskFailed",
            ),
            (
                Reduce,
                vec![Msg::FetchStart, reduce_done(1, 0)],
                b"",
                "reduce 1 attempt 1: unexpected ReduceDone",
            ),
            (
                Reduce,
                vec![Msg::FetchStart, failed(1, 1, false)],
                b"",
                "reduce 1 attempt 1: unexpected TaskFailed",
            ),
            // The right frame in the wrong conversation.
            (
                Map,
                vec![reduce_done(0, 1)],
                b"",
                "map 0 attempt 1: unexpected ReduceDone",
            ),
            (
                Map,
                vec![Msg::FetchStart],
                b"",
                "map 0 attempt 1: unexpected FetchStart",
            ),
            (Map, vec![hello], b"", "map 0 attempt 1: unexpected Hello"),
            (
                Reduce,
                vec![map_done(1, 1)],
                b"",
                "reduce 1 attempt 1: unexpected MapDone",
            ),
            (
                Reduce,
                vec![segment(1)],
                b"",
                "reduce 1 attempt 1: unexpected MapSegment",
            ),
            (
                Reduce,
                vec![Msg::FetchStart, Msg::FetchStart],
                b"",
                "reduce 1 attempt 1: unexpected FetchStart",
            ),
            // A segment for a partition the job does not have.
            (
                Map,
                vec![segment(2)],
                b"",
                "map 0: segment for partition 2 out of range",
            ),
            // A second segment for a partition already staged.
            (
                Map,
                vec![segment(0), segment(0), map_done(0, 1)],
                b"",
                "map 0: second segment for partition 0",
            ),
            // A worker lost between frames, and inside one.
            (Map, vec![segment(0)], b"", "read frame length"),
            (
                Map,
                vec![],
                &[100, 0, 0, 0, 4, 0, 0],
                "read frame payload (100 bytes)",
            ),
            (Reduce, vec![Msg::FetchStart], &[9, 0], "read frame length"),
        ];
        for (i, (step, script, tail, names)) in cases.into_iter().enumerate() {
            let err = lost_slot(step, script, tail);
            assert!(
                err.contains(names),
                "case {i}: {err:?} does not name {names:?}"
            );
        }
    }

    /// Semi-compressible records (every other 64-byte run repeats the
    /// one before), `total` bytes of values spread over 64 distinct keys.
    fn bulky_splits(num_splits: usize, total: usize) -> Vec<InputSplit> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let per_record = 4096;
        let records_per_split = total / num_splits / per_record;
        (0..num_splits)
            .map(|s| {
                let records = (0..records_per_split).map(|i| {
                    let mut value = Vec::with_capacity(per_record);
                    while value.len() < per_record {
                        let at = value.len();
                        for _ in 0..8 {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            value.extend_from_slice(&x.to_le_bytes());
                        }
                        value.extend_from_within(at..);
                    }
                    let key = format!("key-{:02}-{s}", i % 64).into_bytes();
                    KvPair::new(key, value)
                });
                InputSplit::new(records.collect())
            })
            .collect()
    }

    #[test]
    fn segments_far_larger_than_a_socket_buffer_cross_both_ways_unchanged() {
        // 2 maps x 2 partitions x ~3 MiB: every MapSegment, every
        // FetchSegment and (the reducer passes values through) every
        // ReduceDone is megabytes, with nothing but the socket pacing
        // either end.
        let config = JobConfig::default().with_reducers(2);
        let splits = bulky_splits(2, 12 << 20);
        let passthrough = || -> Arc<dyn Reducer> {
            Arc::new(FnReducer(
                |key: &[u8], values: &[&[u8]], out: &mut dyn Emit| {
                    values.iter().for_each(|v| out.emit(key, v));
                },
            ))
        };
        let local = Job::new(config.clone())
            .run(splits.clone(), count_mapper(), passthrough())
            .unwrap();
        let shuffled = local.counters.get(Counter::ShuffleBytes);
        assert!(shuffled > 12 << 20, "{shuffled}");
        for transport in [Transport::Tcp, Transport::Uds] {
            for (codec, budget) in [
                (crate::dist::WireCodec::Identity, None),
                (crate::dist::WireCodec::Lz, Some(0)),
            ] {
                let dist_cfg = DistConfig::default()
                    .with_workers(2)
                    .with_transport(transport)
                    .with_wire_codec(codec)
                    .with_shuffle_mem_bytes(budget);
                let dist = run_distributed_with_threads(
                    &config,
                    &dist_cfg,
                    splits.clone(),
                    count_mapper(),
                    passthrough(),
                )
                .unwrap();
                assert_same_outputs(&local, &dist);
                assert_eq!(dist.counters.get(Counter::ShuffleBytes), shuffled);
                let saved = dist.counters.get(Counter::ShuffleWireBytesSaved);
                match codec {
                    crate::dist::WireCodec::Identity => assert_eq!(saved, 0),
                    // Still megabytes on the wire after lz.
                    crate::dist::WireCodec::Lz => {
                        assert!(saved > shuffled / 4 && saved < shuffled * 3 / 4, "{saved}")
                    }
                }
            }
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
