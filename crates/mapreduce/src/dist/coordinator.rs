//! The coordinator side of a distributed job: launch the workers,
//! accept their connections, and run the job's [`scheduler`](crate::scheduler)
//! loop with one remote slot per connection. A remote slot is the
//! conversation with one worker — ship the task, stage or stream the
//! segments, read back the attempt's [`Outcome`] — and the blocking
//! socket is its only flow control.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use super::net::{Listener, Stream};
use super::wire::{encode, read_msg, rebuild_error, write_msg, Msg};
use super::{DistConfig, DEADLINE};
use crate::counters::Counter;
use crate::error::MrError;
use crate::job::{JobConfig, JobResult};
use crate::record::{InputSplit, KvPair, Mapper, Reducer};
use crate::scheduler::{Fetched, JobState, MapOutput, Outcome, Slot, Takes};
use crate::shuffle::SegmentRepr;
use std::io::Write;
use std::process::Child;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

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
    let exe = std::env::current_exe()
        .map_err(|e| MrError::Config(format!("cannot locate current executable: {e}")))?;
    run_coordinator(config, dist, splits, |workers, worker, addr| {
        let child = std::process::Command::new(&exe)
            .args(&dist.worker_args)
            .env(super::ENV_ADDR, addr)
            .env(super::ENV_WORKER, worker.to_string())
            .env(super::ENV_JOB, &dist.job_payload)
            .stdin(std::process::Stdio::null())
            // Worker stdout is libtest/CLI chatter; stderr stays visible
            // so a worker panic is diagnosable from the coordinator run.
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .map_err(|e| MrError::Net(format!("spawn worker {worker}: {e}")))?;
        workers.children.push(child);
        Ok(())
    })
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
    run_coordinator(config, dist, splits, |workers, worker, addr| {
        let (config, addr) = (config.clone(), addr.to_string());
        let (mapper, reducer) = (Arc::clone(&mapper), Arc::clone(&reducer));
        workers.threads.push(std::thread::spawn(move || {
            super::run_worker(
                super::Transport::Uds,
                &addr,
                worker as u32,
                &config,
                &*mapper,
                &*reducer,
            )
        }));
        Ok(())
    })
}

/// A job's workers, and their one teardown: dropping the guard kills
/// every child process still running, reaps them all, and joins the
/// worker threads, which cannot be killed. It runs however the
/// coordinator ends — in success (every worker has been sent `Shutdown`
/// and has nothing left to write, so a kill loses nothing), in failure
/// or in a panic.
#[derive(Default)]
struct Workers {
    children: Vec<Child>,
    threads: Vec<JoinHandle<Result<(), MrError>>>,
}

impl Workers {
    /// Whether every worker is still running: one that exits before it
    /// connects would otherwise hold `accept` to its deadline.
    fn running(&mut self) -> bool {
        self.children
            .iter_mut()
            .all(|c| matches!(c.try_wait(), Ok(None)))
            && self.threads.iter().all(|t| !t.is_finished())
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
        }
        for child in &mut self.children {
            let _ = child.wait();
        }
        // A worker's error after the job has ended is expected (its
        // socket died with the job); the job's own error, if any, is
        // already collected.
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Run a job on `dist.workers` remote slots; `start` starts worker
/// `i`, which connects to `addr`, and hands it to the guard.
fn run_coordinator(
    config: &JobConfig,
    dist: &DistConfig,
    splits: Vec<InputSplit>,
    start: impl Fn(&mut Workers, usize, &str) -> Result<(), MrError>,
) -> Result<JobResult, MrError> {
    dist.validate()?;
    let job = JobState::new(config, splits, dist.shuffle_mem_budget(), dist.wire_codec)?;
    // Declared before the listener and the slots, so dropped after
    // them: no worker thread it joins is left waiting on either.
    let mut workers = Workers::default();
    // Bound before any worker exists, so each worker's one connect
    // attempt finds it.
    let listener = Listener::bind()?;
    for worker in 0..dist.workers {
        start(&mut workers, worker, listener.addr())?;
    }
    // All workers connect before the job clock starts.
    let mut slots = Vec::with_capacity(dist.workers);
    for _ in 0..dist.workers {
        slots.push(RemoteSlot(
            listener.accept(DEADLINE, &mut || workers.running())?,
        ));
    }
    job.run(slots)
}

/// One worker connection. The worker drives: it announces itself with
/// `Hello`, then asks for work with `TaskRequest` before every
/// assignment.
struct RemoteSlot(Stream);

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
        write_msg(&mut self.0, msg)
    }

    fn recv(&mut self) -> Result<Msg, MrError> {
        read_msg(&mut self.0)
    }
}

impl Slot for RemoteSlot {
    fn takes(&self) -> Takes {
        Takes::Both
    }

    fn open(&mut self, _job: &JobState) -> Result<String, MrError> {
        match self.recv()? {
            Msg::Hello { worker } => Ok(format!("dist-conn-{worker}")),
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
                "expected TaskRequest, got {}",
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
        split: &Arc<InputSplit>,
    ) -> Result<Outcome<MapOutput>, MrError> {
        self.send(&Msg::MapTask {
            task: task as u32,
            attempt,
            split: Arc::clone(split),
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
    /// Each segment is one `FetchSegment` frame of its stored bytes (see
    /// [`wire_form`]); the difference between logical and transmitted
    /// length is charged to `ShuffleWireBytesSaved` at serve time, so
    /// re-fetches by retried attempts count again — true wire semantics.
    /// A segment the store cannot serve ends the stream with
    /// `FetchFailed`: the worker fails the attempt, which settles like
    /// any failed attempt, and the slot stays.
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
        let mut failed = None;
        for map_task in 0..job.num_maps {
            let wait_t0 = Instant::now();
            let fetched = job
                .fetch(task, map_task, attempt, u64::from(served))
                .and_then(|fetched| fetched.map(wire_form).transpose());
            wait_nanos += wait_t0.elapsed().as_nanos() as u64;
            let (comp, data, saved) = match fetched {
                Ok(Some(segment)) => segment,
                Ok(None) => continue,
                Err(_) if job.is_aborted() => {
                    // Release the worker cleanly; the abort's cause
                    // is already collected elsewhere.
                    self.send(&Msg::Shutdown)?;
                    return Ok(None);
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            };
            // The one copy: into the frame, outside the transfer clock.
            let frame = encode(&Msg::FetchSegment { comp, data })?;
            let send_t0 = Instant::now();
            self.0
                .write_all(&frame)
                .map_err(|e| MrError::Net(format!("write FetchSegment: {e}")))?;
            transfer_nanos += send_t0.elapsed().as_nanos() as u64;
            wire_saved += saved;
            served += 1;
        }
        job.counters.add(Counter::ShuffleFetchWaitNanos, wait_nanos);
        job.counters
            .add(Counter::ShuffleTransferNanos, transfer_nanos);
        job.counters.add(Counter::ShuffleWireBytesSaved, wire_saved);
        self.send(&match &failed {
            None => Msg::SegmentsDone { count: served },
            Some(e) => Msg::FetchFailed {
                checksum: e.is_checksum(),
                error: e.to_string(),
            },
        })?;

        match self.recv()? {
            Msg::ReduceDone {
                task: t,
                attempt: a,
                local,
                harness,
                outputs,
            } if failed.is_none() && (t as usize, a) == (task, attempt) => Ok(Some(Outcome {
                harness,
                result: Ok((outputs, local)),
            })),
            other => task_failed(other, expect).map(Some),
        }
    }
}

/// A fetched segment as it crosses the wire: whether it is an lz frame,
/// its bytes, and what that saves against its logical length. A
/// resident segment's bytes are the store's own; a spilled one's are
/// read whole, its spill CRC checked before any byte leaves. Copies the
/// fault plan corrupted are logical bytes and ship raw, which is what
/// keeps a compressed run byte-identical to identity under a fault
/// storm.
fn wire_form(fetched: Fetched) -> Result<(bool, Arc<Vec<u8>>, u64), MrError> {
    Ok(match fetched {
        Fetched::Copy(data) => (false, Arc::new(data), 0),
        Fetched::Stored(h) => {
            let data = match &h.repr {
                SegmentRepr::Mem(data) => Arc::clone(data),
                SegmentRepr::Spilled(_) => Arc::new(h.to_vec()?),
            };
            let saved = (h.logical_len() - h.len()) as u64;
            (h.is_comp(), data, saved)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;
    use crate::fault::{FaultConfig, FaultPlan};
    use crate::record::{Emit, FnMapper, FnReducer};
    use crate::runner::InProcessSlot;
    use crate::shuffle::damage::Damage;
    use crate::Job;
    use std::time::Duration;

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
        /// `open`, then `ready`: the start of every slot's loop.
        Open,
        Ready,
        /// `map(task 0, attempt 1)` of a two-reducer job.
        Map,
        /// `reduce(task 1, attempt 1)` of the same job, one segment
        /// published for the partition.
        Reduce,
    }

    /// How the scripted worker ends once its script is said.
    #[derive(Clone, Copy)]
    enum End {
        /// It sends these raw bytes, then half-closes.
        Close(&'static [u8]),
        /// It goes silent: it neither writes nor closes, and reads
        /// nothing. The published segment is then 16 MiB, far past what
        /// the socket buffers hold.
        Silent,
    }

    /// The deadline a scripted conversation's slot runs under.
    const SCRIPT_DEADLINE: Duration = Duration::from_secs(1);

    /// Run `step` of a remote slot against a scripted worker that says
    /// `script`, then ends as `end` says; the slot must come back lost,
    /// and the error is returned.
    fn lost_slot(step: Step, script: Vec<Msg>, end: End) -> String {
        crate::dist::tests::within_deadline(move || {
            let listener = Listener::bind().unwrap();
            let mut peer = Stream::connect(listener.addr(), SCRIPT_DEADLINE).unwrap();
            let stream = listener.accept(SCRIPT_DEADLINE, &mut || true).unwrap();
            let mut slot = RemoteSlot(stream);
            for msg in &script {
                write_msg(&mut peer, msg).unwrap();
            }
            let segment_len = match end {
                End::Close(tail) => {
                    peer.write_all(tail).unwrap();
                    peer.shutdown_write();
                    100
                }
                End::Silent => 16 << 20,
            };

            let config = JobConfig::default().with_reducers(2);
            let split = InputSplit::new(vec![KvPair::new(b"k".to_vec(), b"v".to_vec())]);
            let job = JobState::new(
                &config,
                vec![split.clone()],
                usize::MAX,
                crate::dist::WireCodec::Identity,
            )
            .unwrap();
            job.store
                .publish(0, vec![(1, vec![7u8; segment_len])])
                .unwrap();
            let lost = match step {
                Step::Open => slot.open(&job).and_then(|_| slot.ready()).err(),
                Step::Ready => slot.ready().err(),
                Step::Map => slot.map(&job, 0, 1, &Arc::new(split)).err(),
                Step::Reduce => slot.reduce(&job, 1, 1).err(),
            };
            match lost.expect("the slot must be lost, not settle an outcome") {
                MrError::Net(e) => e,
                other => panic!("expected a Net error, got {other:?}"),
            }
        })
    }

    #[test]
    fn a_silent_worker_is_a_lost_slot_at_the_deadline() {
        use Step::*;
        let cases = [
            // Says `Hello`, then nothing: the wait for its first
            // `TaskRequest` times out.
            (Open, vec![Msg::Hello { worker: 3 }], "read frame length"),
            // Stops reading: the served segment's write times out.
            (Reduce, vec![Msg::FetchStart], "write FetchSegment"),
        ];
        for (step, script, names) in cases {
            let t0 = Instant::now();
            let err = lost_slot(step, script, End::Silent);
            assert!(err.contains(names), "{err:?} does not name {names:?}");
            let waited = t0.elapsed();
            assert!(waited >= SCRIPT_DEADLINE, "{names}: lost after {waited:?}");
            assert!(
                waited < 10 * SCRIPT_DEADLINE,
                "{names}: lost after {waited:?}"
            );
        }
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
                Open,
                vec![hello.clone(), hello.clone()],
                b"",
                "expected TaskRequest, got Hello",
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
            let err = lost_slot(step, script, End::Close(tail));
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
        for (codec, budget) in [
            (crate::dist::WireCodec::Identity, None),
            (crate::dist::WireCodec::Lz, Some(0)),
        ] {
            let dist_cfg = DistConfig::default()
                .with_workers(2)
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

    #[test]
    fn thread_mode_matches_the_local_engine() {
        let config = JobConfig::default().with_reducers(3).with_slots(4, 2);
        let splits = word_splits(6, 40);
        let local = Job::new(config.clone())
            .run(splits.clone(), count_mapper(), sum_reducer())
            .unwrap();
        let dist_cfg = DistConfig::default().with_workers(3);
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

    #[test]
    fn thread_mode_survives_a_fault_storm_byte_identically() {
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
        // Placement counters: nothing was ever resident, and only the
        // attempt that succeeded published, so every shuffled byte was
        // spilled exactly once however many map attempts failed.
        assert_eq!(dist.counters.get(Counter::ShuffleMemHighWater), 0);
        assert_eq!(
            dist.counters.get(Counter::ShuffleSpilledBytes),
            dist.counters.get(Counter::ShuffleBytes)
        );
        assert!(dist.counters.get(Counter::ShuffleSpillReads) > 0);
    }

    #[test]
    fn wire_lz_fault_storm_is_byte_identical_and_saves_wire_bytes() {
        use crate::dist::WireCodec;
        // Same storm as the thread-mode storm test, but with wire
        // compression on and a tight memory budget so compressed frames
        // also cross the spill path. Outputs and every job-semantics counter must be
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
            &DistConfig::default().with_workers(3),
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

    /// A slot whose first reduce attempt finds map task 0's segment
    /// damaged in its spill file; the damage is repaired as the attempt
    /// returns, so the retry succeeds. Records whether each failed
    /// attempt failed as a checksum error.
    struct Damaged<S> {
        inner: S,
        damage: Damage,
        failures: Arc<std::sync::Mutex<Vec<bool>>>,
    }

    impl<S: Slot> Slot for Damaged<S> {
        fn takes(&self) -> Takes {
            self.inner.takes()
        }

        fn open(&mut self, job: &JobState) -> Result<String, MrError> {
            self.inner.open(job)
        }

        fn ready(&mut self) -> Result<(), MrError> {
            self.inner.ready()
        }

        fn map(
            &mut self,
            job: &JobState,
            task: usize,
            attempt: u32,
            split: &Arc<InputSplit>,
        ) -> Result<Outcome<MapOutput>, MrError> {
            self.inner.map(job, task, attempt, split)
        }

        fn reduce(
            &mut self,
            job: &JobState,
            task: usize,
            attempt: u32,
        ) -> Result<Option<Outcome<Vec<KvPair>>>, MrError> {
            let repair = (attempt == 0).then(|| job.store.damage_spill(task, 0, self.damage));
            let ran = self.inner.reduce(job, task, attempt);
            drop(repair);
            if let Ok(Some(Outcome { result: Err(e), .. })) = &ran {
                self.failures.lock().unwrap().push(e.is_checksum());
            }
            ran
        }

        fn close(&mut self) -> Result<(), MrError> {
            self.inner.close()
        }
    }

    #[test]
    fn a_spill_read_that_fails_under_a_remote_reduce_fails_the_attempt_not_the_worker() {
        // Every segment spilled, one reducer, one retry: the first
        // reduce attempt meets the damage, the second the repaired file.
        let config = JobConfig::default().with_reducers(1).with_retries(1);
        let splits = word_splits(3, 40);
        let clean = Job::new(config.clone())
            .run(splits.clone(), count_mapper(), sum_reducer())
            .unwrap();
        for (damage, checksum) in [(Damage::FlipByte, true), (Damage::Truncate, false)] {
            // In-process: a map-only slot, then a reduce-only one.
            let failures = Arc::default();
            let (mapper, reducer) = (count_mapper(), sum_reducer());
            let slot = |takes| Damaged {
                inner: InProcessSlot {
                    takes,
                    index: 0,
                    mapper: mapper.as_ref(),
                    reducer: reducer.as_ref(),
                },
                damage,
                failures: Arc::clone(&failures),
            };
            let job = JobState::new(&config, splits.clone(), 0, crate::dist::WireCodec::Identity);
            let local = job
                .unwrap()
                .run(vec![slot(Takes::Maps), slot(Takes::Reduces)])
                .unwrap();
            let local_failures = failures.lock().unwrap().clone();

            // Remote: the one slot, of one worker thread, takes every
            // task, so the retry runs on the worker whose attempt failed.
            let (config, splits) = (config.clone(), splits.clone());
            let (remote, remote_failures) = crate::dist::tests::within_deadline(move || {
                let listener = Listener::bind().unwrap();
                let addr = listener.addr().to_string();
                let worker_config = config.clone();
                let worker = std::thread::spawn(move || {
                    let (mapper, reducer) = (count_mapper(), sum_reducer());
                    crate::dist::run_worker(
                        crate::dist::Transport::Uds,
                        &addr,
                        0,
                        &worker_config,
                        mapper.as_ref(),
                        reducer.as_ref(),
                    )
                });
                let stream = listener.accept(DEADLINE, &mut || true).unwrap();
                let failures = Arc::default();
                let slot = Damaged {
                    inner: RemoteSlot(stream),
                    damage,
                    failures: Arc::clone(&failures),
                };
                let job = JobState::new(&config, splits, 0, crate::dist::WireCodec::Identity);
                let remote = job.unwrap().run(vec![slot]);
                worker.join().unwrap().unwrap();
                let failures = failures.lock().unwrap().clone();
                (remote.unwrap(), failures)
            });

            assert_eq!(local_failures, [checksum], "{damage:?}: in-process");
            assert_eq!(remote_failures, [checksum], "{damage:?}: remote");
            for result in [&local, &remote] {
                assert_same_outputs(&clean, result);
                assert_eq!(result.counters.get(Counter::TaskRetries), 1, "{damage:?}");
                assert_eq!(
                    result.counters.get(Counter::ChecksumFailures),
                    u64::from(checksum),
                    "{damage:?}"
                );
            }
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_panicking_coordinator_still_kills_and_reaps_every_worker() {
        let mut workers = Workers::default();
        for _ in 0..3 {
            let child = std::process::Command::new("sleep")
                .arg("60")
                .spawn()
                .unwrap();
            workers.children.push(child);
        }
        workers.threads.push(std::thread::spawn(|| Ok(())));
        assert!(workers
            .children
            .iter_mut()
            .all(|c| c.try_wait().unwrap().is_none()));
        let pids: Vec<u32> = workers.children.iter().map(Child::id).collect();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _workers = workers;
            panic!("the coordinator panics with its workers running");
        }));
        assert!(unwound.is_err());
        for pid in pids {
            // A child still running, or exited but not reaped (a zombie),
            // still has its /proc entry.
            let entry = std::path::PathBuf::from(format!("/proc/{pid}"));
            assert!(!entry.exists(), "worker {pid} was left running or unreaped");
        }
    }
}
