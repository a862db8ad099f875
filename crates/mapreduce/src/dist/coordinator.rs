//! The coordinator side of a distributed job: launch the workers,
//! accept their connections, and run the job's [`scheduler`](crate::scheduler)
//! loop with one remote slot per connection. A remote slot feeds each
//! step of the loop to its conversation's machine
//! ([`super::coordinator_machine`]) and carries out what that asks for —
//! send a frame, resolve a fetch, hand the settled step back — and the
//! blocking socket is its only flow control.

use super::coordinator_machine::{Action, Coordinator, Event, Segment};
use super::net::{Listener, Stream};
use super::wire::{encode, read_msg, write_msg, Msg};
use super::{DistConfig, DEADLINE};
use crate::counters::Counter;
use crate::error::MrError;
use crate::job::{JobConfig, JobResult};
use crate::record::{InputSplit, Mapper, Reducer};
use crate::scheduler::{Fetched, JobState, Settled, Slot, Step, Takes};
use crate::shuffle::SegmentRepr;
use std::io::Write;
use std::process::Child;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Run a distributed job on freshly spawned worker *processes*: the
/// current executable is re-executed with `dist.worker_args`, the
/// `SCIHADOOP_DIST_*` environment and the workers' `GLIBC_TUNABLES`
/// (`dist::WORKER_MALLOC_TUNABLES`), and must route itself into a
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
            .env(
                "GLIBC_TUNABLES",
                super::worker_tunables(std::env::var_os("GLIBC_TUNABLES").as_deref()),
            )
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
        let (worker, uds) = (worker as u32, super::Transport::Uds);
        workers.threads.push(std::thread::spawn(move || {
            super::run_worker(uds, &addr, worker, &config, &*mapper, &*reducer)
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
        let stream = listener.accept(DEADLINE, &mut || workers.running())?;
        let machine = Coordinator::new(job.num_maps, config.num_reducers);
        slots.push(RemoteSlot { stream, machine });
    }
    // Nothing connects again: dropping the listener removes the socket
    // file before the job runs, so a kill mid-job leaves none behind.
    drop(listener);
    job.run(slots)
}

/// One worker connection: its stream and its conversation's machine.
struct RemoteSlot {
    stream: Stream,
    machine: Coordinator,
}

impl Slot for RemoteSlot {
    fn takes(&self) -> Takes {
        Takes::Both
    }

    /// Feed `step` to the machine and carry out its actions, reading the
    /// worker's frames while it awaits one, until the step settles.
    fn step(&mut self, job: &JobState, step: Step) -> Result<Settled, MrError> {
        let mut next = Some(Event::Step(step));
        loop {
            let event = match next.take() {
                Some(event) => event,
                None => Event::Frame(read_msg(&mut self.stream)?),
            };
            for action in self.machine.on(event)? {
                match action {
                    Action::Send(msg) => write_msg(&mut self.stream, &msg)?,
                    Action::Serve(segment) => serve(&mut self.stream, job, segment)?,
                    Action::Fetch((partition, attempt), map_task, index) => {
                        next = Some(fetch(job, partition, map_task, attempt, index))
                    }
                    Action::Settled(settled) => return Ok(settled),
                }
            }
        }
    }
}

/// Send one segment as a `FetchSegment` frame: the one copy, into the
/// frame, outside the transfer clock. A worker that reads slower than
/// segments are served blocks the `write_all`, so
/// `ShuffleTransferNanos` is time in the socket write *including*
/// that backpressure. What the frame saves against the logical length
/// is charged as it is served, so re-fetches by retried attempts count
/// again: true wire semantics.
fn serve(stream: &mut Stream, job: &JobState, segment: Segment) -> Result<(), MrError> {
    let (comp, data) = (segment.comp, segment.data);
    let frame = encode(&Msg::FetchSegment { comp, data })?;
    let t0 = Instant::now();
    stream
        .write_all(&frame)
        .map_err(|e| MrError::Net(format!("write FetchSegment: {e}")))?;
    let nanos = t0.elapsed().as_nanos() as u64;
    job.counters.add(Counter::ShuffleTransferNanos, nanos);
    job.counters
        .add(Counter::ShuffleWireBytesSaved, segment.saved);
    Ok(())
}

/// Resolve one fetch, timed as `ShuffleFetchWaitNanos`: wait until the
/// map task has committed, and read a spilled segment whole. A fetch
/// that fails because the job aborted is the abort.
fn fetch(job: &JobState, partition: usize, map_task: usize, attempt: u32, index: u64) -> Event {
    let t0 = Instant::now();
    let fetched = job
        .fetch(partition, map_task, attempt, index)
        .and_then(|fetched| fetched.map(wire_form).transpose());
    let nanos = t0.elapsed().as_nanos() as u64;
    job.counters.add(Counter::ShuffleFetchWaitNanos, nanos);
    match fetched {
        Err(_) if job.is_aborted() => Event::Aborted,
        fetched => Event::Fetched(fetched),
    }
}

/// A fetched segment as it crosses the wire. A resident segment's bytes
/// are the store's own; a spilled one's are read whole, its spill CRC
/// checked before any byte leaves. Copies the fault plan corrupted are
/// logical bytes and ship raw, which is what keeps a compressed run
/// byte-identical to identity under a fault storm.
fn wire_form(fetched: Fetched) -> Result<Segment, MrError> {
    Ok(match fetched {
        Fetched::Copy(data) => Segment {
            comp: false,
            data: Arc::new(data),
            saved: 0,
        },
        Fetched::Stored(h) => Segment {
            comp: h.is_comp(),
            data: match &h.repr {
                SegmentRepr::Mem(data) => Arc::clone(data),
                SegmentRepr::Spilled(_) => Arc::new(h.to_vec()?),
            },
            saved: (h.logical_len() - h.len()) as u64,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultPlan};
    use crate::record::{Emit, FnMapper, FnReducer, KvPair};
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

    /// The one-record split of the scripted conversations' job.
    fn split() -> InputSplit {
        InputSplit::new(vec![KvPair::new(b"k".to_vec(), b"v".to_vec())])
    }

    /// Run `step` of a remote slot of a two-reducer job, with one segment
    /// published for partition 1, against a scripted worker that says
    /// `script`, then ends as `end` says; `Open` runs `Ready` after it,
    /// as the slot loop does. The slot must come back lost, and the error
    /// is returned. What the slot takes or refuses in each state is
    /// `coordinator_machine`'s unit tests' and the explorer's; these
    /// scripts only show what a real socket does.
    fn lost_slot(step: Step, script: Vec<Msg>, end: End) -> String {
        crate::dist::tests::within_deadline(DEADLINE, move || {
            let listener = Listener::bind().unwrap();
            let mut peer = Stream::connect(listener.addr(), SCRIPT_DEADLINE).unwrap();
            let stream = listener.accept(SCRIPT_DEADLINE, &mut || true).unwrap();
            let machine = Coordinator::new(1, 2);
            let mut slot = RemoteSlot { stream, machine };
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
            let job = JobState::new(
                &config,
                vec![split()],
                usize::MAX,
                crate::dist::WireCodec::Identity,
            )
            .unwrap();
            job.store
                .publish(0, vec![(1, vec![7u8; segment_len])])
                .unwrap();
            let lost = match step {
                Step::Open => slot
                    .step(&job, Step::Open)
                    .and_then(|_| slot.step(&job, Step::Ready))
                    .err(),
                step => {
                    slot.machine = ready_machine(&job);
                    slot.step(&job, step).err()
                }
            };
            match lost.expect("the slot must be lost, not settle an outcome") {
                MrError::Net(e) => e,
                other => panic!("expected a Net error, got {other:?}"),
            }
        })
    }

    /// A machine that has been greeted and asked for a task, so that a
    /// script can start with the attempt's frames.
    fn ready_machine(job: &JobState) -> Coordinator {
        let mut machine = Coordinator::new(job.num_maps, job.config.num_reducers);
        machine.on(Event::Frame(Msg::Hello { worker: 0 })).unwrap();
        machine.on(Event::Frame(Msg::TaskRequest)).unwrap();
        machine
    }

    #[test]
    fn a_silent_worker_is_a_lost_slot_at_the_deadline() {
        let cases = [
            // Says `Hello`, then nothing: the wait for its first
            // `TaskRequest` times out.
            (
                Step::Open,
                vec![Msg::Hello { worker: 3 }],
                "read frame length",
            ),
            // Stops reading: the served segment's write times out.
            (Step::Reduce(1, 1), vec![], "write FetchSegment"),
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
    fn a_worker_that_hangs_up_between_or_inside_frames_is_a_lost_slot() {
        let segment = Msg::MapSegment {
            partition: 0,
            data: vec![1, 2, 3],
        };
        let map = || Step::Map(0, 1, Arc::new(split()));
        let cases: Vec<(Step, Vec<Msg>, &'static [u8], &str)> = vec![
            (Step::Open, vec![], b"", "read frame length"),
            (map(), vec![segment], b"", "read frame length"),
            (
                map(),
                vec![],
                &[100, 0, 0, 0, 4, 0, 0],
                "read frame payload (100 bytes)",
            ),
            (Step::Reduce(1, 1), vec![], &[9, 0], "read frame length"),
        ];
        for (i, (step, script, tail, names)) in cases.into_iter().enumerate() {
            let err = lost_slot(step, script, End::Close(tail));
            assert!(
                err.contains(names),
                "case {i}: {err:?} does not name {names:?}"
            );
        }
    }

    #[cfg(unix)]
    #[test]
    fn the_socket_file_is_gone_once_the_workers_have_connected() {
        // A scripted worker looks for the socket file once it holds its
        // first assignment, then hangs up, which fails the job.
        let (seen, saw) = std::sync::mpsc::channel();
        let result = crate::dist::tests::within_deadline(DEADLINE, move || {
            run_coordinator(
                &JobConfig::default(),
                &DistConfig::default().with_workers(1),
                word_splits(1, 4),
                |workers, _, addr| {
                    let (addr, seen) = (addr.to_string(), seen.clone());
                    workers.threads.push(std::thread::spawn(move || {
                        let mut peer = Stream::connect(&addr, SCRIPT_DEADLINE)?;
                        write_msg(&mut peer, &Msg::Hello { worker: 0 })?;
                        write_msg(&mut peer, &Msg::TaskRequest)?;
                        let assignment = read_msg(&mut peer)?.name();
                        let _ = seen.send((assignment, std::path::Path::new(&addr).exists()));
                        Ok(())
                    }));
                    Ok(())
                },
            )
            .map(|_| ())
        });
        assert!(result.is_err(), "the worker hung up mid-task");
        let (assignment, exists) = saw.recv().expect("the worker was assigned a task");
        assert_eq!(assignment, "MapTask");
        assert!(!exists, "the socket file outlived the connect phase");
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

    #[test]
    fn a_slot_whose_attempt_the_gate_failed_is_handed_the_next_at_once() {
        // Every first attempt fails the fault gate. The worker's
        // `TaskRequest` was read before the gate ran, so the slot must be
        // given its next assignment without waiting for another one: a
        // slot that waited would hang until `DEADLINE`.
        let faults = FaultConfig {
            map_error_rate: 1.0,
            reduce_error_rate: 1.0,
            attempt_cap: 1,
            ..FaultConfig::default()
        };
        let config = JobConfig::default()
            .with_reducers(2)
            .with_retries(1)
            .with_faults(FaultPlan::new(faults));
        let splits = word_splits(3, 20);
        let local = Job::new(config.clone())
            .run(splits.clone(), count_mapper(), sum_reducer())
            .unwrap();
        let dist = crate::dist::tests::within_deadline(Duration::from_secs(5), move || {
            let dist_cfg = DistConfig::default().with_workers(2);
            run_distributed_with_threads(&config, &dist_cfg, splits, count_mapper(), sum_reducer())
                .unwrap()
        });
        assert_same_outputs(&local, &dist);
        for result in [&local, &dist] {
            assert_eq!(result.counters.get(Counter::FaultsInjected), 3 + 2);
            assert_eq!(result.counters.get(Counter::TaskRetries), 3 + 2);
        }
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

        fn step(&mut self, job: &JobState, step: Step) -> Result<Settled, MrError> {
            let repair = match step {
                Step::Reduce(task, 0) => Some(job.store.damage_spill(task, 0, self.damage)),
                _ => None,
            };
            let settled = self.inner.step(job, step);
            drop(repair);
            if let Ok(Settled::Reduced(Some(Err(e)))) = &settled {
                self.failures.lock().unwrap().push(e.is_checksum());
            }
            settled
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
            let remote_leg = move || {
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
                let job = JobState::new(&config, splits, 0, crate::dist::WireCodec::Identity);
                let job = job.unwrap();
                let machine = Coordinator::new(job.num_maps, config.num_reducers);
                let slot = Damaged {
                    inner: RemoteSlot { stream, machine },
                    damage,
                    failures: Arc::clone(&failures),
                };
                let remote = job.run(vec![slot]);
                worker.join().unwrap().unwrap();
                let failures = failures.lock().unwrap().clone();
                (remote.unwrap(), failures)
            };
            let (remote, remote_failures) =
                crate::dist::tests::within_deadline(DEADLINE, remote_leg);

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
