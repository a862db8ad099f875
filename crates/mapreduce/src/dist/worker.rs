//! Worker-process main loop: connect to the coordinator, pull task
//! assignments, run each as an [`Attempt`] — the discipline in-process
//! slots use — and stream results back. See [`crate::dist`] for the
//! conversation's grammar.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use super::net::{Stream, Transport};
use super::wire::{read_msg, rebuild_error, write_msg, Msg};
use super::DEADLINE;
use crate::counters::{Counter, CounterSnapshot};
use crate::error::MrError;
use crate::record::{InputSplit, KvPair, Mapper, Reducer};
use crate::runner;
use crate::scheduler::{Attempt, Outcome};
use crate::shuffle::inflate;
use crate::JobConfig;
use std::sync::Arc;
use std::time::Instant;

/// The message that closes a failed attempt.
fn task_failed_msg(
    task: usize,
    attempt: u32,
    reduce: bool,
    err: &MrError,
    harness: CounterSnapshot,
) -> Msg {
    Msg::TaskFailed {
        task: task as u32,
        attempt,
        reduce,
        checksum: err.is_checksum(),
        error: err.to_string(),
        harness,
    }
}

/// Run one worker against the coordinator at `addr` until it sends
/// `Shutdown` (or the connection fails, or the coordinator stays silent
/// past the deadline). Blocks the calling thread for the whole job;
/// `main` wrappers should turn the result into an exit code.
///
/// The first parameter is unread: the build picks the socket family. It
/// is kept only because the `benchmark/` package passes it, and goes when
/// that package is next changed (ROADMAP item 2).
pub fn run_worker(
    _transport: Transport,
    addr: &str,
    worker: u32,
    config: &JobConfig,
    mapper: &dyn Mapper,
    reducer: &dyn Reducer,
) -> Result<(), MrError> {
    let stream = Stream::connect(addr, DEADLINE)?;
    converse(stream, worker, config, mapper, reducer)
}

/// The worker's side of the conversation, over a connected stream.
fn converse(
    mut stream: Stream,
    worker: u32,
    config: &JobConfig,
    mapper: &dyn Mapper,
    reducer: &dyn Reducer,
) -> Result<(), MrError> {
    write_msg(&mut stream, &Msg::Hello { worker })?;
    loop {
        write_msg(&mut stream, &Msg::TaskRequest)?;
        match read_msg(&mut stream)? {
            Msg::MapTask {
                task,
                attempt,
                split,
            } => run_map_attempt(&mut stream, config, task as usize, attempt, &split, mapper)?,
            Msg::ReduceTask { task, attempt } => {
                if run_reduce_attempt(&mut stream, config, task as usize, attempt, reducer)? {
                    return Ok(()); // shutdown arrived mid-fetch (job aborted)
                }
            }
            Msg::Shutdown => return Ok(()),
            other => {
                return Err(MrError::Net(format!(
                    "worker {worker}: unexpected {} while awaiting an assignment",
                    other.name()
                )))
            }
        }
    }
}

/// One map attempt, then push each partition's segment to the
/// coordinator and commit with `MapDone`.
fn run_map_attempt(
    stream: &mut Stream,
    config: &JobConfig,
    task: usize,
    attempt: u32,
    split: &InputSplit,
    mapper: &dyn Mapper,
) -> Result<(), MrError> {
    let outcome = match Attempt::begin(config, task, attempt, false) {
        Err(failed) => failed,
        Ok(att) => att.run(|local| runner::run_map_task(config, task, split, mapper, local)),
    };
    let msg = match outcome.result {
        Ok((segments, local)) => {
            for (partition, seg) in segments {
                write_msg(
                    stream,
                    &Msg::MapSegment {
                        partition: partition as u32,
                        data: seg.data,
                    },
                )?;
            }
            Msg::MapDone {
                task: task as u32,
                attempt,
                local,
                harness: outcome.harness,
            }
        }
        Err(e) => task_failed_msg(task, attempt, false, &e, outcome.harness),
    };
    write_msg(stream, &msg)
}

/// One reduce attempt: the fault gate runs before any fetch, so an
/// injected reduce error costs no shuffle traffic; then fetch all
/// segments for the partition, then merge/group/reduce. Returns `true`
/// if the coordinator shut the job down mid-fetch.
///
/// The fetched bytes are taken as they come: where the fault plan
/// corrupts a segment, the coordinator already did so on its way out of
/// the store.
fn run_reduce_attempt(
    stream: &mut Stream,
    config: &JobConfig,
    task: usize,
    attempt: u32,
    reducer: &dyn Reducer,
) -> Result<bool, MrError> {
    let att = match Attempt::begin(config, task, attempt, true) {
        Ok(att) => att,
        Err(failed) => return report_reduce(stream, task, attempt, failed),
    };
    write_msg(stream, &Msg::FetchStart)?;
    let mut segs: Vec<Vec<u8>> = Vec::new();
    let mut decompress_nanos = 0u64;
    // A wire-compressed segment that fails to inflate is real
    // corruption (the lz frame's CRC over the wire bytes caught it).
    // The fetch stream is drained to its end first — the frames still
    // in the pipe would otherwise be read as the next assignment — then
    // the attempt fails as a checksum error, retryable like any detected
    // corruption. A `FetchFailed` end fails it the same way.
    let mut fetch_err: Option<MrError> = None;
    loop {
        match read_msg(stream)? {
            // The decoded frame owns its bytes, so unwrapping them
            // copies nothing.
            Msg::FetchSegment { comp: false, data } => segs.push(Arc::unwrap_or_clone(data)),
            Msg::FetchSegment { comp: true, data } => {
                let t0 = Instant::now();
                let inflated = inflate(&data);
                decompress_nanos += t0.elapsed().as_nanos() as u64;
                segs.push(inflated.unwrap_or_else(|e| {
                    fetch_err.get_or_insert(e);
                    Vec::new()
                }));
            }
            Msg::SegmentsDone { count } => {
                if count as usize != segs.len() {
                    return Err(MrError::Net(format!(
                        "reduce {task}: coordinator announced {count} segments, sent {}",
                        segs.len()
                    )));
                }
                break;
            }
            Msg::FetchFailed { checksum, error } => {
                fetch_err.get_or_insert(rebuild_error(checksum, error));
                break;
            }
            Msg::Shutdown => return Ok(true),
            other => {
                return Err(MrError::Net(format!(
                    "reduce {task}: unexpected {} during segment fetch",
                    other.name()
                )))
            }
        }
    }
    if let Some(e) = fetch_err {
        return report_reduce(stream, task, attempt, att.fail(e));
    }
    let outcome = att.run(|local| {
        local.add(Counter::LzDecompressNanos, decompress_nanos);
        runner::run_reduce_task(config, task, &segs, reducer, local)
    });
    report_reduce(stream, task, attempt, outcome)
}

/// Close a reduce attempt on the wire.
fn report_reduce(
    stream: &mut Stream,
    task: usize,
    attempt: u32,
    outcome: Outcome<Vec<KvPair>>,
) -> Result<bool, MrError> {
    let msg = match outcome.result {
        Ok((outputs, local)) => Msg::ReduceDone {
            task: task as u32,
            attempt,
            local,
            harness: outcome.harness,
            outputs,
        },
        Err(e) => task_failed_msg(task, attempt, true, &e, outcome.harness),
    };
    write_msg(stream, &msg).map(|()| false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;
    use crate::dist::net::Listener;
    use crate::record::{Emit, FnMapper, FnReducer};
    use std::io::Write;
    use std::time::Duration;

    /// The deadline the scripted conversations' worker runs under: far
    /// above any gap a script leaves, far below `within_deadline`'s.
    const SCRIPT_DEADLINE: Duration = Duration::from_secs(2);

    /// Run a real worker against a scripted coordinator: `script` gets
    /// the accepted connection after the worker's `Hello` and first
    /// `TaskRequest` have been read off it. Returns what the worker's
    /// conversation returned once the script is over and its end closed.
    fn worker_against(script: impl FnOnce(&mut Stream) + Send + 'static) -> Result<(), MrError> {
        crate::dist::tests::within_deadline(move || {
            let listener = Listener::bind().unwrap();
            let addr = listener.addr().to_string();
            let worker = std::thread::spawn(move || {
                let config = JobConfig::default().with_reducers(2);
                let mapper = FnMapper(|k: &[u8], v: &[u8], out: &mut dyn Emit| out.emit(k, v));
                let reducer = FnReducer(|k: &[u8], vs: &[&[u8]], out: &mut dyn Emit| {
                    out.emit(k, vs.len().to_string().as_bytes())
                });
                let stream = Stream::connect(&addr, SCRIPT_DEADLINE)?;
                converse(stream, 7, &config, &mapper, &reducer)
            });
            let mut stream = listener.accept(DEADLINE, &mut || true).unwrap();
            assert_eq!(read_msg(&mut stream).unwrap(), Msg::Hello { worker: 7 });
            assert_eq!(read_msg(&mut stream).unwrap(), Msg::TaskRequest);
            script(&mut stream);
            drop(stream);
            worker.join().unwrap()
        })
    }

    fn send(stream: &mut Stream, msg: Msg) {
        write_msg(stream, &msg).unwrap();
    }

    /// Open reduce 1 attempt 0 and read the worker's `FetchStart`.
    fn start_fetch(stream: &mut Stream) {
        send(
            stream,
            Msg::ReduceTask {
                task: 1,
                attempt: 0,
            },
        );
        assert_eq!(read_msg(stream).unwrap(), Msg::FetchStart);
    }

    fn segment(comp: bool, data: &[u8]) -> Msg {
        Msg::FetchSegment {
            comp,
            data: Arc::new(data.to_vec()),
        }
    }

    #[test]
    fn the_worker_refuses_frames_the_grammar_does_not_allow() {
        type Script = Box<dyn FnOnce(&mut Stream) + Send>;
        let cases: Vec<(Script, &str)> = vec![
            (
                Box::new(|s| send(s, Msg::SegmentsDone { count: 0 })),
                "unexpected SegmentsDone while awaiting an assignment",
            ),
            (
                Box::new(|s| send(s, Msg::Hello { worker: 7 })),
                "unexpected Hello while awaiting an assignment",
            ),
            (
                Box::new(|s| {
                    send(
                        s,
                        Msg::FetchFailed {
                            checksum: false,
                            error: "no fetch".into(),
                        },
                    )
                }),
                "unexpected FetchFailed while awaiting an assignment",
            ),
            (
                Box::new(|s| {
                    start_fetch(s);
                    send(s, Msg::SegmentsDone { count: 2 });
                }),
                "coordinator announced 2 segments, sent 0",
            ),
            (
                Box::new(|s| {
                    start_fetch(s);
                    send(s, segment(false, b"abc"));
                    send(s, Msg::SegmentsDone { count: 0 });
                }),
                "coordinator announced 0 segments, sent 1",
            ),
            (
                Box::new(|s| {
                    start_fetch(s);
                    send(
                        s,
                        Msg::ReduceTask {
                            task: 0,
                            attempt: 0,
                        },
                    );
                }),
                "unexpected ReduceTask during segment fetch",
            ),
            (
                Box::new(|s| {
                    start_fetch(s);
                    send(s, segment(false, b"abc"));
                }),
                "read frame length",
            ),
            (
                Box::new(|s| {
                    start_fetch(s);
                    s.write_all(&[50, 0, 0, 0, 8, 0]).unwrap();
                }),
                "read frame payload (50 bytes)",
            ),
        ];
        for (i, (script, names)) in cases.into_iter().enumerate() {
            match worker_against(script) {
                Err(MrError::Net(e)) => {
                    assert!(e.contains(names), "case {i}: {e:?} does not name {names:?}")
                }
                other => panic!("case {i}: expected a Net error, got {other:?}"),
            }
        }
    }

    #[test]
    fn shutdown_ends_the_conversation_between_tasks_and_mid_fetch() {
        worker_against(|s| send(s, Msg::Shutdown)).unwrap();
        worker_against(|s| {
            start_fetch(s);
            send(s, segment(false, b"abc"));
            send(s, Msg::Shutdown);
        })
        .unwrap();
    }

    #[test]
    fn a_corrupt_wire_segment_is_reported_only_after_the_stream_is_drained() {
        // Garbage, and a real frame whose header claims one byte fewer
        // than its tokens produce.
        let mut short = scihadoop_compress::lz::compress(&[5u8; 4096]);
        short[5..13].copy_from_slice(&4095u64.to_le_bytes());
        for (data, names) in [
            (vec![0xAB; 40], "shuffle lz frame corrupt"),
            (short, "declared 4095 bytes"),
        ] {
            worker_against(move |s| {
                start_fetch(s);
                send(s, segment(true, &data));
                send(s, segment(false, b"not a segment either"));
                send(s, Msg::SegmentsDone { count: 2 });
                // Only now does the worker speak, and then asks for more.
                match read_msg(s).unwrap() {
                    Msg::TaskFailed {
                        task: 1,
                        attempt: 0,
                        reduce: true,
                        checksum: true,
                        error,
                        ..
                    } => assert!(error.contains(names), "{error}"),
                    other => panic!("expected TaskFailed, got {other:?}"),
                }
                assert_eq!(read_msg(s).unwrap(), Msg::TaskRequest);
                send(s, Msg::Shutdown);
            })
            .unwrap();
        }
    }

    #[test]
    fn a_coordinator_gone_silent_ends_the_worker_at_the_deadline() {
        // The script says nothing after the worker's `TaskRequest`, and
        // waits with the connection open until the worker hangs up.
        let t0 = Instant::now();
        match worker_against(|s| assert!(read_msg(s).is_err(), "the worker hung up")) {
            Err(MrError::Net(e)) => assert!(e.contains("read frame length"), "{e}"),
            other => panic!("expected a Net error, got {other:?}"),
        }
        assert!(t0.elapsed() >= SCRIPT_DEADLINE);
    }

    #[test]
    fn a_failed_fetch_fails_the_attempt_and_keeps_the_worker() {
        for checksum in [true, false] {
            worker_against(move |s| {
                start_fetch(s);
                send(s, segment(false, b"served before the failure"));
                send(
                    s,
                    Msg::FetchFailed {
                        checksum,
                        error: "spill read failed".into(),
                    },
                );
                match read_msg(s).unwrap() {
                    Msg::TaskFailed {
                        task: 1,
                        attempt: 0,
                        reduce: true,
                        checksum: reported,
                        error,
                        ..
                    } => {
                        assert_eq!(reported, checksum);
                        assert!(error.contains("spill read failed"), "{error}");
                    }
                    other => panic!("expected TaskFailed, got {other:?}"),
                }
                assert_eq!(read_msg(s).unwrap(), Msg::TaskRequest);
                send(s, Msg::Shutdown);
            })
            .unwrap();
        }
    }

    #[test]
    fn a_map_attempt_pushes_its_segments_then_commits() {
        worker_against(|s| {
            let split = InputSplit::new(
                (0..20u8)
                    .map(|i| KvPair::new(vec![i], vec![i; 3]))
                    .collect(),
            );
            send(
                s,
                Msg::MapTask {
                    task: 3,
                    attempt: 2,
                    split: Arc::new(split),
                },
            );
            let mut partitions = Vec::new();
            loop {
                match read_msg(s).unwrap() {
                    Msg::MapSegment { partition, .. } => partitions.push(partition),
                    Msg::MapDone {
                        task: 3,
                        attempt: 2,
                        harness,
                        ..
                    } => {
                        assert_eq!(harness, Counters::new().snapshot());
                        break;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            assert_eq!(partitions, [0, 1]);
            assert_eq!(read_msg(s).unwrap(), Msg::TaskRequest);
            send(s, Msg::Shutdown);
        })
        .unwrap();
    }
}
