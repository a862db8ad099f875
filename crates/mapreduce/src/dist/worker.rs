//! Worker-process main loop: connect to the coordinator, pull task
//! assignments, run each as an [`Attempt`] — the discipline in-process
//! slots use — and stream results back under credit-based flow control.

use super::net::{Stream, Transport};
use super::wire::{expect_credit, read_msg, write_msg, Msg, CAP_LZ};
use crate::counters::{Counter, CounterSnapshot};
use crate::error::MrError;
use crate::record::{InputSplit, KvPair, Mapper, Reducer};
use crate::runner;
use crate::scheduler::{Attempt, Outcome};
use crate::JobConfig;
use scihadoop_compress::lz;
use std::time::{Duration, Instant};

/// How long a worker keeps retrying its initial connect. The listener
/// is bound before any worker is spawned, so this only absorbs
/// transient refusals under load.
const CONNECT_DEADLINE: Duration = Duration::from_secs(10);

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
/// `Shutdown` (or the connection fails). Blocks the calling thread for
/// the whole job; `main` wrappers should turn the result into an exit
/// code.
pub fn run_worker(
    transport: Transport,
    addr: &str,
    worker: u32,
    config: &JobConfig,
    mapper: &dyn Mapper,
    reducer: &dyn Reducer,
) -> Result<(), MrError> {
    let mut stream = Stream::connect_retry(transport, addr, CONNECT_DEADLINE)?;
    write_msg(
        &mut stream,
        &Msg::Hello {
            worker,
            wire_caps: CAP_LZ,
        },
    )?;
    loop {
        write_msg(&mut stream, &Msg::TaskRequest)?;
        match read_msg(&mut stream)? {
            Msg::MapTask {
                task,
                attempt,
                credits,
                split,
            } => run_map_attempt(
                &mut stream,
                config,
                task as usize,
                attempt,
                credits,
                &split,
                mapper,
            )?,
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
/// coordinator. Pushes spend credits granted in the assignment; the
/// coordinator returns one credit per received segment, and the worker
/// drains its window back to full before `MapDone` so no credit frame is
/// left in flight between tasks.
fn run_map_attempt(
    stream: &mut Stream,
    config: &JobConfig,
    task: usize,
    attempt: u32,
    window: u32,
    split: &InputSplit,
    mapper: &dyn Mapper,
) -> Result<(), MrError> {
    let outcome = match Attempt::begin(config, task, attempt, false) {
        Err(failed) => failed,
        Ok(att) => att.run(|local| runner::run_map_task(config, task, split, mapper, local)),
    };
    let (segments, local) = match outcome.result {
        Ok(done) => done,
        Err(e) => {
            let msg = task_failed_msg(task, attempt, false, &e, outcome.harness);
            return write_msg(stream, &msg);
        }
    };
    let mut credits = window;
    for (partition, seg) in segments {
        if credits == 0 {
            expect_credit(stream)?;
            credits += 1;
        }
        write_msg(
            stream,
            &Msg::MapSegment {
                partition: partition as u32,
                data: seg.data,
            },
        )?;
        credits -= 1;
    }
    while credits < window {
        expect_credit(stream)?;
        credits += 1;
    }
    write_msg(
        stream,
        &Msg::MapDone {
            task: task as u32,
            attempt,
            local,
            harness: outcome.harness,
        },
    )
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
    write_msg(
        stream,
        &Msg::FetchStart {
            credits: super::DEFAULT_FETCH_CREDITS,
        },
    )?;
    let mut segs: Vec<Vec<u8>> = Vec::new();
    let mut current: Vec<u8> = Vec::new();
    let mut decompress_nanos = 0u64;
    // A wire-compressed segment that fails to inflate is real
    // corruption (the lz frame's CRC over the wire bytes caught it).
    // The fetch stream is drained to completion first — bailing
    // mid-stream would desync the credit protocol — then the attempt
    // fails as a checksum error, retryable like any detected corruption.
    let mut fetch_err: Option<MrError> = None;
    loop {
        match read_msg(stream)? {
            Msg::SegChunk {
                index,
                last,
                comp,
                orig_len,
                data,
            } => {
                if index as usize != segs.len() {
                    return Err(MrError::Net(format!(
                        "reduce {task}: segment chunk for index {index} but {} segments assembled",
                        segs.len()
                    )));
                }
                current.extend_from_slice(&data);
                if last {
                    let assembled = std::mem::take(&mut current);
                    let seg = if comp {
                        let t0 = Instant::now();
                        let inflated = lz::decompress(&assembled);
                        decompress_nanos += t0.elapsed().as_nanos() as u64;
                        match inflated {
                            Ok(logical) if logical.len() == orig_len as usize => logical,
                            Ok(logical) => {
                                fetch_err.get_or_insert(MrError::Checksum(format!(
                                    "reduce {task}: wire segment {index} inflated to {} bytes, \
                                     header says {orig_len}",
                                    logical.len()
                                )));
                                logical
                            }
                            Err(e) => {
                                fetch_err.get_or_insert(MrError::Checksum(format!(
                                    "reduce {task}: wire segment {index} corrupt: {e}"
                                )));
                                Vec::new()
                            }
                        }
                    } else {
                        assembled
                    };
                    segs.push(seg);
                }
                write_msg(stream, &Msg::Credit)?;
            }
            Msg::SegmentsDone { count } => {
                if count as usize != segs.len() || !current.is_empty() {
                    return Err(MrError::Net(format!(
                        "reduce {task}: coordinator announced {count} segments, assembled {} \
                         ({} stray bytes)",
                        segs.len(),
                        current.len()
                    )));
                }
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
    write_msg(stream, &msg)?;
    Ok(false)
}
