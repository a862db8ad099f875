//! Worker-process main loop: connect to the coordinator and carry out
//! what the worker's machine ([`super::worker_machine`], which holds the
//! conversation's grammar) asks for. Each attempt runs through
//! [`run_attempt`], as in-process slots do. Every fault decision is the
//! coordinator's: an assignment that arrives here has passed the
//! scheduler's fault gate, and a fetched segment arrives already
//! corrupted where the plan says. An attempt's counter bank travels back
//! with its result; its histogram bank does not (no message has a field
//! for it) and is dropped.

use super::net::{Stream, Transport};
use super::wire::{read_msg, write_msg};
use super::worker_machine::{Action, Event, Worker};
use super::DEADLINE;
use crate::counters::Counter;
use crate::error::MrError;
use crate::record::{Mapper, Reducer};
use crate::runner;
use crate::scheduler::run_attempt;
use crate::shuffle::inflate;
use crate::JobConfig;
use std::time::Instant;

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

/// The worker's side of the conversation over a connected stream: carry
/// out the machine's actions, and feed it what the attempt or inflation
/// one ran returned or, when none ran, the next frame. The worker is one
/// slot, and its map attempts stage in one arena.
fn converse(
    mut stream: Stream,
    worker: u32,
    config: &JobConfig,
    mapper: &dyn Mapper,
    reducer: &dyn Reducer,
) -> Result<(), MrError> {
    let (mut machine, mut actions) = Worker::start(worker);
    let mut arena = crate::SpillArena::new(config.num_reducers);
    loop {
        let mut ran = None;
        for action in actions {
            match action {
                Action::Send(msg) => write_msg(&mut stream, &msg)?,
                Action::End => return Ok(()),
                Action::Map(task, attempt, split) => {
                    let outcome =
                        runner::map_attempt(config, task, attempt, &split, mapper, &mut arena);
                    ran = Some(Event::Mapped(outcome));
                }
                Action::Inflate(frame) => {
                    let t0 = Instant::now();
                    let inflated = inflate(&frame);
                    ran = Some(Event::Inflated(inflated, t0.elapsed().as_nanos() as u64));
                }
                Action::Reduce(task, attempt, segments, inflate_nanos) => {
                    let outcome = run_attempt(task, attempt, |local, metrics| {
                        local.add(Counter::LzDecompressNanos, inflate_nanos);
                        runner::run_reduce_task(config, task, &segments, reducer, local, metrics)
                    });
                    ran = Some(Event::Reduced(outcome));
                }
            }
        }
        let event = match ran {
            Some(event) => event,
            None => Event::Frame(read_msg(&mut stream)?),
        };
        actions = machine.on(event)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::net::Listener;
    use crate::dist::wire::Msg;
    use crate::record::{Emit, FnMapper, FnReducer, InputSplit, KvPair};
    use std::io::Write;
    use std::sync::Arc;
    use std::time::Duration;

    /// The deadline the scripted conversations' worker runs under: far
    /// above any gap a script leaves, far below `within_deadline`'s.
    const SCRIPT_DEADLINE: Duration = Duration::from_secs(2);

    /// Run a real worker against a scripted coordinator: `script` gets
    /// the accepted connection after the worker's `Hello` and first
    /// `TaskRequest` have been read off it. Returns what the worker's
    /// conversation returned once the script is over and its end closed.
    fn worker_against(script: impl FnOnce(&mut Stream) + Send + 'static) -> Result<(), MrError> {
        crate::dist::tests::within_deadline(DEADLINE, move || {
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

    /// Open reduce 1 attempt 0; the worker then reads its fetch stream
    /// and says nothing until the stream ends.
    fn start_fetch(stream: &mut Stream) {
        send(
            stream,
            Msg::ReduceTask {
                task: 1,
                attempt: 0,
            },
        );
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
    fn a_coordinator_that_hangs_up_ends_the_worker_at_once() {
        type Script = Box<dyn FnOnce(&mut Stream) + Send>;
        let map_task = |s: &mut Stream| {
            let split = InputSplit::new(vec![KvPair::new(vec![1], vec![2])]);
            send(
                s,
                Msg::MapTask {
                    task: 0,
                    attempt: 0,
                    split: Arc::new(split),
                },
            )
        };
        let segment = |s: &mut Stream| {
            let data = Arc::new(b"abc".to_vec());
            send(s, Msg::FetchSegment { comp: false, data })
        };
        let cases: Vec<(&str, Script, &str)> = vec![
            ("right after Hello", Box::new(|_| {}), "read frame length"),
            // The map's segment is written, or the next read sees the end.
            ("right after a MapTask", Box::new(map_task), ""),
            (
                "mid-fetch",
                Box::new(move |s| {
                    start_fetch(s);
                    segment(s);
                }),
                "read frame length",
            ),
            (
                "inside a frame",
                Box::new(|s| {
                    start_fetch(s);
                    s.write_all(&[50, 0, 0, 0, 8, 0]).unwrap();
                }),
                "read frame payload (50 bytes)",
            ),
        ];
        for (when, script, names) in cases {
            // The script's end closes the stream. A worker that missed
            // the hang-up would end only at its read deadline.
            let t0 = Instant::now();
            match worker_against(script) {
                Err(MrError::Net(e)) => assert!(e.contains(names), "{when}: {e}"),
                other => panic!("{when}: expected a Net error, got {other:?}"),
            }
            assert!(t0.elapsed() < SCRIPT_DEADLINE, "{when}: {:?}", t0.elapsed());
        }
    }

    #[test]
    fn a_corrupt_lz_segment_inflates_to_a_checksum_error() {
        // Garbage, and a real frame whose header claims one byte fewer
        // than its tokens produce, under a frame CRC that holds so the
        // token decoder is what notices.
        let mut short = scihadoop_compress::lz::compress(&[5u8; 4096]);
        short[5..13].copy_from_slice(&4095u64.to_le_bytes());
        let mut crc = scihadoop_compress::Crc32c::new();
        crc.update(&short[4..13]);
        crc.update(&short[17..]);
        short[13..17].copy_from_slice(&crc.finish().to_le_bytes());
        for (data, names) in [
            (vec![0xAB; 40], "shuffle lz frame corrupt"),
            (short, "declared 4095 bytes"),
        ] {
            let err = inflate(&data).unwrap_err();
            assert!(
                err.is_checksum() && err.to_string().contains(names),
                "{err}"
            );
        }
    }
}
