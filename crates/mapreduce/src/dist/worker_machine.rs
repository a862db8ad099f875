//! The worker's end of the conversation, as a pure state machine:
//! [`Worker::start`] gives the opening frames, and [`Worker::on`] takes
//! an [`Event`] and returns the [`Action`]s that answer it, or an `Err`
//! that ends the worker. It holds no stream, clock, lock or thread.
//! `worker.rs` reads the frames, runs the attempts the actions ask for,
//! and feeds their outcomes back.
//!
//! ```text
//! state   event                      actions                                   next
//! (start)                            Send(Hello), Send(TaskRequest)            Idle
//! Idle    MapTask                    Map                                       Map
//! Idle    ReduceTask                 -                                         Fetch
//! Idle    Shutdown                   End                                       Done
//! Map     Mapped(segments)           Send(MapSegment) per segment,             Idle
//!                                    Send(MapDone), Send(TaskRequest)
//! Fetch   FetchSegment, raw          keep it                                   Fetch
//! Fetch   FetchSegment, lz           Inflate                                   Inflate
//! Inflate Inflated(segment or error) keep it, or the first error               Fetch
//! Fetch   SegmentsDone(count kept)   Reduce(segments kept), or with an error   Reduce
//!                                    kept Send(TaskFailed), Send(TaskRequest)  or Idle
//! Fetch   FetchFailed                Send(TaskFailed) with the first error,    Idle
//!                                    Send(TaskRequest)
//! Fetch   Shutdown                   End: the job aborted mid-fetch            Done
//! Reduce  Reduced(outputs)           Send(ReduceDone), Send(TaskRequest)       Idle
//! Map,    Mapped or Reduced(error)   Send(TaskFailed), Send(TaskRequest)       Idle
//! Reduce
//! any     anything else              Err: the worker ends
//! ```
//!
//! Each lz segment is inflated as it arrives, while the coordinator
//! waits on the next one. One that fails to inflate is real corruption:
//! the stream is still read to its end, so that no frame of it is taken
//! for the next assignment, and the attempt then fails as a checksum
//! error, retryable like any other.

use super::wire::{rebuild_error, Msg};
use crate::error::MrError;
use crate::record::{InputSplit, KvPair};
use crate::scheduler::{MapOutput, Outcome};
use std::sync::Arc;

pub(super) enum Event {
    /// A decoded frame from the coordinator.
    Frame(Msg),
    Mapped(Outcome<MapOutput>),
    /// An lz segment inflated, and the nanoseconds that took.
    Inflated(Result<Vec<u8>, MrError>, u64),
    Reduced(Outcome<Vec<KvPair>>),
}

pub(super) enum Action {
    Send(Msg),
    /// Run a map attempt and feed back `Mapped`.
    Map(usize, u32, Arc<InputSplit>),
    /// Inflate an lz segment and feed back `Inflated`.
    Inflate(Arc<Vec<u8>>),
    /// Run a reduce attempt over the fetched segments, charging it the
    /// nanoseconds their inflation took, and feed back `Reduced`.
    Reduce(usize, u32, Vec<Vec<u8>>, u64),
    /// The coordinator released the worker: the conversation is over.
    End,
}

/// A reduce attempt's fetch so far: the segments, the nanoseconds their
/// inflation took, and the first that failed to inflate.
#[derive(Default)]
struct Kept {
    segments: Vec<Vec<u8>>,
    nanos: u64,
    failed: Option<MrError>,
}

enum State {
    Idle,
    Map(u32, u32),
    Fetch(u32, u32, Kept),
    Inflate(u32, u32, Kept),
    Reduce(u32, u32),
    Done,
}

/// One worker's conversation.
pub(super) struct Worker {
    state: State,
}

impl Worker {
    /// The machine, and the frames that open the conversation.
    pub(super) fn start(worker: u32) -> (Worker, Vec<Action>) {
        let opening = [Msg::Hello { worker }, Msg::TaskRequest];
        let actions = opening.into_iter().map(Action::Send).collect();
        (Worker { state: State::Idle }, actions)
    }

    /// One arm per row of the module's table.
    pub(super) fn on(&mut self, event: Event) -> Result<Vec<Action>, MrError> {
        use Msg::*;
        let (next, actions) = match (std::mem::replace(&mut self.state, State::Done), event) {
            (
                State::Idle,
                Event::Frame(MapTask {
                    task,
                    attempt,
                    split,
                }),
            ) => (
                State::Map(task, attempt),
                vec![Action::Map(task as usize, attempt, split)],
            ),
            (State::Idle, Event::Frame(ReduceTask { task, attempt })) => {
                (State::Fetch(task, attempt, Kept::default()), Vec::new())
            }
            (State::Idle | State::Fetch(..), Event::Frame(Shutdown)) => {
                (State::Done, vec![Action::End])
            }
            (State::Map(task, attempt), Event::Mapped(Ok((segments, local, _)))) => {
                let segments = segments.into_iter().map(|(partition, data)| MapSegment {
                    partition: partition as u32,
                    data,
                });
                (
                    State::Idle,
                    closing(segments.chain([MapDone {
                        task,
                        attempt,
                        local,
                    }])),
                )
            }
            // A decoded frame owns its bytes, so unwrapping them copies
            // nothing.
            (
                State::Fetch(task, attempt, mut kept),
                Event::Frame(FetchSegment { comp: false, data }),
            ) => {
                kept.segments.push(Arc::unwrap_or_clone(data));
                (State::Fetch(task, attempt, kept), Vec::new())
            }
            (
                State::Fetch(task, attempt, kept),
                Event::Frame(FetchSegment { comp: true, data }),
            ) => (
                State::Inflate(task, attempt, kept),
                vec![Action::Inflate(data)],
            ),
            (State::Inflate(task, attempt, mut kept), Event::Inflated(inflated, nanos)) => {
                kept.nanos += nanos;
                let segment = inflated.unwrap_or_else(|e| {
                    kept.failed.get_or_insert(e);
                    Vec::new()
                });
                kept.segments.push(segment);
                (State::Fetch(task, attempt, kept), Vec::new())
            }
            (State::Fetch(task, attempt, kept), Event::Frame(SegmentsDone { count }))
                if count as usize == kept.segments.len() =>
            {
                match kept.failed {
                    Some(e) => (State::Idle, closing([failed(task, attempt, true, e)])),
                    None => {
                        let (segments, nanos) = (kept.segments, kept.nanos);
                        let reduce = Action::Reduce(task as usize, attempt, segments, nanos);
                        (State::Reduce(task, attempt), vec![reduce])
                    }
                }
            }
            (State::Fetch(task, attempt, kept), Event::Frame(FetchFailed { checksum, error })) => {
                let e = kept
                    .failed
                    .unwrap_or_else(|| rebuild_error(checksum, error));
                (State::Idle, closing([failed(task, attempt, true, e)]))
            }
            (State::Reduce(task, attempt), Event::Reduced(Ok((outputs, local, _)))) => (
                State::Idle,
                closing([ReduceDone {
                    task,
                    attempt,
                    local,
                    outputs,
                }]),
            ),
            (State::Map(task, attempt), Event::Mapped(Err(e))) => {
                (State::Idle, closing([failed(task, attempt, false, e)]))
            }
            (State::Reduce(task, attempt), Event::Reduced(Err(e))) => {
                (State::Idle, closing([failed(task, attempt, true, e)]))
            }
            (state, event) => return Err(state.refuses(&event)),
        };
        self.state = next;
        Ok(actions)
    }
}

/// An attempt's closing frames, then the next `TaskRequest`.
fn closing(frames: impl IntoIterator<Item = Msg>) -> Vec<Action> {
    let frames = frames.into_iter().chain([Msg::TaskRequest]);
    frames.map(Action::Send).collect()
}

/// The frame that fails an attempt.
fn failed(task: u32, attempt: u32, reduce: bool, err: MrError) -> Msg {
    let (checksum, error) = (err.is_checksum(), err.to_string());
    Msg::TaskFailed {
        task,
        attempt,
        reduce,
        checksum,
        error,
    }
}

impl State {
    /// The error that ends the worker: where the conversation was, and
    /// what it could not take there.
    fn refuses(&self, event: &Event) -> MrError {
        let what = match event {
            Event::Frame(msg) => msg.name(),
            _ => "local step",
        };
        let doing = match self {
            State::Idle => "awaiting an assignment".into(),
            State::Map(task, attempt) => format!("map {task} attempt {attempt}"),
            State::Fetch(task, attempt, _) | State::Inflate(task, attempt, _) => {
                format!("reduce {task} attempt {attempt} fetch")
            }
            State::Reduce(task, attempt) => format!("reduce {task} attempt {attempt}"),
            State::Done => "done".into(),
        };
        MrError::Net(format!("{doing}: unexpected {what}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{Counter, Counters};
    use crate::dist::wire::tests::Source;

    impl Worker {
        /// The frames the current state takes, by name; every other
        /// frame ends the worker.
        pub(in crate::dist) fn expects(&self) -> &'static [&'static str] {
            match self.state {
                State::Idle => &["MapTask", "ReduceTask", "Shutdown"],
                State::Fetch(..) => &["FetchSegment", "SegmentsDone", "FetchFailed", "Shutdown"],
                State::Map(..) | State::Inflate(..) | State::Reduce(..) | State::Done => &[],
            }
        }
    }

    fn frame(w: &mut Worker, msg: Msg) -> Result<Vec<Action>, MrError> {
        w.on(Event::Frame(msg))
    }

    /// The names of the frames `actions` send, and `run` for an attempt.
    fn said(actions: &[Action]) -> Vec<&'static str> {
        let said = actions.iter().map(|action| match action {
            Action::Send(msg) => msg.name(),
            Action::Map(..) | Action::Reduce(..) => "run",
            Action::Inflate(_) => "inflate",
            Action::End => "end",
        });
        said.collect()
    }

    fn idle() -> Worker {
        let (worker, opening) = Worker::start(3);
        assert_eq!(said(&opening), ["Hello", "TaskRequest"]);
        assert!(matches!(opening[0], Action::Send(Msg::Hello { worker: 3 })));
        worker
    }

    fn with(msg: Msg) -> Worker {
        let mut w = idle();
        frame(&mut w, msg).unwrap();
        w
    }

    fn map_task() -> Msg {
        let split = Arc::new(InputSplit::new(Vec::new()));
        let (task, attempt) = (2, 1);
        Msg::MapTask {
            task,
            attempt,
            split,
        }
    }

    fn reduce_task() -> Msg {
        Msg::ReduceTask {
            task: 1,
            attempt: 0,
        }
    }

    fn segment(comp: bool, data: &[u8]) -> Msg {
        let data = Arc::new(data.to_vec());
        Msg::FetchSegment { comp, data }
    }

    /// A worker in each of its states, named.
    fn every_state() -> Vec<(&'static str, Worker)> {
        let mut reducing = with(reduce_task());
        frame(&mut reducing, Msg::SegmentsDone { count: 0 }).unwrap();
        let mut inflating = with(reduce_task());
        frame(&mut inflating, segment(true, b"lz")).unwrap();
        vec![
            ("idle", idle()),
            ("map", with(map_task())),
            ("fetch", with(reduce_task())),
            ("inflate", inflating),
            ("reduce", reducing),
            ("done", with(Msg::Shutdown)),
        ]
    }

    fn state(name: &str) -> Worker {
        every_state()
            .into_iter()
            .find(|(n, _)| *n == name)
            .unwrap()
            .1
    }

    fn ok<T>(product: T) -> Outcome<T> {
        Ok((product, Box::new(Counters::new().snapshot()), None))
    }

    #[test]
    fn every_frame_a_state_does_not_take_ends_the_worker_and_names_it() {
        let bytes = (0..=u8::MAX).rev().collect();
        let frames = Msg::one_of_each(&mut Source { bytes, at: 0 });
        for (name, expects) in every_state().iter().map(|(n, w)| (*n, w.expects())) {
            for msg in frames.iter().filter(|m| !expects.contains(&m.name())) {
                match state(name).on(Event::Frame(msg.clone())) {
                    Err(MrError::Net(e)) => assert!(
                        e.contains(&format!("unexpected {}", msg.name())),
                        "{name}: {e}"
                    ),
                    _ => panic!("{name} took {}", msg.name()),
                }
            }
        }
    }

    #[test]
    fn a_local_step_is_taken_only_in_its_own_state() {
        for (name, _) in every_state() {
            let mapped = state(name).on(Event::Mapped(ok(Vec::new()))).is_ok();
            let inflated = state(name).on(Event::Inflated(Ok(Vec::new()), 0)).is_ok();
            let reduced = state(name).on(Event::Reduced(ok(Vec::new()))).is_ok();
            let expected = (name == "map", name == "inflate", name == "reduce");
            assert_eq!((mapped, inflated, reduced), expected, "{name}");
        }
    }

    #[test]
    fn a_map_attempt_pushes_its_segments_then_commits_then_asks_again() {
        let mut w = with(map_task());
        let bank = Counters::new();
        bank.add(Counter::MapInputRecords, 20);
        let segments = vec![(0, vec![1; 4]), (1, vec![2; 8])];
        let outcome = Ok((segments, Box::new(bank.snapshot()), None));
        let actions = w.on(Event::Mapped(outcome)).unwrap();
        assert_eq!(
            said(&actions),
            ["MapSegment", "MapSegment", "MapDone", "TaskRequest"]
        );
        match &actions[..] {
            [Action::Send(Msg::MapSegment { partition: 0, .. }), Action::Send(Msg::MapSegment { partition: 1, data }), Action::Send(Msg::MapDone {
                task: 2,
                attempt: 1,
                local,
            }), _] => {
                assert_eq!(data, &[2; 8]);
                assert_eq!(local.get(Counter::MapInputRecords), 20);
            }
            _ => panic!("the attempt's frames, in order"),
        }
        assert_eq!(w.expects(), idle().expects());
    }

    #[test]
    fn a_failed_attempt_says_so_with_its_error_then_asks_again() {
        let bad = || MrError::Checksum("bad block".into());
        let mut w = with(map_task());
        let actions = w.on(Event::Mapped(Err(bad()))).unwrap();
        assert_eq!(said(&actions), ["TaskFailed", "TaskRequest"]);
        assert!(matches!(
            &actions[0],
            Action::Send(Msg::TaskFailed { task: 2, attempt: 1, reduce: false, checksum: true, error })
                if error.contains("bad block")
        ));
        let mut w = state("reduce");
        let actions = w.on(Event::Reduced(Err(bad()))).unwrap();
        assert!(matches!(
            &actions[0],
            Action::Send(Msg::TaskFailed {
                task: 1,
                attempt: 0,
                reduce: true,
                ..
            })
        ));
    }

    #[test]
    fn a_reduce_keeps_every_segment_and_runs_only_on_a_matching_count() {
        let mut w = with(reduce_task());
        assert!(frame(&mut w, segment(false, b"raw")).unwrap().is_empty());
        let lz = frame(&mut w, segment(true, b"lz")).unwrap();
        assert!(matches!(&lz[..], [Action::Inflate(data)] if data[..] == b"lz"[..]));
        let inflated = Event::Inflated(Ok(b"inflated".to_vec()), 7);
        assert!(w.on(inflated).unwrap().is_empty());
        let actions = frame(&mut w, Msg::SegmentsDone { count: 2 }).unwrap();
        match &actions[..] {
            [Action::Reduce(1, 0, segments, 7)] => {
                assert_eq!(segments, &[b"raw".to_vec(), b"inflated".to_vec()])
            }
            _ => panic!("the reduce must run"),
        }
        let actions = w.on(Event::Reduced(ok(Vec::new()))).unwrap();
        assert_eq!(said(&actions), ["ReduceDone", "TaskRequest"]);

        for (sent, announced) in [(0, 2), (1, 0)] {
            let mut w = with(reduce_task());
            for _ in 0..sent {
                frame(&mut w, segment(false, b"abc")).unwrap();
            }
            let err = frame(&mut w, Msg::SegmentsDone { count: announced })
                .err()
                .unwrap();
            assert!(err.to_string().contains("unexpected SegmentsDone"), "{err}");
        }
    }

    #[test]
    fn a_segment_that_fails_to_inflate_fails_the_attempt_once_the_stream_ends() {
        let corrupt = || MrError::Checksum("shuffle lz frame corrupt".into());
        for end in [
            Msg::SegmentsDone { count: 2 },
            Msg::FetchFailed {
                checksum: false,
                error: "spill read failed".into(),
            },
        ] {
            let mut w = with(reduce_task());
            frame(&mut w, segment(true, b"bad")).unwrap();
            assert!(w.on(Event::Inflated(Err(corrupt()), 3)).unwrap().is_empty());
            // The rest of the stream is still read as the stream.
            assert!(frame(&mut w, segment(false, b"after")).unwrap().is_empty());
            let actions = frame(&mut w, end).unwrap();
            assert_eq!(said(&actions), ["TaskFailed", "TaskRequest"]);
            match &actions[0] {
                Action::Send(Msg::TaskFailed {
                    reduce: true,
                    checksum: true,
                    error,
                    ..
                }) => assert!(error.contains("lz frame corrupt"), "{error}"),
                _ => panic!("the first error fails the attempt"),
            }
        }
    }

    #[test]
    fn a_failed_fetch_fails_the_attempt_and_keeps_the_worker() {
        for checksum in [true, false] {
            let mut w = with(reduce_task());
            frame(&mut w, segment(false, b"served before the failure")).unwrap();
            let error = "spill read failed".to_string();
            let actions = frame(&mut w, Msg::FetchFailed { checksum, error }).unwrap();
            assert_eq!(said(&actions), ["TaskFailed", "TaskRequest"]);
            match &actions[0] {
                Action::Send(Msg::TaskFailed {
                    task: 1,
                    attempt: 0,
                    reduce: true,
                    checksum: reported,
                    error,
                }) => {
                    assert_eq!(*reported, checksum);
                    assert!(error.contains("spill read failed"), "{error}");
                }
                _ => panic!("expected TaskFailed"),
            }
            assert_eq!(w.expects(), idle().expects());
        }
    }

    #[test]
    fn shutdown_ends_the_conversation_between_tasks_and_mid_fetch() {
        let mut w = idle();
        assert_eq!(said(&frame(&mut w, Msg::Shutdown).unwrap()), ["end"]);
        let mut w = with(reduce_task());
        frame(&mut w, segment(false, b"abc")).unwrap();
        assert_eq!(said(&frame(&mut w, Msg::Shutdown).unwrap()), ["end"]);
        assert!(w.expects().is_empty());
    }
}
