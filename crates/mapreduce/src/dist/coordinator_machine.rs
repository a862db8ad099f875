//! The coordinator's end of one worker's conversation, as a pure state
//! machine: [`Coordinator::on`] takes an [`Event`] and returns the
//! [`Action`]s that answer it, or an `Err` that gives the slot up. It
//! holds no stream, clock, lock or thread. The events it takes from
//! the scheduler's slot loop are that loop's own [`Step`]s, and each step
//! ends in a `Settled` action carrying the loop's own [`Settled`] value:
//! `RemoteSlot` feeds a step in, reads frames and carries out actions
//! until one settles, and hands that back unchanged.
//!
//! ```text
//! state    event                           actions                                 next
//! Hello    Step(Open)                      -                                       Hello
//! Hello    Hello                           Settled(Opened("dist-conn-<worker>"))   Request
//! Request  Step(Ready)                     -                                       Request
//! Request  TaskRequest                     Settled(Ready)                          Idle
//! Idle     Step(Map)                       Send(MapTask)                           Map
//! Idle     Step(Reduce)                    Send(ReduceTask), then as Fetched       Fetch
//! Idle     Step(Close)                     Send(Shutdown), Settled(Closed)         Closed
//! Map      MapSegment, partition in range  stage it                                Map
//!          and not yet staged
//! Map      MapDone of this attempt         Settled(Mapped(staged segments))        Request
//! Map      TaskFailed of this attempt      Settled(Mapped(error))                  Request
//! Fetch    Fetched(segment or none)        Serve(segment) if any, then Fetch the   Fetch
//!                                          next map task's, or after the last one  or Result
//!                                          Send(SegmentsDone(segments served))
//! Fetch    Fetched(error)                  Send(FetchFailed)                       Result, failed
//! Fetch    Aborted                         Send(Shutdown), Settled(Reduced(none))  Closed
//! Result   ReduceDone of this attempt,     Settled(Reduced(outputs))               Request
//!          unless failed
//! Result   TaskFailed of this attempt      Settled(Reduced(error))                 Request
//! any      anything else                   Err: the slot is lost
//! ```
//!
//! One fetch at a time, in map-task order: the slot resolves a `Fetch`,
//! which waits until that map task commits, and writes its segment
//! before the next is waited on. That is the fetch-while-map overlap.

use super::wire::{rebuild_error, Msg};
use crate::error::MrError;
use crate::scheduler::{MapOutput, Settled, Step};
use std::sync::Arc;

/// A task and one attempt of it.
pub(super) type Attempt = (usize, u32);

/// One fetched segment as it crosses the wire: whether it is an lz
/// frame, its bytes, and what that saves against its logical length.
pub(super) struct Segment {
    pub(super) comp: bool,
    pub(super) data: Arc<Vec<u8>>,
    pub(super) saved: u64,
}

pub(super) enum Event {
    /// A decoded frame from the worker.
    Frame(Msg),
    /// A step of the scheduler's slot loop.
    Step(Step),
    /// What the last `Fetch` resolved to: `None` if its map task
    /// emitted nothing for the partition.
    Fetched(Result<Option<Segment>, MrError>),
    /// The last `Fetch` failed because the job aborted.
    Aborted,
}

/// In order: what to send, what to fetch, and last, when a step of the
/// slot loop is over, what to hand back to it.
pub(super) enum Action {
    Send(Msg),
    /// Send the segment as one `FetchSegment` frame.
    Serve(Segment),
    /// Resolve `JobState::fetch` for this reduce attempt's partition
    /// from map task `.1`, as the partition's segment number `.2`.
    Fetch(Attempt, usize, u64),
    Settled(Settled),
}

enum State {
    Hello,
    Request,
    Idle,
    /// The segments staged so far.
    Map(Attempt, MapOutput),
    /// The map task asked for, and the segments served so far.
    Fetch(Attempt, usize, u32),
    /// Whether the fetch failed.
    Result(Attempt, bool),
    Closed,
}

/// One remote slot's conversation, in a job of `maps` map tasks and
/// `reducers` partitions.
pub(super) struct Coordinator {
    maps: usize,
    reducers: usize,
    state: State,
}

/// The attempt a frame names.
fn named(task: u32, attempt: u32) -> Attempt {
    (task as usize, attempt)
}

impl Coordinator {
    pub(super) fn new(maps: usize, reducers: usize) -> Coordinator {
        let state = State::Hello;
        Coordinator {
            maps,
            reducers,
            state,
        }
    }

    /// One arm per row of the module's table.
    pub(super) fn on(&mut self, event: Event) -> Result<Vec<Action>, MrError> {
        use {Action::Send, Msg::*};
        let settle = |settled| vec![Action::Settled(settled)];
        let (next, actions) = match (std::mem::replace(&mut self.state, State::Closed), event) {
            (State::Hello, Event::Step(Step::Open)) => (State::Hello, Vec::new()),
            (State::Hello, Event::Frame(Hello { worker })) => {
                let name = format!("dist-conn-{worker}");
                (State::Request, settle(Settled::Opened(name)))
            }
            (State::Request, Event::Step(Step::Ready)) => (State::Request, Vec::new()),
            (State::Request, Event::Frame(TaskRequest)) => (State::Idle, settle(Settled::Ready)),
            (State::Idle, Event::Step(Step::Map(task, attempt, split))) => {
                let assign = MapTask {
                    task: task as u32,
                    attempt,
                    split,
                };
                (State::Map((task, attempt), Vec::new()), vec![Send(assign)])
            }
            (State::Idle, Event::Step(Step::Reduce(task, attempt))) => {
                let (next, fetch) = self.fetch((task, attempt), 0, 0);
                (
                    next,
                    vec![
                        Send(ReduceTask {
                            task: task as u32,
                            attempt,
                        }),
                        fetch,
                    ],
                )
            }
            (State::Idle, Event::Step(Step::Close)) => {
                let closed = Action::Settled(Settled::Closed);
                (State::Closed, vec![Send(Shutdown), closed])
            }
            (State::Map(at, mut staged), Event::Frame(MapSegment { partition, data }))
                if (partition as usize) < self.reducers
                    && staged.iter().all(|(p, _)| *p != partition as usize) =>
            {
                staged.push((partition as usize, data));
                (State::Map(at, staged), Vec::new())
            }
            (
                State::Map(at, staged),
                Event::Frame(MapDone {
                    task,
                    attempt,
                    local,
                }),
            ) if named(task, attempt) == at => {
                let mapped = Settled::Mapped(Ok((staged, local, None)));
                (State::Request, settle(mapped))
            }
            (
                State::Map(at, _),
                Event::Frame(TaskFailed {
                    task,
                    attempt,
                    reduce: false,
                    checksum,
                    error,
                }),
            ) if named(task, attempt) == at => {
                let mapped = Settled::Mapped(Err(rebuild_error(checksum, error)));
                (State::Request, settle(mapped))
            }
            (State::Fetch(at, map_task, served), Event::Fetched(Ok(segment))) => {
                let served = served + u32::from(segment.is_some());
                let (next, fetch) = self.fetch(at, map_task + 1, served);
                let serve = segment.map(Action::Serve);
                (next, serve.into_iter().chain([fetch]).collect())
            }
            (State::Fetch(at, ..), Event::Fetched(Err(e))) => {
                let failed = FetchFailed {
                    checksum: e.is_checksum(),
                    error: e.to_string(),
                };
                (State::Result(at, true), vec![Send(failed)])
            }
            (State::Fetch(..), Event::Aborted) => {
                let released = Action::Settled(Settled::Reduced(None));
                (State::Closed, vec![Send(Shutdown), released])
            }
            (
                State::Result(at, false),
                Event::Frame(ReduceDone {
                    task,
                    attempt,
                    local,
                    outputs,
                }),
            ) if named(task, attempt) == at => {
                let reduced = Settled::Reduced(Some(Ok((outputs, local, None))));
                (State::Request, settle(reduced))
            }
            (
                State::Result(at, _),
                Event::Frame(TaskFailed {
                    task,
                    attempt,
                    reduce: true,
                    checksum,
                    error,
                }),
            ) if named(task, attempt) == at => {
                let reduced = Settled::Reduced(Some(Err(rebuild_error(checksum, error))));
                (State::Request, settle(reduced))
            }
            (state, event) => return Err(state.refuses(&event)),
        };
        self.state = next;
        Ok(actions)
    }

    /// Ask for map task `map_task`'s segment, or close the stream after
    /// the last one.
    fn fetch(&self, at: Attempt, map_task: usize, served: u32) -> (State, Action) {
        if map_task < self.maps {
            let fetch = Action::Fetch(at, map_task, u64::from(served));
            (State::Fetch(at, map_task, served), fetch)
        } else {
            let done = Msg::SegmentsDone { count: served };
            (State::Result(at, false), Action::Send(done))
        }
    }
}

impl State {
    /// The error that gives the slot up: where the conversation was, and
    /// what it could not take there.
    fn refuses(&self, event: &Event) -> MrError {
        let what = match event {
            Event::Frame(msg) => msg.name(),
            _ => "scheduler step",
        };
        let doing = match self {
            State::Hello => "awaiting Hello".into(),
            State::Request => "awaiting TaskRequest".into(),
            State::Idle => "between tasks".into(),
            State::Map((task, attempt), _) => format!("map {task} attempt {attempt}"),
            State::Fetch((task, attempt), ..) => format!("reduce {task} attempt {attempt} fetch"),
            State::Result((task, attempt), _) => format!("reduce {task} attempt {attempt}"),
            State::Closed => "closed".into(),
        };
        MrError::Net(format!("{doing}: unexpected {what}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{CounterSnapshot, Counters};
    use crate::dist::wire::tests::Source;
    use crate::record::InputSplit;

    impl Coordinator {
        /// The frames the current state takes, by name; every other
        /// frame gives the slot up.
        pub(in crate::dist) fn expects(&self) -> &'static [&'static str] {
            match self.state {
                State::Hello => &["Hello"],
                State::Request => &["TaskRequest"],
                State::Map(..) => &["MapSegment", "MapDone", "TaskFailed"],
                State::Result(_, false) => &["ReduceDone", "TaskFailed"],
                State::Result(_, true) => &["TaskFailed"],
                State::Idle | State::Fetch(..) | State::Closed => &[],
            }
        }
    }

    fn bank() -> Box<CounterSnapshot> {
        Box::new(Counters::new().snapshot())
    }

    /// Feed `event`; the actions must be accepted.
    fn feed(m: &mut Coordinator, event: Event) -> Vec<Action> {
        m.on(event).unwrap()
    }

    fn frame(m: &mut Coordinator, msg: Msg) -> Result<Vec<Action>, MrError> {
        m.on(Event::Frame(msg))
    }

    fn segment(data: &[u8]) -> Segment {
        let (comp, data, saved) = (false, Arc::new(data.to_vec()), 0);
        Segment { comp, data, saved }
    }

    /// A machine of a 3-map, 2-reducer job in each of its states, named.
    fn every_state() -> Vec<(&'static str, Coordinator)> {
        let fresh = || Coordinator::new(3, 2);
        let requested = || {
            let mut m = fresh();
            feed(&mut m, Event::Frame(Msg::Hello { worker: 4 }));
            m
        };
        let idle = || {
            let mut m = requested();
            feed(&mut m, Event::Frame(Msg::TaskRequest));
            m
        };
        let with = |event: Event| {
            let mut m = idle();
            feed(&mut m, event);
            m
        };
        let split = Arc::new(InputSplit::new(Vec::new()));
        let mut result = with(Event::Step(Step::Reduce(1, 1)));
        for _ in 0..3 {
            feed(&mut result, Event::Fetched(Ok(None)));
        }
        let mut failed = with(Event::Step(Step::Reduce(1, 1)));
        feed(
            &mut failed,
            Event::Fetched(Err(MrError::Net("gone".into()))),
        );
        vec![
            ("hello", fresh()),
            ("request", requested()),
            ("idle", idle()),
            ("map", with(Event::Step(Step::Map(0, 1, split)))),
            ("fetch", with(Event::Step(Step::Reduce(1, 1)))),
            ("result", result),
            ("result after a failed fetch", failed),
            ("closed", with(Event::Step(Step::Close))),
        ]
    }

    #[test]
    fn every_frame_a_state_does_not_take_gives_the_slot_up_and_names_it() {
        let bytes = (0..=u8::MAX).collect();
        let frames = Msg::one_of_each(&mut Source { bytes, at: 0 });
        for (name, expects) in every_state().iter().map(|(n, m)| (*n, m.expects())) {
            for msg in frames.iter().filter(|m| !expects.contains(&m.name())) {
                let mut m = every_state()
                    .into_iter()
                    .find(|(n, _)| *n == name)
                    .unwrap()
                    .1;
                match m.on(Event::Frame(msg.clone())) {
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
    fn every_scheduler_step_out_of_its_state_gives_the_slot_up() {
        let split = Arc::new(InputSplit::new(Vec::new()));
        let steps = || {
            vec![
                ("open", Event::Step(Step::Open)),
                ("ready", Event::Step(Step::Ready)),
                ("map", Event::Step(Step::Map(0, 0, Arc::clone(&split)))),
                ("reduce", Event::Step(Step::Reduce(0, 0))),
                ("close", Event::Step(Step::Close)),
                ("fetched", Event::Fetched(Ok(None))),
                ("aborted", Event::Aborted),
            ]
        };
        for (state, _) in every_state() {
            for (step, event) in steps() {
                let mut m = every_state()
                    .into_iter()
                    .find(|(n, _)| *n == state)
                    .unwrap()
                    .1;
                let takes = match state {
                    "hello" => step == "open",
                    "request" => step == "ready",
                    "idle" => ["map", "reduce", "close"].contains(&step),
                    "fetch" => ["fetched", "aborted"].contains(&step),
                    _ => false,
                };
                assert_eq!(m.on(event).is_ok(), takes, "{state} and {step}");
            }
        }
    }

    #[test]
    fn the_slot_opens_on_hello_and_is_ready_on_each_request() {
        let mut m = Coordinator::new(1, 1);
        assert!(feed(&mut m, Event::Step(Step::Open)).is_empty());
        let opened = feed(&mut m, Event::Frame(Msg::Hello { worker: 9 }));
        assert!(matches!(
            &opened[..],
            [Action::Settled(Settled::Opened(name))] if name == "dist-conn-9"
        ));
        assert!(feed(&mut m, Event::Step(Step::Ready)).is_empty());
        let ready = feed(&mut m, Event::Frame(Msg::TaskRequest));
        assert!(matches!(ready[..], [Action::Settled(Settled::Ready)]));
        let closed = feed(&mut m, Event::Step(Step::Close));
        assert!(matches!(
            closed[..],
            [
                Action::Send(Msg::Shutdown),
                Action::Settled(Settled::Closed)
            ]
        ));
        assert!(m.on(Event::Frame(Msg::TaskRequest)).is_err());
    }

    /// A machine in `Map((0, 1))` of a 2-reducer job.
    fn mapping() -> Coordinator {
        let mut m = Coordinator::new(1, 2);
        feed(&mut m, Event::Frame(Msg::Hello { worker: 0 }));
        feed(&mut m, Event::Frame(Msg::TaskRequest));
        let split = Arc::new(InputSplit::new(Vec::new()));
        let sent = feed(&mut m, Event::Step(Step::Map(0, 1, split)));
        assert!(matches!(
            sent[..],
            [Action::Send(Msg::MapTask {
                task: 0,
                attempt: 1,
                ..
            })]
        ));
        m
    }

    fn map_segment(partition: u32) -> Msg {
        let data = vec![partition as u8; 3];
        Msg::MapSegment { partition, data }
    }

    #[test]
    fn a_map_attempt_stages_its_segments_and_settles_on_its_own_closing_frame() {
        let mut m = mapping();
        assert!(frame(&mut m, map_segment(1)).unwrap().is_empty());
        assert!(frame(&mut m, map_segment(0)).unwrap().is_empty());
        let local = bank();
        let done = frame(
            &mut m,
            Msg::MapDone {
                task: 0,
                attempt: 1,
                local,
            },
        )
        .unwrap();
        match &done[..] {
            [Action::Settled(Settled::Mapped(Ok((staged, _, _))))] => {
                assert_eq!(staged, &[(1, vec![1; 3]), (0, vec![0; 3])])
            }
            _ => panic!("the attempt must settle"),
        }
        // The slot awaits the next request.
        assert_eq!(m.expects(), ["TaskRequest"]);

        let mut m = mapping();
        let failed = |reduce| Msg::TaskFailed {
            task: 0,
            attempt: 1,
            reduce,
            checksum: true,
            error: "bad".into(),
        };
        let settled = frame(&mut m, failed(false)).unwrap();
        match &settled[..] {
            [Action::Settled(Settled::Mapped(Err(e)))] => assert!(e.is_checksum(), "{e}"),
            _ => panic!("the attempt must settle as failed"),
        }
        assert!(frame(&mut mapping(), failed(true)).is_err(), "a reduce's");
    }

    #[test]
    fn a_map_attempt_refuses_a_foreign_segment_or_closing_frame() {
        let local = bank;
        let cases = [
            (vec![map_segment(2)], "partition out of range"),
            (vec![map_segment(0), map_segment(0)], "second segment"),
            (
                vec![Msg::MapDone {
                    task: 0,
                    attempt: 0,
                    local: local(),
                }],
                "stale attempt",
            ),
            (
                vec![Msg::MapDone {
                    task: 0,
                    attempt: 2,
                    local: local(),
                }],
                "later attempt",
            ),
            (
                vec![Msg::MapDone {
                    task: 1,
                    attempt: 1,
                    local: local(),
                }],
                "other task",
            ),
            (
                vec![Msg::TaskFailed {
                    task: 0,
                    attempt: 0,
                    reduce: false,
                    checksum: false,
                    error: "old".into(),
                }],
                "stale failure",
            ),
        ];
        for (frames, case) in cases {
            let mut m = mapping();
            let last = frames.len() - 1;
            for (i, msg) in frames.into_iter().enumerate() {
                let name = msg.name();
                match frame(&mut m, msg) {
                    Ok(_) if i < last => {}
                    Err(MrError::Net(e)) if i == last => assert!(
                        e.contains(&format!("map 0 attempt 1: unexpected {name}")),
                        "{case}: {e}"
                    ),
                    other => panic!("{case}: frame {i} gave {:?}", other.map(|a| a.len())),
                }
            }
        }
    }

    /// Start reduce `(1, 0)` of a 3-map job and feed `fetched` in turn;
    /// returns every action.
    fn reduce_with(fetched: Vec<Result<Option<Segment>, MrError>>) -> (Coordinator, Vec<Action>) {
        let mut m = Coordinator::new(3, 2);
        feed(&mut m, Event::Frame(Msg::Hello { worker: 0 }));
        feed(&mut m, Event::Frame(Msg::TaskRequest));
        let mut actions = feed(&mut m, Event::Step(Step::Reduce(1, 0)));
        for f in fetched {
            actions.extend(feed(&mut m, Event::Fetched(f)));
        }
        (m, actions)
    }

    #[test]
    fn a_reduce_asks_for_each_map_tasks_segment_in_turn_and_serves_what_exists() {
        let (mut m, actions) = reduce_with(vec![
            Ok(Some(segment(b"a"))),
            Ok(None),
            Ok(Some(segment(b"c"))),
        ]);
        let mut said = Vec::new();
        for action in &actions {
            said.push(match action {
                Action::Send(msg) => format!("send {}", msg.name()),
                Action::Serve(s) => format!("serve {}", s.data[0] as char),
                Action::Fetch((1, 0), map, index) => format!("fetch {map} as {index}"),
                _ => panic!("unexpected action"),
            });
        }
        assert_eq!(
            said,
            [
                "send ReduceTask",
                "fetch 0 as 0",
                "serve a",
                "fetch 1 as 1",
                "fetch 2 as 1",
                "serve c",
                "send SegmentsDone"
            ]
        );
        assert!(matches!(
            actions.last(),
            Some(Action::Send(Msg::SegmentsDone { count: 2 }))
        ));
        let done = Msg::ReduceDone {
            task: 1,
            attempt: 0,
            local: bank(),
            outputs: Vec::new(),
        };
        assert!(matches!(
            frame(&mut m, done).unwrap()[..],
            [Action::Settled(Settled::Reduced(Some(Ok(_))))]
        ));
        // A job with no maps closes the stream at once.
        let mut m = Coordinator::new(0, 1);
        feed(&mut m, Event::Frame(Msg::Hello { worker: 0 }));
        feed(&mut m, Event::Frame(Msg::TaskRequest));
        let actions = feed(&mut m, Event::Step(Step::Reduce(0, 0)));
        assert!(matches!(
            actions[..],
            [
                Action::Send(Msg::ReduceTask { .. }),
                Action::Send(Msg::SegmentsDone { count: 0 })
            ]
        ));
    }

    #[test]
    fn a_fetch_the_store_cannot_serve_ends_the_stream_and_only_a_failure_settles_it() {
        let spill = MrError::Checksum("spill read failed".into());
        let (mut m, actions) = reduce_with(vec![Ok(Some(segment(b"a"))), Err(spill)]);
        match actions.last() {
            Some(Action::Send(Msg::FetchFailed { checksum, error })) => {
                assert!(*checksum && error.contains("spill read failed"), "{error}")
            }
            _ => panic!("the stream must end in FetchFailed"),
        }
        assert_eq!(m.expects(), ["TaskFailed"]);
        let done = Msg::ReduceDone {
            task: 1,
            attempt: 0,
            local: bank(),
            outputs: Vec::new(),
        };
        assert!(frame(&mut m, done).is_err(), "nothing was reduced");
        let (mut m, _) = reduce_with(vec![Err(MrError::Net("x".into()))]);
        let failed = Msg::TaskFailed {
            task: 1,
            attempt: 0,
            reduce: true,
            checksum: false,
            error: "x".into(),
        };
        assert!(matches!(
            frame(&mut m, failed).unwrap()[..],
            [Action::Settled(Settled::Reduced(Some(Err(_))))]
        ));
    }

    #[test]
    fn an_abort_mid_fetch_releases_the_worker_and_ends_the_conversation() {
        let (mut m, _) = reduce_with(vec![Ok(None)]);
        let actions = feed(&mut m, Event::Aborted);
        assert!(matches!(
            actions[..],
            [
                Action::Send(Msg::Shutdown),
                Action::Settled(Settled::Reduced(None))
            ]
        ));
        assert!(m.expects().is_empty());
        assert!(m.on(Event::Frame(Msg::TaskRequest)).is_err());
    }

    #[test]
    fn a_reduce_refuses_a_closing_frame_of_another_attempt() {
        for (task, attempt, reduce) in [(1, 1, true), (0, 0, true), (1, 0, false)] {
            let (mut m, _) = reduce_with(vec![Ok(None), Ok(None), Ok(None)]);
            let failed = Msg::TaskFailed {
                task,
                attempt,
                reduce,
                checksum: false,
                error: "x".into(),
            };
            assert!(frame(&mut m, failed).is_err(), "{task} {attempt} {reduce}");
        }
        let (mut m, _) = reduce_with(vec![Ok(None), Ok(None), Ok(None)]);
        let stale = Msg::ReduceDone {
            task: 1,
            attempt: 1,
            local: bank(),
            outputs: Vec::new(),
        };
        let Err(err) = frame(&mut m, stale) else {
            panic!("a later attempt's ReduceDone was taken")
        };
        assert!(
            err.to_string()
                .contains("reduce 1 attempt 0: unexpected ReduceDone"),
            "{err}"
        );
    }
}
