//! Timeline exporter: [`chrome_trace_json`] renders a trace in the
//! Chrome `trace_event` format (an object with a `traceEvents` array of
//! complete `"ph": "X"` events), loadable in `chrome://tracing` and
//! Perfetto. One track per recorded thread, timestamps in microseconds
//! since the recorder epoch, thread-CPU nanoseconds attached per span in
//! `args`. It streams one event per line instead of building a
//! [`Json`](crate::obs::json::Json) tree — a trace holds up to 65,536
//! events per thread — and borrows that module's string escaper.
//! Everything else about a run (counters, histograms, rollups) is in its
//! [`LedgerRecord`](crate::obs::LedgerRecord).

use crate::obs::json::escape;
use crate::obs::trace::Trace;

/// Render a trace as Chrome `trace_event` JSON.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(256 + trace.events.len() * 128);
    out.push_str("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
    let mut first = true;
    {
        let mut push = |s: String, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str(&s);
        };
        push(
            "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \
         \"args\": {\"name\": \"scihadoop-job\"}}"
                .to_string(),
            &mut first,
        );
        for (tid, name) in trace.threads.iter().enumerate() {
            push(
                format!(
                    "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                    escape(name)
                ),
                &mut first,
            );
        }
        for (i, warning) in trace.warnings.iter().enumerate() {
            push(
                format!(
                    "{{\"name\": \"warning\", \"cat\": \"obs\", \"ph\": \"i\", \"s\": \"g\", \
                 \"pid\": 1, \"tid\": 0, \"ts\": {i}, \"args\": {{\"message\": \"{}\"}}}}",
                    escape(warning)
                ),
                &mut first,
            );
        }
        for (tid, e) in &trace.events {
            push(
                format!(
                    "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \
                 \"tid\": {tid}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"task\": {}, \"cpu_ns\": {}}}}}",
                    e.phase.name(),
                    e.phase.category(),
                    e.wall_start_ns as f64 / 1e3,
                    e.wall_dur_ns as f64 / 1e3,
                    e.task,
                    e.cpu_ns
                ),
                &mut first,
            );
        }
    }
    out.push_str("\n]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json::parse;
    use crate::obs::{Phase, Recorder};

    fn sample_trace() -> Trace {
        let rec = Recorder::new();
        {
            let _a = rec.attach("tester \"quoted\"");
            drop(crate::span!(Phase::MapEmit, 1));
            drop(crate::span!(Phase::Merge, 2));
            crate::obs::hist(crate::obs::Metric::MergeFanIn, 3);
        }
        rec.finish()
    }

    #[test]
    fn chrome_trace_has_events_and_metadata() {
        let json = chrome_trace_json(&sample_trace());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"name\": \"map_emit\""));
        assert!(json.contains("\"name\": \"merge\""));
        assert!(json.contains("thread_name"));
        assert!(json.contains("tester \\\"quoted\\\""), "names are escaped");
        let doc = parse(&json).expect("the streamed trace is valid JSON");
        assert!(doc.get("traceEvents").and_then(|e| e.as_arr()).is_some());
    }

    #[test]
    fn empty_trace_still_exports() {
        let doc = parse(&chrome_trace_json(&Trace::empty())).expect("valid JSON");
        assert!(doc.get("traceEvents").and_then(|e| e.as_arr()).is_some());
    }
}
