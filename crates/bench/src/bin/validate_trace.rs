//! `validate_trace` — sanity-check the files written by
//! `repro --trace <path> --ledger <path>`.
//!
//! ```text
//! validate_trace <trace.json> <ledger.jsonl>
//! ```
//!
//! Verifies, with the in-tree JSON module (no external deps):
//!
//! * the Chrome trace is well-formed JSON with complete ("X") span
//!   events for **every** stage in `ALL_PHASES`, non-negative
//!   timestamps/durations, and thread-name metadata;
//! * every ledger line parses strictly (the parser only accepts a line
//!   that re-encodes to the exact input bytes);
//! * every record's counters satisfy `CounterSnapshot::check_invariants`
//!   — the cross-site accounting identities debug builds assert at job
//!   completion, met here by release-build and process-mode runs too;
//! * every traced record's histograms agree with its counters
//!   (`ledger_violations`): one sample per spill, segment, fetched
//!   segment, emitted pair, reduce group and reducer, summing to the
//!   counted bytes and records — a committed attempt samples, a failed
//!   one does not;
//! * the records jointly carry span rollups for every stage, and live
//!   counters.
//!
//! Exits 0 when every check passes, 1 otherwise (printing each failure).

use scihadoop_bench::json::{self, Json};
use scihadoop_bench::ledger_violations;
use scihadoop_mapreduce::obs::{LedgerRecord, ALL_PHASES, NUM_PHASES};
use scihadoop_mapreduce::Counter;

fn check_trace(doc: &Json, errs: &mut Vec<String>) {
    let events = match doc.get("traceEvents").and_then(|e| e.as_arr()) {
        Some(events) => events,
        None => {
            errs.push("trace: missing traceEvents array".into());
            return;
        }
    };
    let mut span_names: Vec<&str> = Vec::new();
    let mut thread_names = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(|p| p.as_str()).unwrap_or("");
        match ph {
            "X" => {
                match ev.get("name").and_then(|n| n.as_str()) {
                    Some(name) => span_names.push(name),
                    None => errs.push(format!("trace: event {i} has no name")),
                }
                for field in ["ts", "dur"] {
                    match ev.get(field).and_then(|v| v.as_f64()) {
                        Some(v) if v >= 0.0 => {}
                        _ => errs.push(format!("trace: event {i} has bad {field}")),
                    }
                }
            }
            "M" => {
                if ev.get("name").and_then(|n| n.as_str()) == Some("thread_name") {
                    thread_names += 1;
                }
            }
            "i" | "" => {}
            other => errs.push(format!("trace: event {i} has unknown ph {other:?}")),
        }
    }
    for phase in ALL_PHASES {
        if !span_names.contains(&phase.name()) {
            errs.push(format!("trace: no span events for stage {}", phase.name()));
        }
    }
    if thread_names == 0 {
        errs.push("trace: no thread_name metadata events".into());
    }
}

/// Every ledger line must parse strictly, every record must pass
/// `ledger_violations`, and jointly the records must cover every phase
/// and carry live counters.
fn check_ledger(text: &str, errs: &mut Vec<String>) {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match LedgerRecord::from_json(line) {
            Err(e) => errs.push(format!("ledger: line {}: {e}", i + 1)),
            Ok(record) => records.push(record),
        }
    }
    if records.is_empty() {
        errs.push("ledger: no records".into());
        return;
    }
    for e in ledger_violations(&records) {
        errs.push(format!("ledger: {e}"));
    }
    let mut phase_counts = [0u64; NUM_PHASES];
    for record in &records {
        for (slot, p) in phase_counts.iter_mut().zip(record.phases.iter()) {
            *slot += p.count;
        }
    }
    for (phase, &count) in ALL_PHASES.iter().zip(phase_counts.iter()) {
        if count == 0 {
            errs.push(format!(
                "ledger: no {} spans across any record",
                phase.name()
            ));
        }
    }
    if records
        .iter()
        .all(|r| r.counters.get(Counter::MapOutputBytes) == 0)
    {
        errs.push("ledger: records carry no map output bytes".into());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [trace_path, ledger_path] = args.as_slice() else {
        eprintln!("usage: validate_trace <trace.json> <ledger.jsonl>");
        std::process::exit(2);
    };

    let mut errs: Vec<String> = Vec::new();
    match std::fs::read_to_string(trace_path) {
        Ok(text) => match json::parse(&text) {
            Ok(doc) => check_trace(&doc, &mut errs),
            Err(e) => errs.push(format!("trace: {e}")),
        },
        Err(e) => errs.push(format!("trace: cannot read {trace_path}: {e}")),
    }
    match std::fs::read_to_string(ledger_path) {
        Ok(text) => check_ledger(&text, &mut errs),
        Err(e) => errs.push(format!("ledger: cannot read {ledger_path}: {e}")),
    }

    if errs.is_empty() {
        println!(
            "ok: trace covers all {} stages; ledger roundtrips byte-identically, its counters balance and its histograms agree with them",
            ALL_PHASES.len()
        );
    } else {
        for e in &errs {
            eprintln!("FAIL {e}");
        }
        std::process::exit(1);
    }
}
