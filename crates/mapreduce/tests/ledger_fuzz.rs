//! Hostile input to the two JSON readers a process trusts: the job
//! description a spawned worker parses from `SCIHADOOP_DIST_JOB`
//! (`LedgerConfig::from_json`) and the run ledger (`obs::parse_ledger`).
//! Garbage, every truncation of a real record, nesting past
//! `obs::json::MAX_DEPTH`, and forged numbers and array lengths must
//! each come back as an `Err` or a value: never a panic, and never an
//! allocation larger than a bound linear in the input. The file has its
//! own global allocator to check the last part (the watermark harness
//! of `segment_fuzz.rs`, armed per thread).

use proptest::prelude::*;
use scihadoop_mapreduce::obs::json::MAX_DEPTH;
use scihadoop_mapreduce::obs::{parse_ledger, LedgerConfig, LedgerRecord, Recorder};
use scihadoop_mapreduce::record::{Emit, FnMapper, FnReducer, InputSplit};
use scihadoop_mapreduce::{Job, JobConfig, KvPair};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

// ---- allocation watermark -------------------------------------------------

/// Records the largest single request the current thread makes while
/// [`measured`] has it armed.
struct Watermark;

thread_local! {
    // Const-initialized and without a destructor: reading it from inside
    // the allocator neither allocates nor registers anything.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| {
        if let Some(seen) = largest.get() {
            largest.set(Some(seen.max(size)));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the watermark is a side effect only.
unsafe impl GlobalAlloc for Watermark {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Watermark = Watermark;

/// The readers' allocation bound. A JSON value takes 32 bytes and an
/// object member 56, each from at least two and four input bytes, and a
/// vector at most doubles past what it holds; a decoded record is
/// smaller than its tree. Plus room for an error message.
fn alloc_limit(input: usize) -> usize {
    32 * input + 1024
}

/// Feed `text` to every reader, each under the watermark: none may
/// panic (the harness would report it) or pass the bound. Returns
/// whether the ledger reader and the config reader accepted it.
fn measured(text: &str) -> (bool, bool) {
    let run = |read: &dyn Fn(&str) -> bool| {
        LARGEST.with(|largest| largest.set(Some(0)));
        let accepted = read(text);
        let largest = LARGEST.with(|largest| largest.take()).unwrap_or(0);
        assert!(
            largest <= alloc_limit(text.len()),
            "a {largest}-byte allocation reading {} bytes",
            text.len()
        );
        accepted
    };
    let ledger = run(&|t| parse_ledger(t).is_ok());
    run(&|t| LedgerRecord::from_json(t).is_ok());
    let config = run(&|t| LedgerConfig::from_json(t).is_ok());
    (ledger, config)
}

/// One line of a real traced job's ledger, with phase rollups and
/// histograms.
fn real_line() -> &'static str {
    static LINE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    LINE.get_or_init(|| {
        let recorder = Recorder::new();
        let config = JobConfig::default()
            .with_reducers(2)
            .with_recorder(recorder.clone());
        let split = |s: usize| {
            let records = (0..30).map(|i| {
                let key = format!("w{}", (i * 7 + s) % 11).into_bytes();
                KvPair::new(key, vec![1])
            });
            InputSplit::new(records.collect())
        };
        let mapper = Arc::new(FnMapper(|k: &[u8], v: &[u8], out: &mut dyn Emit| {
            out.emit(k, v)
        }));
        let reducer = Arc::new(FnReducer(|k: &[u8], vs: &[&[u8]], out: &mut dyn Emit| {
            out.emit(k, &[vs.len() as u8])
        }));
        let result = Job::new(config.clone())
            .run((0..3).map(split).collect(), mapper, reducer)
            .unwrap();
        let trace = recorder.finish();
        LedgerRecord::from_run("fuzzed", &config, &result, Some(&trace)).to_json()
    })
}

/// The job description a coordinator exports to its workers.
fn real_config() -> String {
    LedgerConfig::of(&JobConfig::default().with_reducers(3).with_retries(2)).to_json()
}

/// Every char boundary of `text` strictly inside it.
fn cuts(text: &str) -> impl Iterator<Item = &str> {
    (0..text.len())
        .filter(|&at| text.is_char_boundary(at))
        .map(|at| &text[..at])
}

#[test]
fn the_real_record_and_config_are_read_back() {
    let line = real_line();
    assert!(line.contains("\"histograms\":[{"), "{line}");
    assert_eq!(measured(line), (true, false));
    assert_eq!(measured(&real_config()), (false, true));
    let two = format!("{line}\n\n{line}\n");
    assert_eq!(parse_ledger(&two).map(|r| r.len()), Ok(2));
}

#[test]
fn every_truncation_of_a_real_record_or_config_is_refused() {
    let (line, config) = (real_line(), real_config());
    for cut in cuts(line) {
        assert_eq!(measured(cut), (cut.trim().is_empty(), false), "{cut}");
    }
    for cut in cuts(&config) {
        assert!(!measured(cut).1, "{cut}");
    }
}

#[test]
fn nesting_past_the_depth_cap_is_refused_at_any_depth() {
    for open in ["[", "{\"k\":"] {
        for depth in [MAX_DEPTH, MAX_DEPTH + 1, 10 * MAX_DEPTH, 100_000] {
            let deep = open.repeat(depth);
            assert_eq!(measured(&deep), (false, false));
            // Nested where a record holds a string, and where the config
            // holds its fault plan.
            let line = real_line().replacen("\"fuzzed\"", &deep, 1);
            assert_eq!(measured(&line), (false, false));
            let config = real_config().replacen("null", &deep, 1);
            assert_eq!(measured(&config), (false, false));
        }
    }
}

#[test]
fn forged_numbers_and_array_lengths_are_refused() {
    let line = real_line();
    let config = real_config();
    let numbers = [
        "9007199254740993",
        "18446744073709551616",
        "-1",
        "1.5",
        "1e400",
        "-0",
        "1e2",
        "0x10",
        "01",
    ];
    // Every number of the config, and the first of each record section.
    for forged in numbers {
        for key in ["num_reducers", "task_retries", "map_slots"] {
            let at = config.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
            let end = at + config[at..].find([',', '}']).unwrap();
            let text = format!("{}{forged}{}", &config[..at], &config[end..]);
            assert!(!measured(&text).1, "{text}");
        }
        for key in ["host_cpus", "map_output_records", "wall_ns", "count"] {
            let at = line.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
            let end = at + line[at..].find([',', '}']).unwrap();
            let text = format!("{}{forged}{}", &line[..at], &line[end..]);
            assert!(!measured(&text).0, "{forged} for {key}");
        }
    }
    // A bucket index past the histogram, a bucket twice or out of
    // order, and `[index, count]` pairs of every other length, including
    // a huge one.
    let at = line.find("\"buckets\":[[").unwrap() + "\"buckets\":[".len();
    let end = at + line[at..].find(']').unwrap() + 1;
    let mut pairs = [
        "[65,1]",
        "[255,1]",
        "[4294967296,1]",
        "[]",
        "[1]",
        "[1,1,1]",
        "[63,1],[63,1]",
        "[63,1],[62,1]",
    ]
    .map(String::from)
    .to_vec();
    pairs.push(format!("[{}]", vec!["1"; 100_000].join(",")));
    for pair in pairs {
        let text = format!("{}{pair}{}", &line[..at], &line[end..]);
        assert!(!measured(&text).0, "{}", &pair[..pair.len().min(40)]);
    }
    // A hundred thousand histograms where one was.
    let hists = line.find("\"histograms\":[").unwrap() + "\"histograms\":[".len();
    let first = &line[hists..hists + line[hists..].find('}').unwrap() + 1];
    let many = vec![first; 100_000].join(",");
    let text = format!("{}{many}{}", &line[..hists], &line[hists + first.len()..]);
    assert!(!measured(&text).0);
}

#[test]
fn a_surrogate_escape_is_decoded_or_refused() {
    for escape in [
        "\\ud83d\\ude00",
        "\\ud800\\u0041",
        "\\udbff\\udbff",
        "\\ud800",
        "\\udc00",
        "\\ud800\\u+dc0",
        "\\u+041",
    ] {
        let line = real_line().replacen("fuzzed", escape, 1);
        assert_eq!(measured(&line), (false, false), "{escape}");
        let config = real_config().replacen("null", &format!("\"{escape}\""), 1);
        assert_eq!(measured(&config), (false, false), "{escape}");
    }
}

/// The bytes an overwrite draws from: JSON's punctuation, digits and
/// literal letters, and a control byte.
const PALETTE: &[u8] = b"{}[],:\"\\0123456789-.eEtrufalsn \x7f";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn garbage_is_refused_without_a_panic(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        measured(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn a_real_record_with_bytes_overwritten_is_refused_or_canonical(
        edits in proptest::collection::vec((any::<u16>(), 0..PALETTE.len()), 1..6),
    ) {
        for text in [real_line().to_string(), real_config()] {
            let mut bytes = text.into_bytes();
            for &(at, b) in &edits {
                let at = at as usize % bytes.len();
                bytes[at] = PALETTE[b];
            }
            let text = String::from_utf8_lossy(&bytes);
            let (ledger, config) = measured(&text);
            if ledger {
                prop_assert_eq!(LedgerRecord::from_json(&text).unwrap().to_json(), text.clone());
            }
            if config {
                prop_assert_eq!(LedgerConfig::from_json(&text).unwrap().to_json(), text.clone());
            }
        }
    }
}
