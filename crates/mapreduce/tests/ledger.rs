//! The run ledger as a trust boundary and as a lossless format.
//!
//! * Roundtrip property: any record the obs layer can build survives
//!   `to_json` → `from_json` **value-identically**, and the parsed record
//!   re-encodes **byte-identically**. Labels and codec/framing names run
//!   through the string escaper (quotes, backslashes, control chars,
//!   multibyte); numeric fields cover the full `u64` range (values above
//!   2^53 clamp once at first encode and then stay fixed).
//! * Hostile lines: whatever is done to a real record line — cut short,
//!   bytes flipped, keys dropped, doubled, renamed or given the wrong
//!   type at any level — `from_json` returns `Err` (or, for a flip that
//!   happens to land on another canonical record, exactly that record)
//!   and never panics.

use proptest::prelude::*;
use scihadoop_mapreduce::obs::json::{parse, Json};
use scihadoop_mapreduce::obs::{
    Histogram, LedgerConfig, LedgerHist, LedgerJob, LedgerRecord, PhaseRollup, Recorder,
    ALL_METRICS, ALL_PHASES, LEDGER_MAX_EXACT, LEDGER_SCHEMA, NUM_PHASES,
};
use scihadoop_mapreduce::record::{Emit, FnMapper, FnReducer, InputSplit};
use scihadoop_mapreduce::{Counters, Job, JobConfig, KvPair, ALL_COUNTERS};
use std::sync::Arc;

/// Characters that stress the JSON escaper: quoting, escaping, control
/// characters, and multibyte UTF-8.
const PALETTE: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '→', '/',
];

fn palette_string(indexes: &[usize]) -> String {
    indexes
        .iter()
        .map(|&i| PALETTE[i % PALETTE.len()])
        .collect()
}

const NUMBERS: usize = 2 + 6 + 5 + ALL_COUNTERS.len() + 3 * NUM_PHASES;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn any_record_roundtrips_by_value_and_by_bytes(
        // label, codec, framing, clock, fault plan as palette indexes.
        strings in proptest::collection::vec(
            proptest::collection::vec(0usize..14, 0..24),
            5..6,
        ),
        // host_cpus, dropped_events, 6 config numbers, 5 job numbers,
        // every counter, then a (count, wall, cpu) rollup per phase.
        numbers in proptest::collection::vec(any::<u64>(), NUMBERS..NUMBERS + 1),
        // Whether the numbers keep their full range (and clamp on
        // encode) or are first brought into the exact range.
        oversized in any::<bool>(),
        // (combiner, fault plan present)
        flags in (any::<bool>(), any::<bool>()),
        hist_picks in proptest::collection::vec(
            (any::<u16>(), proptest::collection::vec(any::<u64>(), 1..16)),
            0..4,
        ),
    ) {
        let mut numbers = numbers.into_iter().map(|n| {
            if oversized { n } else { n >> 11 }
        });
        let mut next = || numbers.next().expect("NUMBERS values");
        let (host_cpus, dropped_events) = (next(), next());
        let config = LedgerConfig {
            codec: palette_string(&strings[1]),
            num_reducers: next(),
            map_slots: next(),
            reduce_slots: next(),
            spill_buffer_bytes: next(),
            framing: palette_string(&strings[2]),
            ifile_version: next(),
            combiner: flags.0,
            task_retries: next(),
            faults: Some(palette_string(&strings[4])).filter(|_| flags.1),
        };
        let job = LedgerJob {
            num_maps: next(),
            num_reducers: next(),
            input_bytes: next(),
            map_wall_nanos: next(),
            reduce_wall_nanos: next(),
        };
        let counters = Counters::new();
        for c in ALL_COUNTERS {
            counters.add(c, next());
        }
        let mut phases = [PhaseRollup::default(); NUM_PHASES];
        for slot in &mut phases {
            *slot = PhaseRollup { count: next(), wall_ns: next(), cpu_ns: next() };
        }
        // Histograms are built by actually recording samples, so bucket
        // encodings are exactly what the obs layer produces; one per
        // metric, as `from_run` builds them.
        let mut histograms: Vec<LedgerHist> = Vec::new();
        for (pick, samples) in &hist_picks {
            let metric = ALL_METRICS[*pick as usize % ALL_METRICS.len()];
            if histograms.iter().any(|h| h.metric == metric) {
                continue;
            }
            let mut h = Histogram::new();
            for &s in samples {
                h.record(if oversized { s } else { s >> 15 });
            }
            histograms.push(LedgerHist::from_histogram(metric, &h).expect("non-empty"));
        }
        let record = LedgerRecord {
            label: palette_string(&strings[0]),
            clock: palette_string(&strings[3]),
            host_cpus,
            dropped_events,
            config,
            job,
            counters: counters.snapshot(),
            phases,
            histograms,
        };

        let line = record.to_json();
        let parsed = LedgerRecord::from_json(&line).expect("every emitted record must parse");
        prop_assert_eq!(parsed.to_json(), line);
        if !oversized {
            prop_assert_eq!(&parsed, &record);
        }
        prop_assert_eq!(parsed.dropped_events, record.dropped_events.min(LEDGER_MAX_EXACT));
    }
}

/// The record of a real traced job (run once): a combiner wordcount
/// with a spill buffer small enough to spill, so the record is rich —
/// rollups for most phases, a dozen histograms.
fn real_record() -> &'static LedgerRecord {
    static RECORD: std::sync::OnceLock<LedgerRecord> = std::sync::OnceLock::new();
    RECORD.get_or_init(run_real_job)
}

fn run_real_job() -> LedgerRecord {
    fn sum(k: &[u8], values: &[&[u8]], out: &mut dyn Emit) {
        let total: u64 = values.iter().map(|v| v[0] as u64).sum();
        out.emit(k, &[total.min(255) as u8]);
    }
    let recorder = Recorder::new();
    let config = JobConfig::default()
        .with_reducers(2)
        .with_combiner(Arc::new(FnReducer(sum)))
        .with_spill_buffer(256)
        .with_recorder(recorder.clone());
    let splits = (0..3)
        .map(|s| {
            InputSplit::new(
                (0..40)
                    .map(|i| KvPair::new(format!("w{}", (i * 7 + s) % 11).into_bytes(), vec![1]))
                    .collect(),
            )
        })
        .collect();
    let mapper = FnMapper(|k: &[u8], v: &[u8], out: &mut dyn Emit| out.emit(k, v));
    let result = Job::new(config.clone())
        .run(splits, Arc::new(mapper), Arc::new(FnReducer(sum)))
        .expect("job runs");
    LedgerRecord::from_run(
        "hostile \"suite\"",
        &config,
        &result,
        Some(&recorder.finish()),
    )
}

/// `Err`, or — when a flipped byte lands on another canonical line — a
/// record that writes back exactly what was read.
fn assert_rejected_or_canonical(line: &str) {
    if let Ok(record) = LedgerRecord::from_json(line) {
        assert_eq!(record.to_json(), line, "accepted a non-canonical line");
    }
}

#[test]
fn every_truncation_of_a_real_line_is_rejected() {
    let line = real_record().to_json();
    assert_eq!(LedgerRecord::from_json(&line).as_ref(), Ok(real_record()));
    for cut in 0..line.len() {
        if let Some(prefix) = line.get(..cut) {
            assert!(
                LedgerRecord::from_json(prefix).is_err(),
                "accepted a line cut at byte {cut}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flipped_bytes_never_panic_and_never_pass_as_something_else(
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut bytes = real_record().to_json().into_bytes();
        for (at, byte) in flips {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        if let Ok(line) = String::from_utf8(bytes) {
            assert_rejected_or_canonical(&line);
        }
    }
}

/// Every way to break one object or array of `doc` by touching one
/// member: drop it, double it, rename it, or give it a value of another
/// type. Array elements are only retyped (a ledger array may hold any
/// number of elements).
fn structural_defects(doc: &Json) -> Vec<Json> {
    type Members = Vec<(String, Json)>;
    fn retyped(value: &Json) -> Json {
        match value {
            Json::Num(_) | Json::Bool(_) => "x".into(),
            Json::Str(_) | Json::Null => Json::Num(1.5),
            Json::Obj(_) => Json::Arr(Vec::new()),
            Json::Arr(_) => Json::Obj(Vec::new()),
        }
    }
    let mut out = Vec::new();
    match doc {
        Json::Obj(members) => {
            for (i, (key, value)) in members.iter().enumerate() {
                let with = |edit: &dyn Fn(&mut Members)| {
                    let mut edited = members.clone();
                    edit(&mut edited);
                    Json::Obj(edited)
                };
                out.push(with(&|m| drop(m.remove(i))));
                out.push(with(&|m| m.insert(i + 1, (key.clone(), value.clone()))));
                out.push(with(&|m| m[i].0 = format!("{key}_x")));
                out.push(with(&|m| m[i].1 = retyped(value)));
                out.extend(
                    structural_defects(value)
                        .into_iter()
                        .map(|v| with(&|m| m[i].1 = v.clone())),
                );
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                for v in std::iter::once(retyped(item)).chain(structural_defects(item)) {
                    let mut edited = items.clone();
                    edited[i] = v;
                    out.push(Json::Arr(edited));
                }
            }
        }
        _ => {}
    }
    out
}

#[test]
fn missing_doubled_unknown_and_mistyped_keys_are_rejected_at_every_level() {
    let doc = parse(&real_record().to_json()).unwrap();
    let defects = structural_defects(&doc);
    // The top level, config, job, every counter, every phase and its
    // three fields: several hundred distinct defects.
    assert!(defects.len() > 4 * (ALL_COUNTERS.len() + 4 * ALL_PHASES.len()));
    for defect in defects {
        let line = defect.to_compact();
        assert!(
            LedgerRecord::from_json(&line).is_err(),
            "accepted a defective line: {line}"
        );
    }
}

#[test]
fn out_of_schema_values_are_rejected() {
    let record = real_record();
    let line = record.to_json();
    let host_cpus = format!("\"host_cpus\":{}", record.host_cpus);
    assert!(line.contains(&host_cpus));
    for bad in [
        "1e400",
        "-1",
        "2.5",
        "1e3",
        "01",
        "9007199254740994",
        "18446744073709551616",
        "null",
        "\"2\"",
    ] {
        let hostile = line.replace(&host_cpus, &format!("\"host_cpus\":{bad}"));
        assert!(
            LedgerRecord::from_json(&hostile).is_err(),
            "accepted host_cpus = {bad}"
        );
    }
    // An older tag, reordered keys, insignificant whitespace, a second
    // document on the line, an escape the writer would not have used.
    for hostile in [
        line.replace(LEDGER_SCHEMA, "scihadoop.ledger.v1"),
        line.replacen("{\"schema\":", "{ \"schema\":", 1),
        line.replacen("hostile", "\\u0068ostile", 1),
        format!("{line} "),
        format!("{line}{line}"),
        format!("[{line}]"),
        line.replacen(
            &format!("\"schema\":\"{LEDGER_SCHEMA}\",\"label\":\"hostile \\\"suite\\\"\""),
            &format!("\"label\":\"hostile \\\"suite\\\"\",\"schema\":\"{LEDGER_SCHEMA}\""),
            1,
        ),
    ] {
        assert_ne!(hostile, line);
        assert!(
            LedgerRecord::from_json(&hostile).is_err(),
            "accepted: {hostile}"
        );
    }
    // Bucket indexes stop at 64.
    let mut with_bucket = record.clone();
    with_bucket.histograms = vec![LedgerHist {
        metric: ALL_METRICS[0],
        count: 1,
        sum: 1,
        min: 1,
        max: 1,
        buckets: vec![(64, 1)],
    }];
    let ok = with_bucket.to_json();
    assert!(LedgerRecord::from_json(&ok).is_ok());
    let bad = ok.replace("\"buckets\":[[64,1]]", "\"buckets\":[[65,1]]");
    assert_ne!(bad, ok);
    assert!(LedgerRecord::from_json(&bad).is_err());
}
