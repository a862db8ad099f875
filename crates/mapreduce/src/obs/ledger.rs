//! The run document: one self-describing JSON line per finished job.
//!
//! A [`LedgerRecord`] is the only per-job telemetry file this workspace
//! writes and everything cross-run tooling reads: the job configuration,
//! the final counters, every non-empty histogram, per-phase wall/CPU
//! rollups (and how many span events were dropped while collecting
//! them), the [clock kind](crate::clock) the profile was taken with and
//! the host's CPU count. The code that owns a finished job builds the
//! record with [`LedgerRecord::from_run`] and appends it to a JSON-lines
//! file through a [`LedgerSink`]; [`LedgerRecord::from_json`] /
//! [`parse_ledger`] read it back for `repro --reconcile`, which prints
//! the drift report and checks the ledger. The record's `config`
//! object on its own ([`LedgerConfig::to_json`] /
//! [`LedgerConfig::from_json`]) is a distributed worker's job payload.
//!
//! The schema — key names, their order and their types — is written
//! once, in the `json_object!` table below, and both directions walk
//! it. The encoding is conservative so that a record survives the
//! float-based [`json`](crate::obs::json) reader **byte-identically**:
//!
//! * every integer is clamped to [`LEDGER_MAX_EXACT`] (2^53), the
//!   largest magnitude where `f64` is still exact on every integer, and
//!   the reader refuses anything larger;
//! * histogram buckets are `[bucket_index, count]` pairs — the index
//!   (0..=64), never the bucket bounds, because the top bucket's bound
//!   is `u64::MAX`;
//! * key order is fixed and there is no insignificant whitespace; the
//!   reader demands exactly the table's keys in the table's order, so a
//!   missing, unknown, duplicated or reordered key is an error rather
//!   than something a re-encode would silently repair.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::clock::{clock_kind, ClockKind};
use crate::counters::{CounterSnapshot, Counters, ALL_COUNTERS};
use crate::ifile::{Framing, IFileVersion};
use crate::job::{JobConfig, JobResult};
use crate::obs::json::{self, Json};
use crate::obs::{Histogram, Metric, Trace, ALL_METRICS, ALL_PHASES, NUM_BUCKETS, NUM_PHASES};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Schema tag written into every ledger record.
pub const LEDGER_SCHEMA: &str = "scihadoop.ledger.v4";

/// Largest integer the ledger holds: 2^53, the bound below which every
/// integer survives an `f64` roundtrip exactly. Counters past this are
/// clamped on write (a job that moved 8 PiB has other problems).
pub const LEDGER_MAX_EXACT: u64 = 1 << 53;

/// This host's CPU count, as recorded in ledger records and BENCH files;
/// asked of the OS once per process (the answer reads cgroup files on
/// Linux, once for every ledger record before it was cached).
pub fn host_cpus() -> u64 {
    static CPUS: OnceLock<u64> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()) as u64)
}

/// The stable name of the active [clock](crate::clock::clock_kind).
pub fn clock_name() -> &'static str {
    match clock_kind() {
        ClockKind::ThreadCpu => "thread_cpu",
        ClockKind::Wall => "wall",
    }
}

/// The job-configuration half of a ledger record, and the one
/// description of a job's knobs: its JSON object
/// ([`to_json`](Self::to_json)) is also the payload a distributed
/// worker rebuilds its `JobConfig` from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerConfig {
    /// Codec name (`Codec::name()`).
    pub codec: String,
    /// Reduce task count.
    pub num_reducers: u64,
    /// Concurrent map tasks.
    pub map_slots: u64,
    /// Concurrent reduce tasks.
    pub reduce_slots: u64,
    /// Map-side spill threshold in bytes.
    pub spill_buffer_bytes: u64,
    /// Record framing: `"ifile"` or `"sequence_file"`.
    pub framing: String,
    /// IFile layout version (1, 2 or 3).
    pub ifile_version: u64,
    /// Whether a combiner was configured.
    pub combiner: bool,
    /// Per-task retry budget.
    pub task_retries: u64,
    /// The fault plan in full, in [`FaultConfig::parse`]'s grammar
    /// (all seven keys), when one was configured.
    ///
    /// [`FaultConfig::parse`]: crate::FaultConfig::parse
    pub faults: Option<String>,
}

/// Job-shape extras needed to rebuild a
/// [`JobStats`](crate::JobStats) from the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LedgerJob {
    /// Map tasks that ran (input splits).
    pub num_maps: u64,
    /// Reduce tasks that ran.
    pub num_reducers: u64,
    /// Input payload bytes.
    pub input_bytes: u64,
    /// Wall-clock nanoseconds of the map phase.
    pub map_wall_nanos: u64,
    /// Wall-clock nanoseconds of the reduce phase.
    pub reduce_wall_nanos: u64,
}

/// Span rollup for one pipeline phase: how many spans ran and their
/// total wall/CPU time. All zero when the job ran without a recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseRollup {
    /// Spans recorded for the phase.
    pub count: u64,
    /// Total wall-clock nanoseconds across those spans.
    pub wall_ns: u64,
    /// Total thread-CPU nanoseconds across those spans.
    pub cpu_ns: u64,
}

/// Compact encoding of one non-empty histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerHist {
    /// Which metric this distribution belongs to.
    pub metric: Metric,
    /// Sample count.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Non-empty log2 buckets as `(bucket_index, count)`, ascending.
    pub buckets: Vec<(u8, u64)>,
}

impl LedgerHist {
    /// Encode a histogram; `None` when it recorded nothing.
    pub fn from_histogram(metric: Metric, h: &Histogram) -> Option<LedgerHist> {
        if h.is_empty() {
            return None;
        }
        let buckets = h
            .buckets()
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i as u8, n))
            .collect();
        Some(LedgerHist {
            metric,
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            buckets,
        })
    }
}

/// One finished run, ready to append to a ledger file.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRecord {
    /// Caller-chosen run label (experiment or job name).
    pub label: String,
    /// `"thread_cpu"` or `"wall"` — which clock the CPU numbers used.
    pub clock: String,
    /// CPU count of the host that produced the record.
    pub host_cpus: u64,
    /// Span events the recorder's rings overwrote before the drain. The
    /// phase rollups are computed from ring events, so a non-zero value
    /// means they undercount; counters and histograms are unaffected.
    pub dropped_events: u64,
    /// Full job configuration.
    pub config: LedgerConfig,
    /// Job-shape extras for `JobStats` reconstruction.
    pub job: LedgerJob,
    /// Final counter values.
    pub counters: CounterSnapshot,
    /// Per-phase span rollups, in [`ALL_PHASES`] order.
    pub phases: [PhaseRollup; NUM_PHASES],
    /// Every non-empty histogram, in [`ALL_METRICS`] order.
    pub histograms: Vec<LedgerHist>,
}

/// A value with a place in the ledger schema: how it is written and how
/// it is checked on the way back in.
trait Field: Sized {
    fn enc(&self) -> Json;
    fn dec(value: &Json) -> Result<Self, String>;
}

/// The ledger schema: for each object its JSON keys, in order. A key is
/// the name of the struct field it carries, and the field's type picks
/// the [`Field`] rule, so writer and reader cannot disagree.
macro_rules! json_object {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $ty {
            fn members(&self) -> Vec<(String, Json)> {
                vec![$((stringify!($field).to_string(), self.$field.enc())),+]
            }

            fn from_members(members: &[(String, Json)]) -> Result<Self, String> {
                let mut values = keyed_values(members, [$(stringify!($field)),+])?;
                Ok($ty {
                    $($field: dec_next(&mut values)?),+
                })
            }
        }

        impl Field for $ty {
            fn enc(&self) -> Json {
                Json::Obj(self.members())
            }

            fn dec(value: &Json) -> Result<Self, String> {
                Self::from_members(members_of(value)?)
            }
        }
    };
}

json_object!(LedgerRecord {
    label,
    clock,
    host_cpus,
    dropped_events,
    config,
    job,
    counters,
    phases,
    histograms,
});
json_object!(LedgerConfig {
    codec,
    num_reducers,
    map_slots,
    reduce_slots,
    spill_buffer_bytes,
    framing,
    ifile_version,
    combiner,
    task_retries,
    faults,
});
json_object!(LedgerJob {
    num_maps,
    num_reducers,
    input_bytes,
    map_wall_nanos,
    reduce_wall_nanos,
});
json_object!(PhaseRollup {
    count,
    wall_ns,
    cpu_ns
});
json_object!(LedgerHist {
    metric,
    count,
    sum,
    min,
    max,
    buckets
});

fn members_of(value: &Json) -> Result<&[(String, Json)], String> {
    match value {
        Json::Obj(members) => Ok(members),
        _ => Err("not an object".to_string()),
    }
}

/// The values of an object whose keys must be exactly `keys`, in order,
/// each paired with its key for error messages.
fn keyed_values<'a, 'k>(
    members: &'a [(String, Json)],
    keys: impl IntoIterator<Item = &'k str>,
) -> Result<impl Iterator<Item = (&'a str, &'a Json)>, String> {
    let mut found = members.iter().map(|(key, _)| key.as_str());
    let mut position = 0;
    for expected in keys {
        match found.next() {
            Some(key) if key == expected => position += 1,
            other => {
                return Err(format!(
                    "expected key {expected:?} at position {position}, found {other:?}"
                ))
            }
        }
    }
    match found.next() {
        None => Ok(members.iter().map(|(key, value)| (key.as_str(), value))),
        Some(extra) => Err(format!("unexpected key {extra:?} at position {position}")),
    }
}

fn dec_next<'a, T: Field>(
    values: &mut impl Iterator<Item = (&'a str, &'a Json)>,
) -> Result<T, String> {
    let (key, value) = values
        .next()
        .ok_or("the object ends before its schema does")?;
    T::dec(value).map_err(|e| format!("{key:?}: {e}"))
}

impl Field for u64 {
    fn enc(&self) -> Json {
        Json::from((*self).min(LEDGER_MAX_EXACT))
    }

    fn dec(value: &Json) -> Result<u64, String> {
        value
            .as_u64()
            .filter(|&n| n <= LEDGER_MAX_EXACT)
            .ok_or_else(|| "not an exact integer in 0..=2^53".to_string())
    }
}

impl Field for String {
    fn enc(&self) -> Json {
        Json::from(self.as_str())
    }

    fn dec(value: &Json) -> Result<String, String> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| "not a string".to_string())
    }
}

impl Field for bool {
    fn enc(&self) -> Json {
        Json::Bool(*self)
    }

    fn dec(value: &Json) -> Result<bool, String> {
        match value {
            Json::Bool(b) => Ok(*b),
            _ => Err("not a boolean".to_string()),
        }
    }
}

impl<T: Field> Field for Option<T> {
    fn enc(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::enc)
    }

    fn dec(value: &Json) -> Result<Option<T>, String> {
        match value {
            Json::Null => Ok(None),
            other => T::dec(other).map(Some),
        }
    }
}

impl Field for Metric {
    fn enc(&self) -> Json {
        Json::from(self.name())
    }

    fn dec(value: &Json) -> Result<Metric, String> {
        ALL_METRICS
            .into_iter()
            .find(|m| value.as_str() == Some(m.name()))
            .ok_or_else(|| format!("unknown metric {value:?}"))
    }
}

/// One `[bucket_index, count]` pair.
impl Field for (u8, u64) {
    fn enc(&self) -> Json {
        Json::Arr(vec![u64::from(self.0).enc(), self.1.enc()])
    }

    fn dec(value: &Json) -> Result<(u8, u64), String> {
        match value.as_arr() {
            Some([index, count]) => {
                let index = u64::dec(index)
                    .ok()
                    .filter(|&i| i < NUM_BUCKETS as u64)
                    .ok_or_else(|| format!("bucket index not in 0..{NUM_BUCKETS}"))?;
                Ok((index as u8, u64::dec(count)?))
            }
            _ => Err("not an [index, count] pair".to_string()),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn enc(&self) -> Json {
        Json::Arr(self.iter().map(T::enc).collect())
    }

    fn dec(value: &Json) -> Result<Vec<T>, String> {
        let items = value.as_arr().ok_or("not an array")?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::dec(item).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

/// Every counter by name, in [`ALL_COUNTERS`] order.
impl Field for CounterSnapshot {
    fn enc(&self) -> Json {
        Json::obj(ALL_COUNTERS.map(|c| (c.name(), self.get(c).enc())))
    }

    fn dec(value: &Json) -> Result<CounterSnapshot, String> {
        let mut values = keyed_values(members_of(value)?, ALL_COUNTERS.map(|c| c.name()))?;
        let counters = Counters::new();
        for c in ALL_COUNTERS {
            counters.add(c, dec_next(&mut values)?);
        }
        Ok(counters.snapshot())
    }
}

/// Every phase's rollup by name, in [`ALL_PHASES`] order.
impl Field for [PhaseRollup; NUM_PHASES] {
    fn enc(&self) -> Json {
        Json::obj(
            ALL_PHASES
                .map(|p| p.name())
                .into_iter()
                .zip(self.iter().map(PhaseRollup::enc)),
        )
    }

    fn dec(value: &Json) -> Result<[PhaseRollup; NUM_PHASES], String> {
        let mut values = keyed_values(members_of(value)?, ALL_PHASES.map(|p| p.name()))?;
        let mut phases = [PhaseRollup::default(); NUM_PHASES];
        for slot in &mut phases {
            *slot = dec_next(&mut values)?;
        }
        Ok(phases)
    }
}

impl LedgerConfig {
    /// Describe a job's configuration: every knob but the key semantics,
    /// which have no name to write down, and the recorder, which
    /// changes no byte of the job.
    pub fn of(config: &JobConfig) -> LedgerConfig {
        LedgerConfig {
            codec: config.codec.name().to_string(),
            num_reducers: config.num_reducers as u64,
            map_slots: config.map_slots as u64,
            reduce_slots: config.reduce_slots as u64,
            spill_buffer_bytes: config.spill_buffer_bytes as u64,
            framing: match config.framing {
                Framing::SequenceFile => "sequence_file",
                Framing::IFile => "ifile",
            }
            .to_string(),
            ifile_version: match config.ifile_version {
                IFileVersion::V1 => 1,
                IFileVersion::V2 => 2,
                IFileVersion::V3 => 3,
            },
            combiner: config.combiner.is_some(),
            task_retries: u64::from(config.task_retries),
            faults: config.faults.as_ref().map(|p| p.config().to_string()),
        }
    }

    /// The canonical single-line encoding: the `config` object exactly
    /// as a ledger record carries it.
    pub fn to_json(&self) -> String {
        self.enc().to_compact()
    }

    /// Parse the encoding [`to_json`](Self::to_json) writes, as strictly
    /// as [`LedgerRecord::from_json`] reads a whole record.
    pub fn from_json(text: &str) -> Result<LedgerConfig, String> {
        canonical(text, LedgerConfig::dec, LedgerConfig::to_json)
    }
}

/// Read `text` as JSON with `read`, and refuse it unless `write` gives
/// back the same bytes: whitespace, `1.0` for `1`, `\u0041` for `A` are
/// valid JSON that no writer of ours produced, so the text is not what
/// it claims to be.
fn canonical<T>(
    text: &str,
    read: impl FnOnce(&Json) -> Result<T, String>,
    write: impl FnOnce(&T) -> String,
) -> Result<T, String> {
    let value = read(&json::parse(text)?)?;
    if write(&value) != text {
        return Err("text is not in the ledger's canonical encoding".to_string());
    }
    Ok(value)
}

impl LedgerRecord {
    /// Build a record from a finished job. `trace` (a drained
    /// [`Recorder`](crate::Recorder)) contributes the phase rollups and
    /// histograms; without one those sections are empty but the record
    /// is still complete enough to replay through the cost model.
    pub fn from_run(
        label: &str,
        config: &JobConfig,
        result: &JobResult,
        trace: Option<&Trace>,
    ) -> LedgerRecord {
        let stats = &result.stats;
        let mut phases = [PhaseRollup::default(); NUM_PHASES];
        let mut histograms = Vec::new();
        if let Some(trace) = trace {
            for (_, e) in &trace.events {
                let slot = &mut phases[e.phase as usize];
                slot.count += 1;
                slot.wall_ns += e.wall_dur_ns;
                slot.cpu_ns += e.cpu_ns;
            }
            histograms.extend(
                ALL_METRICS
                    .into_iter()
                    .filter_map(|m| LedgerHist::from_histogram(m, trace.hists.get(m))),
            );
        }
        LedgerRecord {
            label: label.to_string(),
            clock: clock_name().to_string(),
            host_cpus: host_cpus(),
            dropped_events: trace.map_or(0, |t| t.dropped_events),
            config: LedgerConfig::of(config),
            job: LedgerJob {
                num_maps: stats.num_maps as u64,
                num_reducers: stats.num_reducers as u64,
                input_bytes: stats.input_bytes,
                map_wall_nanos: stats.map_wall_nanos,
                reduce_wall_nanos: stats.reduce_wall_nanos,
            },
            counters: result.counters,
            phases,
            histograms,
        }
    }

    /// Total thread-CPU nanoseconds across all phase spans.
    pub fn phase_cpu_total_nanos(&self) -> u64 {
        self.phases.iter().map(|p| p.cpu_ns).sum()
    }

    /// The encoded histogram for a metric, if the run recorded one.
    pub fn hist(&self, metric: Metric) -> Option<&LedgerHist> {
        self.histograms.iter().find(|h| h.metric == metric)
    }

    /// The canonical single-line encoding (no trailing newline): the
    /// schema tag, then the schema table's keys in order.
    pub fn to_json(&self) -> String {
        let mut members = vec![("schema".to_string(), Json::from(LEDGER_SCHEMA))];
        members.extend(self.members());
        Json::Obj(members).to_compact()
    }

    /// Parse one ledger line. Strict: the line must carry this schema's
    /// tag and exactly its keys and types, no histogram or bucket twice,
    /// and must be in the canonical form [`to_json`](Self::to_json)
    /// writes — a record that parses re-encodes to the bytes it was read
    /// from.
    pub fn from_json(line: &str) -> Result<LedgerRecord, String> {
        let read = |doc: &Json| match members_of(doc)?.split_first() {
            Some(((key, tag), body)) if key == "schema" => {
                if tag.as_str() != Some(LEDGER_SCHEMA) {
                    return Err(format!(
                        "unsupported ledger schema {tag:?} (expected {LEDGER_SCHEMA:?})"
                    ));
                }
                LedgerRecord::from_members(body).and_then(LedgerRecord::distinct)
            }
            _ => Err("record does not start with a \"schema\" tag".to_string()),
        };
        canonical(line, read, LedgerRecord::to_json)
    }

    /// Refuse a record that repeats a metric's histogram or a bucket of
    /// one: `from_run` writes neither, and a reader that looks one up
    /// would see only the first copy.
    fn distinct(self) -> Result<LedgerRecord, String> {
        let mut seen = [false; ALL_METRICS.len()];
        for h in &self.histograms {
            let at = ALL_METRICS.iter().position(|&m| m == h.metric).unwrap_or(0);
            if std::mem::replace(&mut seen[at], true) {
                return Err(format!("a second {:?} histogram", h.metric.name()));
            }
            if h.buckets.windows(2).any(|w| w[0].0 >= w[1].0) {
                return Err(format!("{:?} buckets do not ascend", h.metric.name()));
            }
        }
        Ok(self)
    }
}

/// Parse a whole ledger file: one record per non-empty line.
pub fn parse_ledger(text: &str) -> Result<Vec<LedgerRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            LedgerRecord::from_json(line).map_err(|e| format!("ledger line {}: {e}", i + 1))
        })
        .collect()
}

/// Append-only destination for ledger records, owned by the code that
/// runs the jobs. It keeps every record it was given; with a path
/// configured each append also writes one JSON line to the file.
#[derive(Debug, Default)]
pub struct LedgerSink {
    path: Option<PathBuf>,
    /// Opened lazily on the first append and kept for the sink's
    /// lifetime: reopening per record costs a syscall and, worse, loses
    /// the one-`write`-per-line guarantee concurrent appenders rely on.
    file: Option<std::fs::File>,
    records: Vec<LedgerRecord>,
}

impl LedgerSink {
    /// An in-memory sink (records are only kept in the process).
    pub fn new() -> LedgerSink {
        LedgerSink::default()
    }

    /// A sink that appends each record as a JSON line to `path`
    /// (created on the first append).
    pub fn with_path(path: impl Into<PathBuf>) -> LedgerSink {
        LedgerSink {
            path: Some(path.into()),
            ..LedgerSink::default()
        }
    }

    /// Append a record, writing it through to the file if one is set.
    ///
    /// The file is opened once (`O_APPEND`) and each record — line body
    /// plus trailing newline — goes down in a single `write_all` of one
    /// buffer. With `O_APPEND` the kernel makes each `write` atomic with
    /// respect to the offset, so concurrent appenders (processes sharing
    /// one ledger path) interleave whole lines, never partial ones.
    pub fn append(&mut self, record: LedgerRecord) -> std::io::Result<()> {
        if let (None, Some(path)) = (&self.file, &self.path) {
            self.file = Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            );
        }
        if let Some(file) = &mut self.file {
            let mut line = record.to_json();
            line.push('\n');
            file.write_all(line.as_bytes())?;
        }
        self.records.push(record);
        Ok(())
    }

    /// All records appended so far.
    pub fn records(&self) -> &[LedgerRecord] {
        &self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counter;

    fn sample_record() -> LedgerRecord {
        let counters = Counters::new();
        counters.add(Counter::MapOutputBytes, 1234);
        counters.add(Counter::ShuffleBytes, u64::MAX);
        let mut h = Histogram::new();
        h.record(0);
        h.record(7);
        h.record(1 << 40);
        let mut phases = [PhaseRollup::default(); NUM_PHASES];
        phases[0] = PhaseRollup {
            count: 2,
            wall_ns: 10,
            cpu_ns: 9,
        };
        LedgerRecord {
            label: "unit \"test\"\nline two".into(),
            clock: clock_name().into(),
            host_cpus: host_cpus(),
            dropped_events: 3,
            config: LedgerConfig {
                codec: "identity".into(),
                num_reducers: 3,
                map_slots: 2,
                reduce_slots: 2,
                spill_buffer_bytes: 1024,
                framing: "sequence_file".into(),
                ifile_version: 2,
                combiner: true,
                task_retries: 1,
                faults: Some("seed=42,map=0.5,reduce=0,corrupt=0.25,slow=0,slow_ms=1,cap=2".into()),
            },
            job: LedgerJob {
                num_maps: 4,
                num_reducers: 3,
                input_bytes: 1 << 20,
                map_wall_nanos: 5_000,
                reduce_wall_nanos: 6_000,
            },
            counters: counters.snapshot(),
            phases,
            histograms: vec![
                LedgerHist::from_histogram(Metric::SegRawBytes, &h).expect("non-empty")
            ],
        }
    }

    #[test]
    fn encoding_is_single_line_with_schema() {
        let line = sample_record().to_json();
        assert!(!line.contains('\n'), "ledger records are JSON lines");
        assert!(line.starts_with(&format!("{{\"schema\":\"{LEDGER_SCHEMA}\"")));
        assert!(line.contains("\"label\":\"unit \\\"test\\\"\\nline two\""));
        assert!(line.contains("\"dropped_events\":3"));
        assert!(line.contains(
            "\"faults\":\"seed=42,map=0.5,reduce=0,corrupt=0.25,slow=0,slow_ms=1,cap=2\""
        ));
        assert!(line.contains("\"metric\":\"segment_raw_bytes\""));
    }

    #[test]
    fn oversized_integers_clamp_once_and_then_roundtrip() {
        let line = sample_record().to_json();
        assert!(
            line.contains(&format!("\"shuffle_bytes\":{LEDGER_MAX_EXACT}")),
            "u64::MAX must clamp to 2^53: {line}"
        );
        assert!((LEDGER_MAX_EXACT as f64) as u64 == LEDGER_MAX_EXACT);
        let parsed = LedgerRecord::from_json(&line).expect("parse");
        assert_eq!(parsed.counters.get(Counter::ShuffleBytes), LEDGER_MAX_EXACT);
        assert_eq!(parsed.to_json(), line);
        // One past the clamp is exact in f64 too, but no writer emits it.
        let past = line.replace(
            &format!("\"shuffle_bytes\":{LEDGER_MAX_EXACT}"),
            &format!("\"shuffle_bytes\":{}", LEDGER_MAX_EXACT + 2),
        );
        assert!(LedgerRecord::from_json(&past).is_err());
    }

    #[test]
    fn empty_histograms_are_omitted() {
        let h = Histogram::new();
        assert!(LedgerHist::from_histogram(Metric::SegRawBytes, &h).is_none());
    }

    #[test]
    fn whole_ledger_files_parse_line_by_line() {
        let line = sample_record().to_json();
        let records = parse_ledger(&format!("{line}\n\n{line}\n")).expect("parse ledger");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], records[1]);
        let err = parse_ledger(&format!("{line}\n{{}}\n")).unwrap_err();
        assert!(err.starts_with("ledger line 2:"), "{err}");
    }

    #[test]
    fn sink_collects_and_writes_lines() {
        let dir = std::env::temp_dir().join(format!("scihadoop-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("ledger.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut sink = LedgerSink::with_path(&path);
        assert!(sink.records().is_empty());
        sink.append(sample_record()).expect("append");
        sink.append(sample_record()).expect("append");
        assert_eq!(sink.records().len(), 2);
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 2);
        assert_eq!(text.lines().next().unwrap(), sample_record().to_json());
        let _ = std::fs::remove_file(&path);
    }
}
