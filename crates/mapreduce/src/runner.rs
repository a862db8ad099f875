//! The task bodies — one map task, one reduce task — and the in-process
//! slot that runs them for a local job. Scheduling lives in
//! `scheduler.rs`.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::arena::SpillArena;
use crate::clock;
use crate::counters::{Counter, Counters};
use crate::dist::WireCodec;
use crate::error::MrError;
use crate::ifile::{IFileVersion, IFileWriter, RawSegment, Segment, DEFAULT_BLOCK_BUDGET};
use crate::job::{JobConfig, JobResult};
use crate::obs::{self, Metric, MetricsBank, Phase};
use crate::record::{InputSplit, KvPair, Mapper, Reducer};
use crate::scheduler::{
    run_attempt, Fetched, JobState, MapOutput, Outcome, Settled, Slot, Step, Takes,
};
use crate::sort::{sort_pairs, BlockMergeStream, MergeItem};
use std::borrow::Cow;
use std::sync::Arc;

/// A slot that runs attempts on its own thread: the task bodies below,
/// called directly, with map segments handed to the job's store as
/// plain `Vec`s and reduce input borrowed from the store's resident
/// bytes — no copy, no frame.
pub(crate) struct InProcessSlot<'a> {
    pub(crate) takes: Takes,
    pub(crate) index: usize,
    pub(crate) mapper: &'a dyn Mapper,
    pub(crate) reducer: &'a dyn Reducer,
}

impl Slot for InProcessSlot<'_> {
    fn takes(&self) -> Takes {
        self.takes
    }

    fn step(&mut self, job: &JobState, step: Step) -> Result<Settled, MrError> {
        Ok(match step {
            Step::Open => {
                let phase = if self.takes == Takes::Maps {
                    "map"
                } else {
                    "reduce"
                };
                Settled::Opened(format!("{phase}-slot-{}", self.index))
            }
            Step::Ready => Settled::Ready,
            Step::Map(task, attempt, split) => {
                Settled::Mapped(map_attempt(job.config, task, attempt, &split, self.mapper))
            }
            Step::Reduce(task, attempt) => Settled::Reduced(self.reduce(job, task, attempt)),
            Step::Close => Settled::Closed,
        })
    }
}

impl InProcessSlot<'_> {
    /// One reduce attempt over the store; `None` if the job aborted
    /// while it was fetching.
    fn reduce(&self, job: &JobState, task: usize, attempt: u32) -> Option<Outcome<Vec<KvPair>>> {
        // Every segment is fetched before the first is opened, so an
        // attempt meets all of the fault plan's corruption for it, as an
        // attempt streamed to a worker does.
        let mut fetched = Vec::with_capacity(job.num_maps);
        for map_task in 0..job.num_maps {
            match job.fetch(task, map_task, attempt, fetched.len() as u64) {
                Ok(Some(segment)) => fetched.push(segment),
                Ok(None) => {}
                Err(_) if job.is_aborted() => return None,
                Err(e) => return Some(Err(e)),
            }
        }
        Some(run_attempt(task, attempt, |local, metrics| {
            let segments = fetched
                .iter()
                .map(|f| match f {
                    Fetched::Stored(handle) => handle.logical_bytes(),
                    Fetched::Copy(data) => Ok(Cow::Borrowed(data.as_slice())),
                })
                .collect::<Result<Vec<_>, _>>()?;
            run_reduce_task(job.config, task, &segments, self.reducer, local, metrics)
        }))
    }
}

/// Execute a job in this process: `map_slots` map-only and
/// `reduce_slots` reduce-only slots over an unbounded, uncompressed
/// shuffle store. Reduce-only slots start once the maps have drained,
/// so the phases run back to back under their own concurrency limits.
/// Called by [`crate::job::Job::run`].
pub fn run_job(
    config: &JobConfig,
    splits: Vec<InputSplit>,
    mapper: Arc<dyn Mapper>,
    reducer: Arc<dyn Reducer>,
) -> Result<JobResult, MrError> {
    let job = JobState::new(config, splits, usize::MAX, WireCodec::Identity)?;
    let slot = |takes, index| InProcessSlot {
        takes,
        index,
        mapper: mapper.as_ref(),
        reducer: reducer.as_ref(),
    };
    let slots = (0..config.map_slots)
        .map(|i| slot(Takes::Maps, i))
        .chain((0..config.reduce_slots).map(|i| slot(Takes::Reduces, i)))
        .collect();
    job.run(slots)
}

/// Build an intermediate-segment writer for the job's configured IFile
/// version. Every map-side writer site goes through this so a version
/// switch changes spill, merge, and final outputs together.
fn make_writer(config: &JobConfig) -> IFileWriter {
    match config.ifile_version {
        IFileVersion::V1 => IFileWriter::without_trailer(config.framing, config.codec.clone()),
        IFileVersion::V2 => IFileWriter::new(config.framing, config.codec.clone()),
        IFileVersion::V3 => {
            IFileWriter::v3_with_budget(config.framing, config.codec.clone(), DEFAULT_BLOCK_BUDGET)
        }
    }
}

/// One map attempt, in a slot or a worker alike: [`run_map_task`] under
/// [`run_attempt`], its segments as the store takes them.
pub(crate) fn map_attempt(
    config: &JobConfig,
    task: usize,
    attempt: u32,
    split: &InputSplit,
    mapper: &dyn Mapper,
) -> Outcome<MapOutput> {
    run_attempt(task, attempt, |local, metrics| {
        let segments = run_map_task(config, task, split, mapper, local, metrics)?;
        Ok(segments.into_iter().map(|(p, seg)| (p, seg.data)).collect())
    })
}

/// One map task: run the user function over a split, routing into the
/// spill arena, then sorting, combining and materializing spills through
/// borrowed slices — no owned pair is allocated between the mapper's
/// `emit` and the `IFileWriter`. Tallies go to the attempt's `counters`
/// and samples to its `metrics`, both absorbed only if it commits.
pub(crate) fn run_map_task(
    config: &JobConfig,
    task: usize,
    split: &InputSplit,
    mapper: &dyn Mapper,
    counters: &Counters,
    metrics: &mut MetricsBank,
) -> Result<Vec<(usize, Segment)>, MrError> {
    let ks = &config.key_semantics;
    let parts = config.num_reducers;
    // Contiguous staging; spilled (sorted, combined, compressed) when the
    // total staged payload crosses the spill threshold.
    let mut arena = SpillArena::new(parts);
    let mut segments = Vec::new();

    let spill = |arena: &mut SpillArena,
                 segments: &mut Vec<(usize, Segment)>,
                 metrics: &mut MetricsBank|
     -> Result<(), MrError> {
        if arena.payload_bytes() == 0 {
            return Ok(());
        }
        counters.add(Counter::Spills, 1);
        let _spill_span = crate::span!(Phase::SortSpill, task);
        metrics.record(Metric::SpillPayloadBytes, arena.payload_bytes() as u64);
        let spill_t0 = clock::thread_cpu_nanos();
        let first_new = segments.len();
        for partition in 0..parts {
            if arena.partition_len(partition) == 0 {
                continue;
            }
            if let Some(stats) = arena.sort_partition(partition, ks.as_ref()) {
                metrics.record(Metric::SortPrefixTies, stats.tie_records);
                metrics.record(Metric::SortCompareCalls, stats.compare_calls);
            }
            let mut writer = make_writer(config);
            let combined: Option<Vec<KvPair>> = if let Some(combiner) = &config.combiner {
                let _combine_span = crate::span!(Phase::Combine, task);
                let input = arena.partition_len(partition) as u64;
                counters.add(Counter::CombineInputRecords, input);
                let mut combined: Vec<KvPair> = Vec::with_capacity(arena.partition_len(partition));
                arena.for_each_group(partition, ks.as_ref(), |key, values| {
                    combiner.reduce(key, values, &mut |k: &[u8], v: &[u8]| {
                        combined.push(KvPair::new(k, v));
                    });
                });
                sort_pairs(&mut combined, ks.as_ref());
                counters.add(Counter::CombineOutputRecords, combined.len() as u64);
                metrics.record(Metric::CombineInput, input);
                metrics.record(Metric::CombineOutput, combined.len() as u64);
                Some(combined)
            } else {
                None
            };
            let seg = {
                let _write_span = crate::span!(Phase::IFileWrite, task);
                match &combined {
                    Some(pairs) => {
                        for pair in pairs {
                            writer.append_pair(pair);
                        }
                    }
                    None => {
                        for (key, value) in arena.pairs(partition) {
                            writer.append(key, value);
                        }
                    }
                }
                writer.close()
            };
            counters.add(Counter::CompressNanos, seg.compress_nanos);
            sample_compress(metrics, &seg);
            segments.push((partition, seg));
        }
        // Codec time is counted separately; charge the rest of the spill
        // (sort + combine + serialization) as per-record pipeline cost.
        let spill_nanos = clock::since(spill_t0);
        let codec_nanos: u64 = segments[first_new..]
            .iter()
            .map(|(_, s)| s.compress_nanos)
            .sum();
        counters.add(Counter::SpillNanos, spill_nanos.saturating_sub(codec_nanos));
        arena.clear();
        Ok(())
    };

    // Per-record tallies stay in task-local integers and reach the
    // (atomic) counter bank once, after the last record. Emitted sizes
    // are sampled only while a recorder is attached, read once per task.
    let mut output_records = 0u64;
    let mut route_split_records = 0u64;
    let sample_emits = obs::recording();
    let mut emit_into =
        |arena: &mut SpillArena, metrics: &mut MetricsBank, key: &[u8], value: &[u8]| {
            if sample_emits {
                metrics.record(Metric::MapEmitKeyBytes, key.len() as u64);
                metrics.record(Metric::MapEmitValueBytes, value.len() as u64);
            }
            // Through the slice-based routing hook: more than one piece
            // when the routing path split the key.
            let mut pieces = 0u64;
            ks.route_slices(key, value, parts, &mut |partition, k, v| {
                debug_assert!(partition < parts, "partition out of range");
                pieces += 1;
                arena.append(partition, k, v);
            });
            output_records += pieces;
            route_split_records += pieces.saturating_sub(1);
        };
    let fn_t0 = clock::thread_cpu_nanos();
    {
        let _emit_span = crate::span!(Phase::MapEmit, task);
        mapper.start();
        for record in &split.records {
            mapper.map(&record.key, &record.value, &mut |k: &[u8], v: &[u8]| {
                emit_into(&mut arena, metrics, k, v)
            });
            if arena.payload_bytes() >= config.spill_buffer_bytes {
                spill(&mut arena, &mut segments, metrics)?;
            }
        }
        mapper.finish(&mut |k: &[u8], v: &[u8]| emit_into(&mut arena, metrics, k, v));
    }
    counters.add(Counter::MapFnNanos, clock::since(fn_t0));
    counters.add(Counter::MapInputRecords, split.records.len() as u64);
    counters.add(Counter::MapOutputRecords, output_records);
    counters.add(Counter::RouteSplitRecords, route_split_records);
    spill(&mut arena, &mut segments, metrics)?;

    // Final merge: if a partition spilled several times, merge its runs
    // into one segment (Hadoop's map-output merge, Fig. 1 step 3).
    let segments = merge_spills(config, task, segments, counters, metrics)?;

    // Byte accounting happens on the *final* materialized output only:
    // the counters are the run's byte ledger, the histograms beside them
    // the per-segment size distribution.
    for (_, seg) in &segments {
        counters.add(Counter::MapOutputBytes, seg.raw_bytes);
        counters.add(Counter::MapOutputKeyBytes, seg.key_bytes);
        counters.add(Counter::MapOutputValueBytes, seg.value_bytes);
        counters.add(Counter::MapOutputFramingBytes, seg.framing_bytes());
        counters.add(Counter::MapOutputKeySavedBytes, seg.key_saved_bytes());
        counters.add(Counter::BlocksWritten, seg.blocks);
        counters.add(
            Counter::MapOutputMaterializedBytes,
            seg.materialized_bytes(),
        );
        counters.add(Counter::MapOutputSegments, 1);
        metrics.record(Metric::SegRawBytes, seg.raw_bytes);
        metrics.record(Metric::SegMaterializedBytes, seg.materialized_bytes());
    }
    Ok(segments)
}

/// Sample one closed segment's codec call: bytes in and out, and the
/// cost per KiB of input.
fn sample_compress(metrics: &mut MetricsBank, seg: &Segment) {
    metrics.record(Metric::CompressInBytes, seg.raw_bytes);
    metrics.record(Metric::CompressOutBytes, seg.materialized_bytes());
    metrics.record(
        Metric::CompressNsPerKib,
        seg.compress_nanos.saturating_mul(1024) / seg.raw_bytes.max(1),
    );
}

/// Open one segment and sample its decompression cost per KiB of
/// output.
fn open_segment(
    data: &[u8],
    config: &JobConfig,
    metrics: &mut MetricsBank,
) -> Result<RawSegment, MrError> {
    let raw = RawSegment::open(data, config.codec.as_ref())?;
    metrics.record(
        Metric::DecompressNsPerKib,
        raw.decompress_nanos.saturating_mul(1024) / (raw.decompressed_len() as u64).max(1),
    );
    Ok(raw)
}

/// Merge multi-spill partitions into one sorted segment each. Single-spill
/// partitions pass through untouched (no decompress/recompress cost).
fn merge_spills(
    config: &JobConfig,
    task: usize,
    segments: Vec<(usize, Segment)>,
    counters: &Counters,
    metrics: &mut MetricsBank,
) -> Result<Vec<(usize, Segment)>, MrError> {
    let multi = {
        let mut counts = vec![0usize; config.num_reducers];
        for (p, _) in &segments {
            counts[*p] += 1;
        }
        counts.iter().any(|&c| c > 1)
    };
    if !multi {
        return Ok(segments);
    }
    let merge_t0 = clock::thread_cpu_nanos();
    let mut per_partition: Vec<Vec<Segment>> =
        (0..config.num_reducers).map(|_| Vec::new()).collect();
    for (p, seg) in segments {
        per_partition[p].push(seg);
    }
    let mut out = Vec::new();
    let mut codec_nanos = 0u64;
    for (partition, mut segs) in per_partition.into_iter().enumerate() {
        match segs.len() {
            0 => {}
            1 => out.extend(segs.pop().map(|seg| (partition, seg))),
            _ => {
                let _merge_span = crate::span!(Phase::Merge, task);
                let mut raws = Vec::with_capacity(segs.len());
                for seg in &segs {
                    let r = open_segment(&seg.data, config, metrics)?;
                    codec_nanos += r.decompress_nanos;
                    raws.push(r);
                }
                let mut writer = make_writer(config);
                metrics.record(Metric::MergeFanIn, raws.len() as u64);
                // Still-encoded v3 blocks whose key range is uncontended
                // splice straight into the output segment.
                let mut stream = BlockMergeStream::new(&raws, config.key_semantics.as_ref())?;
                loop {
                    match stream.next_item()? {
                        None => break,
                        Some(MergeItem::Record(key, value)) => writer.append(key, value),
                        Some(MergeItem::Block(blk)) => {
                            counters.add(Counter::BlocksSkipped, 1);
                            writer.append_encoded_block(&blk)?;
                        }
                    }
                }
                metrics.record(Metric::MergeCompareCalls, stream.compare_calls());
                let seg = writer.close();
                codec_nanos += seg.compress_nanos;
                counters.add(Counter::CompressNanos, seg.compress_nanos);
                sample_compress(metrics, &seg);
                out.push((partition, seg));
            }
        }
    }
    let merge_nanos = clock::since(merge_t0);
    counters.add(Counter::SpillNanos, merge_nanos.saturating_sub(codec_nanos));
    Ok(out)
}

/// One reduce task: stream this reducer's segments through a k-way
/// merge, apply the §IV-B sort-split hook lazily per overlap window,
/// group, and run the user reduce function. Grouping and reduce consume
/// records as the merge heap yields them; nothing is materialized as a
/// whole run. Tallies and samples go to the attempt's banks, as in
/// [`run_map_task`].
pub(crate) fn run_reduce_task(
    config: &JobConfig,
    task: usize,
    segments: &[impl AsRef<[u8]>],
    reducer: &dyn Reducer,
    counters: &Counters,
    metrics: &mut MetricsBank,
) -> Result<Vec<KvPair>, MrError> {
    let ks = &config.key_semantics;
    let mut raws = Vec::with_capacity(segments.len());
    {
        let _fetch_span = crate::span!(Phase::ShuffleFetch, task);
        for seg in segments {
            let seg = seg.as_ref();
            metrics.record(Metric::ShuffleSegmentBytes, seg.len() as u64);
            let r = open_segment(seg, config, metrics)?;
            counters.add(Counter::DecompressNanos, r.decompress_nanos);
            raws.push(r);
        }
    }
    let merge_t0 = clock::thread_cpu_nanos();
    let merge_span = crate::span!(Phase::Merge, task);
    metrics.record(Metric::MergeFanIn, raws.len() as u64);
    let mut stream = BlockMergeStream::new(&raws, ks.as_ref())?;
    let mut groups = GroupRunner::new(task, reducer);

    if !ks.sort_splits() {
        // Fast path: keys never rewrite, so groups form directly on the
        // merged stream. Group keys are copied into the batch's buffer (a
        // key borrow dies at the next `next()` call); values stay
        // borrowed from the segments.
        let mut batch = GroupBatch::default();
        while let Some((key, value)) = stream.next()? {
            if !batch.continues_group(ks.as_ref(), key) {
                if batch.len() == REDUCE_BATCH_GROUPS {
                    groups.run(&mut batch, metrics);
                }
                batch.start_group(key);
            }
            batch.push_value(value);
        }
        groups.run(&mut batch, metrics);
    } else {
        // Windowed path: records accumulate only while they can still
        // interact under `sort_split`; each window is split, re-sorted if
        // the split disturbed the order, and grouped — instead of
        // materializing and re-sorting the entire run.
        let mut window: Vec<KvPair> = Vec::new();
        let mut flush = |window: &mut Vec<KvPair>| {
            let _split_span = crate::span!(Phase::SortSplit, task);
            let before = window.len();
            metrics.record(Metric::SortSplitWindowRecords, before as u64);
            let mut records = ks.sort_split(std::mem::take(window));
            if records.len() > before {
                counters.add(Counter::SortSplitRecords, (records.len() - before) as u64);
            }
            // Skip the re-sort when nothing split and the order survived.
            let sorted = records
                .windows(2)
                .all(|w| ks.compare(&w[0].key, &w[1].key) != std::cmp::Ordering::Greater);
            if records.len() != before || !sorted {
                sort_pairs(&mut records, ks.as_ref());
            }
            // One batch per window: its values borrow the window's records.
            let mut batch = GroupBatch::default();
            for record in &records {
                if !batch.continues_group(ks.as_ref(), &record.key) {
                    batch.start_group(&record.key);
                }
                batch.push_value(&record.value);
            }
            groups.run(&mut batch, metrics);
        };
        // Window members that can still interact with future records; a
        // member failing against one record can never interact again (the
        // closure contract), so it is pruned from all future checks.
        let mut frontier: Vec<usize> = Vec::new();
        while let Some((key, value)) = stream.next()? {
            if !window.is_empty() {
                frontier.retain(|&i| ks.sort_interacts(&window[i].key, key));
                if frontier.is_empty() {
                    flush(&mut window);
                }
            }
            frontier.push(window.len());
            window.push(KvPair::new(key, value));
        }
        if !window.is_empty() {
            flush(&mut window);
        }
    }
    metrics.record(Metric::MergeCompareCalls, stream.compare_calls());
    drop(merge_span);
    // The reduce function's share is what the batch runs measured; the
    // rest of the loop's thread CPU is merging, splitting and grouping.
    let total_nanos = clock::since(merge_t0);
    counters.add(
        Counter::MergeNanos,
        total_nanos.saturating_sub(groups.reduce_nanos),
    );
    counters.add(Counter::ReduceFnNanos, groups.reduce_nanos);
    counters.add(Counter::ReduceInputGroups, groups.input_groups);
    counters.add(Counter::ReduceInputRecords, groups.input_records);
    counters.add(Counter::ReduceOutputRecords, groups.out.len() as u64);
    counters.add(Counter::ReduceOutputBytes, groups.output_bytes);
    Ok(groups.out)
}

/// Key groups a reduce task runs its reduce function over in one go, so
/// the thread-CPU clock is read per batch instead of around every group.
const REDUCE_BATCH_GROUPS: usize = 64;

/// Key groups formed on the merged stream and not yet reduced. Keys are
/// copied into one reused buffer; values are borrowed (`'v`) from
/// wherever the records live.
#[derive(Default)]
struct GroupBatch<'v> {
    keys: Vec<u8>,
    values: Vec<&'v [u8]>,
    /// Per group, where its key starts in `keys` and its values start in
    /// `values`; it ends where the next group starts.
    starts: Vec<(usize, usize)>,
}

impl<'v> GroupBatch<'v> {
    fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether `key` belongs to the group started last.
    fn continues_group(&self, ks: &dyn crate::keysem::KeySemantics, key: &[u8]) -> bool {
        self.starts
            .last()
            .is_some_and(|&(key_start, _)| ks.group_eq(&self.keys[key_start..], key))
    }

    fn start_group(&mut self, key: &[u8]) {
        self.starts.push((self.keys.len(), self.values.len()));
        self.keys.extend_from_slice(key);
    }

    /// Add a value to the group started last.
    fn push_value(&mut self, value: &'v [u8]) {
        self.values.push(value);
    }

    /// The groups in order: `(key, values)`.
    fn groups(&self) -> impl Iterator<Item = (&[u8], &[&'v [u8]])> {
        let ends = self
            .starts
            .iter()
            .skip(1)
            .copied()
            .chain([(self.keys.len(), self.values.len())]);
        self.starts
            .iter()
            .zip(ends)
            .map(|(&(k0, v0), (k1, v1))| (&self.keys[k0..k1], &self.values[v0..v1]))
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
        self.starts.clear();
    }
}

/// Runs the reduce function over batches of groups for one reduce task,
/// collecting its output and the task-local tallies that reach the
/// counter bank once, when the task body succeeds.
struct GroupRunner<'r> {
    task: usize,
    reducer: &'r dyn Reducer,
    out: Vec<KvPair>,
    input_groups: u64,
    input_records: u64,
    output_bytes: u64,
    /// Whether values per group are sampled: only while a recorder is
    /// attached.
    sample_groups: bool,
    /// Thread CPU spent inside [`GroupRunner::run`]: the reduce function
    /// and the collection of what it emits.
    reduce_nanos: u64,
}

impl<'r> GroupRunner<'r> {
    fn new(task: usize, reducer: &'r dyn Reducer) -> Self {
        GroupRunner {
            task,
            reducer,
            out: Vec::new(),
            input_groups: 0,
            input_records: 0,
            output_bytes: 0,
            sample_groups: obs::recording(),
            reduce_nanos: 0,
        }
    }

    /// Reduce every group of `batch`, in order, and empty it.
    fn run(&mut self, batch: &mut GroupBatch<'_>, metrics: &mut MetricsBank) {
        if batch.len() == 0 {
            return;
        }
        let _batch_span = crate::span!(Phase::ReduceGroup, self.task);
        let fn_t0 = clock::thread_cpu_nanos();
        let (out, output_bytes) = (&mut self.out, &mut self.output_bytes);
        let mut emit = |k: &[u8], v: &[u8]| {
            *output_bytes += (k.len() + v.len()) as u64;
            out.push(KvPair::new(k, v));
        };
        for (key, values) in batch.groups() {
            if self.sample_groups {
                metrics.record(Metric::ReduceGroupValues, values.len() as u64);
            }
            self.reducer.reduce(key, values, &mut emit);
        }
        self.reduce_nanos += clock::since(fn_t0);
        self.input_groups += batch.len() as u64;
        self.input_records += batch.values.len() as u64;
        batch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::record::{FnMapper, FnReducer};
    use scihadoop_compress::DeflateCodec;

    /// Word-count-shaped job: identity map, counting reduce.
    fn count_job(config: JobConfig, words: &[&str]) -> JobResult {
        let splits: Vec<InputSplit> = words
            .chunks(100)
            .map(|chunk| {
                InputSplit::new(
                    chunk
                        .iter()
                        .map(|w| KvPair::new(w.as_bytes().to_vec(), vec![1u8]))
                        .collect(),
                )
            })
            .collect();
        let mapper = Arc::new(FnMapper(
            |k: &[u8], v: &[u8], out: &mut dyn crate::record::Emit| {
                out.emit(k, v);
            },
        ));
        let reducer = Arc::new(FnReducer(
            |k: &[u8], values: &[&[u8]], out: &mut dyn crate::record::Emit| {
                let total: u64 = values.iter().map(|v| v.len() as u64).sum();
                out.emit(k, &total.to_be_bytes());
            },
        ));
        Job::new(config).run(splits, mapper, reducer).unwrap()
    }

    fn collect_counts(result: &JobResult) -> std::collections::HashMap<String, u64> {
        result
            .all_outputs()
            .into_iter()
            .map(|p| {
                (
                    String::from_utf8(p.key.into()).unwrap(),
                    u64::from_be_bytes(p.value[..].try_into().unwrap()),
                )
            })
            .collect()
    }

    #[test]
    fn word_count_end_to_end() {
        let words = ["a", "b", "a", "c", "b", "a", "d"];
        let result = count_job(JobConfig::default().with_reducers(3), &words);
        let counts = collect_counts(&result);
        assert_eq!(counts["a"], 3);
        assert_eq!(counts["b"], 2);
        assert_eq!(counts["c"], 1);
        assert_eq!(counts["d"], 1);
        assert_eq!(result.counters.get(Counter::MapInputRecords), 7);
        assert_eq!(result.counters.get(Counter::MapOutputRecords), 7);
        assert_eq!(result.counters.get(Counter::ReduceInputGroups), 4);
    }

    #[test]
    fn outputs_are_sorted_within_each_reducer() {
        let words = ["q", "m", "z", "a", "f", "b", "x", "c"];
        let result = count_job(JobConfig::default().with_reducers(2), &words);
        for out in &result.outputs {
            assert!(out.windows(2).all(|w| w[0].key <= w[1].key));
        }
    }

    #[test]
    fn compressing_codec_reduces_materialized_bytes() {
        // A hundred distinct keys per split: a v3 segment of twenty
        // grouped keys is too small for deflate's framing to pay.
        let words: Vec<String> = (0..500).map(|i| format!("key{:04}", i % 100)).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let plain = count_job(JobConfig::default(), &refs);
        let zipped = count_job(
            JobConfig::default().with_codec(Arc::new(DeflateCodec::new())),
            &refs,
        );
        assert_eq!(collect_counts(&plain), collect_counts(&zipped));
        assert!(
            zipped.counters.get(Counter::MapOutputMaterializedBytes)
                < plain.counters.get(Counter::MapOutputMaterializedBytes)
        );
        assert_eq!(
            plain.counters.get(Counter::MapOutputBytes),
            zipped.counters.get(Counter::MapOutputBytes),
            "raw bytes must not depend on codec"
        );
    }

    #[test]
    fn combiner_shrinks_intermediate_records() {
        let words: Vec<String> = (0..300).map(|i| format!("w{}", i % 5)).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let combiner = Arc::new(FnReducer(
            |k: &[u8], values: &[&[u8]], out: &mut dyn crate::record::Emit| {
                // Sum the 1-byte tallies into an 8-byte partial count.
                let total: u64 = values
                    .iter()
                    .map(|v| {
                        if v.len() == 1 {
                            v[0] as u64
                        } else {
                            u64::from_be_bytes((*v).try_into().unwrap())
                        }
                    })
                    .sum();
                out.emit(k, &total.to_be_bytes());
            },
        ));
        let splits: Vec<InputSplit> = refs
            .chunks(100)
            .map(|chunk| {
                InputSplit::new(
                    chunk
                        .iter()
                        .map(|w| KvPair::new(w.as_bytes().to_vec(), vec![1u8]))
                        .collect(),
                )
            })
            .collect();
        let mapper = Arc::new(FnMapper(
            |k: &[u8], v: &[u8], out: &mut dyn crate::record::Emit| out.emit(k, v),
        ));
        let reducer = Arc::new(FnReducer(
            |k: &[u8], values: &[&[u8]], out: &mut dyn crate::record::Emit| {
                let total: u64 = values
                    .iter()
                    .map(|v| {
                        if v.len() == 1 {
                            v[0] as u64
                        } else {
                            u64::from_be_bytes((*v).try_into().unwrap())
                        }
                    })
                    .sum();
                out.emit(k, &total.to_be_bytes());
            },
        ));
        let result = Job::new(JobConfig::default().with_combiner(combiner))
            .run(splits, mapper, reducer)
            .unwrap();
        let counts = collect_counts(&result);
        assert_eq!(counts.values().sum::<u64>(), 300);
        // 3 splits × 5 distinct words = at most 15 records materialized.
        assert!(result.counters.get(Counter::CombineOutputRecords) <= 15);
        assert_eq!(result.counters.get(Counter::CombineInputRecords), 300);
    }

    #[test]
    fn many_slots_agree_with_one_slot() {
        let words: Vec<String> = (0..200).map(|i| format!("k{}", i % 17)).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let serial = count_job(JobConfig::default().with_slots(1, 1), &refs);
        let parallel = count_job(
            JobConfig::default().with_slots(8, 4).with_reducers(4),
            &refs,
        );
        assert_eq!(collect_counts(&serial), collect_counts(&parallel));
    }

    #[test]
    fn small_spill_buffer_forces_multiple_spills() {
        let words: Vec<String> = (0..100).map(|i| format!("key-{i:03}")).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let result = count_job(JobConfig::default().with_spill_buffer(64), &refs);
        assert!(result.counters.get(Counter::Spills) > 1);
        assert_eq!(collect_counts(&result).len(), 100);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let result = count_job(JobConfig::default(), &[]);
        assert!(result.all_outputs().is_empty());
        assert_eq!(result.counters.get(Counter::MapInputRecords), 0);
    }

    #[test]
    fn v3_jobs_agree_with_v2_and_save_key_bytes() {
        let words: Vec<String> = (0..400).map(|i| format!("station-{:04}", i % 37)).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let v2 = count_job(
            JobConfig::default()
                .with_reducers(3)
                .with_ifile_version(IFileVersion::V2),
            &refs,
        );
        let v3 = count_job(
            JobConfig::default()
                .with_reducers(3)
                .with_ifile_version(IFileVersion::V3),
            &refs,
        );
        assert_eq!(collect_counts(&v2), collect_counts(&v3));
        for (a, b) in v2.outputs.iter().zip(&v3.outputs) {
            assert_eq!(a, b, "per-reducer order must match v2 exactly");
        }
        assert!(v3.counters.get(Counter::BlocksWritten) > 0);
        assert!(
            v3.counters.get(Counter::MapOutputKeySavedBytes) > 0,
            "shared key prefixes must front-code away"
        );
        assert_eq!(v2.counters.get(Counter::MapOutputKeySavedBytes), 0);
        // Logical key/value accounting is format-independent.
        assert_eq!(
            v2.counters.get(Counter::MapOutputKeyBytes),
            v3.counters.get(Counter::MapOutputKeyBytes)
        );
        assert_eq!(
            v2.counters.get(Counter::MapOutputValueBytes),
            v3.counters.get(Counter::MapOutputValueBytes)
        );
    }

    #[test]
    fn v3_multi_spill_merge_splices_blocks() {
        // A tiny spill buffer forces several spills per partition, so the
        // map-side merge runs over v3 segments; presorted shards give the
        // merge disjoint stretches where whole blocks splice through.
        let words: Vec<String> = (0..600).map(|i| format!("key-{i:05}")).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let v3 = count_job(
            JobConfig::default()
                .with_spill_buffer(2048)
                .with_ifile_version(IFileVersion::V3),
            &refs,
        );
        assert!(v3.counters.get(Counter::Spills) > 1);
        let counts = collect_counts(&v3);
        assert_eq!(counts.len(), 600);
        assert!(counts.values().all(|&c| c == 1));
        assert!(v3.counters.get(Counter::BlocksSkipped) <= v3.counters.get(Counter::BlocksWritten));
    }

    #[test]
    fn v1_jobs_still_agree() {
        let words = ["a", "b", "a", "c", "b", "a", "d"];
        let v1 = count_job(
            JobConfig::default()
                .with_reducers(2)
                .with_ifile_version(IFileVersion::V1),
            &words,
        );
        let counts = collect_counts(&v1);
        assert_eq!(counts["a"], 3);
        assert_eq!(counts["d"], 1);
    }

    #[test]
    fn v3_with_codec_and_retries_round_trips() {
        let words: Vec<String> = (0..300).map(|i| format!("sensor-{:03}", i % 29)).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let result = count_job(
            JobConfig::default()
                .with_reducers(2)
                .with_codec(Arc::new(DeflateCodec::new()))
                .with_retries(1)
                .with_ifile_version(IFileVersion::V3),
            &refs,
        );
        let counts = collect_counts(&result);
        assert_eq!(counts.values().sum::<u64>(), 300);
    }

    #[test]
    fn stats_reflect_counters() {
        let words = ["x", "y", "x"];
        let result = count_job(JobConfig::default(), &words);
        assert_eq!(
            result.stats.map_output_materialized_bytes,
            result.counters.get(Counter::MapOutputMaterializedBytes)
        );
        assert!(result.stats.map_wall_nanos > 0);
        assert_eq!(result.stats.num_maps, 1);
    }
}
