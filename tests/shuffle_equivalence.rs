//! Equivalence properties for the shuffle hot path.
//!
//! The engine's arena-backed spill and streaming k-way merge replaced a
//! materialize-everything reference pipeline (owned-pair `sort_by`,
//! `merge_sorted_runs`, whole-run `sort_split`). These properties pin the
//! engine to the reference semantics: byte-identical spill segments,
//! identical job outputs, and identical record/byte/split counters across
//! random workloads, spill thresholds, and key semantics (stock keys and
//! Z-order aggregate keys). The comparison-free sort paths (prefix radix
//! spill sort, loser-tree merge) are additionally pinned byte-identical
//! to their comparator references (`sort_partition_by_compare`,
//! `merge_sorted_runs`).

use proptest::collection::vec;
use proptest::prelude::*;
use scihadoop::compress::{Codec, DeflateCodec, IdentityCodec};
use scihadoop::core::aggregate::{AggregateKey, AggregateKeyOps, RangePartitioner};
use scihadoop::mapreduce::{
    for_each_group, merge_sorted_runs, BlockMergeStream, Counter, Emit, FnMapper, FnReducer,
    Framing, IFileReader, IFileVersion, IFileWriter, InputSplit, Job, JobConfig, KeySemantics,
    KvPair, MergeItem, RawSegment, SpillArena,
};
use scihadoop::sfc::CurveRun;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Reference pipeline: the engine's pre-arena semantics, reimplemented on
// the reference primitives the engine keeps for exactly this purpose.
// ---------------------------------------------------------------------------

/// One spilled segment: `(partition, data, raw, key, value, framing)` bytes.
type SpilledSegment = (usize, Vec<u8>, u64, u64, u64, u64);

/// A reduce function over one `(key, values)` group.
type RefReducer = dyn Fn(&[u8], &[&[u8]], &mut dyn Emit);

#[derive(Debug, Default, PartialEq, Eq)]
struct RefCounters {
    map_output_records: u64,
    route_split_records: u64,
    sort_split_records: u64,
    spills: u64,
    map_output_bytes: u64,
    map_output_key_bytes: u64,
    map_output_value_bytes: u64,
    map_output_framing_bytes: u64,
    map_output_materialized_bytes: u64,
    shuffle_bytes: u64,
    reduce_input_groups: u64,
    reduce_input_records: u64,
}

struct RefConfig {
    parts: usize,
    spill_threshold: usize,
    framing: Framing,
    codec: Arc<dyn Codec>,
    ks: Arc<dyn KeySemantics>,
}

/// Run one map task the pre-arena way: route into per-partition owned
/// pair vectors, spill (stable sort + write) past the threshold, merge
/// multi-spill partitions.
fn ref_map_task(cfg: &RefConfig, split: &[KvPair], c: &mut RefCounters) -> Vec<(usize, Vec<u8>)> {
    let mut staged: Vec<Vec<KvPair>> = (0..cfg.parts).map(|_| Vec::new()).collect();
    let mut payload = 0usize;
    let mut segments: Vec<SpilledSegment> = Vec::new();

    let mut spill =
        |staged: &mut Vec<Vec<KvPair>>, payload: &mut usize, segments: &mut Vec<SpilledSegment>| {
            if *payload == 0 {
                return;
            }
            c.spills += 1;
            for (partition, pairs) in staged.iter_mut().enumerate() {
                if pairs.is_empty() {
                    continue;
                }
                let mut run = std::mem::take(pairs);
                run.sort_by(|a, b| cfg.ks.compare(&a.key, &b.key));
                let mut w = IFileWriter::new(cfg.framing, cfg.codec.clone());
                for p in &run {
                    w.append_pair(p);
                }
                let seg = w.close();
                segments.push((
                    partition,
                    seg.data.clone(),
                    seg.raw_bytes,
                    seg.key_bytes,
                    seg.value_bytes,
                    seg.framing_bytes(),
                ));
            }
            *payload = 0;
        };

    for record in split {
        let routed = cfg.ks.route(record.clone(), cfg.parts);
        if routed.len() > 1 {
            c.route_split_records += routed.len() as u64 - 1;
        }
        for (partition, pair) in routed {
            c.map_output_records += 1;
            payload += pair.key.len() + pair.value.len();
            staged[partition].push(pair);
        }
        if payload >= cfg.spill_threshold {
            spill(&mut staged, &mut payload, &mut segments);
        }
    }
    spill(&mut staged, &mut payload, &mut segments);

    // Merge multi-spill partitions (decompress, k-way merge, rewrite).
    let multi = (0..cfg.parts).any(|p| segments.iter().filter(|(sp, ..)| *sp == p).count() > 1);
    if multi {
        let mut merged: Vec<(usize, Vec<u8>, u64, u64, u64, u64)> = Vec::new();
        for p in 0..cfg.parts {
            let mine: Vec<_> = segments.iter().filter(|(sp, ..)| *sp == p).collect();
            match mine.len() {
                0 => {}
                1 => merged.push(mine[0].clone()),
                _ => {
                    let runs: Vec<Vec<KvPair>> = mine
                        .iter()
                        .map(|(_, data, ..)| {
                            IFileReader::open(data, cfg.codec.as_ref())
                                .expect("segment reads back")
                                .into_records()
                        })
                        .collect();
                    let run = merge_sorted_runs(runs, cfg.ks.as_ref());
                    let mut w = IFileWriter::new(cfg.framing, cfg.codec.clone());
                    for pair in &run {
                        w.append_pair(pair);
                    }
                    let seg = w.close();
                    merged.push((
                        p,
                        seg.data.clone(),
                        seg.raw_bytes,
                        seg.key_bytes,
                        seg.value_bytes,
                        seg.framing_bytes(),
                    ));
                }
            }
        }
        segments = merged;
    }

    for (_, data, raw, key, value, framing) in &segments {
        c.map_output_bytes += raw;
        c.map_output_key_bytes += key;
        c.map_output_value_bytes += value;
        c.map_output_framing_bytes += framing;
        c.map_output_materialized_bytes += data.len() as u64;
    }
    segments
        .into_iter()
        .map(|(p, data, ..)| (p, data))
        .collect()
}

/// Run one reduce task the pre-arena way: materialize every run, k-way
/// merge, whole-run `sort_split`, re-sort, group, reduce.
fn ref_reduce_task(
    cfg: &RefConfig,
    segments: Vec<Vec<u8>>,
    reducer: &RefReducer,
    c: &mut RefCounters,
) -> Vec<KvPair> {
    let runs: Vec<Vec<KvPair>> = segments
        .iter()
        .map(|data| {
            IFileReader::open(data, cfg.codec.as_ref())
                .expect("segment reads back")
                .into_records()
        })
        .collect();
    let merged = merge_sorted_runs(runs, cfg.ks.as_ref());
    let before = merged.len();
    let mut records = cfg.ks.sort_split(merged);
    if records.len() > before {
        c.sort_split_records += (records.len() - before) as u64;
    }
    records.sort_by(|a, b| cfg.ks.compare(&a.key, &b.key));
    let mut out = Vec::new();
    for_each_group(&records, cfg.ks.as_ref(), |key, values| {
        c.reduce_input_groups += 1;
        c.reduce_input_records += values.len() as u64;
        reducer(key, values, &mut |k: &[u8], v: &[u8]| {
            out.push(KvPair::new(k.to_vec(), v.to_vec()));
        });
    });
    out
}

/// The full reference job over `splits` with an identity mapper.
fn ref_job(
    cfg: &RefConfig,
    splits: &[Vec<KvPair>],
    reducer: &RefReducer,
) -> (Vec<Vec<KvPair>>, RefCounters) {
    let mut c = RefCounters::default();
    let mut per_reducer: Vec<Vec<Vec<u8>>> = (0..cfg.parts).map(|_| Vec::new()).collect();
    for split in splits {
        for (partition, data) in ref_map_task(cfg, split, &mut c) {
            per_reducer[partition].push(data);
        }
    }
    for segments in &per_reducer {
        c.shuffle_bytes += segments.iter().map(|s| s.len() as u64).sum::<u64>();
    }
    let outputs = per_reducer
        .into_iter()
        .map(|segments| ref_reduce_task(cfg, segments, reducer, &mut c))
        .collect();
    (outputs, c)
}

/// Run the engine on the same inputs (serial slots so segment order is
/// the split order, as in the reference).
fn engine_job(cfg: &RefConfig, splits: &[Vec<KvPair>]) -> scihadoop::mapreduce::JobResult {
    let config = JobConfig::default()
        .with_reducers(cfg.parts)
        .with_slots(1, 1)
        .with_codec(cfg.codec.clone())
        .with_key_semantics(cfg.ks.clone())
        .with_framing(cfg.framing)
        // The reference does Hadoop's per-record framing arithmetic.
        .with_ifile_version(IFileVersion::V2)
        .with_spill_buffer(cfg.spill_threshold);
    let mapper = Arc::new(FnMapper(|k: &[u8], v: &[u8], out: &mut dyn Emit| {
        out.emit(k, v);
    }));
    let reducer = Arc::new(FnReducer(concat_reducer));
    Job::new(config)
        .run(
            splits
                .iter()
                .map(|records| InputSplit::new(records.clone()))
                .collect(),
            mapper,
            reducer,
        )
        .expect("engine job runs")
}

/// Reducer whose output depends on the exact grouping and value order:
/// key → value count ++ concatenated values.
fn concat_reducer(key: &[u8], values: &[&[u8]], out: &mut dyn Emit) {
    let mut payload = (values.len() as u32).to_be_bytes().to_vec();
    for v in values {
        payload.extend_from_slice(v);
    }
    out.emit(key, &payload);
}

fn assert_engine_matches_reference(cfg: &RefConfig, splits: &[Vec<KvPair>]) {
    let (ref_outputs, ref_c) = ref_job(cfg, splits, &concat_reducer);
    let result = engine_job(cfg, splits);
    assert_eq!(result.outputs, ref_outputs, "job outputs diverged");
    let get = |counter| result.counters.get(counter);
    let actual = RefCounters {
        map_output_records: get(Counter::MapOutputRecords),
        route_split_records: get(Counter::RouteSplitRecords),
        sort_split_records: get(Counter::SortSplitRecords),
        spills: get(Counter::Spills),
        map_output_bytes: get(Counter::MapOutputBytes),
        map_output_key_bytes: get(Counter::MapOutputKeyBytes),
        map_output_value_bytes: get(Counter::MapOutputValueBytes),
        map_output_framing_bytes: get(Counter::MapOutputFramingBytes),
        map_output_materialized_bytes: get(Counter::MapOutputMaterializedBytes),
        shuffle_bytes: get(Counter::ShuffleBytes),
        reduce_input_groups: get(Counter::ReduceInputGroups),
        reduce_input_records: get(Counter::ReduceInputRecords),
    };
    assert_eq!(actual, ref_c, "counters diverged");
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Small keys from a narrow alphabet (collisions likely) + short values.
fn plain_splits(keys: &[(u8, u8)], values: &[Vec<u8>], num_splits: usize) -> Vec<Vec<KvPair>> {
    let records: Vec<KvPair> = keys
        .iter()
        .zip(values.iter().cycle())
        .map(|(&(a, b), v)| KvPair::new(vec![b'k', a % 8, b % 4], v.clone()))
        .collect();
    let chunk = records.len().div_ceil(num_splits).max(1);
    records.chunks(chunk).map(|c| c.to_vec()).collect()
}

/// Aggregate-key records: random (variable, start, len) runs over a
/// small curve span so runs overlap and cross partition boundaries.
fn aggregate_splits(runs: &[(u8, u8, u8)], width: usize, num_splits: usize) -> Vec<Vec<KvPair>> {
    let records: Vec<KvPair> = runs
        .iter()
        .map(|&(var, start, len)| {
            let start = start as u128 % 120;
            let len = 1 + len as u128 % 12;
            let key = AggregateKey::new(
                var as u32 % 2,
                CurveRun {
                    start,
                    end: start + len - 1,
                },
            );
            let values: Vec<u8> = (0..len as usize * width)
                .map(|i| (start as usize + i) as u8)
                .collect();
            KvPair::new(key.to_bytes(), values)
        })
        .collect();
    let chunk = records.len().div_ceil(num_splits).max(1);
    records.chunks(chunk).map(|c| c.to_vec()).collect()
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Map side, in isolation: staging through the arena and sorting its
    /// index produces byte-identical segments to staging owned pairs and
    /// sorting them.
    #[test]
    fn arena_segments_are_byte_identical_to_pair_sorting(
        keys in vec((any::<u8>(), any::<u8>()), 1..150),
        values in vec(vec(any::<u8>(), 0..10), 1..20),
        parts in 1usize..5,
    ) {
        let ks = scihadoop::mapreduce::DefaultKeySemantics;
        let codec: Arc<dyn Codec> = Arc::new(IdentityCodec);
        let mut arena = SpillArena::new(parts);
        let mut staged: Vec<Vec<KvPair>> = (0..parts).map(|_| Vec::new()).collect();
        for (&(a, b), v) in keys.iter().zip(values.iter().cycle()) {
            let key = vec![a % 16, b];
            let p = ks.partition(&key, parts);
            arena.append(p, &key, v);
            staged[p].push(KvPair::new(key, v.clone()));
        }
        for (p, run) in staged.iter_mut().enumerate() {
            arena.sort_partition(p, &ks);
            run.sort_by(|a, b| ks.compare(&a.key, &b.key));

            let mut wa = IFileWriter::new(Framing::IFile, codec.clone());
            for (k, v) in arena.pairs(p) {
                wa.append(k, v);
            }
            let mut wr = IFileWriter::new(Framing::IFile, codec.clone());
            for pair in run.iter() {
                wr.append_pair(pair);
            }
            let (sa, sr) = (wa.close(), wr.close());
            prop_assert_eq!(&sa.data, &sr.data, "partition {} bytes", p);
            prop_assert_eq!(sa.records, sr.records);
            prop_assert_eq!(sa.key_bytes, sr.key_bytes);
            prop_assert_eq!(sa.value_bytes, sr.value_bytes);
        }
    }

    /// Whole pipeline, stock key semantics: outputs and counters match
    /// the reference across random spill thresholds and split counts.
    #[test]
    fn engine_matches_reference_on_plain_keys(
        keys in vec((any::<u8>(), any::<u8>()), 0..200),
        values in vec(vec(any::<u8>(), 0..12), 1..12),
        parts in 1usize..4,
        num_splits in 1usize..4,
        threshold in 8usize..2048,
        deflate in any::<bool>(),
    ) {
        let cfg = RefConfig {
            parts,
            spill_threshold: threshold,
            framing: Framing::SequenceFile,
            codec: if deflate {
                Arc::new(DeflateCodec::new())
            } else {
                Arc::new(IdentityCodec)
            },
            ks: Arc::new(scihadoop::mapreduce::DefaultKeySemantics),
        };
        let splits = plain_splits(&keys, &values, num_splits);
        assert_engine_matches_reference(&cfg, &splits);
    }

    /// Map-side radix spill sort vs the retained comparator sort: the
    /// `(prefix, index)` LSD radix path with tie-run fallback must be
    /// byte-identical (order *and* stability) to the stable comparator
    /// sort, for stock and aggregate key semantics alike.
    #[test]
    fn radix_spill_sort_is_byte_identical_to_comparator_sort(
        keys in vec((any::<u8>(), any::<u8>()), 1..200),
        runs in vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..60),
        aggregate in any::<bool>(),
    ) {
        let ks: Arc<dyn KeySemantics> = if aggregate {
            Arc::new(AggregateKeyOps::new(RangePartitioner::uniform(2, 256), 1))
        } else {
            Arc::new(scihadoop::mapreduce::DefaultKeySemantics)
        };
        let records: Vec<KvPair> = if aggregate {
            aggregate_splits(&runs, 1, 1).remove(0)
        } else {
            plain_splits(&keys, &[vec![9u8]], 1).remove(0)
        };
        let mut fast = SpillArena::new(1);
        let mut reference = SpillArena::new(1);
        for (i, r) in records.iter().enumerate() {
            // Distinct values expose any stability difference.
            let tag = (i as u32).to_be_bytes();
            fast.append(0, &r.key, &tag);
            reference.append(0, &r.key, &tag);
        }
        fast.sort_partition(0, ks.as_ref());
        reference.sort_partition_by_compare(0, ks.as_ref());
        let fast_pairs: Vec<(Vec<u8>, Vec<u8>)> =
            fast.pairs(0).map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        let ref_pairs: Vec<(Vec<u8>, Vec<u8>)> =
            reference.pairs(0).map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        prop_assert_eq!(fast_pairs, ref_pairs);
    }

    /// The engine's one merge vs the materializing reference, over
    /// flat-only, block-only and mixed fan-ins: `BlockMergeStream` must
    /// yield exactly `merge_sorted_runs`' sequence — including the
    /// tie-break toward the lower run id on keys duplicated across runs,
    /// uneven and empty runs, and v3 block budgets from one record per
    /// block up — through both `next()` and `next_item()`.
    #[test]
    fn merge_stream_matches_materializing_merge(
        keys in vec((any::<u8>(), any::<u8>()), 1..200),
        runs in vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..60),
        deal in vec(0usize..6, 1..40),
        formats in vec(0usize..4, 6),
        aggregate in any::<bool>(),
    ) {
        let ks: Arc<dyn KeySemantics> = if aggregate {
            Arc::new(AggregateKeyOps::new(RangePartitioner::uniform(2, 256), 1))
        } else {
            Arc::new(scihadoop::mapreduce::DefaultKeySemantics)
        };
        let records: Vec<KvPair> = if aggregate {
            aggregate_splits(&runs, 1, 1).remove(0)
        } else {
            plain_splits(&keys, &[vec![9u8]], 1).remove(0)
        };
        // Deal records into six runs by a random pattern (so some runs
        // stay short or empty), tagging values so any cross-run
        // tie-break difference shows up.
        let codec: Arc<dyn Codec> = Arc::new(IdentityCodec);
        let mut sorted_runs: Vec<Vec<KvPair>> = (0..6).map(|_| Vec::new()).collect();
        for (i, r) in records.iter().enumerate() {
            sorted_runs[deal[i % deal.len()]]
                .push(KvPair::new(r.key.clone(), (i as u32).to_be_bytes().to_vec()));
        }
        for run in &mut sorted_runs {
            run.sort_by(|a, b| ks.compare(&a.key, &b.key));
        }
        // Per run: 0 = flat v2, 1 = flat v1, 2/3 = v3 at a small budget.
        let sealed: Vec<Vec<u8>> = sorted_runs
            .iter()
            .zip(&formats)
            .map(|(run, &format)| {
                let mut w = match format {
                    0 => IFileWriter::new(Framing::IFile, codec.clone()),
                    1 => IFileWriter::without_trailer(Framing::IFile, codec.clone()),
                    2 => IFileWriter::v3_with_budget(Framing::IFile, codec.clone(), ks.clone(), 1),
                    _ => IFileWriter::v3_with_budget(Framing::IFile, codec.clone(), ks.clone(), 96),
                };
                for p in run {
                    w.append_pair(p);
                }
                w.close().data
            })
            .collect();
        let segments: Vec<RawSegment> = sealed
            .iter()
            .map(|s| RawSegment::open(s, codec.as_ref()).expect("segment reads back"))
            .collect();
        let mut by_record = Vec::new();
        let mut stream = BlockMergeStream::new(&segments, ks.as_ref()).expect("merge opens");
        while let Some((k, v)) = stream.next().expect("merge streams") {
            by_record.push(KvPair::new(k.to_vec(), v.to_vec()));
        }
        let mut by_item = Vec::new();
        let mut stream = BlockMergeStream::new(&segments, ks.as_ref()).expect("merge opens");
        while let Some(item) = stream.next_item().expect("merge streams") {
            match item {
                MergeItem::Record(k, v) => by_item.push(KvPair::new(k.to_vec(), v.to_vec())),
                MergeItem::Block(blk) => blk
                    .for_each_record(|k, v| by_item.push(KvPair::new(k.to_vec(), v.to_vec())))
                    .expect("spliced block decodes"),
            }
        }
        let materialized = merge_sorted_runs(sorted_runs, ks.as_ref());
        prop_assert_eq!(&by_record, &materialized, "next() vs materializing merge");
        prop_assert_eq!(&by_item, &materialized, "next_item() vs materializing merge");
    }

    /// Whole pipeline, Z-order aggregate keys: route splits, overlap
    /// sort-splits and their counters match the reference. This pins the
    /// lazy windowed `sort_split` (and its skip-the-resort fast path) to
    /// the whole-run reference semantics.
    #[test]
    fn engine_matches_reference_on_aggregate_keys(
        runs in vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..80),
        parts in 1usize..4,
        num_splits in 1usize..4,
        threshold in 8usize..4096,
        width in 1usize..3,
    ) {
        let partitioner = RangePartitioner::uniform(parts, 256);
        let cfg = RefConfig {
            parts,
            spill_threshold: threshold,
            framing: Framing::IFile,
            codec: Arc::new(IdentityCodec),
            ks: Arc::new(AggregateKeyOps::new(partitioner, width)),
        };
        let splits = aggregate_splits(&runs, width, num_splits);
        assert_engine_matches_reference(&cfg, &splits);
    }
}
