//! Equivalence properties for the shuffle hot path.
//!
//! The engine's arena-backed spill and streaming k-way merge replaced a
//! materialize-everything reference pipeline (owned-pair `sort_by`, a
//! k-way merge of owned runs, whole-run `sort_split`). These properties
//! pin the engine to the reference semantics: byte-identical spill
//! segments, identical job outputs, and identical record/byte/split
//! counters across random workloads, spill thresholds, and key semantics
//! (stock keys and Z-order aggregate keys). The comparison-free sort
//! paths (prefix radix spill sort, loser-tree merge) are additionally
//! pinned byte-identical to the standard library's stable comparator
//! sort: of a partition's staged pairs, and of sorted runs concatenated
//! in run order.

use proptest::collection::vec;
use proptest::prelude::*;
use scihadoop::compress::{Codec, DeflateCodec, IdentityCodec};
use scihadoop::core::aggregate::{AggregateKey, AggregateKeyOps, RangePartitioner};
use scihadoop::mapreduce::{
    bytewise_sort_prefix_wide, for_each_group, sort_pairs, BlockMergeStream, Counter,
    DefaultKeySemantics, Emit, FnMapper, FnReducer, Framing, IFileVersion, IFileWriter, InputSplit,
    Job, JobConfig, KeySemantics, KvPair, MergeItem, RawSegment, SpillArena,
};
use scihadoop::sfc::CurveRun;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Reference pipeline: the engine's pre-arena semantics, reimplemented on
// owned pairs and the standard library's stable sort.
// ---------------------------------------------------------------------------

/// Every record of a segment in file order, as owned pairs.
fn read_records(data: &[u8], codec: &dyn Codec) -> Vec<KvPair> {
    let raw = RawSegment::open(data, codec).expect("segment reads back");
    let mut out = Vec::new();
    raw.for_each_record(|k, v| out.push(KvPair::new(k.to_vec(), v.to_vec())))
        .expect("segment reads back");
    out
}

/// The merge oracle: sorted runs concatenated in run order and
/// stable-sorted, so a key tied across runs keeps the lower run first —
/// the engine merge's tie-break.
fn stable_merged(runs: Vec<Vec<KvPair>>, ks: &dyn KeySemantics) -> Vec<KvPair> {
    let mut all: Vec<KvPair> = runs.into_iter().flatten().collect();
    all.sort_by(|a, b| ks.compare(&a.key, &b.key));
    all
}

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
    combine_input_records: u64,
    combine_output_records: u64,
}

struct RefConfig {
    parts: usize,
    spill_threshold: usize,
    framing: Framing,
    codec: Arc<dyn Codec>,
    ks: Arc<dyn KeySemantics>,
    /// Run [`concat_reducer`] as the combiner on every sorted spill.
    combine: bool,
}

/// Run one map task the pre-arena way: route into per-partition owned
/// pair vectors, spill (stable sort, combine and stable sort again +
/// write) past the threshold, merge multi-spill partitions.
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
                if cfg.combine {
                    let mut combined = Vec::new();
                    for_each_group(&run, cfg.ks.as_ref(), |key, values| {
                        concat_reducer(key, values, &mut |k: &[u8], v: &[u8]| {
                            combined.push(KvPair::new(k.to_vec(), v.to_vec()));
                        });
                    });
                    c.combine_input_records += run.len() as u64;
                    c.combine_output_records += combined.len() as u64;
                    run = combined;
                    run.sort_by(|a, b| cfg.ks.compare(&a.key, &b.key));
                }
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
        let mut routed = Vec::new();
        cfg.ks
            .route_slices(&record.key, &record.value, cfg.parts, &mut |p, k, v| {
                routed.push((p, KvPair::new(k.to_vec(), v.to_vec())));
            });
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
                        .map(|(_, data, ..)| read_records(data, cfg.codec.as_ref()))
                        .collect();
                    let run = stable_merged(runs, cfg.ks.as_ref());
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
        .map(|data| read_records(data, cfg.codec.as_ref()))
        .collect();
    let merged = stable_merged(runs, cfg.ks.as_ref());
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
    let mut config = JobConfig::default()
        .with_reducers(cfg.parts)
        .with_slots(1, 1)
        .with_codec(cfg.codec.clone())
        .with_key_semantics(cfg.ks.clone())
        .with_framing(cfg.framing)
        // The reference does Hadoop's per-record framing arithmetic.
        .with_ifile_version(IFileVersion::V2)
        .with_spill_buffer(cfg.spill_threshold);
    if cfg.combine {
        config = config.with_combiner(Arc::new(FnReducer(concat_reducer)));
    }
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
        combine_input_records: get(Counter::CombineInputRecords),
        combine_output_records: get(Counter::CombineOutputRecords),
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

/// The keys one map task of the sliding-window query emits over the
/// `rows x cols` block at `(r0, c0)`, in emission order: every cell
/// writes the nine window centres around it, so a `[variable][row][col]`
/// key arrives up to nine times, scattered over three input rows, and
/// both coordinates reach one cell outside the block (−1 from an origin
/// at 0 — `FF FF FF FF`, which bytewise order puts last). A tall block
/// is one of the benchmark's column strips, a wide one a row strip.
/// Keys wider than 12 bytes end in the emitting window slot: inside the
/// 16-byte wide key at `width == 16`, past it at 20 — and arriving in
/// descending order, so some sort has to move it.
fn window_keys(rows: i32, cols: i32, r0: i32, c0: i32, width: usize) -> Vec<Vec<u8>> {
    let mut keys = Vec::new();
    for r in r0..r0 + rows {
        for c in c0..c0 + cols {
            for (slot, (dr, dc)) in (-1..=1)
                .flat_map(|dr| (-1..=1).map(move |dc| (dr, dc)))
                .enumerate()
            {
                let mut key = vec![0u8; width];
                key[4..8].copy_from_slice(&(r + dr).to_be_bytes());
                key[8..12].copy_from_slice(&(c + dc).to_be_bytes());
                if width > 12 {
                    key[width - 1] = 8 - slot as u8;
                }
                keys.push(key);
            }
        }
    }
    keys
}

/// Default semantics that count comparator calls, and those on two keys
/// whose first 16 bytes differ — calls a 16-byte wide key should have
/// decided alone.
#[derive(Default)]
struct CountingCompares {
    calls: AtomicU64,
    undecided: AtomicU64,
}

impl KeySemantics for CountingCompares {
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        self.calls.fetch_add(1, Relaxed);
        if a[..a.len().min(16)] != b[..b.len().min(16)] {
            self.undecided.fetch_add(1, Relaxed);
        }
        a.cmp(b)
    }
    fn partition(&self, key: &[u8], parts: usize) -> usize {
        DefaultKeySemantics.partition(key, parts)
    }
}

/// Bytewise order behind a coarser wide key than the bytewise one — the
/// first 8 key bytes — which the contract allows. It is not the tag the
/// arena stages, so the spill sort has to re-tag.
struct HighWordOnly;

impl KeySemantics for HighWordOnly {
    fn sort_prefix_wide(&self, key: &[u8]) -> u128 {
        bytewise_sort_prefix_wide(key) >> 64 << 64
    }
    fn partition(&self, key: &[u8], parts: usize) -> usize {
        DefaultKeySemantics.partition(key, parts)
    }
}

/// Reversed bytewise order, with the complement of the bytewise wide key
/// (order-preserving for it).
struct ReverseOrder;

impl KeySemantics for ReverseOrder {
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        b.cmp(a)
    }
    fn sort_prefix_wide(&self, key: &[u8]) -> u128 {
        !bytewise_sort_prefix_wide(key)
    }
    fn partition(&self, key: &[u8], parts: usize) -> usize {
        DefaultKeySemantics.partition(key, parts)
    }
}

/// The stock semantics, or one of the two above.
fn semantics(which: usize) -> Arc<dyn KeySemantics> {
    match which {
        0 => Arc::new(DefaultKeySemantics),
        1 => Arc::new(HighWordOnly),
        _ => Arc::new(ReverseOrder),
    }
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
        let ks = DefaultKeySemantics;
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
            ks: Arc::new(DefaultKeySemantics),
            combine: false,
        };
        let splits = plain_splits(&keys, &values, num_splits);
        assert_engine_matches_reference(&cfg, &splits);
    }

    /// Map-side radix spill sort vs std's stable comparator sort: the
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
            Arc::new(DefaultKeySemantics)
        };
        let records: Vec<KvPair> = if aggregate {
            aggregate_splits(&runs, 1, 1).remove(0)
        } else {
            plain_splits(&keys, &[vec![9u8]], 1).remove(0)
        };
        let mut fast = SpillArena::new(1);
        for (i, r) in records.iter().enumerate() {
            // Distinct values expose any stability difference.
            fast.append(0, &r.key, &(i as u32).to_be_bytes());
        }
        let mut ref_pairs: Vec<(Vec<u8>, Vec<u8>)> =
            fast.pairs(0).map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        ref_pairs.sort_by(|a, b| ks.compare(&a.0, &b.0));
        fast.sort_partition(0, ks.as_ref());
        let fast_pairs: Vec<(Vec<u8>, Vec<u8>)> =
            fast.pairs(0).map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        prop_assert_eq!(fast_pairs, ref_pairs);
    }

    /// Both users of the wide-key kernel against a stable `sort_by` of
    /// their input — a partition's staged pairs for the arena sort, the
    /// pairs themselves for `sort_pairs` — on what the 16-byte window
    /// makes interesting: grid keys of 12, 16 and 20 bytes in
    /// sliding-window emission order (nine-fold duplicates, halos across
    /// −1/0 and 255/256, column and row strips), mixed-length keys over a
    /// tiny alphabet (`"ab"` vs `"ab\0"`), and partitions cut just
    /// under and over the radix threshold of 64 items.
    #[test]
    fn wide_key_sorts_match_comparator_sorts(
        shape in 0usize..4,
        geometry in (5i32..14, 1i32..4, any::<bool>(), 0usize..6),
        mixed in vec(vec(0u8..2, 0..22), 1..200),
        cut in prop_oneof![Just(63usize), Just(64), Just(65), Just(usize::MAX)],
        parts in 1usize..4,
    ) {
        let ks = DefaultKeySemantics;
        let (long, short, column_strip, origin) = geometry;
        let (rows, cols) = if column_strip { (long, short) } else { (short, long) };
        let (r0, c0) = ([0, 250, -3][origin % 3], [0, 254][origin / 3]);
        let mut keys = match shape {
            0 => window_keys(rows, cols, r0, c0, 12),
            1 => window_keys(rows, cols, r0, c0, 16),
            2 => window_keys(rows, cols, r0, c0, 20),
            _ => mixed,
        };
        keys.truncate(cut);
        let mut fast = SpillArena::new(parts);
        let mut pairs = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            // Distinct values expose any stability difference.
            let tag = (i as u32).to_be_bytes();
            fast.append(ks.partition(key, parts), key, &tag);
            pairs.push(KvPair::new(key.clone(), tag.to_vec()));
        }
        for p in 0..parts {
            let mut ref_pairs: Vec<(Vec<u8>, Vec<u8>)> =
                fast.pairs(p).map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
            ref_pairs.sort_by(|a, b| ks.compare(&a.0, &b.0));
            fast.sort_partition(p, &ks);
            let fast_pairs: Vec<(Vec<u8>, Vec<u8>)> =
                fast.pairs(p).map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
            prop_assert_eq!(fast_pairs, ref_pairs, "partition {}", p);
        }
        let mut expected = pairs.clone();
        expected.sort_by(|a, b| ks.compare(&a.key, &b.key));
        sort_pairs(&mut pairs, &ks);
        prop_assert_eq!(pairs, expected);
    }

    /// The reducer's merge on the benchmark's shape: 16 column strips'
    /// sorted runs interleave row by row, so every run's head changes
    /// rows together and an 8-byte prefix of a 12-byte key ties on each
    /// of them. The sequence must be the runs' stable sort
    /// (`stable_merged`), through `next()` and `next_item()`, flat and
    /// block runs alike — and the
    /// comparator may only be asked about keys whose first 16 bytes are
    /// equal: here, a 12-byte key on a halo column that two
    /// neighbouring strips both wrote. Without halos, or when a window
    /// slot in bytes 12..16 tells the strips' copies apart, it is never
    /// asked.
    #[test]
    fn row_interleaved_merge_compares_only_real_collisions(
        rows in 2i32..7,
        strip in 1i32..4,
        halo in any::<bool>(),
        width in prop_oneof![Just(12usize), Just(16)],
        formats in vec(0usize..3, 16),
    ) {
        let plain = DefaultKeySemantics;
        let codec: Arc<dyn Codec> = Arc::new(IdentityCodec);
        let mut sorted_runs: Vec<Vec<KvPair>> = Vec::new();
        for s in 0..16 {
            let keys = if halo {
                window_keys(rows, strip, 0, s * strip, width)
            } else {
                // The same block without its halo emissions.
                window_keys(rows, strip, 0, s * strip, width)
                    .into_iter()
                    .skip(4)
                    .step_by(9)
                    .collect()
            };
            let mut run: Vec<KvPair> = keys
                .into_iter()
                .enumerate()
                .map(|(i, key)| KvPair::new(key, vec![s as u8, i as u8]))
                .collect();
            run.sort_by(|a, b| plain.compare(&a.key, &b.key));
            sorted_runs.push(run);
        }
        let counting = Arc::new(CountingCompares::default());
        let ks: Arc<dyn KeySemantics> = counting.clone();
        let sealed: Vec<Vec<u8>> = sorted_runs
            .iter()
            .zip(&formats)
            .map(|(run, &format)| {
                let mut w = match format {
                    0 => IFileWriter::new(Framing::IFile, codec.clone()),
                    1 => IFileWriter::v3_with_budget(Framing::IFile, codec.clone(), 64),
                    _ => IFileWriter::v3_with_budget(Framing::IFile, codec.clone(), 4096),
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
        let materialized = stable_merged(sorted_runs, &plain);

        for by_item in [false, true] {
            counting.calls.store(0, Relaxed);
            counting.undecided.store(0, Relaxed);
            let mut merged = Vec::new();
            let mut stream = BlockMergeStream::new(&segments, ks.as_ref()).expect("merge opens");
            if by_item {
                while let Some(item) = stream.next_item().expect("merge streams") {
                    match item {
                        MergeItem::Record(k, v) => merged.push(KvPair::new(k.to_vec(), v.to_vec())),
                        MergeItem::Block(blk) => blk
                            .for_each_record(|k, v| merged.push(KvPair::new(k.to_vec(), v.to_vec())))
                            .expect("spliced block decodes"),
                    }
                }
            } else {
                while let Some((k, v)) = stream.next().expect("merge streams") {
                    merged.push(KvPair::new(k.to_vec(), v.to_vec()));
                }
            }
            prop_assert_eq!(&merged, &materialized, "by_item {}", by_item);
            // Debug builds re-check every yielded record with the
            // comparator, which is what the release run of this suite is
            // for (CI `sort-smoke`).
            if !cfg!(debug_assertions) {
                prop_assert_eq!(counting.undecided.load(Relaxed), 0);
                prop_assert_eq!(counting.calls.load(Relaxed), stream.compare_calls());
                let collide = halo && width == 12;
                prop_assert_eq!(stream.compare_calls() > 0, collide, "{} calls", stream.compare_calls());
            }
        }
    }

    /// The engine's one merge vs the materializing oracle, over
    /// flat-only, block-only and mixed fan-ins: `BlockMergeStream` must
    /// yield exactly the stable sort of the runs concatenated in run
    /// order — including the tie-break toward the lower run id on keys
    /// duplicated across runs, uneven and empty runs, and v3 block
    /// budgets from one record per block up — through both `next()` and
    /// `next_item()`.
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
            Arc::new(DefaultKeySemantics)
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
                    2 => IFileWriter::v3_with_budget(Framing::IFile, codec.clone(), 1),
                    _ => IFileWriter::v3_with_budget(Framing::IFile, codec.clone(), 96),
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
        let materialized = stable_merged(sorted_runs, ks.as_ref());
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
            combine: false,
        };
        let splits = aggregate_splits(&runs, width, num_splits);
        assert_engine_matches_reference(&cfg, &splits);
    }

    /// `sort_partition` against std's stable sort by `ks.compare` of the
    /// partition's staged pairs, for the stock semantics (tags staged at
    /// append; exact partitions skip the tie pass) and for two that
    /// re-tag: a coarser wide key and a reversed order. Keys: mixed
    /// lengths over a tiny alphabet, up to 21 bytes and up to 3 (where
    /// `[1]`, `[1, 0]` and `[1, 0, 0]` tie on the wide key), keys of 16
    /// to 22 bytes that share their first 16, strictly ascending keys of
    /// one length, and keys of one 12-byte length — each partition cut
    /// under and over the radix threshold of 64 items.
    #[test]
    fn spill_sort_matches_stable_sort_by_compare(
        shape in 0usize..5,
        mixed in vec(vec(0u8..3, 0..22), 1..300),
        which in 0usize..3,
        cut in prop_oneof![Just(2usize), Just(63), Just(64), Just(65), Just(usize::MAX)],
        parts in 1usize..4,
    ) {
        let ks = semantics(which);
        let mut keys: Vec<Vec<u8>> = match shape {
            0 => mixed,
            1 => mixed
                .into_iter()
                .map(|tail| [vec![7u8; 16], tail[..tail.len().min(6)].to_vec()].concat())
                .collect(),
            2 => {
                let mut keys: Vec<Vec<u8>> = mixed.into_iter().map(|k| fixed(k, 4)).collect();
                keys.sort_by(|a, b| ks.compare(a, b));
                keys.dedup();
                keys
            }
            3 => mixed.into_iter().map(|k| fixed(k, 12)).collect(),
            _ => mixed.into_iter().map(|k| k[..k.len().min(3)].to_vec()).collect(),
        };
        keys.truncate(cut);
        let mut arena = SpillArena::new(parts);
        for (i, key) in keys.iter().enumerate() {
            // Distinct values expose any stability difference.
            arena.append(ks.partition(key, parts), key, &(i as u32).to_be_bytes());
        }
        for p in 0..parts {
            let mut expected: Vec<(Vec<u8>, Vec<u8>)> =
                arena.pairs(p).map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
            expected.sort_by(|a, b| ks.compare(&a.0, &b.0));
            arena.sort_partition(p, ks.as_ref());
            let sorted: Vec<(Vec<u8>, Vec<u8>)> =
                arena.pairs(p).map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
            prop_assert_eq!(sorted, expected, "partition {}", p);
        }
    }

    /// Whole pipeline with a combiner on every spill (`for_each_group`
    /// over the sorted arena) and thresholds low enough for several
    /// spills a task (`merge_spills`), under the three semantics of
    /// `spill_sort_matches_stable_sort_by_compare`: outputs and counters,
    /// the combiner's included, match the reference.
    #[test]
    fn engine_matches_reference_with_a_combiner_and_spills(
        keys in vec((any::<u8>(), any::<u8>()), 0..200),
        values in vec(vec(any::<u8>(), 0..12), 1..12),
        parts in 1usize..4,
        num_splits in 1usize..4,
        threshold in 8usize..512,
        variant in 0usize..6,
    ) {
        let cfg = RefConfig {
            parts,
            spill_threshold: threshold,
            framing: Framing::IFile,
            codec: Arc::new(IdentityCodec),
            ks: semantics(variant % 3),
            combine: variant >= 3,
        };
        let splits = plain_splits(&keys, &values, num_splits);
        assert_engine_matches_reference(&cfg, &splits);
    }
}

/// `key` cut or zero-extended to `len` bytes.
fn fixed(mut key: Vec<u8>, len: usize) -> Vec<u8> {
    key.resize(len, 0);
    key
}
