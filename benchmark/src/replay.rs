//! The traced run: a single-threaded *layer replay* that drives the
//! same splits through each layer's public functions in pipeline order
//! and wraps every call in a span. The spans are recorded here, around
//! the calls — the program itself carries no new counter or span — and
//! the per-layer seconds are the sums of their durations.
//!
//! Pipeline order: `dataset_splits` → mapper into a collecting emit /
//! `Aggregator::push`+`flush` → `KeySemantics::route_slices` +
//! `SpillArena::append` → `sort_partition` → `IFileWriter` →
//! `Codec::compress` → `ShuffleStore::publish`/serve →
//! `Codec::decompress` → `RawSegment::open` → `BlockMergeStream` →
//! reducer → `KeyLayout::decode`.
//!
//! Two layers sit *inside* another layer's public call and cannot be
//! spanned from outside: the curve index inside `Aggregator::push`, and
//! lz compression inside `ShuffleStore::publish`. Each is replayed once
//! more on its own (`sfc.index`, `lz.compress`, marked `standalone` in
//! the trace) and subtracted from the enclosing span, which is how a
//! span's self time is defined when the child cannot be nested.

use crate::workloads::{
    job_config, layout, parse_medians, PlainMedianMapper, PlainMedianReducer, Workload,
    AGG_BUFFER_BYTES, REDUCERS, SPLITS, WINDOW,
};
use scihadoop_compress::{lz, Codec, DeflateCodec, IdentityCodec};
use scihadoop_core::aggregate::{AggregateKey, AggregateKeyOps, Aggregator, RangePartitioner};
use scihadoop_core::{StridePredictor, TransformConfig};
use scihadoop_grid::{Coord, Variable};
use scihadoop_mapreduce::dist::ShuffleStore;
use scihadoop_mapreduce::sort::{for_each_group, sort_pairs};
use scihadoop_mapreduce::{
    BlockMergeStream, DefaultKeySemantics, IFileVersion, IFileWriter, InputSplit, JobConfig,
    KeySemantics, KvPair, Mapper, MrError, RawSegment, Reducer, SpillArena, WireCodec,
};
use scihadoop_queries::median::median_of;
use scihadoop_queries::{dataset_splits, BiasedCurve, KeyLayout};
use scihadoop_sfc::ZOrderCurve;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One recorded interval. `parent` is the span that was open when this
/// one began; `standalone` marks a layer replayed on its own outside
/// the pipeline (see the module docs).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub standalone: bool,
}

/// In-memory span recorder; spans are written out when the run ends.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            standalone: false,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = now;
    }

    /// Span one call into a layer.
    fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Span a layer replayed on its own, outside the pipeline.
    fn standalone<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.spans.len();
        let out = self.layer(name, f);
        self.spans[id].standalone = true;
        out
    }
}

/// The result of one replay pass.
pub struct Replay {
    pub spans: Vec<Span>,
    /// Exact counts taken at the layer boundaries.
    pub counts: BTreeMap<&'static str, f64>,
    pub medians: HashMap<Coord, i32>,
}

impl Replay {
    /// Seconds spent in spans called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// Seconds the pipeline layers explain: every leaf span that is part
    /// of the pipeline (task spans only group, standalone spans repeat
    /// work already inside another span).
    pub fn pipeline_seconds(&self) -> f64 {
        let is_parent: std::collections::HashSet<usize> =
            self.spans.iter().filter_map(|s| s.parent).collect();
        self.spans
            .iter()
            .filter(|s| !s.standalone && !is_parent.contains(&s.id))
            .fold(0.0, |sum, s| sum + (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// The trace file body: one JSON object per span.
    pub fn trace_json(&self, workload: Workload) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"standalone\": {}, \"workload\": \"{}\"}}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.standalone,
                    workload.name()
                )
            })
            .collect();
        format!("[\n{}\n]\n", spans.join(",\n"))
    }
}

/// Exact counts taken at the layer boundaries, summed by name.
#[derive(Default)]
struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    fn add(&mut self, name: &'static str, by: f64) {
        *self.0.entry(name).or_default() += by;
    }
}

/// Records collected between two layers: payloads in one buffer, so the
/// collection itself costs an append and no allocation per record.
#[derive(Default)]
struct Records {
    data: Vec<u8>,
    index: Vec<(usize, usize, usize)>,
}

impl Records {
    fn push(&mut self, key: &[u8], value: &[u8]) {
        self.index.push((self.data.len(), key.len(), value.len()));
        self.data.extend_from_slice(key);
        self.data.extend_from_slice(value);
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn get(&self, i: usize) -> (&[u8], &[u8]) {
        let (off, klen, vlen) = self.index[i];
        (
            &self.data[off..off + klen],
            &self.data[off + klen..off + klen + vlen],
        )
    }

    fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// The segment writer the engine builds for `config` (its own
/// constructor is private), over the identity codec so `ifile.write`
/// times framing and CRC alone and the codec is timed on its own.
fn segment_writer(config: &JobConfig) -> IFileWriter {
    let codec: Arc<dyn Codec> = Arc::new(IdentityCodec);
    match config.ifile_version {
        IFileVersion::V1 => IFileWriter::without_trailer(config.framing, codec),
        IFileVersion::V2 => IFileWriter::new(config.framing, codec),
        IFileVersion::V3 => IFileWriter::v3(config.framing, codec, config.key_semantics.clone()),
    }
}

/// The aggregated variant's curve, sized as the query sizes it: enough
/// bits to cover the grid dilated by the window's half-width.
fn agg_curve(var: &Variable) -> BiasedCurve {
    let h = (WINDOW as i32 - 1) / 2;
    let max_extent = var
        .shape()
        .extents()
        .iter()
        .map(|&e| e as u64 + 2 * h as u64)
        .max()
        .expect("a grid has dimensions");
    let bits = (64 - max_extent.leading_zeros()).max(1);
    BiasedCurve::new(Arc::new(ZOrderCurve::with_bits(2, bits)), h)
}

/// Values per window centre, and the packed width of one centre's cell:
/// `[count: u8][i32 BE × SLOTS]`, the query's private cell layout.
const SLOTS: usize = (WINDOW * WINDOW) as usize;
const CELL_WIDTH: usize = 1 + 4 * SLOTS;

/// FNV-1a, the hasher the query's aggregated mapper keys its window map
/// with; the replay uses the same one so `queries.map_emit` costs what
/// the mapper's map function costs.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

/// Map side of the aggregated variant, replayed step by step because
/// the query's aggregated mapper is private: accumulate every centre's
/// window, pack it, push it through the aggregation library, and
/// collect the aggregate records it flushes.
fn agg_map_side(
    tr: &mut Tracer,
    counts: &mut Counts,
    layout: &KeyLayout,
    curve: &BiasedCurve,
    split: &InputSplit,
    emitted: &mut Records,
) {
    let h = (WINDOW as i32 - 1) / 2;
    let cells: Vec<(Coord, Vec<u8>)> = tr.layer("queries.map_emit", || {
        let mut windows: HashMap<Coord, Vec<i32>, BuildHasherDefault<Fnv>> = HashMap::default();
        for record in &split.records {
            let coord = layout.decode(&record.key).expect("input key");
            let v = i32::from_be_bytes(record.value.as_slice().try_into().expect("4-byte value"));
            for dx in -h..=h {
                for dy in -h..=h {
                    let centre = Coord::new(vec![coord[0] + dx, coord[1] + dy]);
                    windows
                        .entry(centre)
                        .or_insert_with(|| Vec::with_capacity(SLOTS))
                        .push(v);
                }
            }
        }
        windows
            .into_iter()
            .map(|(coord, values)| {
                let mut packed = Vec::with_capacity(CELL_WIDTH);
                packed.push(values.len() as u8);
                for v in &values {
                    packed.extend_from_slice(&v.to_be_bytes());
                }
                packed.resize(CELL_WIDTH, 0);
                (coord.offset_all(curve.bias()), packed)
            })
            .collect()
    });

    let mut agg = Aggregator::with_curve(curve.curve().clone(), AGG_BUFFER_BYTES);
    tr.layer("aggregate.push_flush", || {
        for (coord, packed) in &cells {
            let flushed = agg.push(coord, packed).expect("aggregation push");
            for rec in flushed.into_iter().flatten() {
                emitted.push(&rec.key.to_bytes(), &rec.values);
            }
        }
        for rec in agg.flush() {
            emitted.push(&rec.key.to_bytes(), &rec.values);
        }
    });
    tr.standalone("sfc.index", || {
        for (coord, _) in &cells {
            black_box(
                curve
                    .curve()
                    .index_of_coord(black_box(coord))
                    .expect("curve index"),
            );
        }
    });
    counts.add("aggregate.records_out", agg.records_out() as f64);
    counts.add("aggregate.pairs_in", agg.pairs_in() as f64);
}

/// Reducer of the aggregated variant (the query's own is private): one
/// median per curve index of the aggregate key.
struct AggMedianReducer {
    layout: KeyLayout,
    curve: BiasedCurve,
}

impl Reducer for AggMedianReducer {
    fn reduce(&self, key: &[u8], values: &[&[u8]], out: &mut dyn scihadoop_mapreduce::Emit) {
        let agg_key = AggregateKey::from_bytes(key).expect("aggregate key");
        for (cell_no, index) in (agg_key.run.start..=agg_key.run.end).enumerate() {
            let mut vals = Vec::new();
            for chunk in values {
                let cell = &chunk[cell_no * CELL_WIDTH..(cell_no + 1) * CELL_WIDTH];
                for slot in 0..cell[0] as usize {
                    let o = 1 + 4 * slot;
                    vals.push(i32::from_be_bytes(cell[o..o + 4].try_into().expect("slot")));
                }
            }
            let coord = self.curve.coord_of(index).expect("curve index");
            out.emit(
                &self.layout.encode(&coord),
                &median_of(&mut vals).to_be_bytes(),
            );
        }
    }
}

/// The engine's windowed sort-split (§IV-B case 2), as its reduce task
/// runs it: records gather in a window while they can still interact,
/// each window is split, re-sorted when the split disturbed the order,
/// and appended to the run the reducer groups.
fn sort_split_windows(
    ks: &dyn KeySemantics,
    merged: &Records,
    split_records: &mut f64,
) -> Vec<KvPair> {
    let mut out = Vec::with_capacity(merged.len());
    let mut flush = |window: &mut Vec<KvPair>| {
        let before = window.len();
        let mut records = ks.sort_split(std::mem::take(window));
        *split_records += (records.len() - before) as f64;
        let sorted = records
            .windows(2)
            .all(|w| ks.compare(&w[0].key, &w[1].key) != std::cmp::Ordering::Greater);
        if records.len() != before || !sorted {
            sort_pairs(&mut records, ks);
        }
        out.append(&mut records);
    };
    let mut window: Vec<KvPair> = Vec::new();
    let mut frontier: Vec<usize> = Vec::new();
    for (key, value) in merged.iter() {
        if !window.is_empty() {
            frontier.retain(|&i| ks.sort_interacts(&window[i].key, key));
            if frontier.is_empty() {
                flush(&mut window);
            }
        }
        frontier.push(window.len());
        window.push(KvPair::new(key.to_vec(), value.to_vec()));
    }
    if !window.is_empty() {
        flush(&mut window);
    }
    out
}

/// Drive `var` through every layer `workload` uses, one call at a time.
pub fn replay(workload: Workload, var: &Variable) -> Result<Replay, MrError> {
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let layout = layout();
    let is_agg = workload == Workload::AggLocal;
    let is_transform = workload == Workload::TransformLocal;
    let curve = agg_curve(var);
    let ks: Arc<dyn KeySemantics> = if is_agg {
        let partitioner = RangePartitioner::uniform(REDUCERS, curve.span());
        Arc::new(AggregateKeyOps::new(partitioner, CELL_WIDTH))
    } else {
        Arc::new(DefaultKeySemantics)
    };
    let config = job_config(1).with_key_semantics(ks.clone());
    let deflate = DeflateCodec::new();
    let root = tr.begin("replay");

    let splits = tr
        .layer("queries.splits", || dataset_splits(var, &layout, SPLITS))
        .map_err(|e| MrError::Config(e.to_string()))?;

    // Map side: one task per split, each leaving one segment per
    // non-empty partition. `wire[task]` holds `(partition, bytes)` as
    // the task would hand them to the shuffle.
    let mapper = PlainMedianMapper::new();
    let mut wire: Vec<Vec<(usize, Vec<u8>)>> = Vec::with_capacity(splits.len());
    let (mut zero_bytes, mut deflate_in, mut deflate_out) = (0u64, 0u64, 0u64);
    for split in &splits {
        let task = tr.begin("map_task");
        let mut emitted = Records::default();
        if is_agg {
            agg_map_side(&mut tr, &mut counts, &layout, &curve, split, &mut emitted);
        } else {
            tr.layer("queries.map_emit", || {
                let mut emit = |k: &[u8], v: &[u8]| emitted.push(k, v);
                for record in &split.records {
                    mapper.map(&record.key, &record.value, &mut emit);
                }
                mapper.finish(&mut emit);
            });
        }

        // Routing and staging. On aggregate keys routing *is* the
        // route-split of §IV-B case 1, so the span belongs to that layer.
        let mut arena = SpillArena::new(REDUCERS);
        let mut pieces = 0u64;
        tr.layer(
            if is_agg {
                "aggregate.split"
            } else {
                "arena.append"
            },
            || {
                for (key, value) in emitted.iter() {
                    ks.route_slices(key, value, REDUCERS, &mut |p, k, v| {
                        pieces += 1;
                        arena.append(p, k, v);
                    });
                }
            },
        );
        counts.add("arena.records", pieces as f64);
        counts.add(
            "aggregate.split_records",
            (pieces - emitted.len() as u64) as f64,
        );

        tr.layer("arena.sort", || {
            for p in 0..REDUCERS {
                arena.sort_partition(p, ks.as_ref());
            }
        });

        let mut outputs = Vec::new();
        for p in (0..REDUCERS).filter(|&p| arena.partition_len(p) > 0) {
            let seg = tr.layer("ifile.write", || {
                let mut writer = segment_writer(&config);
                for (key, value) in arena.pairs(p) {
                    writer.append(key, value);
                }
                writer.close()
            });
            counts.add("ifile.raw_bytes", seg.raw_bytes as f64);
            counts.add("ifile.segments", 1.0);
            counts.add("ifile.key_saved_bytes", seg.key_saved_bytes() as f64);
            let bytes = if is_transform {
                let transformed = tr.layer("transform.forward", || {
                    StridePredictor::new(TransformConfig::default()).forward(&seg.data)
                });
                // A correct prediction leaves a zero delta behind.
                zero_bytes += transformed.iter().filter(|&&b| b == 0).count() as u64;
                let packed = tr.layer("deflate.compress", || deflate.compress(&transformed));
                deflate_in += transformed.len() as u64;
                deflate_out += packed.len() as u64;
                packed
            } else {
                seg.data
            };
            outputs.push((p, bytes));
        }
        wire.push(outputs);
        tr.end(task);
    }

    // Shuffle. Local workloads hand segments over in memory; process
    // mode publishes them into the coordinator's store and serves each
    // reducer its partition in map-task order.
    let mut partitions: Vec<Vec<Vec<u8>>> = (0..REDUCERS).map(|_| Vec::new()).collect();
    if workload.is_proc() {
        let dist = workload.dist_config(1);
        let store = ShuffleStore::new_with_codec(
            REDUCERS,
            splits.len(),
            dist.shuffle_mem_budget(),
            dist.wire_codec,
        );
        let (mut lz_in, mut lz_out) = (0u64, 0u64);
        for (task, outputs) in wire.into_iter().enumerate() {
            if dist.wire_codec == WireCodec::Lz {
                for (_, seg) in &outputs {
                    let frame = tr.standalone("lz.compress", || lz::compress(seg));
                    lz_in += seg.len() as u64;
                    lz_out += frame.len().min(seg.len()) as u64;
                }
            }
            tr.layer("shuffle.publish", || store.publish(task, outputs))?;
        }
        for (p, segments) in partitions.iter_mut().enumerate() {
            for task in 0..splits.len() {
                let served = tr.layer("shuffle.serve", || {
                    store
                        .segment_when_ready(p, task)?
                        .map(|h| h.to_vec().map(|bytes| (h.is_comp(), bytes)))
                        .transpose()
                })?;
                match served {
                    Some((true, frame)) => segments.push(
                        tr.layer("lz.decompress", || lz::decompress(&frame))
                            .map_err(|e| MrError::Checksum(e.to_string()))?,
                    ),
                    Some((false, bytes)) => segments.push(bytes),
                    None => {}
                }
            }
        }
        counts.add("shuffle.spilled_bytes", store.spilled_bytes() as f64);
        counts.add("shuffle.spill_reads", store.spill_reads() as f64);
        counts.add(
            "shuffle.mem_high_water_bytes",
            store.mem_high_water() as f64,
        );
        if lz_out > 0 {
            counts.add("lz.ratio", lz_in as f64 / lz_out as f64);
        }
    } else {
        for outputs in wire {
            for (p, bytes) in outputs {
                partitions[p].push(bytes);
            }
        }
    }

    // Reduce side, one task per partition.
    let plain_reducer = PlainMedianReducer;
    let agg_reducer = AggMedianReducer {
        layout: layout.clone(),
        curve,
    };
    let reducer: &dyn Reducer = if is_agg { &agg_reducer } else { &plain_reducer };
    let mut outputs: Vec<KvPair> = Vec::new();
    for segments in &partitions {
        let task = tr.begin("reduce_task");
        let mut raws = Vec::with_capacity(segments.len());
        for seg in segments {
            let opened = if is_transform {
                let transformed = tr
                    .layer("deflate.decompress", || deflate.decompress(seg))
                    .map_err(|e| MrError::Intermediate(e.to_string()))?;
                let raw = tr.layer("transform.inverse", || {
                    StridePredictor::new(TransformConfig::default()).inverse(&transformed)
                });
                tr.layer("ifile.open", || RawSegment::open(&raw, &IdentityCodec))
            } else {
                tr.layer("ifile.open", || RawSegment::open(seg, &IdentityCodec))
            };
            raws.push(opened?);
        }

        let mut merged = Records::default();
        let merge = tr.begin("sort.merge");
        let mut stream = BlockMergeStream::new(&raws, ks.as_ref())?;
        while let Some((key, value)) = stream.next()? {
            merged.push(key, value);
        }
        counts.add("sort.compare_calls", stream.compare_calls() as f64);
        counts.add("sort.blocks_copied", stream.blocks_copied() as f64);
        drop(stream);
        tr.end(merge);

        let mut emit = |k: &[u8], v: &[u8]| outputs.push(KvPair::new(k.to_vec(), v.to_vec()));
        if is_agg {
            let mut split_records = 0.0;
            let run = tr.layer("aggregate.split", || {
                sort_split_windows(ks.as_ref(), &merged, &mut split_records)
            });
            counts.add("aggregate.split_records", split_records);
            tr.layer("queries.reduce_fn", || {
                for_each_group(&run, ks.as_ref(), |key, values| {
                    reducer.reduce(key, values, &mut emit)
                })
            });
        } else {
            tr.layer("queries.reduce_fn", || {
                let mut i = 0;
                let mut values: Vec<&[u8]> = Vec::new();
                while i < merged.len() {
                    let (key, _) = merged.get(i);
                    values.clear();
                    while i < merged.len() && ks.group_eq(key, merged.get(i).0) {
                        values.push(merged.get(i).1);
                        i += 1;
                    }
                    reducer.reduce(key, &values, &mut emit);
                }
            });
        }
        tr.end(task);
    }

    let medians = tr.layer("queries.parse", || parse_medians(&layout, outputs.iter()))?;
    tr.end(root);

    if deflate_out > 0 {
        counts.add("transform.hit_rate", zero_bytes as f64 / deflate_in as f64);
        counts.add("deflate.ratio", deflate_in as f64 / deflate_out as f64);
    }
    Ok(Replay {
        spans: tr.spans,
        counts: counts.0,
        medians,
    })
}
