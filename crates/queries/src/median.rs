//! The paper's evaluation query: sliding median (§IV-C).
//!
//! "Assume mappers take a value with key (x, y) and output the value for
//! keys (x, y), (x + 1, y), (x + 1, y + 1), etc. Reducers then group the
//! values by key and take the median for each key." A mapper responsible
//! for (0,0)-(9,9) therefore produces output in (-1,-1)-(10,10) — the
//! halo that makes aggregate keys overlap between neighbouring mappers
//! and forces the §IV-B sort-phase splitting.

use crate::layout::{BiasedCurve, KeyLayout};
use scihadoop_core::aggregate::{
    AggregateKey, AggregateKeyOps, AggregateRecord, Aggregator, RangePartitioner,
};
use scihadoop_grid::{BoundingBox, Coord, Variable};
use scihadoop_mapreduce::{
    Emit, InputSplit, Job, JobConfig, JobResult, KvPair, MapTask, Mapper, MrError, Reducer,
};
use scihadoop_sfc::{Curve, CurveIndex, HilbertCurve, RowMajorCurve, ZOrderCurve};
use std::collections::HashMap;
use std::sync::Arc;

/// About how many window centres the aggregated job samples to place its
/// reducers' range boundaries. At 4,096, each of five reducers answers
/// within 1 % of a fifth of the centres of a 192² or 512² grid, on every
/// curve.
const SAMPLED_CENTRES: u64 = 4096;

/// Which pipeline configuration to run (the three columns of the paper's
/// evaluation).
#[derive(Clone)]
pub enum SlidingMedianVariant {
    /// Simple per-cell keys, identity codec — the 183-minute baseline.
    Plain,
    /// Simple keys with a codec on the intermediate data (§III-E plugs in
    /// transform+zlib here).
    PlainWithCodec(Arc<dyn scihadoop_compress::Codec>),
    /// The §IV aggregation library in the mapper plus aggregate-key
    /// splitting in the engine.
    Aggregated {
        /// Aggregation-buffer flush threshold in bytes (§IV-A).
        buffer_bytes: usize,
    },
}

impl std::fmt::Debug for SlidingMedianVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlidingMedianVariant::Plain => write!(f, "Plain"),
            SlidingMedianVariant::PlainWithCodec(c) => {
                write!(f, "PlainWithCodec({})", c.name())
            }
            SlidingMedianVariant::Aggregated { buffer_bytes } => {
                write!(f, "Aggregated({buffer_bytes})")
            }
        }
    }
}

/// Which space-filling curve the aggregated variant maps coordinates
/// onto (§IV-A: Z-order by default; "Other curves, such as the Hilbert
/// curve or Peano curve could be used").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CurveKind {
    /// Z-order (the paper's choice, "due to speed and ease of
    /// implementation").
    #[default]
    ZOrder,
    /// Hilbert — better clustering, more CPU.
    Hilbert,
    /// Row-major — the trivial baseline.
    RowMajor,
}

impl CurveKind {
    fn build(self, ndims: usize, bits: u32) -> Arc<dyn Curve> {
        match self {
            CurveKind::ZOrder => Arc::new(ZOrderCurve::with_bits(ndims, bits)),
            CurveKind::Hilbert => Arc::new(HilbertCurve::with_bits(ndims, bits)),
            CurveKind::RowMajor => Arc::new(RowMajorCurve::with_bits(ndims, bits)),
        }
    }
}

/// A configured sliding-median query.
#[derive(Debug, Clone)]
pub struct SlidingMedian {
    /// Window side length (odd; the paper uses 3).
    pub window: u32,
    /// Simple-key serialization.
    pub layout: KeyLayout,
    /// Pipeline configuration.
    pub variant: SlidingMedianVariant,
    /// Number of input splits (map tasks).
    pub num_splits: usize,
    /// Engine configuration (reducers, slots, framing, spill buffer).
    pub base_config: JobConfig,
    /// Space-filling curve used by the aggregated variant.
    pub curve: CurveKind,
}

/// The finished query: parsed medians plus the raw engine result.
pub struct MedianRun {
    /// Median per window centre (centres cover the dilated grid).
    pub medians: HashMap<Coord, i32>,
    /// Engine counters/stats.
    pub result: JobResult,
}

impl SlidingMedian {
    /// A 3×3 sliding median with sensible defaults.
    pub fn new(layout: KeyLayout, variant: SlidingMedianVariant) -> Self {
        SlidingMedian {
            window: 3,
            layout,
            variant,
            num_splits: 4,
            base_config: JobConfig::default().with_reducers(2),
            curve: CurveKind::default(),
        }
    }

    fn half(&self) -> i32 {
        (self.window as i32 - 1) / 2
    }

    /// All window offsets (the w^d neighbour shifts).
    fn offsets(&self) -> Vec<Coord> {
        let h = self.half();
        let ndims = self.layout.ndims();
        let mut out = vec![Coord::new(vec![-h; ndims])];
        // Odometer enumeration of [-h, h]^ndims.
        loop {
            let last = out.last().expect("non-empty").clone();
            let mut next = last.clone();
            let mut d = ndims;
            loop {
                if d == 0 {
                    return out;
                }
                d -= 1;
                if next[d] < h {
                    next[d] += 1;
                    for dd in d + 1..ndims {
                        next[dd] = -h;
                    }
                    break;
                }
            }
            out.push(next);
        }
    }

    /// Maximum number of contributions one window centre receives.
    fn slots(&self) -> usize {
        (self.window as usize).pow(self.layout.ndims() as u32)
    }

    /// Run the query over a variable.
    pub fn run(&self, var: &Variable) -> Result<MedianRun, MrError> {
        if self.window.is_multiple_of(2) {
            return Err(MrError::Config(format!(
                "sliding-median window {} must be odd",
                self.window
            )));
        }
        let splits = crate::input::dataset_splits(var, &self.layout, self.num_splits)
            .map_err(|e| MrError::Config(e.to_string()))?;
        match &self.variant {
            SlidingMedianVariant::Plain => self.run_plain(splits, self.base_config.clone()),
            SlidingMedianVariant::PlainWithCodec(codec) => {
                self.run_plain(splits, self.base_config.clone().with_codec(codec.clone()))
            }
            SlidingMedianVariant::Aggregated { buffer_bytes } => {
                self.run_aggregated(var, splits, *buffer_bytes)
            }
        }
    }

    /// The medians the reducers wrote, decoded on every reduce slot.
    fn parse_outputs(&self, result: &JobResult) -> Result<HashMap<Coord, i32>, MrError> {
        let decode = |pair: &KvPair| {
            let coord = self
                .layout
                .decode(&pair.key)
                .map_err(|e| MrError::Intermediate(e.to_string()))?;
            let v = i32::from_be_bytes(
                pair.value
                    .as_slice()
                    .try_into()
                    .map_err(|_| MrError::Intermediate("bad median value".into()))?,
            );
            Ok((coord, v))
        };
        crate::fill::fill(&result.outputs, self.base_config.reduce_slots, decode)
    }

    fn run_plain(&self, splits: Vec<InputSplit>, config: JobConfig) -> Result<MedianRun, MrError> {
        let layout = self.layout.clone();
        let offsets = self.offsets();
        let mapper = PlainMedianMapper {
            layout: layout.clone(),
            offsets,
        };
        let reducer = PlainMedianReducer { layout };
        let result = Job::new(config).run(splits, Arc::new(mapper), Arc::new(reducer))?;
        let medians = self.parse_outputs(&result)?;
        Ok(MedianRun { medians, result })
    }

    /// The aggregated variant's engine configuration and user functions.
    fn aggregated_job(
        &self,
        var: &Variable,
        buffer_bytes: usize,
    ) -> Result<(JobConfig, AggMedianMapper, AggMedianReducer), MrError> {
        if self.slots() > u8::MAX as usize {
            return Err(MrError::Config(format!(
                "a {}-d sliding-median window of {} holds {} values, and a packed cell \
                 counts at most {} in one byte",
                self.layout.ndims(),
                self.window,
                self.slots(),
                u8::MAX
            )));
        }
        let h = self.half();
        let ndims = self.layout.ndims();
        // Curve resolution: cover the dilated grid.
        let max_extent = var
            .shape()
            .extents()
            .iter()
            .map(|&e| e as i64 + 2 * h as i64)
            .max()
            .unwrap_or(1);
        let bits = (64 - (max_extent as u64).leading_zeros()).max(1);
        let curve = BiasedCurve::new(self.curve.build(ndims, bits), h);
        let width = 1 + 4 * self.slots();
        let partitioner = RangePartitioner::from_sample(
            self.base_config.num_reducers,
            Self::sample_centres(&var.bounds().dilate(h), &curve)?,
        );
        let keyops = AggregateKeyOps::new(partitioner, width);
        let config = self
            .base_config
            .clone()
            .with_key_semantics(Arc::new(keyops));

        let mapper = AggMedianMapper {
            layout: self.layout.clone(),
            half: h,
            offsets: self.offsets(),
            curve: curve.clone(),
            slots: self.slots(),
            buffer_bytes,
        };
        let reducer = AggMedianReducer {
            layout: self.layout.clone(),
            curve,
            slots: self.slots(),
        };
        Ok((config, mapper, reducer))
    }

    /// The curve indices of every k-th window centre of `centres` in
    /// row-major order, k chosen for about [`SAMPLED_CENTRES`] of them:
    /// the sample the reducers' ranges are cut from. Each centre is
    /// placed from its position, so the sample costs its own size, not
    /// the grid's.
    fn sample_centres(
        centres: &BoundingBox,
        curve: &BiasedCurve,
    ) -> Result<Vec<CurveIndex>, MrError> {
        let cells = centres.num_cells();
        let step = (cells / SAMPLED_CENTRES).max(1);
        let corner = centres.corner();
        (0..cells)
            .step_by(step as usize)
            .map(|at| {
                let offset = centres.shape().delinearize(at)?;
                curve.index_of(&(&offset + corner))
            })
            .collect::<Result<_, _>>()
            .map_err(|e| MrError::Config(e.to_string()))
    }

    fn run_aggregated(
        &self,
        var: &Variable,
        splits: Vec<InputSplit>,
        buffer_bytes: usize,
    ) -> Result<MedianRun, MrError> {
        let (config, mapper, reducer) = self.aggregated_job(var, buffer_bytes)?;
        let result = Job::new(config).run(splits, Arc::new(mapper), Arc::new(reducer))?;
        let medians = self.parse_outputs(&result)?;
        Ok(MedianRun { medians, result })
    }
}

/// Lower median of a (small) value list. Leaves `values` reordered.
pub fn median_of(values: &mut [i32]) -> i32 {
    assert!(!values.is_empty(), "median of empty set");
    if let Ok(window) = <&mut [i32; 9]>::try_from(&mut *values) {
        return median_of_nine(window);
    }
    values.sort_unstable();
    values[(values.len() - 1) / 2]
}

/// The median of nine values — a full 3×3 window, what nearly every
/// centre of the paper's query reduces — by a fixed network of 19
/// compare-exchanges (Paeth's, as in Devillard's `opt_med9`). It takes
/// no branch on the data: sorting nine random values cost about 105 ns
/// here, nearly all of it in mispredicted insertion-sort branches, and
/// the network about 14 ns.
fn median_of_nine(v: &mut [i32; 9]) -> i32 {
    // Written out: as a loop over a table of pairs it ran 4× slower.
    #[inline(always)]
    fn exchange(v: &mut [i32; 9], a: usize, b: usize) {
        let (x, y) = (v[a], v[b]);
        v[a] = x.min(y);
        v[b] = x.max(y);
    }
    exchange(v, 1, 2);
    exchange(v, 4, 5);
    exchange(v, 7, 8);
    exchange(v, 0, 1);
    exchange(v, 3, 4);
    exchange(v, 6, 7);
    exchange(v, 1, 2);
    exchange(v, 4, 5);
    exchange(v, 7, 8);
    exchange(v, 0, 3);
    exchange(v, 5, 8);
    exchange(v, 4, 7);
    exchange(v, 3, 6);
    exchange(v, 1, 4);
    exchange(v, 2, 5);
    exchange(v, 4, 7);
    exchange(v, 4, 2);
    exchange(v, 6, 4);
    exchange(v, 4, 2);
    v[4]
}

// ---------------------------------------------------------------------------
// Plain variant
// ---------------------------------------------------------------------------

struct PlainMedianMapper {
    layout: KeyLayout,
    offsets: Vec<Coord>,
}

/// One plain map task: its mapper, and the key of the window centre it
/// is emitting, reused from cell to cell.
struct PlainMedianTask<'a>(&'a PlainMedianMapper, Vec<u8>);

impl Mapper for PlainMedianMapper {
    fn task(&self) -> Box<dyn MapTask + '_> {
        Box::new(PlainMedianTask(self, Vec::new()))
    }

    fn map(&self, key: &[u8], value: &[u8], out: &mut dyn Emit) {
        self.task().map(key, value, out);
    }
}

impl MapTask for PlainMedianTask<'_> {
    fn map(&mut self, key: &[u8], value: &[u8], out: &mut dyn Emit) {
        let PlainMedianTask(mapper, centre_key) = self;
        let coord = mapper.layout.decode(key).expect("input key");
        // A window centre's key is the input key with other coordinates:
        // copy the key once and overwrite its tail per offset.
        centre_key.clear();
        centre_key.extend_from_slice(key);
        let tail = key.len() - 4 * coord.ndims();
        for off in &mapper.offsets {
            let slots = centre_key[tail..].chunks_exact_mut(4);
            for ((slot, &c), &d) in slots.zip(coord.components()).zip(off.components()) {
                slot.copy_from_slice(&c.wrapping_add(d).to_be_bytes());
            }
            out.emit(centre_key, value);
        }
    }
}

struct PlainMedianReducer {
    layout: KeyLayout,
}

impl Reducer for PlainMedianReducer {
    fn reduce(&self, key: &[u8], values: &[&[u8]], out: &mut dyn Emit) {
        debug_assert!(self.layout.decode(key).is_ok());
        let value = |v: &&[u8]| i32::from_be_bytes((*v).try_into().expect("4-byte value"));
        // A 3×3 window's centre — the paper's query — fits on the stack.
        let m = if values.len() <= 9 {
            let mut vals = [0; 9];
            vals.iter_mut()
                .zip(values)
                .for_each(|(slot, v)| *slot = value(v));
            median_of(&mut vals[..values.len()])
        } else {
            median_of(&mut values.iter().map(value).collect::<Vec<_>>())
        };
        out.emit(key, &m.to_be_bytes());
    }
}

// ---------------------------------------------------------------------------
// Aggregated variant (§IV)
// ---------------------------------------------------------------------------

/// The values of one packed cell. A window centre's multiset travels as
/// `[count: u8][values: i32 BE × slots]`, unused slots zero: fixed width
/// keeps aggregate records sliceable.
fn cell_values(cell: &[u8]) -> impl Iterator<Item = i32> + '_ {
    cell[1..1 + 4 * cell[0] as usize]
        .chunks_exact(4)
        .map(|slot| i32::from_be_bytes(slot.try_into().expect("4-byte slot")))
}

struct AggMedianMapper {
    layout: KeyLayout,
    half: i32,
    offsets: Vec<Coord>,
    curve: BiasedCurve,
    slots: usize,
    buffer_bytes: usize,
}

impl AggMedianMapper {
    /// Every window of a task's (non-empty) `inputs` accumulated in one
    /// slab of packed cells, laid out row-major over the inputs' bounding
    /// box dilated by the window's half-width.
    fn window_slab(&self, inputs: &[i32]) -> (BoundingBox, Vec<u8>) {
        let ndims = self.layout.ndims();
        let (mut lo, mut hi) = (inputs[..ndims].to_vec(), inputs[..ndims].to_vec());
        for record in inputs.chunks_exact(ndims + 1) {
            for d in 0..ndims {
                lo[d] = lo[d].min(record[d]);
                hi[d] = hi[d].max(record[d]);
            }
        }
        let bounds = BoundingBox::from_corners(&Coord::new(lo), &Coord::new(hi))
            .expect("corners of one layout")
            .dilate(self.half);
        // A split is a box, and a box of `n` cells dilates to at most
        // `n × slots` centres, so the slab is bounded by the task's own
        // input whatever the split's shape.
        let max_cells = (inputs.len() / (ndims + 1)).saturating_mul(self.slots);
        let cells = bounds
            .shape()
            .extents()
            .iter()
            .try_fold(1usize, |n, &e| n.checked_mul(e as usize))
            .filter(|&cells| cells <= max_cells)
            .expect("a map task's input cells fill a box");
        let width = 1 + 4 * self.slots;
        // Row-major position in the slab is linear in the coordinates, so
        // a window offset is one constant step from its centre.
        let strides = bounds.shape().strides();
        let linear = |components: &[i32]| -> i64 {
            let steps = components.iter().zip(&strides);
            steps.map(|(&c, &stride)| c as i64 * stride as i64).sum()
        };
        let origin = linear(bounds.corner().components());
        let window: Vec<i64> = self
            .offsets
            .iter()
            .map(|off| linear(off.components()))
            .collect();

        let mut slab = vec![0u8; cells * width];
        for record in inputs.chunks_exact(ndims + 1) {
            let centre = linear(&record[..ndims]) - origin;
            let value = record[ndims].to_be_bytes();
            for delta in &window {
                let cell = &mut slab[(centre + delta) as usize * width..][..width];
                let filled = cell[0] as usize;
                cell[1 + 4 * filled..][..4].copy_from_slice(&value);
                cell[0] += 1;
            }
        }
        (bounds, slab)
    }
}

/// One aggregated map task: its mapper, and its input cells, `ndims`
/// coordinates then the value per record, windowed only once the last
/// has arrived.
struct AggMedianTask<'a>(&'a AggMedianMapper, Vec<i32>);

impl Mapper for AggMedianMapper {
    fn task(&self) -> Box<dyn MapTask + '_> {
        Box::new(AggMedianTask(self, Vec::new()))
    }

    fn map(&self, key: &[u8], value: &[u8], out: &mut dyn Emit) {
        let mut task = self.task();
        task.map(key, value, out);
        task.finish(out);
    }
}

impl MapTask for AggMedianTask<'_> {
    fn map(&mut self, key: &[u8], value: &[u8], _out: &mut dyn Emit) {
        let AggMedianTask(mapper, inputs) = self;
        let coord = mapper.layout.decode(key).expect("input key");
        inputs.extend_from_slice(coord.components());
        inputs.push(i32::from_be_bytes(value.try_into().expect("4-byte value")));
    }

    /// Push the task's window cells, in grid order, through the §IV
    /// aggregation library and emit the aggregate records it produces.
    fn finish(self: Box<Self>, out: &mut dyn Emit) {
        let AggMedianTask(mapper, inputs) = *self;
        if inputs.is_empty() {
            return;
        }
        let (bounds, slab) = mapper.window_slab(&inputs);
        aggregate_window_slab(&mapper.curve, mapper.buffer_bytes, &bounds, &slab, |rec| {
            out.emit(&rec.key.to_bytes(), &rec.values)
        });
    }
}

/// The §IV map side of one aggregated task: push its window slab —
/// packed cells of one width laid out row-major over `bounds`, last
/// dimension fastest — through an [`Aggregator`] over `curve` that
/// flushes at `buffer_bytes`, in that order, and hand `emit` every record
/// the pushes and the closing flush produce. The walk steps integer
/// coordinates in the curve's biased space, takes a row's curve indices
/// at once ([`Curve::row_indices`]) and hands the aggregator each
/// non-empty cell's index: no [`Coord`] per cell.
pub fn aggregate_window_slab(
    curve: &BiasedCurve,
    buffer_bytes: usize,
    bounds: &BoundingBox,
    slab: &[u8],
    mut emit: impl FnMut(AggregateRecord),
) {
    let width = slab.len() / bounds.num_cells() as usize;
    let mut at: Vec<u32> = bounds
        .corner()
        .components()
        .iter()
        .map(|&c| u32::try_from(c + curve.bias()).expect("a biased corner"))
        .collect();
    let corner = at.clone();
    let extents = bounds.shape().extents();
    let last = extents.len() - 1;
    let mut agg = Aggregator::with_curve(curve.curve().clone(), buffer_bytes);
    // Room for every cell, or for as many as one flush stages.
    let staged = (slab.len() / width).min(buffer_bytes.div_ceil(width));
    agg.reserve(staged, staged * width);
    let mut indices = Vec::with_capacity(extents[last] as usize);
    for row in slab.chunks_exact(extents[last] as usize * width) {
        indices.clear();
        curve
            .curve()
            .row_indices(&at, extents[last], &mut indices)
            .expect("window centres on the curve");
        for (cell, &index) in row.chunks_exact(width).zip(&indices) {
            if cell[0] != 0 {
                let flushed = agg.push_index(0, index, cell).expect("aggregation push");
                flushed.into_iter().flatten().for_each(&mut emit);
            }
        }
        // The next row: carry through the slower dimensions.
        for d in (0..last).rev() {
            at[d] += 1;
            if at[d] < corner[d] + extents[d] {
                break;
            }
            at[d] = corner[d];
        }
    }
    agg.flush().into_iter().for_each(emit);
}

struct AggMedianReducer {
    layout: KeyLayout,
    curve: BiasedCurve,
    slots: usize,
}

impl Reducer for AggMedianReducer {
    fn reduce(&self, key: &[u8], values: &[&[u8]], out: &mut dyn Emit) {
        let agg_key = AggregateKey::from_bytes(key).expect("aggregate key");
        let width = 1 + 4 * self.slots;
        let mut vals = Vec::with_capacity(values.len() * self.slots);
        let mut centre_key = Vec::with_capacity(self.layout.key_len());
        self.layout.write_header(&mut centre_key);
        let header_len = centre_key.len();
        let mut centre = vec![0; self.layout.ndims()];
        for (cell_no, index) in (agg_key.run.start..=agg_key.run.end).enumerate() {
            vals.clear();
            for chunk in values {
                vals.extend(cell_values(&chunk[cell_no * width..][..width]));
            }
            let m = median_of(&mut vals);
            // The centre straight off the curve, then out of its biased
            // space (what `BiasedCurve::coord_of` does, less the `Coord`).
            self.curve
                .curve()
                .coords_into(index, &mut centre)
                .expect("curve index");
            centre_key.truncate(header_len);
            for &c in &centre {
                let c = (c as i32).wrapping_sub(self.curve.bias());
                centre_key.extend_from_slice(&c.to_be_bytes());
            }
            out.emit(&centre_key, &m.to_be_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use scihadoop_grid::Shape;
    use scihadoop_mapreduce::{Counter, IFileVersion};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn variable() -> Variable {
        Variable::random_i32("t", Shape::new(vec![12, 10]), 1000, 42).unwrap()
    }

    fn layout() -> KeyLayout {
        KeyLayout::Indexed { index: 0, ndims: 2 }
    }

    #[test]
    fn offsets_enumerate_the_window() {
        let q = SlidingMedian::new(layout(), SlidingMedianVariant::Plain);
        let offs = q.offsets();
        assert_eq!(offs.len(), 9);
        assert!(offs.contains(&Coord::new(vec![-1, -1])));
        assert!(offs.contains(&Coord::new(vec![0, 0])));
        assert!(offs.contains(&Coord::new(vec![1, 1])));
    }

    #[test]
    fn an_even_window_is_a_config_error() {
        let var = variable();
        for variant in [
            SlidingMedianVariant::Plain,
            SlidingMedianVariant::Aggregated {
                buffer_bytes: 1 << 20,
            },
        ] {
            let mut q = SlidingMedian::new(layout(), variant);
            q.window = 4;
            assert!(matches!(q.run(&var), Err(MrError::Config(_))));
        }
    }

    #[test]
    fn a_window_past_a_cells_count_byte_is_a_config_error() {
        // 17² = 289 values per centre; a packed cell counts up to 255.
        let var = variable();
        let mut q = SlidingMedian::new(
            layout(),
            SlidingMedianVariant::Aggregated {
                buffer_bytes: 1 << 20,
            },
        );
        q.window = 17;
        match q.run(&var) {
            Err(MrError::Config(why)) => assert!(why.contains("289 values"), "{why}"),
            other => panic!(
                "expected a config error, got {:?}",
                other.map(|r| r.medians.len())
            ),
        }
        // The plain variant packs nothing, and 15² = 225 still fits.
        for (variant, window) in [(SlidingMedianVariant::Plain, 17), (q.variant.clone(), 15)] {
            q.variant = variant;
            q.window = window;
            let run = q.run(&var).unwrap();
            assert_eq!(run.medians, oracle::sliding_median(&var, window).unwrap());
        }
    }

    #[test]
    fn median_of_is_lower_median() {
        assert_eq!(median_of(&mut [3, 1, 2]), 2);
        assert_eq!(median_of(&mut [4, 1, 3, 2]), 2);
        assert_eq!(median_of(&mut [9]), 9);
        assert_eq!(median_of(&mut [9, 8, 7, 6, 5, 4, 3, 2, 1]), 5);
    }

    #[test]
    fn the_nine_value_network_agrees_with_sorting() {
        let sorted_median = |v: &[i32; 9]| {
            let mut v = *v;
            v.sort_unstable();
            v[4]
        };
        // A comparator network selects correctly on every input iff it
        // does on every input of zeros and ones.
        for bits in 0..1u32 << 9 {
            let v: [i32; 9] = std::array::from_fn(|i| (bits >> i & 1) as i32);
            assert_eq!(median_of(&mut v.clone()), sorted_median(&v), "{v:?}");
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..10_000 {
            let v: [i32; 9] = std::array::from_fn(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 7) as i32 - 3
            });
            assert_eq!(median_of(&mut v.clone()), sorted_median(&v), "{v:?}");
        }
    }

    #[test]
    fn cell_values_reads_the_counted_slots() {
        let mut cell = vec![0u8; 37];
        assert_eq!(cell_values(&cell).count(), 0);
        cell[0] = 2;
        cell[1..5].copy_from_slice(&5i32.to_be_bytes());
        cell[5..9].copy_from_slice(&(-2i32).to_be_bytes());
        // Bytes past the count are padding, whatever they hold.
        cell[9] = 0xff;
        assert_eq!(cell_values(&cell).collect::<Vec<_>>(), vec![5, -2]);
    }

    #[test]
    fn plain_matches_oracle() {
        let var = variable();
        let q = SlidingMedian::new(layout(), SlidingMedianVariant::Plain);
        let run = q.run(&var).unwrap();
        let expected = oracle::sliding_median(&var, 3).unwrap();
        assert_eq!(run.medians, expected);
    }

    #[test]
    fn aggregated_matches_oracle() {
        let var = variable();
        let q = SlidingMedian::new(
            layout(),
            SlidingMedianVariant::Aggregated {
                buffer_bytes: 1 << 20,
            },
        );
        let run = q.run(&var).unwrap();
        let expected = oracle::sliding_median(&var, 3).unwrap();
        assert_eq!(run.medians.len(), expected.len());
        assert_eq!(run.medians, expected);
    }

    #[test]
    fn aggregated_with_tiny_buffer_still_correct() {
        // §IV-A: flushing early "slightly reduces the effectiveness of
        // aggregation" but must not change answers.
        let var = variable();
        let q = SlidingMedian::new(
            layout(),
            SlidingMedianVariant::Aggregated { buffer_bytes: 256 },
        );
        let run = q.run(&var).unwrap();
        let expected = oracle::sliding_median(&var, 3).unwrap();
        assert_eq!(run.medians, expected);
    }

    #[test]
    fn failed_aggregated_attempt_leaves_no_windows_behind() {
        // Panics once, part-way through a split, after the inner task has
        // accumulated windows for the records before it.
        struct PanicsOnce {
            inner: AggMedianMapper,
            records: AtomicUsize,
        }
        struct PanicsOnceTask<'a> {
            inner: Box<dyn MapTask + 'a>,
            records: &'a AtomicUsize,
        }
        impl Mapper for PanicsOnce {
            fn task(&self) -> Box<dyn MapTask + '_> {
                Box::new(PanicsOnceTask {
                    inner: self.inner.task(),
                    records: &self.records,
                })
            }
            fn map(&self, key: &[u8], value: &[u8], out: &mut dyn Emit) {
                let mut task = self.task();
                task.map(key, value, out);
                task.finish(out);
            }
        }
        impl MapTask for PanicsOnceTask<'_> {
            fn map(&mut self, key: &[u8], value: &[u8], out: &mut dyn Emit) {
                self.inner.map(key, value, out);
                if self.records.fetch_add(1, Ordering::Relaxed) == 7 {
                    panic!("injected map failure");
                }
            }
            fn finish(self: Box<Self>, out: &mut dyn Emit) {
                self.inner.finish(out);
            }
        }

        let var = variable();
        let mut q = SlidingMedian::new(
            layout(),
            SlidingMedianVariant::Aggregated {
                buffer_bytes: 1 << 20,
            },
        );
        // One map slot: the retry runs on the thread the failed attempt
        // ran on.
        q.base_config = q.base_config.with_slots(1, 1).with_retries(1);
        let splits = crate::input::dataset_splits(&var, &q.layout, q.num_splits).unwrap();
        let (config, inner, reducer) = q.aggregated_job(&var, 1 << 20).unwrap();
        let mapper = PanicsOnce {
            inner,
            records: AtomicUsize::new(0),
        };
        let result = Job::new(config)
            .run(splits, Arc::new(mapper), Arc::new(reducer))
            .unwrap();
        assert_eq!(result.counters.get(Counter::TaskRetries), 1);
        let medians = q.parse_outputs(&result).unwrap();
        assert_eq!(medians, oracle::sliding_median(&var, 3).unwrap());
    }

    #[test]
    fn codec_variant_matches_plain() {
        let var = variable();
        let plain = SlidingMedian::new(layout(), SlidingMedianVariant::Plain)
            .run(&var)
            .unwrap();
        let codec = SlidingMedian::new(
            layout(),
            SlidingMedianVariant::PlainWithCodec(Arc::new(scihadoop_compress::DeflateCodec::new())),
        )
        .run(&var)
        .unwrap();
        assert_eq!(plain.medians, codec.medians);
        // Codec must not change raw bytes but must shrink materialized.
        assert_eq!(
            plain.result.stats.map_output_bytes,
            codec.result.stats.map_output_bytes
        );
        assert!(
            codec.result.stats.map_output_materialized_bytes
                < plain.result.stats.map_output_materialized_bytes
        );
    }

    #[test]
    fn aggregation_shrinks_intermediate_data() {
        let bytes = |var: &Variable, version, variant| {
            let mut q = SlidingMedian::new(layout(), variant);
            q.base_config = q.base_config.with_ifile_version(version);
            q.run(var).unwrap().result.stats.map_output_bytes
        };
        let aggregated = || SlidingMedianVariant::Aggregated {
            buffer_bytes: 1 << 20,
        };
        // Against Hadoop's framed records (the paper's baseline).
        let var = variable();
        let plain = bytes(&var, IFileVersion::V2, SlidingMedianVariant::Plain);
        let agg = bytes(&var, IFileVersion::V2, aggregated());
        assert!(agg < plain, "aggregated {agg} vs plain {plain}");
        // The default format stores each key once per group, which is
        // what aggregation buys: on a grid large enough for either to
        // amortize its per-block and per-split costs, the plain path
        // lands within 5 % of the aggregated one.
        let var = Variable::random_i32("t", Shape::new(vec![128, 128]), 1000, 42).unwrap();
        let plain = bytes(&var, IFileVersion::default(), SlidingMedianVariant::Plain);
        let agg = bytes(&var, IFileVersion::default(), aggregated());
        assert!(
            plain.abs_diff(agg) * 20 <= agg,
            "aggregated {agg} vs plain {plain}"
        );
    }
}
