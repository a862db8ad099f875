//! The five workloads: what each one pins, how one job of each is run,
//! and the plain-median mapper/reducer pair the process-mode workloads
//! need (the query crate's own pair is private and local-only).
//!
//! Everything that defines a workload is pinned here; every other knob
//! (IFile version, spill buffer, shuffle memory, chunk size, credits)
//! stays at the library default, so a change of default is measured by
//! the benchmark instead of hidden from it.

use scihadoop_compress::DeflateCodec;
use scihadoop_core::TransformCodec;
use scihadoop_grid::{Coord, Shape, Variable};
use scihadoop_mapreduce::dist::{run_distributed, run_worker, DistConfig, WorkerEnv};
use scihadoop_mapreduce::{
    Emit, Framing, JobConfig, JobResult, KvPair, Mapper, MrError, Reducer, Transport, WireCodec,
};
use scihadoop_queries::median::median_of;
use scihadoop_queries::{
    dataset_splits, CurveKind, KeyLayout, SlidingMedian, SlidingMedianVariant,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Grid side of a full run. The single sizing constant: chosen so the
/// fastest workload's job takes about half a second and the slowest
/// still repeats seven times inside one run on a 2-core host.
pub const GRID_N: u32 = 512;
/// Grid side of `--quick` runs (tests).
pub const QUICK_N: u32 = 96;
/// Input splits (map tasks) per job.
pub const SPLITS: usize = 16;
/// Reduce tasks per job (the paper's cluster ran 5).
pub const REDUCERS: usize = 5;
/// Sliding-window side.
pub const WINDOW: u32 = 3;
/// Cell values are uniform in `0..VALUE_RANGE`.
pub const VALUE_RANGE: i32 = 1_000_000;
/// Aggregation-buffer flush threshold of `median-agg-local`.
pub const AGG_BUFFER_BYTES: usize = 64 << 20;
/// Map slots and reduce slots of a measured job (this host has two
/// cores). In process mode: worker processes, each running one task at
/// a time.
pub const SLOTS: usize = 2;

/// The job payload spawned workers must see; anything else means the
/// worker was started for a job this binary does not know.
const PLAIN_MEDIAN_PAYLOAD: &str = "plain-median";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlainLocal,
    TransformLocal,
    AggLocal,
    PlainProc,
    PlainProcLzSpill,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PlainLocal,
        Workload::TransformLocal,
        Workload::AggLocal,
        Workload::PlainProc,
        Workload::PlainProcLzSpill,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlainLocal => "median-plain-local",
            Workload::TransformLocal => "median-transform-local",
            Workload::AggLocal => "median-agg-local",
            Workload::PlainProc => "median-plain-proc",
            Workload::PlainProcLzSpill => "median-plain-proc-lzspill",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the job runs on spawned worker processes.
    pub fn is_proc(self) -> bool {
        matches!(self, Workload::PlainProc | Workload::PlainProcLzSpill)
    }

    /// The distributed-runtime settings of a `-proc` workload with
    /// `workers` worker processes.
    pub fn dist_config(self, workers: usize) -> DistConfig {
        let dist = DistConfig::default()
            .with_workers(workers)
            .with_transport(Transport::Uds)
            .with_job_payload(PLAIN_MEDIAN_PAYLOAD);
        match self {
            Workload::PlainProcLzSpill => dist
                .with_wire_codec(WireCodec::Lz)
                .with_shuffle_mem_bytes(Some(0)),
            _ => dist,
        }
    }
}

/// The paper's key layout for a 2-D grid: variable index + coordinates.
pub fn layout() -> KeyLayout {
    KeyLayout::Indexed { index: 0, ndims: 2 }
}

/// The `n×n` input grid; `seed` changes only the cell values.
pub fn grid(n: u32, seed: u64) -> Variable {
    Variable::random_i32("grid", Shape::new(vec![n, n]), VALUE_RANGE, seed)
        .expect("a non-empty 2-D shape is a valid variable")
}

/// The engine configuration every workload shares. `slots` is [`SLOTS`]
/// for measured runs and 1 for the single-slot run the replay's
/// coverage is taken against.
pub fn job_config(slots: usize) -> JobConfig {
    JobConfig::default()
        .with_reducers(REDUCERS)
        .with_slots(slots, slots)
        .with_framing(Framing::IFile)
}

/// Parsed medians plus the engine's own result.
pub struct JobOutcome {
    pub medians: HashMap<Coord, i32>,
    pub result: JobResult,
}

/// Run one job of `workload` over `var`, from the in-memory variable to
/// parsed medians — the span `job_wall_s` times. `slots` is the number
/// of map and of reduce slots (worker processes in process mode).
pub fn run_job(workload: Workload, var: &Variable, slots: usize) -> Result<JobOutcome, MrError> {
    let variant = match workload {
        Workload::PlainLocal => SlidingMedianVariant::Plain,
        Workload::TransformLocal => SlidingMedianVariant::PlainWithCodec(Arc::new(
            TransformCodec::with_defaults(Arc::new(DeflateCodec::new())),
        )),
        Workload::AggLocal => SlidingMedianVariant::Aggregated {
            buffer_bytes: AGG_BUFFER_BYTES,
        },
        Workload::PlainProc | Workload::PlainProcLzSpill => {
            return run_proc_job(workload, var, slots)
        }
    };
    let query = SlidingMedian {
        window: WINDOW,
        layout: layout(),
        variant,
        num_splits: SPLITS,
        base_config: job_config(slots),
        curve: CurveKind::ZOrder,
    };
    let run = query.run(var)?;
    Ok(JobOutcome {
        medians: run.medians,
        result: run.result,
    })
}

fn run_proc_job(workload: Workload, var: &Variable, workers: usize) -> Result<JobOutcome, MrError> {
    let layout = layout();
    let splits =
        dataset_splits(var, &layout, SPLITS).map_err(|e| MrError::Config(e.to_string()))?;
    let result = run_distributed(&job_config(1), &workload.dist_config(workers), splits)?;
    let medians = parse_medians(&layout, result.outputs.iter().flatten())?;
    Ok(JobOutcome { medians, result })
}

/// Decode reducer outputs into medians per window centre, exactly as
/// `SlidingMedian::run` does for the local workloads.
pub fn parse_medians<'a>(
    layout: &KeyLayout,
    outputs: impl Iterator<Item = &'a KvPair>,
) -> Result<HashMap<Coord, i32>, MrError> {
    let mut medians = HashMap::new();
    for pair in outputs {
        let coord = layout
            .decode(&pair.key)
            .map_err(|e| MrError::Intermediate(e.to_string()))?;
        let value = i32::from_be_bytes(
            pair.value
                .as_slice()
                .try_into()
                .map_err(|_| MrError::Intermediate("median value is not 4 bytes".into()))?,
        );
        medians.insert(coord, value);
    }
    Ok(medians)
}

/// Emits each cell's value to the nine window centres around it, in
/// the same order as the query crate's private plain mapper: offsets
/// enumerate `[-h, h]²` with the last dimension fastest.
pub struct PlainMedianMapper {
    layout: KeyLayout,
    offsets: Vec<Coord>,
}

impl PlainMedianMapper {
    pub fn new() -> Self {
        let h = (WINDOW as i32 - 1) / 2;
        let offsets = (-h..=h)
            .flat_map(|dx| (-h..=h).map(move |dy| Coord::new(vec![dx, dy])))
            .collect();
        PlainMedianMapper {
            layout: layout(),
            offsets,
        }
    }
}

impl Default for PlainMedianMapper {
    fn default() -> Self {
        PlainMedianMapper::new()
    }
}

impl Mapper for PlainMedianMapper {
    fn map(&self, key: &[u8], value: &[u8], out: &mut dyn Emit) {
        let coord = self.layout.decode(key).expect("input key");
        for off in &self.offsets {
            out.emit(&self.layout.encode(&(&coord + off)), value);
        }
    }
}

/// Lower median of a window centre's values.
pub struct PlainMedianReducer;

impl Reducer for PlainMedianReducer {
    fn reduce(&self, key: &[u8], values: &[&[u8]], out: &mut dyn Emit) {
        let mut vals: Vec<i32> = values
            .iter()
            .map(|v| i32::from_be_bytes((*v).try_into().expect("4-byte value")))
            .collect();
        out.emit(key, &median_of(&mut vals).to_be_bytes());
    }
}

/// Worker-process bootstrap: serve tasks of the plain-median job until
/// the coordinator shuts the worker down. Returns the exit code.
pub fn worker_main(env: &WorkerEnv) -> i32 {
    let served = if env.job_payload == PLAIN_MEDIAN_PAYLOAD {
        run_worker(
            env.transport,
            &env.addr,
            env.worker,
            &job_config(1),
            &PlainMedianMapper::new(),
            &PlainMedianReducer,
        )
    } else {
        Err(MrError::Config(format!(
            "unknown job payload {:?}",
            env.job_payload
        )))
    };
    match served {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("benchmark worker {}: {e}", env.worker);
            1
        }
    }
}
