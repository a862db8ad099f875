//! A from-scratch, multi-threaded MapReduce engine — the "rebuilt
//! intermediate-data pipeline" this reproduction substitutes for Hadoop.
//!
//! The engine reproduces the stages of the paper's Fig. 1 faithfully,
//! because the paper's results are entirely about what flows between
//! them:
//!
//! 1. mappers read input splits (each split runs on a *map slot*);
//! 2. map output is partitioned, sorted and optionally combined;
//! 3. sorted runs are materialized in an IFile-style record format
//!    through a pluggable [`Codec`] — **the byte counts here are the
//!    paper's "Map output materialized bytes"**;
//! 4. the shuffle hands each reducer its partition from every map;
//! 5. reducers merge-sort runs, apply key-semantics hooks (the paper's
//!    §IV-B key-splitting change lives behind [`KeySemantics`]), group,
//!    and reduce.
//!
//! Keys and values are raw byte strings, as in Hadoop; typed layers live
//! above (see `scihadoop-queries`).
//!
//! [`Codec`]: scihadoop_compress::Codec

pub mod arena;
pub mod clock;
pub mod counters;
pub mod dist;
pub mod error;
pub mod fault;
pub mod ifile;
pub mod job;
pub mod keysem;
pub mod obs;
pub mod record;
pub mod runner;
mod scheduler;
mod shuffle;
pub mod sort;
pub mod stats;

pub use arena::SpillArena;
pub use counters::{Counter, CounterKind, CounterSnapshot, Counters, ALL_COUNTERS, NUM_COUNTERS};
pub use dist::{
    run_distributed, run_distributed_with_threads, run_worker, DistConfig, Transport, WireCodec,
    WorkerEnv,
};
pub use error::MrError;
pub use fault::{Corruption, FaultConfig, FaultPlan};
pub use ifile::{
    BlockCursor, EncodedBlock, Framing, IFileVersion, IFileWriter, RawSegment, DEFAULT_BLOCK_BUDGET,
};
pub use job::{Job, JobConfig, JobResult};
pub use keysem::{bytewise_sort_prefix_wide, DefaultKeySemantics, KeySemantics, RouteSink};
pub use obs::{Phase, Recorder, Trace};
pub use record::{Bytes, Emit, FnMapper, FnReducer, InputSplit, KvPair, MapTask, Mapper, Reducer};
pub use sort::{for_each_group, sort_pairs, BlockMergeStream, MergeItem};
pub use stats::JobStats;
