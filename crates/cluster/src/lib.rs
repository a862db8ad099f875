//! A cost-model cluster simulator for the paper's end-to-end experiments.
//!
//! The paper's §III-E and §IV-D rows come from a 5-node cluster (10 map
//! slots, 5 reducers) running a sliding median over an 8000² grid. We
//! replay them in Herodotou's split of a job into dataflow and cost
//! statistics. A real in-process job on a small grid counts the dataflow
//! exactly ([`JobStats`](scihadoop_mapreduce::JobStats)); [`scale_stats`]
//! scales the counts to 8000² and drops this machine's timings;
//! [`CostStats`] prices the counted bytes at 2012 Hadoop's engine and codec
//! costs, which [`CostStats::fit`] takes from the paper's baseline (183 min)
//! and transform (377 min) rows; and [`CostModel::simulate`] charges disk,
//! network and that CPU for each stage of Fig. 1. The aggregation row
//! (131 min) is the one prediction.

pub mod model;
pub mod scale;

pub use model::{stats_from_ledger, ClusterSpec, CostModel, CostStats, PhaseTimes, SimReport};
pub use scale::scale_stats;
