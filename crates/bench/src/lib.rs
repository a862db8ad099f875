//! Experiment harness: one function per table/figure of the paper.
//!
//! Each function returns a structured report that the `repro` binary
//! prints next to the paper's reference numbers and the Criterion
//! benches time. All workloads are deterministic (seeded).

pub mod codecs;
pub mod distjobs;
pub mod experiments;
pub mod json;
pub mod regress;
pub mod report;
pub mod workloads;

pub use codecs::codec_by_name;
pub use distjobs::{dist_worker, job_config, wordcount_mapper, wordcount_reducer};
pub use experiments::*;
pub use report::Table;
