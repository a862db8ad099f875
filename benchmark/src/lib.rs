//! The repository's benchmark: seconds-scale sliding-median jobs in
//! local and process mode, measured end to end, plus a single-threaded
//! layer replay that explains where the time goes. See `README.md`.

pub mod compare;
pub mod harness;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod replay;
pub mod workloads;
