//! SciHadoop-style scientific queries over the MapReduce engine.
//!
//! The paper's evaluation workload is a *sliding median* (§IV-C): every
//! grid cell's output is the median of the w×w window centred on it.
//! [`median`] implements it in the three configurations the paper
//! compares:
//!
//! * **plain** — simple per-cell keys, no compression (the baseline);
//! * **transform** — same job with the §III transform codec on the
//!   intermediate data;
//! * **aggregated** — the §IV aggregation library in the mapper plus
//!   aggregate-key splitting in the engine.
//!
//! [`oracle`] holds the direct sequential implementation the MapReduce
//! answers are tested against.

mod fill;
pub mod input;
pub mod layout;
pub mod median;
pub mod oracle;

pub use input::dataset_splits;
pub use layout::{BiasedCurve, KeyLayout};
pub use median::{CurveKind, SlidingMedian, SlidingMedianVariant};
