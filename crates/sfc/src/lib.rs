//! Space-filling curves for key aggregation.
//!
//! Paper §IV-A: aggregation in the keys' n-dimensional space is hard
//! (suspected NP-hard), so the space is reduced to one dimension with a
//! space-filling curve; "each contiguous range of indices becomes an
//! aggregate key". The paper uses a Z-order curve "due to speed and ease
//! of implementation" and notes the Hilbert curve clusters better (Moon
//! et al.) at higher cost — both are implemented here, plus row-major as
//! the trivial baseline, so the trade-off can be measured
//! (`repro curves`).

pub mod curve;
pub mod hilbert;
pub mod ranges;
pub mod rowmajor;
pub mod zorder;

pub use curve::{index_prefix48, Curve, CurveIndex};
pub use hilbert::HilbertCurve;
pub use ranges::{box_runs, clustering_run_count, collapse_sorted, CurveRun};
pub use rowmajor::RowMajorCurve;
pub use zorder::ZOrderCurve;
