//! §IV — Key aggregation.
//!
//! Instead of emitting one `(coordinate, value)` pair per cell, the
//! mapper hands its pairs to this library, which maps coordinates onto a
//! space-filling curve and collapses contiguous curve indices into
//! aggregate keys (`(start, length)` ranges) whose values are stored in
//! curve order (§IV-A). Because Hadoop assumes keys are atomic (§II-B),
//! aggregate keys must be splittable in two places (§IV-B):
//!
//! * **routing** — an aggregate key whose simple keys do not all route to
//!   the same reducer is split at partition boundaries;
//! * **sorting** — overlapping aggregate keys at a reducer are split
//!   along the overlap boundaries (Fig. 7) so that data for the same
//!   simple keys is reduced together.
//!
//! §IV-C's alignment/padding mitigation for overlap is in [`align`].

pub mod align;
pub mod buffer;
pub mod coalesce;
pub mod key;
pub mod keyops;
pub mod split;

pub use align::{align_run, expand_record, overlapping_pairs, padding_overhead};
pub use buffer::Aggregator;
pub use coalesce::coalesce_adjacent;
pub use key::{AggregateKey, AggregateRecord};
pub use keyops::AggregateKeyOps;
pub use split::{group_equal, overlap_split, route_split, RangePartitioner};
