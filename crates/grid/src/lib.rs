//! n-dimensional scientific grid model for the SciHadoop key-compression
//! reproduction.
//!
//! This crate models the *input side* of the paper: regular grids of
//! scientific values (e.g. a 3-D `windspeed1` field), the coordinate keys
//! Hadoop would generate for them, and the exact byte layouts
//! ("Writable"-style) that make intermediate keys so expensive.
//!
//! The key observation reproduced here (paper §I): a 100³ grid of 4-byte
//! floats serialized as independent `(variable, coordinate) → value`
//! records costs 26 bytes/record with an integer variable index and 33
//! bytes/record with the variable name `windspeed1` — 450 % and 625 %
//! overhead over the 4 MB of actual data.

pub mod bbox;
pub mod coord;
pub mod dataset;
pub mod error;
pub mod shape;
pub mod value;
pub mod writable;

pub use bbox::BoundingBox;
pub use coord::{Coord, INLINE_DIMS};
pub use dataset::Variable;
pub use error::GridError;
pub use shape::{LongestCut, Shape};
pub use value::{DataType, Value};
