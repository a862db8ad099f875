//! The workspace's JSON reader and writer live in
//! [`scihadoop_mapreduce::obs::json`]; this path re-exports them for
//! the binaries here and for the `benchmark/` package.

pub use scihadoop_mapreduce::obs::json::*;
