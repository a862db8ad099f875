//! Generic compression substrate, built from scratch.
//!
//! The paper's byte-level approach (§III) layers a stride-predictive
//! transform *on top of* generic compressors — gzip and bzip2 — via
//! Hadoop's pluggable codec interface. No third-party compression crates
//! are in this project's allowed dependency set, so this crate implements
//! the same two algorithm families from first principles:
//!
//! * [`DeflateCodec`] — LZ77 (hash chains keyed on four bytes, 32 KiB
//!   window, lazy matching) + canonical Huffman coding, with the DEFLATE
//!   length/distance alphabets. Stands in for gzip/zlib.
//! * [`BzipCodec`] — run-length pre-pass + Burrows–Wheeler transform +
//!   move-to-front + RUNA/RUNB zero-run coding + canonical Huffman, in
//!   100 KiB–900 KiB blocks. Stands in for bzip2.
//!
//! Both, and the speed-first [`LzCodec`], write one frame (see
//! [`codec`]) whose CRC-32C is checked before any decoder runs, so
//! corruption is detected, not propagated (the failure-injection tests
//! rely on this). [`Codec`] is the pluggable interface the MapReduce
//! engine and the paper's transform codec build on: one whole-buffer
//! pass per segment, on the calling task's thread.

pub mod bitio;
pub mod bwt;
pub mod bzip;
pub mod checksum;
pub mod codec;
pub mod deflate;
pub mod error;
pub mod huffman;
pub mod lz;
pub mod lz77;
pub mod mtf;
pub mod rle;

pub use bzip::BzipCodec;
pub use checksum::{crc32c, Crc32c};
pub use codec::{Codec, CodecHandle, IdentityCodec};
pub use deflate::DeflateCodec;
pub use error::CompressError;
pub use lz::LzCodec;
