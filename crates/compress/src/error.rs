//! Error type for (de)compression.

use std::fmt;

/// Errors produced while decompressing (compression itself is total).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// Stream does not start with the expected magic bytes.
    BadMagic { expected: &'static str },
    /// Stream ended before the declared payload did.
    Truncated(String),
    /// A structural invariant of the format was violated.
    Corrupt(String),
    /// A frame's CRC-32C (over its method, declared length and payload)
    /// does not match the stored value; no decoder has run.
    ChecksumMismatch { stored: u32, computed: u32 },
    /// A Huffman code table could not be reconstructed.
    BadHuffmanTable(String),
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::BadMagic { expected } => {
                write!(f, "bad magic: expected {expected}")
            }
            CompressError::Truncated(what) => write!(f, "truncated stream: {what}"),
            CompressError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            CompressError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            CompressError::BadHuffmanTable(what) => write!(f, "bad huffman table: {what}"),
        }
    }
}

impl std::error::Error for CompressError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_details() {
        let e = CompressError::ChecksumMismatch {
            stored: 0xDEADBEEF,
            computed: 1,
        };
        assert!(e.to_string().contains("0xdeadbeef"));
        assert!(CompressError::BadMagic { expected: "SDZ1" }
            .to_string()
            .contains("SDZ1"));
        assert!(CompressError::Truncated("header".into())
            .to_string()
            .contains("header"));
    }
}
