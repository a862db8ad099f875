//! Error type shared across the grid crate.

use std::fmt;

/// Errors produced while manipulating grids or (de)serializing keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// Two objects that must share dimensionality do not.
    DimensionMismatch { expected: usize, actual: usize },
    /// A coordinate lies outside the bounding box or shape it was used with.
    OutOfBounds { coord: Vec<i32>, context: String },
    /// A serialized byte stream ended prematurely or contained bad data.
    Deserialize(String),
    /// A shape with zero extent in some dimension where that is not allowed.
    EmptyShape,
    /// A variable was to be carved into zero input splits.
    NoSplits,
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            GridError::OutOfBounds { coord, context } => {
                write!(f, "coordinate {coord:?} out of bounds in {context}")
            }
            GridError::Deserialize(msg) => write!(f, "deserialization error: {msg}"),
            GridError::EmptyShape => write!(f, "shape has zero extent"),
            GridError::NoSplits => write!(f, "cannot carve a variable into zero splits"),
        }
    }
}

impl std::error::Error for GridError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_readable() {
        let e = GridError::DimensionMismatch {
            expected: 3,
            actual: 2,
        };
        assert_eq!(e.to_string(), "dimension mismatch: expected 3, got 2");
        let e = GridError::OutOfBounds {
            coord: vec![1, 2],
            context: "test".into(),
        };
        assert!(e.to_string().contains("[1, 2]"));
        assert!(GridError::EmptyShape.to_string().contains("zero extent"));
        assert!(GridError::NoSplits.to_string().contains("zero splits"));
        assert!(GridError::Deserialize("short read".into())
            .to_string()
            .contains("short read"));
    }
}
