//! Aggregate keys: contiguous curve-index ranges (§IV-A: "each contiguous
//! range of indices becomes an aggregate key").

use scihadoop_grid::GridError;
use scihadoop_sfc::{CurveIndex, CurveRun};

/// An aggregate intermediate key: a variable plus an inclusive range of
/// space-filling-curve indices.
///
/// Replaces up to `run.len()` simple keys (each ~16–23 bytes serialized,
/// see `scihadoop-grid::writable`) with one constant-size key — the
/// mechanism behind Fig. 8's keys-to-kilobytes collapse.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AggregateKey {
    /// Variable index (names live in dataset metadata; the paper's §I
    /// measurements show why names must not ride along on every key).
    pub variable: u32,
    /// Inclusive curve-index range.
    pub run: CurveRun,
}

/// Serialized size of an aggregate key: u32 variable + u128 start +
/// u64 length, all big-endian so bytewise sorting equals numeric sorting.
pub const AGGREGATE_KEY_LEN: usize = 4 + 16 + 8;

impl AggregateKey {
    /// Construct a key.
    pub fn new(variable: u32, run: CurveRun) -> Self {
        AggregateKey { variable, run }
    }

    /// A key covering a single curve index.
    pub fn singleton(variable: u32, index: CurveIndex) -> Self {
        AggregateKey {
            variable,
            run: CurveRun::singleton(index),
        }
    }

    /// Number of simple keys this aggregate key stands for.
    pub fn cell_count(&self) -> u128 {
        self.run.len()
    }

    /// Serialize (big-endian, bytewise-sortable).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(AGGREGATE_KEY_LEN);
        out.extend_from_slice(&self.variable.to_be_bytes());
        out.extend_from_slice(&self.run.start.to_be_bytes());
        out.extend_from_slice(&(self.run.len() as u64).to_be_bytes());
        out
    }

    /// Deserialize.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, GridError> {
        if buf.len() < AGGREGATE_KEY_LEN {
            return Err(GridError::Deserialize(format!(
                "aggregate key needs {AGGREGATE_KEY_LEN} bytes, got {}",
                buf.len()
            )));
        }
        let variable = u32::from_be_bytes(buf[0..4].try_into().unwrap());
        let start = u128::from_be_bytes(buf[4..20].try_into().unwrap());
        let len = u64::from_be_bytes(buf[20..28].try_into().unwrap());
        if len == 0 {
            return Err(GridError::Deserialize("zero-length aggregate key".into()));
        }
        let end = start
            .checked_add(len as u128 - 1)
            .ok_or_else(|| GridError::Deserialize("aggregate key overflows".into()))?;
        Ok(AggregateKey {
            variable,
            run: CurveRun { start, end },
        })
    }
}

/// An aggregate key plus its values, stored contiguously in curve order
/// (§I: "values can be stored in order and keys are represented in
/// aggregate").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregateRecord {
    /// The range this record covers.
    pub key: AggregateKey,
    /// `key.cell_count() * value_width` bytes, one fixed-width value per
    /// cell, in ascending curve-index order.
    pub values: Vec<u8>,
}

impl AggregateRecord {
    /// Construct a record, checking the value payload length.
    pub fn new(key: AggregateKey, values: Vec<u8>, value_width: usize) -> Result<Self, GridError> {
        let expected = key.cell_count() * value_width as u128;
        if values.len() as u128 != expected {
            return Err(GridError::Deserialize(format!(
                "aggregate record for {} cells × {value_width} B needs {expected} B, got {}",
                key.cell_count(),
                values.len()
            )));
        }
        Ok(AggregateRecord { key, values })
    }

    /// The values of one cell within the run.
    pub fn value_at(&self, index: CurveIndex, value_width: usize) -> Option<&[u8]> {
        if !self.key.run.contains(index) {
            return None;
        }
        let off = (index - self.key.run.start) as usize * value_width;
        Some(&self.values[off..off + value_width])
    }

    /// Slice the record to a sub-run (used by both split paths).
    pub fn slice(&self, run: scihadoop_sfc::CurveRun, value_width: usize) -> AggregateRecord {
        assert!(
            run.start >= self.key.run.start && run.end <= self.key.run.end,
            "slice {run:?} outside record {:?}",
            self.key.run
        );
        let from = (run.start - self.key.run.start) as usize * value_width;
        let to = (run.end - self.key.run.start + 1) as usize * value_width;
        AggregateRecord {
            key: AggregateKey::new(self.key.variable, run),
            values: self.values[from..to].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrips() {
        let k = AggregateKey::new(
            3,
            CurveRun {
                start: 1000,
                end: 1009,
            },
        );
        let bytes = k.to_bytes();
        assert_eq!(bytes.len(), AGGREGATE_KEY_LEN);
        assert_eq!(AggregateKey::from_bytes(&bytes).unwrap(), k);
    }

    #[test]
    fn key_bytes_sort_by_variable_then_start() {
        let a = AggregateKey::new(
            0,
            CurveRun {
                start: 500,
                end: 600,
            },
        );
        let b = AggregateKey::new(
            0,
            CurveRun {
                start: 501,
                end: 501,
            },
        );
        let c = AggregateKey::new(1, CurveRun { start: 0, end: 0 });
        let mut v = [c.to_bytes(), b.to_bytes(), a.to_bytes()];
        v.sort();
        assert_eq!(v[0], a.to_bytes());
        assert_eq!(v[1], b.to_bytes());
        assert_eq!(v[2], c.to_bytes());
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(AggregateKey::from_bytes(&[0; 10]).is_err());
        // Zero length.
        let mut bytes = AggregateKey::singleton(0, 5).to_bytes();
        bytes[20..28].copy_from_slice(&0u64.to_be_bytes());
        assert!(AggregateKey::from_bytes(&bytes).is_err());
        // Overflowing range.
        let mut bytes = AggregateKey::singleton(0, u128::MAX).to_bytes();
        bytes[20..28].copy_from_slice(&2u64.to_be_bytes());
        assert!(AggregateKey::from_bytes(&bytes).is_err());
    }

    #[test]
    fn record_checks_payload_length() {
        let k = AggregateKey::new(0, CurveRun { start: 10, end: 12 });
        assert!(AggregateRecord::new(k.clone(), vec![0; 12], 4).is_ok());
        assert!(AggregateRecord::new(k, vec![0; 11], 4).is_err());
    }

    #[test]
    fn value_at_indexes_in_curve_order() {
        let k = AggregateKey::new(0, CurveRun { start: 10, end: 12 });
        let values = vec![1u8, 1, 2, 2, 3, 3];
        let r = AggregateRecord::new(k, values, 2).unwrap();
        assert_eq!(r.value_at(10, 2).unwrap(), &[1, 1]);
        assert_eq!(r.value_at(12, 2).unwrap(), &[3, 3]);
        assert!(r.value_at(13, 2).is_none());
    }

    #[test]
    fn slice_extracts_subrange() {
        let k = AggregateKey::new(
            7,
            CurveRun {
                start: 100,
                end: 104,
            },
        );
        let values: Vec<u8> = (0..5).flat_map(|i| [i as u8; 4]).collect();
        let r = AggregateRecord::new(k, values, 4).unwrap();
        let s = r.slice(
            CurveRun {
                start: 101,
                end: 102,
            },
            4,
        );
        assert_eq!(
            s.key.run,
            CurveRun {
                start: 101,
                end: 102
            }
        );
        assert_eq!(s.values, vec![1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(s.key.variable, 7);
    }

    #[test]
    #[should_panic(expected = "outside record")]
    fn slice_outside_panics() {
        let k = AggregateKey::new(0, CurveRun { start: 10, end: 12 });
        let r = AggregateRecord::new(k, vec![0; 3], 1).unwrap();
        let _ = r.slice(CurveRun { start: 9, end: 10 }, 1);
    }

    #[test]
    fn aggregate_key_is_constant_size_regardless_of_span() {
        // §I: "keys are represented in aggregate as a (corner, size)
        // pair, the overhead is reduced to a constant."
        let small = AggregateKey::new(0, CurveRun { start: 0, end: 0 });
        let huge = AggregateKey::new(
            0,
            CurveRun {
                start: 0,
                end: u64::MAX as u128,
            },
        );
        assert_eq!(small.to_bytes().len(), huge.to_bytes().len());
    }
}
