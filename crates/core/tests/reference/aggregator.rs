//! The original aggregation buffer — the methods the suite calls, as
//! they were — retained as an executable specification: every push is
//! one heap `Vec` and one insert into a `BTreeMap` keyed by `(variable,
//! curve index)`, and `flush` rebuilds a second map per variable and
//! looks every index up again per run. `core_prop.rs` holds
//! [`Aggregator`](scihadoop_core::aggregate::Aggregator) to identical
//! record sequences on arbitrary push sequences. One quirk is kept with
//! the rest: a zero-width first push records the variable's width before
//! it is rejected, so the suite never pushes an empty value here.

use scihadoop_core::aggregate::{AggregateKey, AggregateRecord};
use scihadoop_grid::{Coord, GridError};
use scihadoop_sfc::{collapse_sorted, Curve, CurveIndex};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Buffers `(variable, coordinate, value)` triples, collapses contiguous
/// curve indices into [`AggregateRecord`]s, and flushes when a byte
/// threshold is reached.
pub struct ReferenceAggregator {
    curve: Arc<dyn Curve>,
    threshold_bytes: usize,
    /// Sorted staging area: (variable, curve index) → value bytes.
    buf: BTreeMap<(u32, CurveIndex), Vec<u8>>,
    buffered_bytes: usize,
    /// Value width per variable, fixed at first push.
    widths: BTreeMap<u32, usize>,
    /// Total simple pairs pushed (statistics for the evaluation).
    pairs_in: u64,
    /// Total aggregate records flushed.
    records_out: u64,
}

impl ReferenceAggregator {
    /// A buffer over `curve`, flushing automatically once roughly
    /// `threshold_bytes` of values are staged.
    pub fn with_curve(curve: Arc<dyn Curve>, threshold_bytes: usize) -> Self {
        assert!(threshold_bytes > 0, "threshold must be positive");
        ReferenceAggregator {
            curve,
            threshold_bytes,
            buf: BTreeMap::new(),
            buffered_bytes: 0,
            widths: BTreeMap::new(),
            pairs_in: 0,
            records_out: 0,
        }
    }

    /// Push a pair for an explicit variable.
    pub fn push_var(
        &mut self,
        variable: u32,
        coord: &Coord,
        value: &[u8],
    ) -> Result<Option<Vec<AggregateRecord>>, GridError> {
        let width = *self.widths.entry(variable).or_insert(value.len());
        if value.len() != width {
            return Err(GridError::Deserialize(format!(
                "variable {variable} has {width}-byte values, got {}",
                value.len()
            )));
        }
        if width == 0 {
            return Err(GridError::Deserialize("zero-width values".into()));
        }
        let index = self.curve.index_of_coord(coord)?;
        let prev = self.buf.insert((variable, index), value.to_vec());
        if prev.is_none() {
            self.buffered_bytes += width;
        }
        self.pairs_in += 1;
        if self.buffered_bytes >= self.threshold_bytes {
            Ok(Some(self.flush()))
        } else {
            Ok(None)
        }
    }

    /// Drain the buffer into aggregate records, one per maximal
    /// contiguous index run per variable.
    pub fn flush(&mut self) -> Vec<AggregateRecord> {
        let mut out = Vec::new();
        let buf = std::mem::take(&mut self.buf);
        self.buffered_bytes = 0;

        let mut current_var: Option<u32> = None;
        let mut indices: Vec<CurveIndex> = Vec::new();
        let mut values: BTreeMap<CurveIndex, Vec<u8>> = BTreeMap::new();
        let emit = |var: u32,
                    indices: &mut Vec<CurveIndex>,
                    values: &mut BTreeMap<CurveIndex, Vec<u8>>,
                    out: &mut Vec<AggregateRecord>| {
            for run in collapse_sorted(indices) {
                let mut payload = Vec::new();
                for i in run.start..=run.end {
                    payload.extend_from_slice(&values[&i]);
                }
                out.push(AggregateRecord {
                    key: AggregateKey::new(var, run),
                    values: payload,
                });
            }
            indices.clear();
            values.clear();
        };

        for ((var, index), value) in buf {
            if current_var != Some(var) {
                if let Some(v) = current_var {
                    emit(v, &mut indices, &mut values, &mut out);
                }
                current_var = Some(var);
            }
            indices.push(index);
            values.insert(index, value);
        }
        if let Some(v) = current_var {
            emit(v, &mut indices, &mut values, &mut out);
        }
        self.records_out += out.len() as u64;
        out
    }

    /// Simple pairs pushed so far.
    pub fn pairs_in(&self) -> u64 {
        self.pairs_in
    }

    /// Aggregate records flushed so far.
    pub fn records_out(&self) -> u64 {
        self.records_out
    }
}
