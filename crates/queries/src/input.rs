//! Building MapReduce input splits from grid datasets.

use crate::layout::KeyLayout;
use scihadoop_grid::{GridError, Variable};
use scihadoop_mapreduce::{InputSplit, KvPair};

/// Carve a variable into input splits along its longest dimension — the
/// engine's analogue of SciHadoop handing each mapper a contiguous block
/// of the array. Each record is `(encoded coordinate, big-endian value
/// bytes)`, in row-major order within its split.
///
/// `num_splits` is an upper bound: a split is at least one cell thick, so
/// asking for more splits than the longest dimension has cells yields one
/// split per cell of that dimension. Zero splits is an error.
///
/// Splits are built a row at a time: the part of the key that is the same
/// along a row (variable identifier and leading coordinates) is encoded
/// once per row, into one buffer each record's key is copied out of, and
/// the row's values are one slice of the variable's data, whatever the
/// element width.
pub fn dataset_splits(
    var: &Variable,
    layout: &KeyLayout,
    num_splits: usize,
) -> Result<Vec<InputSplit>, GridError> {
    let ndims = var.shape().ndims();
    if layout.ndims() != ndims {
        return Err(GridError::DimensionMismatch {
            expected: ndims,
            actual: layout.ndims(),
        });
    }
    if num_splits == 0 {
        return Err(GridError::NoSplits);
    }
    let Some(last) = ndims.checked_sub(1) else {
        // A 0-d variable has no rows to carve.
        return Err(GridError::EmptyShape);
    };
    let width = var.dtype().size_bytes();
    let data = var.raw_data();
    let mut row_key = Vec::with_capacity(layout.key_len());
    layout.write_header(&mut row_key);
    let header_len = row_key.len();

    let boxes = var.bounds().split_longest(num_splits);
    let mut splits = Vec::with_capacity(boxes.len());
    for b in boxes {
        let row_cells = b.shape().extents()[last] as usize;
        let mut records = Vec::with_capacity(b.num_cells() as usize);
        for start in b.row_starts() {
            row_key.truncate(header_len);
            for c in &start.components()[..last] {
                row_key.extend_from_slice(&c.to_be_bytes());
            }
            let row_len = row_key.len();
            let first = var.shape().linearize(&start)? as usize;
            let values = data[first * width..(first + row_cells) * width].chunks_exact(width);
            for (x, value) in (start[last]..).zip(values) {
                row_key.truncate(row_len);
                row_key.extend_from_slice(&x.to_be_bytes());
                records.push(KvPair::new(row_key.as_slice(), value));
            }
        }
        splits.push(InputSplit::new(records));
    }
    Ok(splits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scihadoop_grid::Shape;

    #[test]
    fn splits_cover_every_cell_once() {
        let var = Variable::random_i32("t", Shape::new(vec![6, 5]), 100, 1).unwrap();
        let layout = KeyLayout::Indexed { index: 0, ndims: 2 };
        let splits = dataset_splits(&var, &layout, 4).unwrap();
        assert_eq!(splits.len(), 4);
        let total: usize = splits.iter().map(|s| s.records.len()).sum();
        assert_eq!(total, 30);
        // All keys distinct.
        let mut keys: Vec<Vec<u8>> = splits
            .iter()
            .flat_map(|s| s.records.iter().map(|r| r.key.to_vec()))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 30);
    }

    #[test]
    fn record_values_match_the_grid() {
        let var = Variable::random_i32("t", Shape::new(vec![4, 4]), 50, 7).unwrap();
        let layout = KeyLayout::Indexed { index: 0, ndims: 2 };
        let splits = dataset_splits(&var, &layout, 2).unwrap();
        for split in &splits {
            for rec in &split.records {
                let coord = layout.decode(&rec.key).unwrap();
                let expected = var.get(&coord).unwrap();
                let mut buf = Vec::new();
                expected.write_be(&mut buf);
                assert_eq!(rec.value, buf);
            }
        }
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let var = Variable::random_i32("t", Shape::new(vec![4, 4]), 50, 7).unwrap();
        let layout = KeyLayout::Indexed { index: 0, ndims: 3 };
        assert!(dataset_splits(&var, &layout, 2).is_err());
    }

    #[test]
    fn dataset_byte_arithmetic_matches_intro() {
        // The §I numbers: 100³ f32 grid, 4-int keys → 26 B/record in
        // SequenceFile framing. Verify key/value sizes here (the full
        // file-size reproduction lives in the bench harness).
        let layout = KeyLayout::Indexed { index: 0, ndims: 3 };
        assert_eq!(layout.key_len() + 4, 20); // + 6 framing = 26
    }
}
