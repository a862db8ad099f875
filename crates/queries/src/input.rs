//! Building MapReduce input splits from grid datasets.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::layout::KeyLayout;
use scihadoop_grid::{GridError, LongestCut, Variable};
use scihadoop_mapreduce::{InputSplit, KvPair};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;

/// Carve a variable into input splits along its longest dimension — the
/// engine's analogue of SciHadoop handing each mapper a contiguous block
/// of the array. Each record is `(encoded coordinate, big-endian value
/// bytes)`, in row-major order within its split.
///
/// `num_splits` is an upper bound: a split is at least one cell thick, so
/// asking for more splits than the longest dimension has cells yields one
/// split per cell of that dimension. Zero splits is an error.
///
/// Splits are built a row at a time on up to one thread per core, the
/// caller's among them, each filling whole splits. Every allocation is
/// the caller's: each split's record vector at its exact capacity, and
/// one key buffer per thread holding the variable identifier, whose
/// coordinates are overwritten in place per record. The row's values are
/// one slice of the variable's data, whatever the element width.
pub fn dataset_splits(
    var: &Variable,
    layout: &KeyLayout,
    num_splits: usize,
) -> Result<Vec<InputSplit>, GridError> {
    let extents = var.shape().extents();
    if layout.ndims() != extents.len() {
        return Err(GridError::DimensionMismatch {
            expected: extents.len(),
            actual: layout.ndims(),
        });
    }
    if num_splits == 0 {
        return Err(GridError::NoSplits);
    }
    if extents.is_empty() {
        // A 0-d variable has no rows to carve.
        return Err(GridError::EmptyShape);
    }
    let cut = var.shape().longest_cut(num_splits);
    let cells_per_slice = var.shape().num_cells() / extents[cut.dim] as u64;
    let mut splits: Vec<InputSplit> = (0..cut.parts)
        .map(|p| {
            let cells = cells_per_slice * cut.part(p).len() as u64;
            InputSplit::new(Vec::with_capacity(cells as usize))
        })
        .collect();

    let threads = cores().min(splits.len());
    // Each thread's key on cache lines of its own: the threads write
    // their keys once per record.
    let key_len = layout.key_len();
    let key_stride = key_len.next_multiple_of(KEY_ALIGN);
    let mut keys = Vec::with_capacity(threads * key_stride);
    for _ in 0..threads {
        layout.write_header(&mut keys);
        keys.resize(keys.len() + key_stride - layout.header_len(), 0);
    }
    let build = |first: usize, splits: &mut [InputSplit], key: &mut [u8]| {
        for (p, split) in (first..).zip(splits) {
            fill_split(var, &cut, p, &mut split.records, key);
        }
    };
    let per_thread = splits.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let build = &build;
        let keys = keys.chunks_mut(key_stride).map(|key| &mut key[..key_len]);
        let mut work = splits.chunks_mut(per_thread).zip(keys).enumerate();
        let own = work.next();
        for (t, (chunk, key)) in work {
            scope.spawn(move || build(t * per_thread, chunk, key));
        }
        if let Some((_, (chunk, key))) = own {
            build(0, chunk, key);
        }
    });
    Ok(splits)
}

/// Bytes between two threads' keys: two cache lines, so that neither
/// the line a key is on nor the one the prefetcher pairs with it is
/// another thread's.
const KEY_ALIGN: usize = 128;

/// The host's cores, asked of the OS once per process (the answer reads
/// files on Linux).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Append part `p` of `cut`'s records to `records`, in row-major order.
/// `key` is a whole key that starts with the variable identifier.
fn fill_split(
    var: &Variable,
    cut: &LongestCut,
    p: usize,
    records: &mut Vec<KvPair>,
    key: &mut [u8],
) {
    let extents = var.shape().extents();
    let last = extents.len() - 1;
    let header_len = key.len() - 4 * extents.len();
    let width = var.dtype().size_bytes();
    let data = var.raw_data();
    let (rows, cols) = part_rows(extents, cut, p);
    for row in rows {
        let mut rest = row;
        for d in (0..last).rev() {
            let extent = extents[d] as u64;
            key[header_len + 4 * d..][..4].copy_from_slice(&((rest % extent) as i32).to_be_bytes());
            rest /= extent;
        }
        let first = (row * extents[last] as u64) as usize;
        for x in cols.clone() {
            key[header_len + 4 * last..].copy_from_slice(&(x as i32).to_be_bytes());
            let value = &data[(first + x as usize) * width..][..width];
            records.push(KvPair::new(&*key, value));
        }
    }
}

/// The rows of part `p` of `cut` over a grid of `extents`, as row-major
/// row numbers (a row is a run of cells along the last dimension), and
/// the columns each of them contributes.
fn part_rows(
    extents: &[u32],
    cut: &LongestCut,
    p: usize,
) -> (impl Iterator<Item = u64>, Range<u32>) {
    let last = extents.len() - 1;
    let along = cut.part(p);
    let rows: u64 = extents[..last].iter().map(|&e| e as u64).product();
    // The grid's rows fall in `outer` blocks of `extent × inner` rows,
    // each `inner` rows thick along the cut dimension; the part takes
    // the span of each block that `along` picks. Cut along the last
    // dimension, every row is in the part, with its `along` columns.
    let (span, cols, extent, inner) = if cut.dim == last {
        (0..1, along, 1, rows)
    } else {
        let inner = extents[cut.dim + 1..last]
            .iter()
            .map(|&e| e as u64)
            .product();
        let span = along.start as u64..along.end as u64;
        (span, 0..extents[last], extents[cut.dim] as u64, inner)
    };
    let outer = rows / (extent * inner);
    let rows = (0..outer)
        .flat_map(move |o| (o * extent + span.start) * inner..(o * extent + span.end) * inner);
    (rows, cols)
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
