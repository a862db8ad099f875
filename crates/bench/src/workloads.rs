//! Deterministic workload generators shared by the experiments.

use scihadoop_compress::IdentityCodec;
use scihadoop_grid::{BoundingBox, Coord, Shape, Variable};
use scihadoop_mapreduce::{
    BlockMergeStream, DefaultKeySemantics, Framing, IFileWriter, InputSplit, KeySemantics, KvPair,
    RawSegment, SpillArena,
};
use scihadoop_queries::{dataset_splits, BiasedCurve, KeyLayout};
use scihadoop_sfc::ZOrderCurve;
use std::sync::Arc;

/// The Fig. 3 byte stream: "a raw stream of triples of 32-bit integers,
/// taken by walking a grid" — n³ cells × 12 bytes.
pub fn grid_key_stream(n: u32) -> Vec<u8> {
    BoundingBox::at_origin(Shape::cube(n, 3)).key_stream_be()
}

/// The shape of a sliding-median map-output segment: 18-byte records —
/// two length bytes, a 12-byte key (variable index and two coordinates
/// that change slowly) and a 4-byte value below 1,000,000 that does not
/// repeat. No stride predicts the value bytes, so the stride detector
/// spends the stream with no stride or one stride active.
pub fn median_record_stream(records: usize) -> Vec<u8> {
    let mut data = Vec::with_capacity(records * 18);
    let mut state = 7u64;
    for r in 0..records as u32 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let value = (state >> 33) as u32 % 1_000_000;
        data.extend_from_slice(&[12, 4, 0, 0, 0, 0]);
        data.extend_from_slice(&(r / 1536).to_be_bytes());
        data.extend_from_slice(&(r / 3 % 512).to_be_bytes());
        data.extend_from_slice(&value.to_be_bytes());
    }
    data
}

/// One map task's sorted sliding-median output over an n×n grid: every
/// cell's 4-byte value under the 12-byte key (variable index, x, y) of
/// each of the up to nine window centres it belongs to, in key order —
/// so an interior key arrives nine times in a row. What an IFile writer
/// is handed by the spill sort.
pub fn median_sorted_records(n: u32, seed: u64) -> Vec<KvPair> {
    let var = int_square(n, seed);
    let mut records = Vec::with_capacity(9 * (n * n) as usize);
    for cell in var.bounds().cells() {
        let mut value = Vec::with_capacity(4);
        var.get(&cell).expect("in range").write_be(&mut value);
        let (x, y) = (cell.components()[0], cell.components()[1]);
        for (cx, cy) in (-1..=1).flat_map(|dx| (-1..=1).map(move |dy| (x + dx, y + dy))) {
            if (0..n as i32).contains(&cx) && (0..n as i32).contains(&cy) {
                let key = [0i32, cx, cy].map(i32::to_be_bytes).concat();
                records.push(KvPair::new(key, value.clone()));
            }
        }
    }
    records.sort_by(|a, b| a.key.cmp(&b.key)); // stable: emission order within a key
    records
}

/// One map-output segment of `benchmark/`'s plain sliding-median jobs
/// on the 512×512 grid of `seed`: the first of the 16 strip tasks emits
/// every cell's value under the 12-byte `Indexed` keys of the nine
/// windows it belongs to, the records are routed to 5 reducers, and the
/// first partition is sorted and written as an IFile v3 segment (about
/// 135 KB). `median-transform-local` hands 80 segments of this shape to
/// the stride transform and deflate.
pub fn median_strip_segment(seed: u64) -> Vec<u8> {
    const REDUCERS: usize = 5;
    let layout = KeyLayout::Indexed { index: 0, ndims: 2 };
    let splits = dataset_splits(&int_square(512, seed), &layout, 16).expect("a 2-D layout");
    let ks: Arc<dyn KeySemantics> = Arc::new(DefaultKeySemantics);
    let mut arena = SpillArena::new(REDUCERS);
    for record in &splits[0].records {
        let cell = layout.decode(&record.key).expect("an input key");
        for (dx, dy) in (-1..=1).flat_map(|dx| (-1..=1).map(move |dy| (dx, dy))) {
            let key = layout.encode(&(&cell + &Coord::new(vec![dx, dy])));
            arena.append(ks.partition(&key, REDUCERS), &key, &record.value);
        }
    }
    arena.sort_partition(0, ks.as_ref());
    let mut writer = IFileWriter::v3(Framing::IFile, Arc::new(IdentityCodec), ks);
    for (key, value) in arena.pairs(0) {
        writer.append(key, value);
    }
    writer.close().data
}

/// One map task of `benchmark/`'s `median-agg-local` on the 512×512
/// grid of `seed`: the first of the 16 strip tasks (512 rows, 32
/// columns) as the aggregated mapper holds it before its walk — the
/// window slab over the strip's box dilated by the 3×3 window's half
/// width (514 × 34 = 17,476 packed cells of 37 bytes, `[count][9 values]`,
/// each window's values in input order) — and the job's curve: 10-bit
/// Z-order biased by one. What
/// [`aggregate_window_slab`](scihadoop_queries::median::aggregate_window_slab)
/// pushes and flushes in one task.
pub fn median_agg_task(seed: u64) -> (BiasedCurve, BoundingBox, Vec<u8>) {
    const SLOTS: usize = 9;
    let layout = KeyLayout::Indexed { index: 0, ndims: 2 };
    let splits = dataset_splits(&int_square(512, seed), &layout, 16).expect("a 2-D layout");
    let cells: Vec<(Coord, [u8; 4])> = splits[0]
        .records
        .iter()
        .map(|record| {
            let cell = layout.decode(&record.key).expect("an input key");
            (
                cell,
                record.value.as_slice().try_into().expect("a 4-byte value"),
            )
        })
        .collect();
    let (mut lo, mut hi) = (cells[0].0.clone(), cells[0].0.clone());
    for (cell, _) in &cells {
        for d in 0..2 {
            lo[d] = lo[d].min(cell[d]);
            hi[d] = hi[d].max(cell[d]);
        }
    }
    let bounds = BoundingBox::from_corners(&lo, &hi)
        .expect("2-D corners")
        .dilate(1);
    let columns = bounds.shape().extents()[1] as i32;
    let width = 1 + 4 * SLOTS;
    let mut slab = vec![0u8; bounds.num_cells() as usize * width];
    for (cell, value) in &cells {
        let at = cell - bounds.corner();
        for (dx, dy) in (-1..=1).flat_map(|dx| (-1..=1).map(move |dy| (dx, dy))) {
            let packed =
                &mut slab[((at[0] + dx) * columns + at[1] + dy) as usize * width..][..width];
            let filled = packed[0] as usize;
            packed[1 + 4 * filled..][..4].copy_from_slice(value);
            packed[0] += 1;
        }
    }
    let curve = BiasedCurve::new(Arc::new(ZOrderCurve::with_bits(2, 10)), 1);
    (curve, bounds, slab)
}

/// The §I / Fig. 8 dataset: an n³ grid of integers.
pub fn int_cube(n: u32, seed: u64) -> Variable {
    Variable::random_i32("grid", Shape::cube(n, 3), 1_000_000, seed).expect("valid shape")
}

/// The cluster-experiment dataset: an n×n grid of integers (the paper
/// uses 8000×8000; experiments run a scaled-down grid and scale the
/// stats).
pub fn int_square(n: u32, seed: u64) -> Variable {
    Variable::random_i32("grid", Shape::new(vec![n, n]), 1_000_000, seed).expect("valid shape")
}

/// A float field named `windspeed1`, as in the paper's §I example.
pub fn windspeed_cube(n: u32, seed: u64) -> Variable {
    Variable::smooth_f32("windspeed1", Shape::cube(n, 3), seed).expect("valid shape")
}

/// The verification wordcount's input: `records` one-byte counts under
/// the keys `word-{i % distinct}` (zero-padded to `digits`), cut into
/// splits of `per_split` records. The fault storms, the distributed
/// equivalence runs and the traced pipeline all shuffle this shape.
pub fn wordcount_splits(
    records: usize,
    distinct: usize,
    digits: usize,
    per_split: usize,
) -> Vec<InputSplit> {
    let pair = |i: usize| {
        let word = format!("word-{:0digits$}", i % distinct);
        KvPair::new(word.into_bytes(), vec![1u8])
    };
    (0..records)
        .step_by(per_split)
        .map(|start| InputSplit::new((start..records.min(start + per_split)).map(pair).collect()))
        .collect()
}

/// The merge benches' measured loop: open identity-coded segments (any
/// IFile version), stream them through the engine's merge and count key
/// groups' records. A yielded key is only valid until the next `next()`
/// call, so the group key lives in an owned buffer refreshed at each
/// group boundary — what the engine's reduce loop does too.
pub fn merge_group_pass<K: KeySemantics>(segments: &[Vec<u8>], ks: &K) -> u64 {
    let raws: Vec<RawSegment> = segments
        .iter()
        .map(|s| RawSegment::open(s, &IdentityCodec).expect("bench segment opens"))
        .collect();
    let mut stream = BlockMergeStream::new(&raws, ks).expect("bench merge opens");
    let mut acc = 0u64;
    let mut group_key: Vec<u8> = Vec::new();
    let mut group_len = 0u64;
    while let Some((key, _value)) = stream.next().expect("bench merge streams") {
        if group_len > 0 && ks.group_eq(&group_key, key) {
            group_len += 1;
        } else {
            acc += group_len;
            group_key.clear();
            group_key.extend_from_slice(key);
            group_len = 1;
        }
    }
    acc + group_len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_stream_size_matches_fig3() {
        assert_eq!(grid_key_stream(10).len(), 12_000);
        assert_eq!(median_record_stream(100).len(), 1_800);
        // The paper's full size: 100³ × 12 = 12,000,000 (too big for a
        // unit test to build twice, checked arithmetically).
        assert_eq!(100u64 * 100 * 100 * 12, 12_000_000);
    }

    #[test]
    fn wordcount_splits_cover_all_records() {
        let splits = wordcount_splits(300, 97, 5, 128);
        let sizes: Vec<usize> = splits.iter().map(|s| s.records.len()).collect();
        assert_eq!(sizes, [128, 128, 44]);
        assert_eq!(*splits[0].records[0].key, *b"word-00000");
        assert_eq!(*splits[2].records[43].key, *b"word-00008"); // 299 % 97
        assert_eq!(*splits[2].records[43].value, [1u8]);
    }

    #[test]
    fn datasets_are_deterministic() {
        assert_eq!(int_cube(8, 1).raw_data(), int_cube(8, 1).raw_data());
        assert_eq!(windspeed_cube(4, 2).name(), "windspeed1");
        assert_eq!(int_square(16, 3).shape().extents(), &[16, 16]);
    }
}
