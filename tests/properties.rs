//! Property-based tests over the core invariants (proptest).

use proptest::collection::vec;
use proptest::prelude::*;
use scihadoop::compress::{BzipCodec, Codec, DeflateCodec};
use scihadoop::core::aggregate::{
    group_equal, overlap_split, route_split, AggregateKey, AggregateRecord, Aggregator,
    RangePartitioner,
};
use scihadoop::core::transform::{StridePredictor, TransformConfig};
use scihadoop::grid::Coord;
use scihadoop::mapreduce::{Emit, FnMapper, FnReducer, InputSplit, Job, JobConfig, KvPair};
use scihadoop::sfc::{Curve, CurveRun, HilbertCurve, RowMajorCurve, ZOrderCurve};
use std::collections::HashMap;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- codecs ---------------------------------------------------------

    #[test]
    fn deflate_roundtrips(data in vec(any::<u8>(), 0..4096)) {
        let c = DeflateCodec::new();
        prop_assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data);
    }

    #[test]
    fn bzip_roundtrips(data in vec(any::<u8>(), 0..4096)) {
        let c = BzipCodec::with_level(1);
        prop_assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data);
    }

    #[test]
    fn deflate_rejects_flipped_bits(data in vec(any::<u8>(), 64..512), flip in 16usize..64) {
        let c = DeflateCodec::new();
        let mut z = c.compress(&data);
        let i = flip % z.len();
        z[i] ^= 0x01;
        // Either an error or (if the flip hit dead padding) the original.
        if let Ok(out) = c.decompress(&z) {
            prop_assert_eq!(out, data);
        }
    }

    // ---- the transform --------------------------------------------------

    #[test]
    fn transform_roundtrips_any_bytes(
        data in vec(any::<u8>(), 0..4096),
        max_stride in 1usize..64,
        adaptive in any::<bool>(),
    ) {
        let config = TransformConfig {
            max_stride,
            adaptive,
            ..TransformConfig::default()
        };
        let t = StridePredictor::new(config.clone()).forward(&data);
        prop_assert_eq!(t.len(), data.len());
        let back = StridePredictor::new(config).inverse(&t);
        prop_assert_eq!(back, data);
    }

    #[test]
    fn transform_chunked_equals_oneshot(
        data in vec(any::<u8>(), 1..4096),
        chunk in 1usize..257,
    ) {
        let config = TransformConfig::adaptive(32);
        let one = StridePredictor::new(config.clone()).forward(&data);
        let mut p = StridePredictor::new(config);
        let mut chunked = Vec::new();
        for c in data.chunks(chunk) {
            chunked.extend_from_slice(&p.forward(c));
        }
        prop_assert_eq!(one, chunked);
    }

    // ---- space-filling curves -------------------------------------------

    #[test]
    fn curves_are_bijective(
        coords in vec(0u32..256, 2..4),
    ) {
        let ndims = coords.len();
        let curves: Vec<Box<dyn Curve>> = vec![
            Box::new(ZOrderCurve::with_bits(ndims, 8)),
            Box::new(HilbertCurve::with_bits(ndims, 8)),
            Box::new(RowMajorCurve::with_bits(ndims, 8)),
        ];
        for c in &curves {
            let idx = c.index_of(&coords).unwrap();
            prop_assert_eq!(&c.coords_of(idx).unwrap(), &coords, "curve {}", c.name());
        }
    }

    #[test]
    fn curve_indices_are_distinct(
        a in vec(0u32..64, 2..3),
        b in vec(0u32..64, 2..3),
    ) {
        prop_assume!(a != b && a.len() == b.len());
        for c in [
            Box::new(ZOrderCurve::with_bits(a.len(), 6)) as Box<dyn Curve>,
            Box::new(HilbertCurve::with_bits(a.len(), 6)),
        ] {
            prop_assert_ne!(c.index_of(&a).unwrap(), c.index_of(&b).unwrap());
        }
    }

    // ---- aggregation ----------------------------------------------------

    #[test]
    fn aggregate_pipeline_preserves_cell_values(
        cells in proptest::collection::btree_map(0u32..64, any::<u8>(), 1..64),
        parts in 1usize..6,
    ) {
        // Push distinct 1-D cells through the aggregation library, split
        // them for routing, then verify every (cell, value) survives.
        let curve = RowMajorCurve::with_bits(1, 6);
        let mut agg = Aggregator::new(curve, 1 << 20);
        for (&x, &v) in &cells {
            agg.push(&Coord::new(vec![x as i32]), &[v]).unwrap();
        }
        let records = agg.flush();
        let partitioner = RangePartitioner::uniform(parts, 64);
        let mut seen: HashMap<u128, u8> = HashMap::new();
        for rec in &records {
            for (p, piece) in route_split(rec, &partitioner, 1) {
                prop_assert!(p < parts);
                for i in piece.key.run.start..=piece.key.run.end {
                    let v = piece.value_at(i, 1).unwrap()[0];
                    prop_assert!(seen.insert(i, v).is_none(), "cell {i} duplicated");
                }
            }
        }
        prop_assert_eq!(seen.len(), cells.len());
        for (&x, &v) in &cells {
            prop_assert_eq!(seen[&(x as u128)], v);
        }
    }

    #[test]
    fn overlap_split_produces_equal_or_disjoint(
        ranges in vec((0u64..200, 1u64..40), 1..12),
    ) {
        let records: Vec<AggregateRecord> = ranges
            .iter()
            .map(|&(start, len)| {
                let run = CurveRun {
                    start: start as u128,
                    end: (start + len - 1) as u128,
                };
                AggregateRecord::new(
                    AggregateKey::new(0, run),
                    vec![0u8; len as usize],
                    1,
                )
                .unwrap()
            })
            .collect();
        let total_cells: u128 = records.iter().map(|r| r.key.cell_count()).sum();
        let pieces = overlap_split(records, 1);
        // Invariant: pairwise equal-or-disjoint.
        for i in 0..pieces.len() {
            for j in i + 1..pieces.len() {
                let (a, b) = (&pieces[i].key.run, &pieces[j].key.run);
                prop_assert!(
                    a == b || !a.overlaps(b),
                    "{a:?} and {b:?} overlap unequal"
                );
            }
        }
        // Invariant: no cells created or destroyed.
        let split_cells: u128 = pieces.iter().map(|r| r.key.cell_count()).sum();
        prop_assert_eq!(split_cells, total_cells);
        // Grouping never loses a record.
        let grouped = group_equal(pieces.clone());
        let grouped_records: usize = grouped.iter().map(|(_, v)| v.len()).sum();
        prop_assert_eq!(grouped_records, pieces.len());
    }

    // ---- the engine vs a sequential reference ----------------------------

    #[test]
    fn engine_matches_sequential_reference(
        words in vec(0u16..50, 1..200),
        reducers in 1usize..5,
        split_size in 1usize..40,
    ) {
        // Job: count occurrences of each key.
        let pairs: Vec<KvPair> = words
            .iter()
            .map(|w| KvPair::new(w.to_be_bytes().to_vec(), vec![1u8]))
            .collect();
        let mut expected: HashMap<Vec<u8>, u64> = HashMap::new();
        for p in &pairs {
            *expected.entry(p.key.to_vec()).or_default() += 1;
        }

        let splits: Vec<InputSplit> = pairs
            .chunks(split_size)
            .map(|c| InputSplit::new(c.to_vec()))
            .collect();
        let mapper = Arc::new(FnMapper(|k: &[u8], v: &[u8], out: &mut dyn Emit| {
            out.emit(k, v)
        }));
        let reducer = Arc::new(FnReducer(
            |k: &[u8], values: &[&[u8]], out: &mut dyn Emit| {
                out.emit(k, &(values.len() as u64).to_be_bytes());
            },
        ));
        let result = Job::new(JobConfig::default().with_reducers(reducers))
            .run(splits, mapper, reducer)
            .unwrap();
        let got: HashMap<Vec<u8>, u64> = result
            .all_outputs()
            .into_iter()
            .map(|p| (p.key.to_vec(), u64::from_be_bytes(p.value[..].try_into().unwrap())))
            .collect();
        prop_assert_eq!(got, expected);
    }
}
