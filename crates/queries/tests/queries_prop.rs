//! Property tests for the query layer: MapReduce answers must equal the
//! sequential oracles on arbitrary grids and pipeline configurations.

use proptest::prelude::*;
use scihadoop_grid::{Coord, Shape, Variable};
use scihadoop_mapreduce::JobConfig;
use scihadoop_queries::median::{SlidingMedian, SlidingMedianVariant};
use scihadoop_queries::{oracle, KeyLayout};

fn arb_grid() -> impl Strategy<Value = Variable> {
    (3u32..14, 3u32..14, any::<u64>()).prop_map(|(w, h, seed)| {
        Variable::random_i32("g", Shape::new(vec![w, h]), 10_000, seed).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn key_layouts_roundtrip(
        coords in proptest::collection::vec(any::<i32>(), 1..5),
        name in "[a-z][a-z0-9_]{0,20}",
        index in any::<i32>(),
    ) {
        let ndims = coords.len();
        let coord = Coord::new(coords);
        for layout in [KeyLayout::Named { name, ndims }, KeyLayout::Indexed { index, ndims }] {
            let bytes = layout.encode(&coord);
            prop_assert_eq!(bytes.len(), layout.key_len());
            prop_assert_eq!(layout.decode(&bytes).unwrap(), coord.clone());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn plain_median_equals_oracle(var in arb_grid(), splits in 1usize..6) {
        let mut q = SlidingMedian::new(
            KeyLayout::Indexed { index: 0, ndims: 2 },
            SlidingMedianVariant::Plain,
        );
        q.num_splits = splits;
        let run = q.run(&var).unwrap();
        prop_assert_eq!(run.medians, oracle::sliding_median(&var, 3).unwrap());
    }

    #[test]
    fn aggregated_median_equals_oracle(
        var in arb_grid(),
        splits in 1usize..6,
        reducers in 1usize..5,
        buffer in prop_oneof![Just(128usize), Just(4096), Just(1 << 20)],
    ) {
        let mut q = SlidingMedian::new(
            KeyLayout::Indexed { index: 0, ndims: 2 },
            SlidingMedianVariant::Aggregated { buffer_bytes: buffer },
        );
        q.num_splits = splits;
        q.base_config = JobConfig::default().with_reducers(reducers);
        let run = q.run(&var).unwrap();
        prop_assert_eq!(run.medians, oracle::sliding_median(&var, 3).unwrap());
    }
}
