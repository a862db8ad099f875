//! The bulk split builder against the per-cell builder it replaced: same
//! split boundaries, record order, key bytes and value bytes, for every
//! dimensionality, key layout, element type and split count.

use proptest::prelude::*;
use scihadoop_grid::{DataType, GridError, Shape, Value, Variable};
use scihadoop_mapreduce::{InputSplit, KvPair};
use scihadoop_queries::{dataset_splits, KeyLayout};

/// The per-cell builder: one `Coord`, one boxed `Value` and one key
/// encode per cell. Kept as the oracle.
fn per_cell_splits(
    var: &Variable,
    layout: &KeyLayout,
    num_splits: usize,
) -> Result<Vec<InputSplit>, GridError> {
    let mut splits = Vec::new();
    for b in var.bounds().split_longest(num_splits) {
        let mut records = Vec::new();
        for cell in b.cells() {
            let mut value = Vec::new();
            var.get(&cell)?.write_be(&mut value);
            records.push(KvPair::new(layout.encode(&cell), value));
        }
        splits.push(InputSplit::new(records));
    }
    Ok(splits)
}

const DTYPES: [DataType; 6] = [
    DataType::U8,
    DataType::I16,
    DataType::I32,
    DataType::F32,
    DataType::I64,
    DataType::F64,
];

/// A variable of `dtype` whose cells all differ (a counter mixed with
/// `seed`), so a value read from the wrong offset shows.
fn variable(dtype: DataType, extents: Vec<u32>, seed: u64) -> Variable {
    let mut n = seed;
    Variable::generate("v", dtype, Shape::new(extents), |_| {
        n = n
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        match dtype {
            DataType::U8 => Value::U8((n >> 56) as u8),
            DataType::I16 => Value::I16((n >> 48) as i16),
            DataType::I32 => Value::I32((n >> 32) as i32),
            DataType::I64 => Value::I64(n as i64),
            DataType::F32 => Value::F32((n >> 40) as f32),
            DataType::F64 => Value::F64((n >> 11) as f64),
        }
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bulk_builder_equals_per_cell_builder(
        extents in proptest::collection::vec(1u32..6, 1..5),
        dtype in 0usize..DTYPES.len(),
        named in any::<bool>(),
        name_len in prop_oneof![Just(1usize), Just(10), Just(127), Just(128), Just(300)],
        index in any::<i32>(),
        seed in any::<u64>(),
    ) {
        let ndims = extents.len();
        let longest = *extents.iter().max().unwrap() as usize;
        let var = variable(DTYPES[dtype], extents, seed);
        let layout = if named {
            KeyLayout::Named { name: "n".repeat(name_len), ndims }
        } else {
            KeyLayout::Indexed { index, ndims }
        };
        for num_splits in 1..=longest + 2 {
            let bulk = dataset_splits(&var, &layout, num_splits).unwrap();
            prop_assert_eq!(&bulk, &per_cell_splits(&var, &layout, num_splits).unwrap());
            prop_assert_eq!(bulk.len(), num_splits.min(longest));
            for record in bulk.iter().flat_map(|s| &s.records) {
                prop_assert_eq!(record.key.len(), layout.key_len());
            }
        }
        prop_assert_eq!(dataset_splits(&var, &layout, 0), Err(GridError::NoSplits));
    }
}
