//! Cross-crate integration: full queries through the engine, checked
//! against sequential oracles, under every pipeline configuration.

use scihadoop::compress::{BzipCodec, DeflateCodec};
use scihadoop::core::transform::TransformCodec;
use scihadoop::grid::{Shape, Variable};
use scihadoop::mapreduce::{Counter, Framing, IFileVersion, JobConfig};
use scihadoop::queries::median::{SlidingMedian, SlidingMedianVariant};
use scihadoop::queries::{oracle, KeyLayout};
use std::sync::Arc;

fn grid(n: u32, seed: u64) -> Variable {
    Variable::random_i32("grid", Shape::new(vec![n, n]), 100_000, seed).unwrap()
}

fn layout() -> KeyLayout {
    KeyLayout::Indexed { index: 0, ndims: 2 }
}

#[test]
fn median_all_variants_agree_with_oracle() {
    let var = grid(24, 1);
    let expected = oracle::sliding_median(&var, 3).unwrap();
    let variants: Vec<(&str, SlidingMedianVariant)> = vec![
        ("plain", SlidingMedianVariant::Plain),
        (
            "deflate",
            SlidingMedianVariant::PlainWithCodec(Arc::new(DeflateCodec::new())),
        ),
        (
            "bzip",
            SlidingMedianVariant::PlainWithCodec(Arc::new(BzipCodec::with_level(1))),
        ),
        (
            "transform+deflate",
            SlidingMedianVariant::PlainWithCodec(Arc::new(TransformCodec::with_defaults(
                Arc::new(DeflateCodec::new()),
            ))),
        ),
        (
            "aggregated",
            SlidingMedianVariant::Aggregated {
                buffer_bytes: 1 << 20,
            },
        ),
    ];
    for (name, variant) in variants {
        let run = SlidingMedian::new(layout(), variant).run(&var).unwrap();
        assert_eq!(run.medians, expected, "variant {name}");
    }
}

#[test]
fn median_5x5_window_matches_oracle() {
    let var = grid(16, 2);
    let mut q = SlidingMedian::new(layout(), SlidingMedianVariant::Plain);
    q.window = 5;
    let run = q.run(&var).unwrap();
    assert_eq!(run.medians, oracle::sliding_median(&var, 5).unwrap());
    // Aggregated too (25 slots per cell).
    let mut q = SlidingMedian::new(
        layout(),
        SlidingMedianVariant::Aggregated {
            buffer_bytes: 1 << 20,
        },
    );
    q.window = 5;
    let run = q.run(&var).unwrap();
    assert_eq!(run.medians, oracle::sliding_median(&var, 5).unwrap());
}

#[test]
fn median_3d_grid_matches_oracle() {
    let var = Variable::random_i32("g3", Shape::new(vec![7, 6, 5]), 1000, 3).unwrap();
    let layout = KeyLayout::Indexed { index: 0, ndims: 3 };
    for variant in [
        SlidingMedianVariant::Plain,
        SlidingMedianVariant::Aggregated {
            buffer_bytes: 1 << 20,
        },
    ] {
        let run = SlidingMedian::new(layout.clone(), variant)
            .run(&var)
            .unwrap();
        assert_eq!(run.medians, oracle::sliding_median(&var, 3).unwrap());
    }
}

#[test]
fn named_key_layout_works_end_to_end() {
    // The paper's expensive windspeed1 spelling must still be correct.
    let var = grid(12, 4);
    let named = KeyLayout::Named {
        name: "windspeed1".into(),
        ndims: 2,
    };
    let run = SlidingMedian::new(named, SlidingMedianVariant::Plain)
        .run(&var)
        .unwrap();
    assert_eq!(run.medians, oracle::sliding_median(&var, 3).unwrap());
}

#[test]
fn named_keys_cost_more_than_indexed_keys() {
    // §I: name vs index changes only key bytes, and by 7 per record.
    let var = grid(16, 5);
    let indexed = SlidingMedian::new(layout(), SlidingMedianVariant::Plain)
        .run(&var)
        .unwrap();
    let named = SlidingMedian::new(
        KeyLayout::Named {
            name: "windspeed1".into(),
            ndims: 2,
        },
        SlidingMedianVariant::Plain,
    )
    .run(&var)
    .unwrap();
    let records = indexed.result.counters.get(Counter::MapOutputRecords);
    assert_eq!(
        records,
        named.result.counters.get(Counter::MapOutputRecords)
    );
    let delta = named.result.counters.get(Counter::MapOutputKeyBytes)
        - indexed.result.counters.get(Counter::MapOutputKeyBytes);
    // Indexed 2-D key: 4+8=12 B; named: 1+10+8=19 B; delta 7 B/record.
    assert_eq!(delta, 7 * records);
}

#[test]
fn reducer_and_slot_counts_do_not_change_answers() {
    let var = grid(18, 7);
    let expected = oracle::sliding_median(&var, 3).unwrap();
    for (reducers, map_slots, splits) in [(1, 1, 1), (3, 2, 5), (7, 8, 13)] {
        for variant in [
            SlidingMedianVariant::Plain,
            SlidingMedianVariant::Aggregated {
                buffer_bytes: 1 << 18,
            },
        ] {
            let mut q = SlidingMedian::new(layout(), variant);
            q.num_splits = splits;
            q.base_config = JobConfig::default()
                .with_reducers(reducers)
                .with_slots(map_slots, 2);
            let run = q.run(&var).unwrap();
            assert_eq!(
                run.medians, expected,
                "reducers={reducers} slots={map_slots} splits={splits}"
            );
        }
    }
}

#[test]
fn framing_affects_bytes_not_answers() {
    let var = grid(14, 8);
    let expected = oracle::sliding_median(&var, 3).unwrap();
    let mut totals = Vec::new();
    for framing in [Framing::SequenceFile, Framing::IFile] {
        let mut q = SlidingMedian::new(layout(), SlidingMedianVariant::Plain);
        // Per-record framing is a property of the flat layouts; the v3
        // default has none to vary.
        q.base_config = JobConfig::default()
            .with_reducers(2)
            .with_framing(framing)
            .with_ifile_version(IFileVersion::V2);
        let run = q.run(&var).unwrap();
        assert_eq!(run.medians, expected);
        totals.push(run.result.stats.map_output_bytes);
    }
    // SequenceFile framing (6 B/record) costs more than IFile (2 B).
    assert!(totals[0] > totals[1]);
}

#[test]
fn aggregation_reduces_record_count_by_orders_of_magnitude() {
    // The heart of Fig. 8: aggregate records ≪ simple records.
    let var = grid(32, 10);
    let plain = SlidingMedian::new(layout(), SlidingMedianVariant::Plain)
        .run(&var)
        .unwrap();
    let agg = SlidingMedian::new(
        layout(),
        SlidingMedianVariant::Aggregated {
            buffer_bytes: 64 << 20,
        },
    )
    .run(&var)
    .unwrap();
    let plain_records = plain.result.counters.get(Counter::MapOutputRecords);
    let agg_records = agg.result.counters.get(Counter::MapOutputRecords);
    assert!(
        agg_records * 50 < plain_records,
        "{agg_records} aggregate vs {plain_records} simple records"
    );
}

#[test]
fn aggregated_median_works_on_every_curve() {
    use scihadoop::queries::CurveKind;
    let var = grid(20, 11);
    let expected = oracle::sliding_median(&var, 3).unwrap();
    let mut key_bytes = Vec::new();
    for curve in [CurveKind::ZOrder, CurveKind::Hilbert, CurveKind::RowMajor] {
        let mut q = SlidingMedian::new(
            layout(),
            SlidingMedianVariant::Aggregated {
                buffer_bytes: 1 << 20,
            },
        );
        q.curve = curve;
        let run = q.run(&var).unwrap();
        assert_eq!(run.medians, expected, "curve {curve:?}");
        key_bytes.push((curve, run.result.counters.get(Counter::MapOutputKeyBytes)));
    }
    // Hilbert must aggregate at least as well as Z-order on this workload
    // (Moon et al.; fewer runs → fewer aggregate keys → fewer key bytes).
    let get = |k: scihadoop::queries::CurveKind| key_bytes.iter().find(|(c, _)| *c == k).unwrap().1;
    assert!(
        get(CurveKind::Hilbert) <= get(CurveKind::ZOrder),
        "hilbert {} vs z-order {}",
        get(CurveKind::Hilbert),
        get(CurveKind::ZOrder)
    );
}
