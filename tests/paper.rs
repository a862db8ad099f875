//! The paper's contracts, held in tier-1: §I's per-record overhead
//! exactly, the shape of Figs. 3, 4 and 8, Fig. 6's curve ranges
//! exactly, and the cluster table's byte and runtime contrast (§III-E,
//! §IV-D). Each test runs the experiment `repro` prints, at a small
//! size, or the library call the figure draws.

use scihadoop::core::aggregate::Aggregator;
use scihadoop::grid::Coord;
use scihadoop::sfc::{CurveRun, ZOrderCurve};
use scihadoop_bench::{cluster_experiment, fig3, fig4, fig8, intro_overhead};
use scihadoop_cluster::{ClusterSpec, CostModel};

#[test]
fn intro_overhead_matches_paper_exactly_at_scale() {
    // Run at n=20 (8000 cells): the per-record arithmetic is scale-
    // free: 26 B and 33 B per record + 6 B header.
    let t = intro_overhead(20);
    let rows = t.rows();
    let cells = 20u64 * 20 * 20;
    assert_eq!(rows[0][1], format!("{}", cells * 26 + 6));
    assert_eq!(rows[1][1], format!("{}", cells * 33 + 6));
    assert_eq!(rows[1][3], "6.75");
}

#[test]
fn fig3_ordering_matches_paper_shape() {
    let (_, points) = fig3(16, 100);
    let size = |m: &str| {
        points
            .iter()
            .find(|p| p.method.starts_with(m))
            .expect("method present")
            .size
    };
    assert!(size("transform+deflate") < size("deflate"));
    assert!(size("transform+bzip") < size("bzip"));
    assert!(size("transform+bzip") < size("transform+deflate"));
    assert!(size("bzip") < size("deflate"));
    assert!(size("deflate") < size("original"));
}

#[test]
fn fig4_time_is_roughly_linear() {
    let (_, points) = fig4(&[16, 32]);
    let rate0 = points[0].bytes as f64 / points[0].secs.max(1e-9);
    let rate1 = points[1].bytes as f64 / points[1].secs.max(1e-9);
    // 8x the data should take roughly 8x the time (allow 3x slack at
    // these tiny sizes).
    assert!(
        rate1 > rate0 / 3.0 && rate1 < rate0 * 3.0,
        "rates {rate0:.0} vs {rate1:.0} B/s"
    );
}

/// Fig. 6: the shaded cells of a 4×4 grid numbered by a Z-order curve
/// aggregate into the curve ranges "6-7, 9-10, 13", one record each,
/// whatever order they are pushed in.
#[test]
fn fig6_shaded_cells_aggregate_to_three_ranges() {
    let shaded = [[1, 2], [1, 3], [2, 1], [3, 0], [2, 3]];
    let ranges = [(6, 7), (9, 10), (13, 13)];
    for order in [shaded, [[2, 3], [3, 0], [1, 2], [2, 1], [1, 3]]] {
        let mut agg = Aggregator::new(ZOrderCurve::with_bits(2, 2), 1 << 20);
        for (n, cell) in order.iter().enumerate() {
            agg.push(&Coord::new(cell.to_vec()), &[n as u8]).unwrap();
        }
        let runs: Vec<CurveRun> = agg.flush().iter().map(|rec| rec.key.run).collect();
        let expected: Vec<CurveRun> = ranges
            .iter()
            .map(|&(start, end)| CurveRun { start, end })
            .collect();
        assert_eq!(runs, expected, "pushed as {order:?}");
    }
}

#[test]
fn fig8_keys_and_overhead_collapse() {
    let (_, bars) = fig8(16, &[1, 8]);
    let original = &bars[0].1;
    let ideal = &bars[1].1;
    let partitioned = &bars[2].1;
    assert_eq!(original.values, ideal.values, "values unchanged");
    assert!(ideal.keys * 10 < original.keys, "keys must collapse");
    assert!(ideal.overhead * 10 < original.overhead);
    // Partitioning aggregates less (more, smaller runs).
    assert!(partitioned.keys >= ideal.keys);
}

#[test]
fn cluster_experiment_reproduces_the_contrast() {
    const N: u32 = 96;
    // The column prices counted work and reads no clock, so a second run
    // gives the same rows and the same table.
    let (table, rows) = cluster_experiment(N, 8);
    let report = table.render();
    let (again, rows_again) = cluster_experiment(N, 8);
    assert_eq!(rows, rows_again, "{report}");
    assert_eq!(again.render(), report);
    assert_eq!(rows.len(), 3);
    let intermediate = |row: usize| rows[row].intermediate;
    let minutes = |row: usize| rows[row].minutes;
    // The model's codec term for a row, as the table's work-minute
    // lines compute it.
    let codec_s = |row: usize| {
        let phases = CostModel::new(ClusterSpec::paper_cluster())
            .simulate(&rows[row].stats)
            .phases;
        phases.map_codec_s + phases.reduce_codec_s
    };
    let (baseline, transform, agg) = (0, 1, 2);
    // The byte counts are pinned: the §III-E and §IV-D rows' data
    // columns at 96², scaled to 8000² (transform −79.7 %, aggregation
    // −76.7 %).
    let bytes: Vec<u64> = rows.iter().map(|r| r.intermediate).collect();
    let pinned = [12_674_777_778, 2_571_812_500, 2_949_618_056];
    assert_eq!(bytes, pinned, "{report}");
    // Both optimizations shrink intermediate data.
    assert!(intermediate(transform) < intermediate(baseline), "{report}");
    assert!(intermediate(agg) < intermediate(baseline), "{report}");
    // The paper's headline contrast: transform costs runtime,
    // aggregation saves it. The transform's cost is its codec CPU.
    assert!(codec_s(transform) > codec_s(baseline), "{report}");
    assert!(minutes(transform) > minutes(baseline), "{report}");
    assert!(minutes(agg) < minutes(baseline), "{report}");
    // The baseline and transform rows are fitted to the paper's 183 and
    // 377 min; the aggregation row is predicted, and the table prints its
    // error against the paper's 131 min (−28.5 %).
    let error = 100.0 * (minutes(agg) / 131.0 - 1.0);
    assert!(report.contains(&format!("error {error:+.1}%")), "{report}");
}
