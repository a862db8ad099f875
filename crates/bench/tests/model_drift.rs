//! Pinned acceptance bounds for the cost model's drift report over the
//! traced pipeline's ledger records: the paper's Table I/II-style
//! breakdown recast as predicted-vs-measured.
//!
//! A drift report is time rows only (the model's byte terms are the
//! run's own counters), and every row must carry a live prediction whose
//! signed error stays inside a generous envelope. The model charges only
//! counter-derived CPU against a `local_host` spec with effectively
//! unbounded bandwidth, so predictions land at or below the measured
//! walls: the observed drift is roughly −25 % to −92 % in release, and
//! slower (debug, loaded-CI) walls only push the error further negative
//! — never past −100 %, because predictions are strictly positive.

use scihadoop_bench::{drift_table, traced_pipeline};
use scihadoop_mapreduce::obs::LedgerRecord;

#[test]
fn model_drift_pins_time_error_bounds() {
    let (_, _, ledger) = traced_pipeline(24, 400);
    // Drift is reported from records as `repro --reconcile` reads them:
    // written as ledger lines and parsed back.
    let records: Vec<LedgerRecord> = ledger
        .iter()
        .map(|r| LedgerRecord::from_json(&r.to_json()).expect("a written record parses back"))
        .collect();
    let (table, reports) = drift_table("model drift", &records);
    let rendered = table.render();
    assert_eq!(reports.len(), 3, "one drift report per traced job");

    for (record, report) in records.iter().zip(&reports) {
        let names: Vec<&str> = report.rows.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            ["map_makespan", "reduce_makespan", "total", "pipeline_cpu"],
            "{}: a drift report is these time rows\n{rendered}",
            record.label
        );
        for row in &report.rows {
            let name = row.name;
            assert!(
                row.predicted > 0.0 && row.measured > 0.0,
                "{}: time row {name} must have live prediction and measurement\n{rendered}",
                record.label
            );
            let err = row.error_pct();
            assert!(
                err > -100.0 && err < 25.0,
                "{}: time row {name} error {err:+.1}% outside pinned bounds (-100, 25)\n{rendered}",
                record.label
            );
        }
    }
}
