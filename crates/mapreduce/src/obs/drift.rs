//! Model-vs-measured drift reports.
//!
//! A [`DriftReport`] compares what the analytic cost model *predicted*
//! for a run against what the run actually *measured* (wall clocks,
//! span CPU), row by row, in seconds, with a signed error. The model's
//! byte terms are the run's own counters and have nothing to drift
//! from, so a report carries time rows only. The rows
//! are produced by `CostModel::reconcile` in `scihadoop-cluster` from a
//! [`LedgerRecord`](crate::obs::LedgerRecord); this module only defines
//! the report shape so the engine crate stays model-free.
//!
//! Sign convention: positive error means the model over-predicted
//! (`predicted > measured`), negative means it under-predicted.

/// One predicted-vs-measured comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftRow {
    /// What is being compared (e.g. `"map_makespan"`, `"pipeline_cpu"`).
    pub name: &'static str,
    /// The model's prediction, in seconds.
    pub predicted: f64,
    /// The run's measurement, in seconds.
    pub measured: f64,
}

impl DriftRow {
    /// Signed error percentage relative to the measurement. Zero when
    /// both sides are zero; infinite when only the prediction is
    /// non-zero (a measurement the run did not take).
    pub fn error_pct(&self) -> f64 {
        if self.measured == 0.0 {
            if self.predicted == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.predicted - self.measured) / self.measured * 100.0
        }
    }
}

/// A full drift report for one ledger record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DriftReport {
    /// Label of the run the report reconciles.
    pub label: String,
    /// Comparison rows.
    pub rows: Vec<DriftRow>,
}

impl DriftReport {
    /// Look up a row by name.
    pub fn row(&self, name: &str) -> Option<&DriftRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_signed_and_relative_to_measurement() {
        let over = DriftRow {
            name: "t",
            predicted: 2.0,
            measured: 1.0,
        };
        assert!((over.error_pct() - 100.0).abs() < 1e-9);
        let under = DriftRow {
            name: "t",
            predicted: 0.5,
            measured: 1.0,
        };
        assert!((under.error_pct() + 50.0).abs() < 1e-9);
    }

    #[test]
    fn zero_measurement_edge_cases() {
        let both_zero = DriftRow {
            name: "t",
            predicted: 0.0,
            measured: 0.0,
        };
        assert_eq!(both_zero.error_pct(), 0.0);
        let missing = DriftRow {
            name: "t",
            predicted: 1.0,
            measured: 0.0,
        };
        assert!(missing.error_pct().is_infinite());
    }

    #[test]
    fn report_lookup() {
        let report = DriftReport {
            label: "r".into(),
            rows: vec![
                DriftRow {
                    name: "a",
                    predicted: 1.0,
                    measured: 2.0,
                },
                DriftRow {
                    name: "b",
                    predicted: 10.0,
                    measured: 10.0,
                },
            ],
        };
        assert!(report.row("a").is_some());
        assert!(report.row("missing").is_none());
    }
}
