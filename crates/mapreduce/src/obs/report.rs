//! Reporting pass: re-derive the paper's intermediate-data breakdowns
//! from the recorded histograms.
//!
//! Table I of the paper splits map output into key bytes vs. value
//! bytes to show that keys dominate; Table II tracks "map output
//! materialized bytes" across codecs. Both views fall out of the
//! per-segment histograms ([`Metric::SegKeyBytes`] and friends), which
//! are recorded at the same call site as the job counters — so
//! [`IntermediateBreakdown::reconcile`] can demand *exact* agreement,
//! not approximate.

use crate::counters::{Counter, CounterSnapshot};
use crate::obs::hist::Metric;
use crate::obs::ledger::LedgerRecord;
use crate::obs::trace::Trace;

/// Record one final materialized segment's byte split into the attached
/// recorder's histograms. This is the single observation site shared by
/// the engine (per final map-output segment) and the experiment harness
/// (per standalone segment), so every [`IntermediateBreakdown`] is
/// derived the same way. No-op when the thread is not attached.
pub fn observe_segment(
    key_bytes: u64,
    value_bytes: u64,
    framing_bytes: u64,
    key_saved_bytes: u64,
    raw_bytes: u64,
    materialized_bytes: u64,
) {
    crate::obs::hist_many(&[
        (Metric::SegKeyBytes, key_bytes),
        (Metric::SegValueBytes, value_bytes),
        (Metric::SegFramingBytes, framing_bytes),
        (Metric::SegKeySavedBytes, key_saved_bytes),
        (Metric::SegRawBytes, raw_bytes),
        (Metric::SegMaterializedBytes, materialized_bytes),
    ]);
}

/// Intermediate-data byte breakdown derived from segment histograms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntermediateBreakdown {
    /// Final map-output segments observed.
    pub segments: u64,
    /// Key bytes across all segments (Table I "keys" column).
    pub key_bytes: u64,
    /// Value bytes across all segments (Table I "values" column).
    pub value_bytes: u64,
    /// Per-record framing bytes across all segments.
    pub framing_bytes: u64,
    /// Key bytes removed by v3 front coding (0 when every segment is
    /// flat). `key_bytes` stays logical, so the raw identity is
    /// `raw = keys + values + framing + headers - key_saved`.
    pub key_saved_bytes: u64,
    /// Fixed per-segment header bytes.
    pub header_bytes: u64,
    /// Uncompressed segment bytes (keys + values + framing + headers,
    /// minus front-coding savings).
    pub raw_bytes: u64,
    /// Post-codec segment bytes (Table II "materialized").
    pub materialized_bytes: u64,
}

impl IntermediateBreakdown {
    /// Derive the breakdown from a finished trace's histograms.
    pub fn from_trace(trace: &Trace) -> IntermediateBreakdown {
        Self::derive(|m| {
            let h = trace.hists.get(m);
            (h.count(), h.sum())
        })
    }

    /// Derive the breakdown from a ledger record's histograms: the same
    /// derivation, so a rich record reconciles against its own counters
    /// exactly as the trace that built it did.
    pub fn from_record(record: &LedgerRecord) -> IntermediateBreakdown {
        Self::derive(|m| record.hist(m).map_or((0, 0), |h| (h.count, h.sum)))
    }

    /// The one derivation: every field is a histogram's sample count or
    /// sample sum.
    fn derive(count_and_sum: impl Fn(Metric) -> (u64, u64)) -> IntermediateBreakdown {
        let sum = |m: Metric| count_and_sum(m).1;
        let segments = count_and_sum(Metric::SegRawBytes).0;
        IntermediateBreakdown {
            segments,
            key_bytes: sum(Metric::SegKeyBytes),
            value_bytes: sum(Metric::SegValueBytes),
            framing_bytes: sum(Metric::SegFramingBytes),
            key_saved_bytes: sum(Metric::SegKeySavedBytes),
            header_bytes: crate::ifile::Framing::IFile.file_overhead() as u64 * segments,
            raw_bytes: sum(Metric::SegRawBytes),
            materialized_bytes: sum(Metric::SegMaterializedBytes),
        }
    }

    /// Fraction of uncompressed record payload spent on keys — the
    /// paper's motivating observation (Table I).
    pub fn key_fraction(&self) -> f64 {
        let payload = self.key_bytes + self.value_bytes;
        if payload == 0 {
            return 0.0;
        }
        self.key_bytes as f64 / payload as f64
    }

    /// Materialized bytes over raw bytes (1.0 = incompressible), the
    /// Table II compression view.
    pub fn materialized_ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            return 1.0;
        }
        self.materialized_bytes as f64 / self.raw_bytes as f64
    }

    /// Verify this histogram-derived breakdown agrees *exactly* with
    /// the job counters. Any mismatch means an instrumentation site
    /// drifted from its counter site.
    pub fn reconcile(&self, counters: &CounterSnapshot) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        let mut check = |what: &str, derived: u64, counter: u64| {
            if derived != counter {
                errs.push(format!(
                    "{what}: histogram-derived {derived} != counter {counter}"
                ));
            }
        };
        check(
            "segments",
            self.segments,
            counters.get(Counter::MapOutputSegments),
        );
        check(
            "key bytes",
            self.key_bytes,
            counters.get(Counter::MapOutputKeyBytes),
        );
        check(
            "value bytes",
            self.value_bytes,
            counters.get(Counter::MapOutputValueBytes),
        );
        check(
            "framing bytes",
            self.framing_bytes,
            counters.get(Counter::MapOutputFramingBytes),
        );
        check(
            "key saved bytes",
            self.key_saved_bytes,
            counters.get(Counter::MapOutputKeySavedBytes),
        );
        check(
            "raw bytes",
            self.raw_bytes,
            counters.get(Counter::MapOutputBytes),
        );
        check(
            "materialized bytes",
            self.materialized_bytes,
            counters.get(Counter::MapOutputMaterializedBytes),
        );
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;
    use crate::obs::Recorder;

    fn record_segment(key: u64, value: u64, framing: u64, saved: u64, materialized: u64) {
        let header = crate::ifile::Framing::IFile.file_overhead() as u64;
        crate::obs::hist_many(&[
            (Metric::SegKeyBytes, key),
            (Metric::SegValueBytes, value),
            (Metric::SegFramingBytes, framing),
            (Metric::SegKeySavedBytes, saved),
            (Metric::SegRawBytes, key + value + framing + header - saved),
            (Metric::SegMaterializedBytes, materialized),
        ]);
    }

    #[test]
    fn derives_and_reconciles() {
        let rec = Recorder::new();
        let counters = Counters::new();
        {
            let _a = rec.attach("t");
            // Second segment is v3-like: 12 of its 50 key bytes saved.
            for (k, v, f, s, m) in [(100, 20, 8, 0, 60), (50, 10, 4, 12, 30)] {
                record_segment(k, v, f, s, m);
                let header = crate::ifile::Framing::IFile.file_overhead() as u64;
                counters.add(Counter::MapOutputKeyBytes, k);
                counters.add(Counter::MapOutputValueBytes, v);
                counters.add(Counter::MapOutputFramingBytes, f);
                counters.add(Counter::MapOutputKeySavedBytes, s);
                counters.add(Counter::MapOutputBytes, k + v + f + header - s);
                counters.add(Counter::MapOutputMaterializedBytes, m);
                counters.add(Counter::MapOutputSegments, 1);
            }
        }
        let trace = rec.finish();
        let b = IntermediateBreakdown::from_trace(&trace);
        assert_eq!(b.segments, 2);
        assert_eq!(b.key_bytes, 150);
        assert_eq!(b.value_bytes, 30);
        assert_eq!(b.key_saved_bytes, 12);
        assert_eq!(b.key_fraction(), 150.0 / 180.0);
        assert!(b.materialized_ratio() < 1.0);
        b.reconcile(&counters.snapshot()).unwrap();
    }

    #[test]
    fn reconcile_reports_drift() {
        let rec = Recorder::new();
        {
            let _a = rec.attach("t");
            record_segment(10, 10, 2, 1, 5);
        }
        let trace = rec.finish();
        let b = IntermediateBreakdown::from_trace(&trace);
        // counters left at zero: every byte check should fire
        let errs = b.reconcile(&Counters::new().snapshot()).unwrap_err();
        assert!(errs.len() >= 6, "drift detected: {errs:?}");
    }

    #[test]
    fn empty_trace_breakdown_is_zero() {
        let b = IntermediateBreakdown::from_trace(&Trace::empty());
        assert_eq!(b.segments, 0);
        assert_eq!(b.key_fraction(), 0.0);
        assert_eq!(b.materialized_ratio(), 1.0);
        b.reconcile(&Counters::new().snapshot()).unwrap();
    }
}
