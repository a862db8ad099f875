//! Experiment reports: plain-text tables, and the one emitter of the
//! `BENCH_*.json` baselines.

use crate::json::Json;

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Start a table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Append a footnote.
    pub fn note(&mut self, note: &str) {
        self.notes.push(note.to_string());
    }

    /// Table title (for tests and EXPERIMENTS.md generation).
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Table rows (for tests and EXPERIMENTS.md generation).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }
}

/// `x` rounded to `places` decimals, as a JSON number. BENCH files hold
/// medians of timings; digits past the second or third are noise that
/// would only churn the committed baselines.
pub fn rounded(x: f64, places: usize) -> Json {
    let decimal = format!("{x:.places$}");
    Json::Num(decimal.parse().expect("a formatted f64 parses back"))
}

/// Write one `BENCH_*.json` report to `path`: a `"benchmarks"` array with
/// a row per measurement — `(id, median_ns, per_second)`, the rate going
/// under `rate_field` — followed by `fields` in the order given.
pub fn write_bench_json<'a>(
    path: &str,
    rate_field: &str,
    measurements: impl IntoIterator<Item = (&'a str, f64, f64)>,
    fields: Vec<(&str, Json)>,
) {
    let rows = measurements
        .into_iter()
        .map(|(id, median_ns, per_second)| {
            Json::obj([
                ("id", id.into()),
                ("median_ns", rounded(median_ns, 0)),
                (rate_field, rounded(per_second, 0)),
            ])
        })
        .collect();
    let report = Json::obj([("benchmarks", Json::Arr(rows))].into_iter().chain(fields));
    std::fs::write(path, report.to_pretty()).expect("write bench json");
    println!("wrote {path}");
}

/// Human-friendly byte counts.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 10_000_000_000 {
        format!("{:.1} GB", b as f64 / 1e9)
    } else if b >= 10_000_000 {
        format!("{:.2} MB", b as f64 / 1e6)
    } else if b >= 10_000 {
        format!("{:.2} kB", b as f64 / 1e3)
    } else {
        format!("{b} B")
    }
}

/// Seconds with sensible precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0} s")
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else {
        format!("{:.1} ms", s * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["method", "size"]);
        t.row(&["gzip".into(), "1,630,000".into()]);
        t.row(&["transform+gzip".into(), "33,000".into()]);
        t.note("smaller is better");
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("transform+gzip"));
        assert!(s.contains("note: smaller is better"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn wrong_arity_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn bench_reports_keep_the_committed_layout() {
        let path = std::env::temp_dir().join(format!("bench-report-{}.json", std::process::id()));
        write_bench_json(
            path.to_str().expect("utf-8 temp path"),
            "records_per_s",
            [("group/a \"quoted\"", 495_541.4, 20_179_975.2)],
            vec![
                ("overhead_percent", rounded(2.299_6, 2)),
                ("host_cpus", 2u64.into()),
            ],
        );
        let text = std::fs::read_to_string(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            text,
            r#"{
  "benchmarks": [
    {
      "id": "group/a \"quoted\"",
      "median_ns": 495541,
      "records_per_s": 20179975
    }
  ],
  "overhead_percent": 2.3,
  "host_cpus": 2
}
"#
        );
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(33_000), "33.00 kB");
        assert_eq!(fmt_bytes(12_000_000), "12.00 MB");
        assert_eq!(fmt_bytes(55_500_000_000), "55.5 GB");
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(fmt_secs(0.0123), "12.3 ms");
        assert_eq!(fmt_secs(3.456), "3.46 s");
        assert_eq!(fmt_secs(377.0 * 60.0), "22620 s");
    }
}
