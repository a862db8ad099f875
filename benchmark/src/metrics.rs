//! A measured metric — name, unit and the raw samples behind the
//! reported value — and its JSON form, which is how a per-workload
//! child process hands results to the harness and how run records are
//! stored for `compare`.

use scihadoop_bench::json::Json;

/// One metric of one workload. A timing has one sample per repeat; a
/// count or a size has a single sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: &str, unit: &str, samples: Vec<f64>) -> Metric {
        assert!(
            samples.iter().all(|s| s.is_finite()),
            "metric {name} has a non-finite sample: {samples:?}"
        );
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            samples,
        }
    }

    pub fn single(name: &str, unit: &str, value: f64) -> Metric {
        Metric::new(name, unit, vec![value])
    }

    /// The reported value: the median of the samples (0 with none, which
    /// only happens when every run of the workload failed).
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }

    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Distance between the first and third quartile as a share of the
    /// median — the run-to-run spread `compare` holds against a bound.
    pub fn quartile_spread(&self) -> f64 {
        let m = self.value();
        if self.samples.len() < 2 || m == 0.0 {
            return 0.0;
        }
        let (q1, q3) = quartiles(&self.samples);
        (q3 - q1) / m.abs()
    }

    /// `{"value":…,"unit":…}` — the form the benchmark contract asks for.
    pub fn to_contract_json(&self) -> String {
        format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            self.name,
            self.value(),
            self.unit
        )
    }

    /// The full form with min, max and raw samples.
    pub fn to_json(&self) -> String {
        let samples: Vec<String> = self.samples.iter().map(|s| s.to_string()).collect();
        let (min, max) = if self.samples.is_empty() {
            (0.0, 0.0)
        } else {
            (self.min(), self.max())
        };
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"value\": {}, \"min\": {}, \"max\": {}, \"samples\": [{}]}}",
            self.name,
            self.unit,
            self.value(),
            min,
            max,
            samples.join(", ")
        )
    }

    pub fn from_json(json: &Json) -> Result<Metric, String> {
        let text = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric without a string {key:?}"))
        };
        let samples = json
            .get("samples")
            .and_then(Json::as_arr)
            .ok_or("metric without samples")?
            .iter()
            .map(|s| s.as_f64().ok_or("metric sample is not a number"))
            .collect::<Result<Vec<f64>, _>>()?;
        Ok(Metric {
            name: text("name")?.to_string(),
            unit: text("unit")?.to_string(),
            samples,
        })
    }
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method (Python's
/// `statistics.quantiles(values, n=4)`), so spreads printed here agree
/// with the ones the benchmark is accepted by.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |quarter: usize| {
        let pos = quarter * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_json_roundtrips() {
        let m = Metric::new("job_wall_s", "s", vec![0.5, 0.25, 1.0]);
        let parsed = scihadoop_bench::json::parse(&m.to_json()).unwrap();
        assert_eq!(Metric::from_json(&parsed).unwrap(), m);
        assert_eq!(m.value(), 0.5);
        assert_eq!((m.min(), m.max()), (0.25, 1.0));
    }
}
