//! Order statistics over a run's samples, and the metric table a run
//! reports.

use std::collections::BTreeMap;

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks. `NaN` when there are no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Per-round rates: `work` units per second of each round in `round_ms`.
pub fn rates(round_ms: &[f64], work: f64) -> Vec<f64> {
    round_ms.iter().map(|ms| work / (ms / 1e3)).collect()
}

/// One reported metric: its unit and every sample taken in the run. The
/// reported value is the median unless the workload set one explicitly
/// (a derived quantity such as a rate over the median round).
#[derive(Debug, Clone)]
pub struct Metric {
    pub unit: &'static str,
    pub samples: Vec<f64>,
    pub value: Option<f64>,
}

impl Metric {
    pub fn value(&self) -> f64 {
        self.value.unwrap_or_else(|| median(&self.samples))
    }
}

/// The metrics of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    /// Records samples under `name`; the reported value is their median.
    pub fn samples(&mut self, name: &str, unit: &'static str, samples: Vec<f64>) {
        self.0.insert(
            name.to_string(),
            Metric {
                unit,
                samples,
                value: None,
            },
        );
    }

    /// Records a single derived value under `name`; `samples` are the
    /// per-round values it was derived from (for the spread columns).
    pub fn derived(&mut self, name: &str, unit: &'static str, value: f64, samples: Vec<f64>) {
        self.0.insert(
            name.to_string(),
            Metric {
                unit,
                samples,
                value: Some(value),
            },
        );
    }

    /// Records one scalar (a count or a one-off measurement).
    pub fn scalar(&mut self, name: &str, unit: &'static str, value: f64) {
        self.derived(name, unit, value, vec![value]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }
}
