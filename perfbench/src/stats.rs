//! Sample sets, percentiles with their sample counts, and the metric
//! records the benchmark prints.

use std::fmt::Write as _;

/// A set of samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean (0 for an empty set).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    /// Largest sample (0 for an empty set).
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile, or `None` when fewer than ten samples lie
    /// beyond it: a tail read from fewer samples is a guess, not a
    /// measurement.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        let n = self.values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        if n == 0 || n - rank < 10 {
            return None;
        }
        self.sort();
        Some(self.values[rank - 1])
    }

    /// Quantile for a per-layer report: 0 when the layer took no samples,
    /// otherwise the hygienic quantile or, if the tail is too thin, the
    /// maximum (reported with its sample count, so the reader can tell).
    pub fn quantile_or_max(&mut self, q: f64) -> f64 {
        self.quantile(q).unwrap_or_else(|| self.max())
    }
}

/// Median of a small set of repetitions (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// One reported metric: value, unit and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or `perfbench/spec.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `count`, ...).
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub n: usize,
}

/// An ordered collection of metrics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Metrics in insertion order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            n,
        });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// `{"name": {"value": v, "unit": u}, ...}`, optionally with `n`.
    pub fn to_json(&self, with_n: bool) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                m.name,
                json_num(m.value),
                m.unit
            );
            if with_n {
                let _ = write!(out, ", \"n\": {}", m.n);
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// A finite JSON number with every digit Rust keeps (non-finite values,
/// which JSON cannot carry, become -1 and are caught by the checks).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1.0".to_owned()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size (`VmHWM`) of a process in MB, read from
/// `/proc/<pid>/status`; `None` where procfs is unavailable.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// SplitMix64: a small seeded generator for the benchmark's own inputs,
/// so input generation does not depend on the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in [0, n).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_needs_ten_samples_beyond() {
        let mut s = Samples::new();
        for i in 0..999 {
            s.push(i as f64);
        }
        assert_eq!(s.quantile(0.99), None);
        s.push(999.0);
        assert_eq!(s.quantile(0.99), Some(989.0));
        assert_eq!(s.quantile(0.5), Some(499.0));
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
