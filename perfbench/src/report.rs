//! Sample statistics, the host record, and the result line.

use std::fmt::Write as _;

/// Timings (or other values) collected over one run.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Nearest-rank quantile `q` in `[0, 1]`; NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
        v[rank.min(v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Samples strictly above the nearest-rank `q` quantile's position:
    /// a tail percentile is reported only when this is at least ten.
    pub fn beyond(&self, q: f64) -> usize {
        self.0.len() - ((q * self.0.len() as f64).ceil() as usize).min(self.0.len())
    }
}

/// Mean over inputs of each input's median: the per-graph figure of a
/// workload that solves several generated graphs.
pub fn mean_of_medians(per_graph: &[Samples]) -> f64 {
    per_graph.iter().map(Samples::median).sum::<f64>() / per_graph.len() as f64
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: usize,
    /// Printed with the others but left out of the result line.
    pub note_only: bool,
}

/// Metrics in the order they are reported.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric { name: name.into(), value, unit, samples, note_only: false });
    }

    /// A figure printed for the record but not a benchmark metric.
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric { name: name.into(), value, unit, samples, note_only: true });
    }

    /// Human-readable lines: every metric by name, with unit and sample count.
    pub fn print_table(&self) {
        for m in &self.0 {
            let note = if m.note_only { " not in the result" } else { "" };
            println!("# {:<28} {:>16.6} {:<6} (n={}){note}", m.name, m.value, m.unit, m.samples);
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (k, m) in self.0.iter().filter(|m| !m.note_only).enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; a missing value is null.
            let value = if m.value.is_finite() { format!("{}", m.value) } else { "null".into() };
            write!(s, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
                .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process and the CPU model name.
pub fn host() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
    (nproc, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_and_tail_counts() {
        let mut s = Samples::default();
        for v in 1..=1000 {
            s.push(v as f64);
        }
        assert_eq!(s.median(), 500.0);
        assert_eq!(s.quantile(0.99), 990.0);
        assert_eq!(s.beyond(0.99), 10);
        assert_eq!(s.quantile(1.0), 1000.0);
        assert!(Samples::default().median().is_nan());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.add("solve_s", 0.5, "s", 3);
        m.add("missing", f64::NAN, "s", 0);
        m.note("noted", 2.0, "us", 9);
        assert_eq!(
            m.result_json(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"solve_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"missing\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }
}
