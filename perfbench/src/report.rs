//! Output checks and the result line.
//!
//! Every metric is printed on its own line with its unit and sample
//! count; the last line of standard output is one JSON object:
//! `{"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}`.

use std::fmt::Write as _;

/// Verified-operation tally: every checked output counts as attempted,
/// every mismatch as failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Count one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(what());
            }
        }
    }

    /// Fold in another tally.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures
            .extend(other.failures.into_iter().take(10usize.saturating_sub(self.failures.len())));
    }

    /// Verified operations ÷ attempted (1 when nothing was attempted).
    #[must_use]
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: usize,
}

impl Metric {
    /// A metric summarizing `samples` samples.
    #[must_use]
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Self { name, unit, value, samples }
    }
}

/// Print one metric line.
pub fn line(workload: &str, m: &Metric) {
    println!("perfbench {workload}: {} = {} {} (samples: {})", m.name, m.value, m.unit, m.samples);
}

/// Print the metric lines, any check failures and the result line;
/// `ok_ratio` is appended when `with_ok_ratio`. Returns the process exit
/// code: 0 when every check passed.
#[must_use]
pub fn finish(workload: &str, mut checks: Checks, metrics: &[Metric], with_ok_ratio: bool) -> i32 {
    for m in metrics {
        checks.check(m.value.is_finite(), || format!("metric {} is not finite", m.name));
    }
    let mut metrics = metrics.to_vec();
    if with_ok_ratio {
        metrics.push(Metric::new(
            "ok_ratio",
            "ratio",
            checks.ok_ratio(),
            checks.attempted as usize,
        ));
    }
    for m in &metrics {
        line(workload, m);
    }
    for f in &checks.failures {
        eprintln!("perfbench {workload}: check failed: {f}");
    }
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(body, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    let correct = checks.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        checks.attempted, checks.failed,
    );
    i32::from(!correct)
}
