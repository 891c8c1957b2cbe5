//! The one harness of the `harness = false` bench mains: the `--quick`
//! switch, the repeat timer every timing goes through, and the record
//! writer that prints each scenario row and puts each bench's JSON
//! record where the CI and the trajectory files expect it. Also the
//! tiled diurnal load the solver benches run on.

use std::fmt::{Display, Write as _};
use std::path::Path;
use std::time::Instant;

use rsz_workloads::patterns;

/// Timed runs behind every full-mode timing; `--quick` makes one.
const RUNS: usize = 5;

/// One exact diurnal day (24 slots), tiled to `horizon` slots: λ values
/// repeat bit for bit across days, which is what lets the pricing pool
/// reuse slots.
#[must_use]
pub fn tiled_diurnal(horizon: usize, base: f64, amplitude: f64) -> Vec<f64> {
    let day = patterns::diurnal(24, base, amplitude, 24, 0.75);
    day.values().iter().copied().cycle().take(horizon).collect()
}

/// The median and interquartile range of a timing's runs, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// The median run.
    pub median: f64,
    /// The third quartile minus the first.
    pub iqr: f64,
}

impl Spread {
    /// The spread of `samples`, each quartile interpolated linearly
    /// between the two order statistics around it (so the median of an
    /// even count is the mean of the middle two, and one sample has an
    /// IQR of 0). Panics on no samples.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a spread needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let quantile = |q: f64| {
            let at = q * (sorted.len() - 1) as f64;
            let (lo, hi) = (sorted[at.floor() as usize], sorted[at.ceil() as usize]);
            lo + (hi - lo) * at.fract()
        };
        Self { median: quantile(0.5), iqr: quantile(0.75) - quantile(0.25) }
    }
}

/// The laps of one round of [`Bench::repeat`]: each [`Laps::time`]
/// call is timed as the round's next lap.
pub struct Laps(Vec<f64>);

impl Laps {
    /// Run `f`, its wall-clock time the round's next lap.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let clock = Instant::now();
        let out = f();
        self.0.push(clock.elapsed().as_secs_f64());
        out
    }
}

/// One scenario of a record: its `scenario` name, then its fields as
/// JSON values in the order they are written.
pub struct Row {
    name: String,
    fields: Vec<(String, String)>,
}

impl Row {
    /// A row for the scenario `name`, with no fields yet.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), fields: Vec::new() }
    }

    /// Add `key`, its value written as it displays: an integer, a bool,
    /// or a number the caller formatted.
    #[must_use]
    pub fn field(mut self, key: impl Into<String>, value: impl Display) -> Self {
        self.fields.push((key.into(), value.to_string()));
        self
    }

    /// Add `key` with three decimals, the number format of most fields.
    #[must_use]
    pub fn num(self, key: impl Into<String>, value: f64) -> Self {
        self.field(key, format!("{value:.3}"))
    }

    /// Add the timing `key` (a `*_ms` name) as its median in
    /// milliseconds, and `{key}_iqr` beside it.
    #[must_use]
    pub fn ms(self, key: &str, spread: Spread) -> Self {
        self.num(key, spread.median * 1e3).num(format!("{key}_iqr"), spread.iqr * 1e3)
    }
}

/// One bench main's run: its mode and the rows of its record.
pub struct Bench {
    name: &'static str,
    /// `--quick`: the CI smoke — smaller inputs, one run per timing, and
    /// only the files under `results/` written.
    pub quick: bool,
    rows: Vec<Row>,
}

impl Bench {
    /// The bench `name` (the record's `bench`), in the mode its command
    /// line asks for.
    #[must_use]
    pub fn from_args(name: &'static str) -> Self {
        Self { name, quick: std::env::args().any(|a| a == "--quick"), rows: Vec::new() }
    }

    /// The repeat timer: run `round` 5 times (once under `--quick`),
    /// each round timing `N` laps through the [`Laps`] it is handed;
    /// work outside a lap is untimed. Returns the last round's result
    /// and the spread of each lap over the rounds. Panics if a round
    /// times other than `N` laps.
    pub fn repeat<T, const N: usize>(
        &self,
        mut round: impl FnMut(&mut Laps) -> T,
    ) -> (T, [Spread; N]) {
        let runs = if self.quick { 1 } else { RUNS };
        let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(runs));
        let mut last = None;
        for _ in 0..runs {
            let mut laps = Laps(Vec::with_capacity(N));
            last = Some(round(&mut laps));
            assert_eq!(laps.0.len(), N, "{}: a round must time {N} laps", self.name);
            for (lap, secs) in samples.iter_mut().zip(laps.0) {
                lap.push(secs);
            }
        }
        (last.expect("at least one round"), samples.map(|s| Spread::of(&s)))
    }

    /// [`Bench::repeat`] timing all of `f` as the one lap.
    pub fn time<T>(&self, mut f: impl FnMut() -> T) -> (T, Spread) {
        let (out, [spread]) = self.repeat(|laps| laps.time(&mut f));
        (out, spread)
    }

    /// Print `row` and add it to the record.
    pub fn row(&mut self, row: Row) {
        let fields: Vec<String> = row.fields.iter().map(|(k, v)| format!("{k} {v}")).collect();
        println!("bench: {}/{:<24} ... {}", self.name, row.name, fields.join(" | "));
        self.rows.push(row);
    }

    /// Render the record, stamped now, its `top` fields between the
    /// header and `runs`, and write it to each of `files`, given relative
    /// to the workspace root (`cargo bench` runs with the cwd at
    /// `crates/bench`), creating parent directories. A `--quick` record
    /// goes only to the files under the git-ignored `results/`: a
    /// trajectory file at the root keeps its committed full-mode record,
    /// whose gates a smoke run would drop. A failed write warns and
    /// moves on to the next file.
    pub fn finish(self, top: &[(&str, String)], files: &[&str]) {
        let now = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
        let json = self.render(now.map_or(0, |d| d.as_secs()), top);
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/bench has a workspace root");
        for file in files {
            if self.quick && !file.starts_with("results/") {
                println!("bench: {}/json  ... {file} left as committed (quick run)", self.name);
                continue;
            }
            let out_path = root.join(file);
            let write = out_path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&out_path, &json));
            match write {
                Err(e) => eprintln!("warning: could not write {}: {e}", out_path.display()),
                Ok(()) => println!("bench: {}/json  ... {}", self.name, out_path.display()),
            }
        }
    }

    /// The record stamped `timestamp` (seconds since the Unix epoch):
    /// `bench`, `quick` and `timestamp`, the `top` fields, then `runs`,
    /// one object per row with its `scenario` first. One key per line,
    /// which is what `tests/bench_schema.rs` scans.
    fn render(&self, timestamp: u64, top: &[(&str, String)]) -> String {
        let (bench, quick) = (self.name, self.quick);
        let mut out = format!(
            "{{\n  \"bench\": \"{bench}\",\n  \"quick\": {quick},\n  \"timestamp\": {timestamp},\n"
        );
        for (k, v) in top {
            let _ = writeln!(out, "  \"{k}\": {v},");
        }
        out.push_str("  \"runs\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(out, "    {{\n      \"scenario\": \"{}\"", row.name);
            for (k, v) in &row.fields {
                let _ = write!(out, ",\n      \"{k}\": {v}");
            }
            out.push_str(if i + 1 < self.rows.len() { "\n    },\n" } else { "\n    }\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsz_serve::json::{self, Json};

    #[test]
    fn spread_of_an_odd_count() {
        let s = Spread::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s, Spread { median: 3.0, iqr: 2.0 });
    }

    #[test]
    fn spread_of_an_even_count_interpolates() {
        // Quartiles at ranks 0.75, 1.5 and 2.25 of 1, 2, 3, 4.
        let s = Spread::of(&[4.0, 3.0, 2.0, 1.0]);
        assert_eq!(s, Spread { median: 2.5, iqr: 1.5 });
    }

    #[test]
    fn one_sample_has_no_spread() {
        assert_eq!(Spread::of(&[0.25]), Spread { median: 0.25, iqr: 0.0 });
    }

    #[test]
    fn a_record_with_no_rows_is_well_formed() {
        let bench = Bench { name: "b", quick: true, rows: Vec::new() };
        let v = json::parse(&bench.render(7, &[])).expect("well-formed");
        assert_eq!(v.get("bench").and_then(Json::as_str), Some("b"));
        assert_eq!(v.get("quick").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("timestamp").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("runs"), Some(&Json::Arr(Vec::new())));
    }

    #[test]
    fn a_record_carries_its_top_fields_and_rows_each_timing_beside_its_iqr() {
        let timing = Spread { median: 0.0125, iqr: 0.002 };
        let rows: Vec<Row> = (0..3)
            .map(|i| {
                Row::new(format!("s{i}")).field("i", i).ms("run_ms", timing).field("ok", i % 2 == 0)
            })
            .collect();
        let top = [("tenants", "10".to_owned()), ("rate", "0.500".to_owned())];
        let text = Bench { name: "b", quick: false, rows }.render(1, &top);
        assert!(text.contains("\n  \"quick\": false,\n"), "{text}");
        let v = json::parse(&text).expect("well-formed");
        let Json::Obj(members) = &v else { panic!("{text}") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| &k[..]).collect();
        assert_eq!(keys, ["bench", "quick", "timestamp", "tenants", "rate", "runs"]);
        assert_eq!(v.get("rate").and_then(Json::as_f64), Some(0.5));
        let Some(Json::Arr(runs)) = v.get("runs") else { panic!("{text}") };
        assert_eq!(runs.len(), 3);
        assert!(text.contains("\"run_ms\": 12.500,\n      \"run_ms_iqr\": 2.000,"), "{text}");
        for (i, run) in runs.iter().enumerate() {
            let Json::Obj(fields) = run else { panic!("{text}") };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| &k[..]).collect();
            assert_eq!(keys, ["scenario", "i", "run_ms", "run_ms_iqr", "ok"]);
            assert_eq!(run.get("scenario").and_then(Json::as_str), Some(format!("s{i}").as_str()));
            assert_eq!(run.get("i").and_then(Json::as_u64), Some(i as u64));
            assert_eq!(run.get("ok").and_then(Json::as_bool), Some(i % 2 == 0));
        }
    }
}
