//! Scaffolding shared by the `harness = false` bench mains: the tiled
//! diurnal load the solver benches run on, the scenario rows of the
//! records whose fields vary by scenario, and the writer that puts each
//! bench's JSON record where the CI and the trajectory files expect it.

use std::fmt::Write as _;
use std::path::Path;

use rsz_workloads::patterns;

/// One exact diurnal day (24 slots), tiled to `horizon` slots: λ values
/// repeat bit for bit across days, which is what lets the pricing pool
/// reuse slots.
#[must_use]
pub fn tiled_diurnal(horizon: usize, base: f64, amplitude: f64) -> Vec<f64> {
    let day = patterns::diurnal(24, base, amplitude, 24, 0.75);
    day.values().iter().copied().cycle().take(horizon).collect()
}

/// One scenario of a record, its fields preformatted as JSON values
/// (see [`num`]) in the order they are written.
pub struct Row {
    /// The `scenario` name.
    pub name: String,
    /// `(key, JSON value)` pairs.
    pub fields: Vec<(String, String)>,
}

/// `v` with three decimals, the number format of [`Row`] fields.
#[must_use]
pub fn num(v: f64) -> String {
    format!("{v:.3}")
}

/// The body of a record's `runs` array: one object per row, its
/// `scenario` first.
#[must_use]
pub fn render_rows(rows: &[Row]) -> String {
    let mut runs = String::new();
    for (i, r) in rows.iter().enumerate() {
        let mut fields = String::new();
        for (j, (k, v)) in r.fields.iter().enumerate() {
            let _ = write!(
                fields,
                "      \"{k}\": {v}{}",
                if j + 1 < r.fields.len() { ",\n" } else { "\n" }
            );
        }
        let _ = write!(
            runs,
            "    {{\n      \"scenario\": \"{}\",\n{fields}    }}{}",
            r.name,
            if i + 1 < rows.len() { ",\n" } else { "\n" },
        );
    }
    runs
}

/// Seconds since the Unix epoch, the `timestamp` of every record (0 on a
/// clock set before it).
#[must_use]
pub fn timestamp() -> u64 {
    std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map_or(0, |d| d.as_secs())
}

/// Write `json` to each of `files`, given relative to the workspace root
/// (`cargo bench` runs with the cwd at `crates/bench`), creating parent
/// directories. A failed write warns and moves on to the next file.
pub fn write_records(bench: &str, json: &str, files: &[&str]) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a workspace root");
    for file in files {
        let out_path = root.join(file);
        let write = out_path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&out_path, json));
        match write {
            Err(e) => eprintln!("warning: could not write {}: {e}", out_path.display()),
            Ok(()) => println!("bench: {bench}/json  ... {}", out_path.display()),
        }
    }
}
