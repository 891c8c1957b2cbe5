//! Schema check for the benchmark trajectory records.
//!
//! Every `BENCH_*.json` at the workspace root is a committed, full-mode
//! trajectory record; downstream tooling (and the next PR's diffing)
//! relies on three top-level keys being present: `bench` (which bench
//! wrote it), `timestamp` (when), and `runs` (the per-scenario rows),
//! and on `"quick": false`, since only a full run carries the gated
//! numbers (a `--quick` run writes under `results/` only). The workspace
//! has no JSON dependency, so the check is a minimal structural scan,
//! not a full parse.

use std::fs;
use std::path::Path;

/// `true` if `json` contains the top-level key `"name":` (crude but
/// sufficient: bench writers emit keys exactly once, quoted, colon
/// separated).
fn has_key(json: &str, name: &str) -> bool {
    json.contains(&format!("\"{name}\":"))
}

/// Extract the number following `"name":` (same crudeness as
/// [`has_key`]; bench writers emit each top-level key once, on its own
/// line, with a plain decimal value).
fn number_of(json: &str, name: &str) -> Option<f64> {
    let tag = format!("\"{name}\":");
    let rest = &json[json.find(&tag)? + tag.len()..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

#[test]
fn committed_speedups_never_drop_below_their_gates() {
    // The committed BENCH_refine trajectory is a full-mode record; its
    // gated speedup must stay at or above the bench-enforced floor
    // (re-running the full bench on a slower machine can move the
    // number, but never below the gate the bench itself asserts — a
    // lower committed value means someone recorded a gate-failing run).
    // A quick-mode record would gate nothing, so none may be committed.
    let floors: [(&str, &[(&str, f64)]); 1] = [("BENCH_refine.json", &[("d3_speedup", 3.0)])];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (file, keys) in floors {
        let path = root.join(file);
        let body = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file} unreadable: {e}"));
        assert!(body.contains("\"quick\": false"), "{file} is not a full-mode record");
        for &(key, floor) in keys {
            let got = number_of(&body, key)
                .unwrap_or_else(|| panic!("{file} is missing a numeric `{key}`"));
            assert!(got >= floor, "{file}: {key} {got} fell below the committed floor {floor}");
        }
    }
}

#[test]
fn serve_trajectory_carries_failover_and_divergence_fields() {
    // The replicated-serve PR made the serve trajectory carry failover
    // latency and divergence-detection counters; downstream diffing
    // relies on them being present in every committed record.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let path = root.join("BENCH_serve.json");
    let body =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("BENCH_serve.json unreadable: {e}"));
    for key in ["failover_p50_us", "failover_p99_us", "divergence_detected", "fingerprint_checks"] {
        let got = number_of(&body, key)
            .unwrap_or_else(|| panic!("BENCH_serve.json is missing a numeric `{key}`"));
        assert!(got >= 0.0, "BENCH_serve.json: `{key}` is {got}");
    }
    // The bench gates M-for-M detection before writing the record; a
    // committed record violating that means someone bypassed the gate.
    let detected = number_of(&body, "divergence_detected").expect("checked above");
    let tenants = number_of(&body, "divergence_tenants")
        .unwrap_or_else(|| panic!("BENCH_serve.json is missing `divergence_tenants`"));
    assert!(
        (detected - tenants).abs() < f64::EPSILON,
        "BENCH_serve.json records {detected} detections over {tenants} flipped tenants"
    );
}

#[test]
fn serve_trajectory_carries_the_age_row() {
    // The age row records what a serve tick costs as a tenant ages:
    // mean and p99 tick and bytes per snapshot at 1k, 4k and 16k slots,
    // and the 16k/1k ratios the bench gates (at ≤ 1.2; the bytes ratio
    // in every mode, the timing ratios in full mode — which the committed
    // record is, so all three hold here).
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let body = fs::read_to_string(root.join("BENCH_serve.json"))
        .unwrap_or_else(|e| panic!("BENCH_serve.json unreadable: {e}"));
    assert!(body.contains("\"scenario\": \"age\""), "BENCH_serve.json lacks the age row");
    for age in ["1k", "4k", "16k"] {
        for metric in ["tick_mean_us", "tick_p99_us", "snapshot_bytes"] {
            let key = format!("{metric}_{age}");
            let got = number_of(&body, &key)
                .unwrap_or_else(|| panic!("BENCH_serve.json is missing a numeric `{key}`"));
            assert!(got > 0.0, "BENCH_serve.json: `{key}` is {got}");
        }
    }
    assert!(body.contains("\"quick\": false"), "BENCH_serve.json is not a full-mode record");
    for key in ["tick_mean_ratio", "tick_p99_ratio", "snapshot_bytes_ratio"] {
        let got = number_of(&body, key)
            .unwrap_or_else(|| panic!("BENCH_serve.json is missing a numeric `{key}`"));
        assert!(got <= 1.2, "BENCH_serve.json: `{key}` {got} is above the 1.2 gate");
    }
}

#[test]
fn serve_trajectory_carries_the_contention_row() {
    // The contention row steps Algorithm A controllers from every core
    // on never-repeating loads, on one shared pool and on a pool per
    // thread; with two threads or more, the full-mode run the record is
    // gates one pool at ≥ 0.8× the pool-per-thread ticks/s.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let body = fs::read_to_string(root.join("BENCH_serve.json"))
        .unwrap_or_else(|e| panic!("BENCH_serve.json unreadable: {e}"));
    assert!(body.contains("\"scenario\": \"contention\""), "BENCH_serve.json lacks contention");
    let number = |key: &str| {
        number_of(&body, key).unwrap_or_else(|| panic!("BENCH_serve.json is missing `{key}`"))
    };
    for key in ["one_pool_ticks_per_sec", "pool_per_thread_ticks_per_sec"] {
        assert!(number(key) > 0.0, "BENCH_serve.json: `{key}` is {}", number(key));
    }
    if number("threads") >= 2.0 {
        let ratio = number("one_pool_ratio");
        assert!(ratio >= 0.8, "BENCH_serve.json: `one_pool_ratio` {ratio} is below the 0.8 gate");
    }
}

#[test]
fn all_bench_trajectories_carry_the_required_keys() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0usize;
    for entry in fs::read_dir(root).expect("workspace root readable") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let body =
            fs::read_to_string(entry.path()).unwrap_or_else(|e| panic!("{name} unreadable: {e}"));
        for key in ["bench", "timestamp", "runs"] {
            assert!(has_key(&body, key), "{name} is missing the required `{key}` key");
        }
        assert!(
            body.contains("\"quick\": false"),
            "{name} is not a full-mode record (a `--quick` run writes under results/ only)"
        );
        assert!(
            body.trim_start().starts_with('{') && body.trim_end().ends_with('}'),
            "{name} is not a JSON object"
        );
        // Every timing is a median with its spread: the line after each
        // `*_ms` key holds its numeric `*_ms_iqr`.
        let lines: Vec<&str> = body.lines().collect();
        for (line, next) in lines.iter().zip(lines.iter().skip(1).chain([&""])) {
            let key = line.trim().strip_prefix('"').and_then(|l| l.split_once("\":"));
            if let Some((key, _)) = key.filter(|(key, _)| key.ends_with("_ms")) {
                let iqr = number_of(next, &format!("{key}_iqr"));
                assert!(iqr.is_some(), "{name}: `{key}` lacks a numeric `{key}_iqr` after it");
            }
        }
        checked += 1;
    }
    assert!(
        checked >= 5,
        "expected at least BENCH_dp/BENCH_online/BENCH_refine/BENCH_robust/BENCH_serve at the root, found {checked}"
    );
}
