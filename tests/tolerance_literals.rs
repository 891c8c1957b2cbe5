//! Tolerance-literal gate: library code names its numeric tolerances.
//!
//! Every tolerance has one named constant per role in `rsz_core::util`
//! (feasibility slack, dispatch/KKT convergence, …). A bare literal
//! such as `1e-9` in library code hides which role it plays and drifts
//! apart from its siblings, which is how mismatched tolerances let one
//! layer accept loads the next rejected. This test fails on any float
//! literal with a negative exponent (a digit, `e`, `-`, a digit) in the
//! non-test part of a gated crate: everything before a file's first
//! `#[cfg(test)]`, comments included, so the docs name the constants
//! instead of copying their values. Every library source tree is gated;
//! the one file exempt is `crates/core/src/util.rs`, where the constants
//! are defined.

use std::fs;
use std::path::{Path, PathBuf};

/// Source trees that route every tolerance through the named constants.
const GATED: [&str; 6] = [
    "crates/core/src",
    "crates/dispatch/src",
    "crates/offline/src",
    "crates/online/src",
    "crates/serve/src",
    "crates/workloads/src",
];

/// The one file that may spell tolerances out: where they are named.
const EXEMPT: &str = "crates/core/src/util.rs";

/// Every `.rs` file under `dir`, recursively, in a stable order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut entries: Vec<PathBuf> = fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// `true` if `line` holds a digit, `e`, `-` and a digit in a row.
fn has_negative_exponent(line: &str) -> bool {
    line.as_bytes()
        .windows(4)
        .any(|w| w[0].is_ascii_digit() && w[1] == b'e' && w[2] == b'-' && w[3].is_ascii_digit())
}

#[test]
fn gated_library_code_has_no_bare_tolerance_literals() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    for dir in GATED {
        let files = rust_files(&root.join(dir));
        assert!(!files.is_empty(), "{dir} has no sources");
        for path in files {
            if path == root.join(EXEMPT) {
                continue;
            }
            let text = fs::read_to_string(&path).unwrap();
            for (i, line) in text.lines().enumerate() {
                if line.trim_start().starts_with("#[cfg(test)]") {
                    break;
                }
                if has_negative_exponent(line) {
                    let rel = path.strip_prefix(root).unwrap().display().to_string();
                    found.push(format!("{rel}:{}: {}", i + 1, line.trim()));
                }
            }
        }
    }
    assert!(
        found.is_empty(),
        "bare tolerance literals (use a named constant from rsz_core::util):\n{}",
        found.join("\n")
    );
}

#[test]
fn the_scan_sees_what_it_gates() {
    assert!(has_negative_exponent("if take <= residual * 1e-15 {"));
    assert!(has_negative_exponent("let eps = 2.5e-3;"));
    assert!(!has_negative_exponent("let big = 1e300;"));
    assert!(!has_negative_exponent("if y > cap + DISPATCH_NOISE {"));
}
