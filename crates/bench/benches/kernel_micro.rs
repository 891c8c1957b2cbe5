//! `kernel_micro` — throughput microbenchmark of the kernel layer.
//!
//! Times the three hot-loop kernels (`suffix_min_inplace`, `axpy_fold`,
//! `argmin_scan`) — the 4-wide implementations every solve runs —
//! against their `*_scalar` pre-refactor reference twins, on contiguous
//! lines of length 64 (one short table line), 1024 (a large table's
//! innermost row block) and 65536 (a whole d = 3 table slab), reporting
//! elements per second. Inputs are all-finite for the timed loops (the
//! kernels' fast path and the solver's common case); the bit-identity of
//! the twins on `+∞`-mixed data is asserted untimed here and
//! exhaustively in `crates/offline/tests/kernel_parity.rs`.
//!
//! Results land in `results/kernels.json`. `--quick` shrinks the rep
//! counts for the CI smoke step; no wall-clock gates either way.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use rsz_bench::harness::{timestamp, write_records};
use rsz_offline::kernels::{
    argmin_scan, argmin_scan_scalar, axpy_fold, axpy_fold_scalar, min_scan, min_scan_scalar,
    suffix_min_inplace, suffix_min_inplace_scalar,
};

const LENS: [usize; 3] = [64, 1024, 65536];

/// Deterministic pseudo-random cost line (no `rand` needed here).
fn line(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 10_000) as f64 * 0.01
        })
        .collect()
}

/// Best-of-3 wall-clock of `reps` calls to `f`.
fn time_reps(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

struct Row {
    kernel: &'static str,
    len: usize,
    scalar_eps: f64,
    lanes_eps: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    // Total elements per measurement — enough to dwarf timer noise in
    // full mode, small enough for a CI smoke in quick mode.
    let target: usize = if quick { 1 << 21 } else { 1 << 25 };

    // Untimed twin parity on +∞-mixed data (the full property suite
    // lives in kernel_parity.rs; this is a cheap self-check so a broken
    // build cannot record bogus throughput numbers).
    for len in LENS {
        let mut v = line(len, 7);
        for i in (3..len).step_by(17) {
            v[i] = f64::INFINITY;
        }
        let mut a = v.clone();
        let mut b = v.clone();
        suffix_min_inplace_scalar(&mut a);
        suffix_min_inplace(&mut b);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()), "suffix parity {len}");
        assert_eq!(min_scan_scalar(&v).to_bits(), min_scan(&v).to_bits(), "min parity {len}");
        assert_eq!(
            argmin_scan_scalar(&v, |i| (i % 5) as u64),
            argmin_scan(&v, |i| (i % 5) as u64),
            "argmin parity {len}"
        );
    }

    let mut rows: Vec<Row> = Vec::new();
    for len in LENS {
        let reps = (target / len).max(1);

        // Suffix minima: idempotent in place, so one buffer serves every
        // rep with identical per-rep work.
        let mut buf = line(len, 1);
        suffix_min_inplace_scalar(&mut buf);
        let scalar_s = time_reps(reps, || suffix_min_inplace_scalar(black_box(&mut buf)));
        let lanes_s = time_reps(reps, || suffix_min_inplace(black_box(&mut buf)));
        rows.push(Row {
            kernel: "suffix_min",
            len,
            scalar_eps: len as f64 * reps as f64 / scalar_s,
            lanes_eps: len as f64 * reps as f64 / lanes_s,
        });

        // Pricing fold: all-finite accumulator and slot values keep every
        // rep on the same path; scale 1e-9 keeps sums far from overflow.
        let g = line(len, 2);
        let mut v = line(len, 3);
        let scalar_s = time_reps(reps, || axpy_fold_scalar(black_box(&mut v), &g, 1e-9));
        let mut v = line(len, 3);
        let lanes_s = time_reps(reps, || axpy_fold(black_box(&mut v), &g, 1e-9));
        rows.push(Row {
            kernel: "axpy_fold",
            len,
            scalar_eps: len as f64 * reps as f64 / scalar_s,
            lanes_eps: len as f64 * reps as f64 / lanes_s,
        });

        // Windowed argmin (read-only): totals favor high indices so the
        // candidate sweep does real tie-break work every rep.
        let v = line(len, 4);
        let scalar_s = time_reps(reps, || {
            black_box(argmin_scan_scalar(black_box(&v), |i| (len - i) as u64));
        });
        let lanes_s = time_reps(reps, || {
            black_box(argmin_scan(black_box(&v), |i| (len - i) as u64));
        });
        rows.push(Row {
            kernel: "argmin",
            len,
            scalar_eps: len as f64 * reps as f64 / scalar_s,
            lanes_eps: len as f64 * reps as f64 / lanes_s,
        });
    }

    for r in &rows {
        println!(
            "bench: kernel_micro/{:<11} len {:>6}  {:>8.1} Melem/s -> {:>8.1} Melem/s  ({:>5.2}x)",
            r.kernel,
            r.len,
            r.scalar_eps / 1e6,
            r.lanes_eps / 1e6,
            r.lanes_eps / r.scalar_eps,
        );
    }

    let timestamp = timestamp();
    let mut runs = String::new();
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            runs,
            "    {{\n      \"kernel\": \"{}\",\n      \"len\": {},\n      \"scalar_elems_per_s\": {:.0},\n      \"lanes_elems_per_s\": {:.0},\n      \"speedup\": {:.3}\n    }}{}",
            r.kernel,
            r.len,
            r.scalar_eps,
            r.lanes_eps,
            r.lanes_eps / r.scalar_eps,
            if i + 1 < rows.len() { ",\n" } else { "\n" },
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"kernel_micro\",\n  \"quick\": {quick},\n  \"timestamp\": {timestamp},\n  \"runs\": [\n{runs}  ]\n}}\n",
    );

    write_records("kernel_micro", &json, quick, &["results/kernels.json"]);
}
