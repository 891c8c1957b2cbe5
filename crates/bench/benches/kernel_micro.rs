//! `kernel_micro` — throughput microbenchmark of the kernel layer.
//!
//! Times the three hot-loop kernels (`suffix_min_inplace`, `axpy_fold`,
//! `argmin_scan`) — the 4-wide implementations every solve runs —
//! against their `*_scalar` pre-refactor reference twins, on contiguous
//! lines of length 64 (one short table line), 1024 (a large table's
//! innermost row block) and 65536 (a whole d = 3 table slab), reporting
//! elements per second at the median of five timed batches. Inputs are
//! all-finite for the timed loops (the kernels' fast path and the
//! solver's common case); the bit-identity of the twins on `+∞`-mixed
//! data is asserted untimed here and exhaustively in
//! `crates/offline/tests/kernel_parity.rs`.
//!
//! Results land in `results/kernels.json`. `--quick` shrinks the rep
//! counts and times one batch, for the CI smoke step; no wall-clock
//! gates either way.

use std::hint::black_box;

use rsz_bench::harness::{Bench, Row};
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

/// Elements per second of `reps` calls to `f` on a line of `len`, at
/// the median batch.
fn throughput(bench: &Bench, len: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let ((), batch) = bench.time(|| (0..reps).for_each(|_| f()));
    (len * reps) as f64 / batch.median
}

fn main() {
    let mut bench = Bench::from_args("kernel_micro");
    // Total elements per measurement — enough to dwarf timer noise in
    // full mode, small enough for a CI smoke in quick mode.
    let target: usize = if bench.quick { 1 << 21 } else { 1 << 25 };

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

    for len in LENS {
        let reps = (target / len).max(1);
        let mut measured = Vec::new();

        // Suffix minima: idempotent in place, so one buffer serves every
        // rep with identical per-rep work.
        let mut buf = line(len, 1);
        suffix_min_inplace_scalar(&mut buf);
        let scalar =
            throughput(&bench, len, reps, || suffix_min_inplace_scalar(black_box(&mut buf)));
        let lanes = throughput(&bench, len, reps, || suffix_min_inplace(black_box(&mut buf)));
        measured.push(("suffix_min", scalar, lanes));

        // Pricing fold: all-finite accumulator and slot values keep every
        // rep on the same path; scale 1e-9 keeps sums far from overflow.
        let g = line(len, 2);
        let mut v = line(len, 3);
        let scalar =
            throughput(&bench, len, reps, || axpy_fold_scalar(black_box(&mut v), &g, 1e-9));
        let mut v = line(len, 3);
        let lanes = throughput(&bench, len, reps, || axpy_fold(black_box(&mut v), &g, 1e-9));
        measured.push(("axpy_fold", scalar, lanes));

        // Windowed argmin (read-only): totals favor high indices so the
        // candidate sweep does real tie-break work every rep.
        let v = line(len, 4);
        let scalar = throughput(&bench, len, reps, || {
            black_box(argmin_scan_scalar(black_box(&v), |i| (len - i) as u64));
        });
        let lanes = throughput(&bench, len, reps, || {
            black_box(argmin_scan(black_box(&v), |i| (len - i) as u64));
        });
        measured.push(("argmin", scalar, lanes));

        for (kernel, scalar, lanes) in measured {
            bench.row(
                Row::new(format!("{kernel}_{len}"))
                    .field("kernel", format!("\"{kernel}\""))
                    .field("len", len)
                    .field("scalar_elems_per_s", format!("{scalar:.0}"))
                    .field("lanes_elems_per_s", format!("{lanes:.0}"))
                    .num("speedup", lanes / scalar),
            );
        }
    }
    bench.finish(&[], &["results/kernels.json"]);
}
