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
//! The `price_slot` row times the pricing kernel the same way: every
//! configuration of `three_tier(12,12,6)` (1,183 cells) at 20%, 50% and
//! 80% of its capacity, priced through one slot context per load
//! (`GtOracle::slot_eval`, whose memos the cells share) and cell by
//! cell through one-shot `g_scaled`, in nanoseconds per cell. Both give
//! the same bits, which is asserted untimed first.
//!
//! Results land in `results/kernels.json`. `--quick` shrinks the rep
//! counts and times one batch, for the CI smoke step; no wall-clock
//! gates either way.

use std::hint::black_box;

use rsz_bench::harness::{Bench, Row, Spread};
use rsz_core::{GtOracle, Instance};
use rsz_dispatch::Dispatcher;
use rsz_offline::brute::enumerate_configs;
use rsz_offline::kernels::{
    argmin_scan, argmin_scan_scalar, axpy_fold, axpy_fold_scalar, min_scan, min_scan_scalar,
    suffix_min_inplace, suffix_min_inplace_scalar,
};
use rsz_workloads::fleet;

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
    price_slot(&mut bench);
    bench.finish(&[], &["results/kernels.json"]);
}

/// The `price_slot` row (see the module doc).
fn price_slot(bench: &mut Bench) {
    let types = fleet::three_tier(12, 12, 6);
    let cap = fleet::total_capacity(&types);
    let inst = Instance::builder()
        .server_types(types)
        .loads(vec![0.2 * cap, 0.5 * cap, 0.8 * cap])
        .build()
        .expect("loads within the fleet's capacity");
    let grid = enumerate_configs(&inst.server_counts_at(0));
    let oracle = Dispatcher::new();
    let price = |t: usize, x: &[u32]| oracle.g_scaled(&inst, t, x, inst.load(t), 1.0);
    for t in 0..inst.horizon() {
        let mut slot = oracle.slot_eval(&inst, t, inst.load(t), 1.0);
        for x in &grid {
            let (memo, direct) = (slot.eval(x.counts()), price(t, x.counts()));
            assert_eq!(memo.to_bits(), direct.to_bits(), "price_slot parity t={t} x={x}");
        }
    }
    let reps = if bench.quick { 1 } else { 10 };
    let ((), [context, one_shot]) = bench.repeat(|laps| {
        laps.time(|| {
            for _ in 0..reps {
                for t in 0..inst.horizon() {
                    let mut slot = oracle.slot_eval(&inst, t, inst.load(t), 1.0);
                    for x in &grid {
                        black_box(slot.eval(x.counts()));
                    }
                }
            }
        });
        laps.time(|| {
            for _ in 0..reps {
                for t in 0..inst.horizon() {
                    for x in &grid {
                        black_box(price(t, x.counts()));
                    }
                }
            }
        });
    });
    let cells = reps * inst.horizon() * grid.len();
    let ns = |spread: Spread| spread.median * 1e9 / cells as f64;
    bench.row(
        Row::new("price_slot")
            .field("kernel", "\"price_slot\"")
            .field("cells", grid.len() * inst.horizon())
            .num("context_ns_per_cell", ns(context))
            .num("one_shot_ns_per_cell", ns(one_shot))
            .num("speedup", one_shot.median / context.median),
    );
}
