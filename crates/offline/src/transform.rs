//! The power-up distance transform.
//!
//! The DP transition of the right-sizing problem is the min-plus
//! convolution
//!
//! ```text
//! A_t(x) = min_{x'} [ OPT_{t−1}(x') + Σ_j β_j (x_j − x'_j)^+ ]
//! ```
//!
//! Because the switching metric is separable across dimensions, the full
//! convolution factors into `d` independent one-dimensional passes, each
//! computable in linear time over the (sorted) candidate levels:
//!
//! ```text
//! B[i] = min( min_{v'_k ≥ v_i} P[k],                 // power down or stay: free
//!             β·v_i + min_{v'_k < v_i} (P[k] − β·v'_k) )   // power up from below
//! ```
//!
//! The first term is a suffix minimum, the second a running prefix
//! minimum, so a pass over a line of length `n+n'` costs `O(n+n')`. The
//! pass also handles *different* source and target level sets, which is
//! what makes γ-grids and time-varying fleet sizes (Sections 4.2–4.3)
//! drop out for free.
//!
//! # Data layout: every pass iterates stride-1
//!
//! Tables are row-major with the last dimension fastest, so a pass along
//! the innermost dimension reads contiguous lines directly
//! ([`Table::lines`]). For an *outer* dimension `j` with stride `s > 1`,
//! the pass is **row-vectorized** instead of transposed: the `s` lines of
//! an outer block advance in lockstep, one contiguous `s`-wide row per
//! level, through the [`crate::kernels`] row primitives. The merge
//! pointer `k` depends only on the level values — never on cell data —
//! so all `s` lines share it, and each cell sees exactly the operations
//! of its own scalar line pass (bit-identical by construction; see the
//! kernels module docs). [`TransformScratch`] owns the suffix-row block
//! this virtual transpose runs through and memoizes its layout tag, so
//! steady-state passes with unchanged shapes never touch the allocator.

use crate::kernels;
use crate::table::Table;

/// Reusable scratch for the transform passes: the per-line suffix-minima
/// buffer (innermost dimension), and the suffix-row block plus power-up
/// row backing the row-vectorized outer-dimension passes.
///
/// The block's `(rows, width)` layout tag is memoized, so repeated passes
/// over unchanged shapes skip re-planning entirely, and all buffers reuse
/// capacity: once warmed to a shape's high-water mark, transforms perform
/// zero heap allocation — the steady state of the online engine's
/// [`crate::PrefixDp`] and of the pipeline's checkpoint replay.
#[derive(Clone, Debug, Default)]
pub struct TransformScratch {
    /// Suffix minima of one line (`n_old + 1` with the `+∞` sentinel).
    suffix: Vec<f64>,
    /// `(n_old + 1) × stride` suffix rows of the current outer block.
    block: Vec<f64>,
    /// Running power-up minima, one per line of the current outer block.
    best_up: Vec<f64>,
    /// Layout tag `(rows, width)` the block is currently shaped for.
    tag: Option<(usize, usize)>,
}

impl TransformScratch {
    /// Empty scratch; buffers grow to their high-water mark on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Shape the suffix-row block for `rows × width`, skipping the work
    /// when the memoized layout tag already matches.
    fn ensure_rows(&mut self, rows: usize, width: usize) {
        if self.tag != Some((rows, width)) {
            self.block.resize(rows * width, f64::INFINITY);
            self.best_up.resize(width, f64::INFINITY);
            self.tag = Some((rows, width));
        }
    }
}

/// One-line transform with a caller-owned suffix-minima buffer: `suffix`
/// is resized (reusing capacity) and overwritten, so a warm buffer makes
/// the line pass allocation-free. The buffer carries no state between
/// calls — any `Vec` will do.
///
/// This is the scalar reference form of the line pass — the
/// [`kernels::force_scalar`] mode of the dimension passes runs every
/// line through it verbatim.
pub fn transform_line_scratch(
    old_vals: &[u32],
    new_vals: &[u32],
    beta: f64,
    suffix: &mut Vec<f64>,
    get_prev: impl Fn(usize) -> f64,
    mut set_out: impl FnMut(usize, f64),
) {
    let n_old = old_vals.len();
    // Suffix minima of prev: suffix[k] = min_{l ≥ k} prev[l].
    suffix.clear();
    suffix.resize(n_old + 1, f64::INFINITY);
    for k in (0..n_old).rev() {
        suffix[k] = suffix[k + 1].min(get_prev(k));
    }
    let mut k = 0usize; // first old index with old_vals[k] ≥ v_i
    let mut best_up = f64::INFINITY; // min over old_vals[k] < v_i of prev[k] − β·old_vals[k]
    for (i, &v) in new_vals.iter().enumerate() {
        while k < n_old && old_vals[k] < v {
            let c = get_prev(k) - beta * f64::from(old_vals[k]);
            if c < best_up {
                best_up = c;
            }
            k += 1;
        }
        let stay_or_down = suffix[k];
        let up = beta * f64::from(v) + best_up;
        set_out(i, stay_or_down.min(up));
    }
}

/// Apply the transform along dimension `j` of `table`, re-gridding that
/// dimension to `new_levels`. Returns a new table whose dimension `j` has
/// levels `new_levels`; all other dimensions are unchanged.
#[must_use]
pub fn transform_dim(table: &Table, j: usize, new_levels: &[u32], beta: f64) -> Table {
    let mut levels: Vec<Vec<u32>> = table.all_levels().to_vec();
    levels[j] = new_levels.to_vec();
    let mut out = Table::new(levels, f64::INFINITY);
    let mut scratch = TransformScratch::new();
    transform_lines(table, &mut out, j, new_levels, beta, &mut scratch);
    out
}

/// [`transform_dim`] into a caller-owned destination table, reusing its
/// buffers ([`Table::reset_shape`]) and the transform scratch:
/// steady-state calls with unchanged shapes perform zero heap allocation.
/// `dst` is reshaped to `table`'s grid with dimension `j` replaced by
/// `new_levels` and every cell overwritten.
pub fn transform_dim_into(
    table: &Table,
    dst: &mut Table,
    j: usize,
    new_levels: &[u32],
    beta: f64,
    scratch: &mut TransformScratch,
) {
    let d = table.dims();
    dst.reset_shape(d, |jj| if jj == j { new_levels } else { table.levels(jj) }, f64::INFINITY);
    transform_lines(table, dst, j, new_levels, beta, scratch);
}

/// The line loop shared by [`transform_dim`] and [`transform_dim_into`]:
/// `dst` must already carry `table`'s grid with dimension `j` re-gridded
/// to `new_levels` (passed separately so the destination's value slice
/// can be borrowed mutably while the levels are read).
///
/// Three bit-identical paths (see the module docs): the pre-refactor
/// strided per-line loop when [`kernels::force_scalar`] is on, contiguous
/// whole-line kernels for the innermost dimension, and the row-vectorized
/// lockstep pass for outer dimensions.
fn transform_lines(
    table: &Table,
    dst: &mut Table,
    j: usize,
    new_levels: &[u32],
    beta: f64,
    scratch: &mut TransformScratch,
) {
    let d = table.dims();
    debug_assert!(j < d);
    debug_assert_eq!(dst.levels(j), new_levels);
    let old_stride = table.stride(j);
    let new_stride = dst.stride(j);
    let n_old = table.levels(j).len();
    let n_new = new_levels.len();
    // Flat layout: index = a·(n·s) + p·s + b with p the position along j,
    // s the stride of j, b ∈ [0, s), a the outer block index.
    let outer_blocks = table.len() / (n_old * old_stride);
    let in_vals = table.values();
    let old_levels = table.levels(j);
    let out_vals = dst.values_mut();

    if kernels::scalar_forced() {
        // The pre-refactor reference: one strided closure-indexed line
        // at a time.
        for a in 0..outer_blocks {
            let in_base_a = a * n_old * old_stride;
            let out_base_a = a * n_new * new_stride;
            for b in 0..old_stride {
                let in_base = in_base_a + b;
                let out_base = out_base_a + b;
                transform_line_scratch(
                    old_levels,
                    new_levels,
                    beta,
                    &mut scratch.suffix,
                    |k| in_vals[in_base + k * old_stride],
                    |i, v| out_vals[out_base + i * new_stride] = v,
                );
            }
        }
        return;
    }

    if old_stride == 1 {
        // Innermost dimension: lines are contiguous already.
        debug_assert_eq!(new_stride, 1);
        let suffix = &mut scratch.suffix;
        for (in_line, out_line) in in_vals.chunks_exact(n_old).zip(out_vals.chunks_exact_mut(n_new))
        {
            suffix.clear();
            suffix.extend_from_slice(in_line);
            suffix.push(f64::INFINITY);
            kernels::suffix_min_inplace_lanes(suffix);
            let mut k = 0usize;
            let mut best_up = f64::INFINITY;
            for (i, &v) in new_levels.iter().enumerate() {
                while k < n_old && old_levels[k] < v {
                    let c = in_line[k] - beta * f64::from(old_levels[k]);
                    if c < best_up {
                        best_up = c;
                    }
                    k += 1;
                }
                let stay_or_down = suffix[k];
                let up = beta * f64::from(v) + best_up;
                out_line[i] = if up < stay_or_down { up } else { stay_or_down };
            }
        }
        return;
    }

    // Outer dimension: new_stride == old_stride (strides only depend on
    // the dimensions *after* j, which are unchanged), so the s lines of
    // each outer block advance in lockstep, one contiguous s-wide row per
    // level — the virtual transpose.
    debug_assert_eq!(new_stride, old_stride);
    let s = old_stride;
    scratch.ensure_rows(n_old + 1, s);
    let block = &mut scratch.block;
    let best_up = &mut scratch.best_up;
    // Row n_old is the +∞ sentinel every suffix recurrence starts from.
    block[n_old * s..].fill(f64::INFINITY);
    for a in 0..outer_blocks {
        let in_base = a * n_old * s;
        let out_base = a * n_new * s;
        // Suffix rows: block[k] = min(block[k+1], in_row_k), elementwise.
        for k in (0..n_old).rev() {
            let (lo, hi) = block.split_at_mut((k + 1) * s);
            kernels::row_min_into(
                &mut lo[k * s..],
                &hi[..s],
                &in_vals[in_base + k * s..in_base + (k + 1) * s],
            );
        }
        best_up.fill(f64::INFINITY);
        let mut k = 0usize;
        for (i, &v) in new_levels.iter().enumerate() {
            while k < n_old && old_levels[k] < v {
                // prev − β·old as prev + (−(β·old)): IEEE-identical.
                let shift = -(beta * f64::from(old_levels[k]));
                kernels::row_shift_min_inplace(
                    best_up,
                    &in_vals[in_base + k * s..in_base + (k + 1) * s],
                    shift,
                );
                k += 1;
            }
            let up_shift = beta * f64::from(v);
            kernels::row_combine_min_into(
                &mut out_vals[out_base + i * s..out_base + (i + 1) * s],
                &block[k * s..(k + 1) * s],
                best_up,
                up_shift,
            );
        }
    }
}

/// Full arrival transform: apply [`transform_dim`] for every dimension,
/// re-gridding to `new_levels` and charging `betas[j]` per power-up.
///
/// Computes `A(x) = min_{x'} table(x') + Σ_j β_j (x_j − x'_j)^+` for every
/// `x` on the new grid. Allocates its own ping-pong partner and scratch;
/// hot loops should hold both and call [`arrival_transform_scratch`] or
/// [`arrival_transform_inplace`].
#[must_use]
pub fn arrival_transform(table: &Table, new_levels: &[Vec<u32>], betas: &[f64]) -> Table {
    let mut spare = Table::origin(table.dims());
    let mut scratch = TransformScratch::new();
    arrival_transform_scratch(table, new_levels, betas, &mut spare, &mut scratch)
}

/// [`arrival_transform`] with caller-owned scratch: the result is a fresh
/// table, but the `d` dimension passes ping-pong through `spare` and run
/// on `scratch`, so the returned table is the only per-call allocation —
/// the shape the corridor refiner's banded passes want, where each slot's
/// transformed table is retained but the scratch is shared across slots.
pub fn arrival_transform_scratch(
    table: &Table,
    new_levels: &[Vec<u32>],
    betas: &[f64],
    spare: &mut Table,
    scratch: &mut TransformScratch,
) -> Table {
    let d = table.dims();
    debug_assert_eq!(new_levels.len(), d);
    debug_assert_eq!(betas.len(), d);
    let mut out = Table::origin(d);
    transform_dim_into(table, &mut out, 0, &new_levels[0], betas[0], scratch);
    let mut in_out = true;
    for j in 1..d {
        if in_out {
            transform_dim_into(&out, spare, j, &new_levels[j], betas[j], scratch);
        } else {
            transform_dim_into(spare, &mut out, j, &new_levels[j], betas[j], scratch);
        }
        in_out = !in_out;
    }
    if !in_out {
        std::mem::swap(&mut out, spare);
    }
    out
}

/// [`arrival_transform`] in place: `a` holds the source table on entry
/// and the transformed table on exit, with `b` as the ping-pong partner
/// (its contents are scratch in both directions). The `d` dimension
/// passes alternate between the two buffers and the final result is
/// swapped back into `a`; together with the reused [`TransformScratch`]
/// this makes the whole transform allocation-free once all buffers have
/// reached their shape's high-water mark — the steady state of the
/// online engine's [`crate::PrefixDp`] and of the pipeline recurrence.
pub fn arrival_transform_inplace(
    a: &mut Table,
    b: &mut Table,
    new_levels: &[Vec<u32>],
    betas: &[f64],
    scratch: &mut TransformScratch,
) {
    let d = a.dims();
    debug_assert_eq!(new_levels.len(), d);
    debug_assert_eq!(betas.len(), d);
    {
        let (mut src, mut dst) = (&mut *a, &mut *b);
        for j in 0..d {
            transform_dim_into(src, dst, j, &new_levels[j], betas[j], scratch);
            std::mem::swap(&mut src, &mut dst);
        }
    }
    // After d passes the result sits in `a` for even d, `b` for odd d;
    // swapping the table structs (pointer-sized moves) restores the
    // contract without copying values.
    if d % 2 == 1 {
        std::mem::swap(a, b);
    }
}

/// Naive `O(|grid|²)` reference implementation of the arrival transform,
/// used by tests to validate the scan version.
#[must_use]
pub fn arrival_transform_naive(table: &Table, new_levels: &[Vec<u32>], betas: &[f64]) -> Table {
    let mut out = Table::new(new_levels.to_vec(), f64::INFINITY);
    for to_idx in 0..out.len() {
        let to = out.config_of(to_idx);
        let mut best = f64::INFINITY;
        for from_idx in 0..table.len() {
            let from = table.config_of(from_idx);
            let mut c = table.values()[from_idx];
            #[allow(clippy::needless_range_loop)] // j indexes betas and both configs
            for j in 0..table.dims() {
                c += f64::from(to.count(j).saturating_sub(from.count(j))) * betas[j];
            }
            if c < best {
                best = c;
            }
        }
        out.values_mut()[to_idx] = best;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_levels(rng: &mut impl rand::Rng, d: usize) -> Vec<Vec<u32>> {
        (0..d)
            .map(|_| {
                let m = rng.gen_range(1..=6);
                let mut v: Vec<u32> = (0..=m).filter(|_| rng.gen_bool(0.7)).collect();
                if v.is_empty() {
                    v.push(0);
                }
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect()
    }

    #[test]
    fn line_transform_matches_naive() {
        let old = vec![0u32, 1, 3, 4];
        let new = vec![0u32, 2, 4, 7];
        let prev = [5.0, 2.0, 4.0, 9.0];
        let beta = 1.5;
        let mut got = vec![0.0; new.len()];
        let mut suffix = Vec::new();
        transform_line_scratch(&old, &new, beta, &mut suffix, |k| prev[k], |i, v| got[i] = v);
        for (i, &v) in new.iter().enumerate() {
            let want = old
                .iter()
                .zip(prev.iter())
                .map(|(&o, &p)| p + beta * f64::from(v.saturating_sub(o)))
                .fold(f64::INFINITY, f64::min);
            assert!((got[i] - want).abs() < 1e-12, "i={i}: {} vs {want}", got[i]);
        }
    }

    #[test]
    fn line_transform_handles_infinities() {
        let old = vec![0u32, 1];
        let new = vec![0u32, 1, 2];
        let prev = [f64::INFINITY, 3.0];
        let mut got = [0.0; 3];
        let mut suffix = Vec::new();
        transform_line_scratch(&old, &new, 2.0, &mut suffix, |k| prev[k], |i, v| got[i] = v);
        assert_eq!(got[0], f64::INFINITY.min(3.0)); // down from 1: free
        assert_eq!(got[1], 3.0);
        assert_eq!(got[2], 5.0); // up from 1: 3 + 2·1
    }

    #[test]
    fn multi_dim_matches_naive_on_random_tables() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..40 {
            let d = rng.gen_range(1..=3);
            let levels_in = random_levels(&mut rng, d);
            let levels_out = random_levels(&mut rng, d);
            let betas: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..4.0)).collect();
            let mut t = Table::new(levels_in.clone(), 0.0);
            for v in t.values_mut() {
                *v = if rng.gen_bool(0.1) { f64::INFINITY } else { rng.gen_range(0.0..10.0) };
            }
            let fast = arrival_transform(&t, &levels_out, &betas);
            let naive = arrival_transform_naive(&t, &levels_out, &betas);
            for i in 0..fast.len() {
                let (a, b) = (fast.values()[i], naive.values()[i]);
                assert!((a == b) || (a - b).abs() < 1e-9, "cell {i}: fast {a} vs naive {b}");
            }
        }
    }

    #[test]
    fn transform_from_origin_charges_full_power_up() {
        let t = Table::origin(2);
        let levels = vec![vec![0u32, 1, 2], vec![0u32, 3]];
        let betas = [2.0, 5.0];
        let out = arrival_transform(&t, &levels, &betas);
        for (i, cfg) in out.iter_configs() {
            let want = 2.0 * f64::from(cfg.count(0)) + 5.0 * f64::from(cfg.count(1));
            assert!((out.values()[i] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn kernel_and_scalar_transforms_are_bit_identical() {
        // The refactor's core contract: the lanes paths (contiguous
        // innermost lines + row-vectorized outer passes) reproduce the
        // pre-refactor strided per-line loop bit for bit, including
        // infeasible (+∞) cells and mismatched source/target grids.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..40 {
            let d = rng.gen_range(1..=4);
            let levels_in = random_levels(&mut rng, d);
            let levels_out = random_levels(&mut rng, d);
            let betas: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..4.0)).collect();
            let mut t = Table::new(levels_in.clone(), 0.0);
            for v in t.values_mut() {
                *v = if rng.gen_bool(0.15) { f64::INFINITY } else { rng.gen_range(0.0..10.0) };
            }
            crate::kernels::force_scalar(true);
            let scalar = arrival_transform(&t, &levels_out, &betas);
            crate::kernels::force_scalar(false);
            let lanes = arrival_transform(&t, &levels_out, &betas);
            for i in 0..scalar.len() {
                assert_eq!(
                    scalar.values()[i].to_bits(),
                    lanes.values()[i].to_bits(),
                    "cell {i}: scalar {} vs lanes {}",
                    scalar.values()[i],
                    lanes.values()[i]
                );
            }
        }
    }
}
