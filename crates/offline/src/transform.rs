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
//! the innermost dimension reads contiguous lines directly. For an
//! *outer* dimension `j` with stride `s > 1`, the pass is
//! **row-vectorized** instead of transposed: the `s` lines of an outer
//! block advance in lockstep, one contiguous `s`-wide row per level,
//! through the [`crate::kernels`] row primitives. The merge
//! pointer `k` depends only on the level values — never on cell data —
//! so all `s` lines share it, and each cell sees exactly the operations
//! of its own scalar line pass (bit-identical by construction; see the
//! kernels module docs). [`TransformScratch`] owns the suffix-row block
//! this virtual transpose runs through and memoizes its layout tag, so
//! steady-state passes with unchanged shapes never touch the allocator.

use crate::kernels::{self, reset_tags, set_tag, stored, tag_at, tags_in, tags_in_mut};
use crate::kernels::{Certificate, Certify, TieOrder, Track};
use crate::table::Table;

/// Reusable scratch for the transform passes: the per-line suffix-minima
/// buffer (innermost dimension), and the suffix-row block plus power-up
/// row backing the row-vectorized outer-dimension passes, each with its
/// tags beside it (zero-sized for the value-only transform, `T = ()`).
///
/// The block's `(rows, width)` layout tag is memoized, so repeated passes
/// over unchanged shapes skip re-planning entirely, and all buffers reuse
/// capacity: once warmed to a shape's high-water mark, transforms perform
/// zero heap allocation — the steady state of the online engine's
/// [`crate::PrefixDp`] and of the pipeline's forward pass.
#[derive(Clone, Debug, Default)]
pub struct TransformScratch<T = ()> {
    /// Suffix minima of one line (`n_old + 1` with the `+∞` sentinel).
    suffix: Vec<f64>,
    suffix_tags: Vec<T>,
    /// `(n_old + 1) × stride` suffix rows of the current outer block.
    block: Vec<f64>,
    block_tags: Vec<T>,
    /// Running power-up minima, one per line of the current outer block.
    best_up: Vec<f64>,
    best_up_tags: Vec<T>,
    /// Layout tag `(rows, width)` the block is currently shaped for.
    tag: Option<(usize, usize)>,
}

impl TransformScratch {
    /// Empty scratch; buffers grow to their high-water mark on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl<T: Copy + Default> TransformScratch<T> {
    /// Shape the suffix-row block for `rows × width`, skipping the work
    /// when the memoized layout tag already matches.
    fn ensure_rows(&mut self, rows: usize, width: usize) {
        if self.tag != Some((rows, width)) {
            self.block.resize(rows * width, f64::INFINITY);
            reset_tags(&mut self.block_tags, rows * width);
            self.best_up.resize(width, f64::INFINITY);
            reset_tags(&mut self.best_up_tags, width);
            self.tag = Some((rows, width));
        }
    }
}

/// Apply the transform along dimension `j` of `table` into a caller-owned
/// destination table, re-gridding that dimension to `new_levels`. `dst`
/// is reshaped to `table`'s grid with dimension `j` replaced by
/// `new_levels` and every cell overwritten, reusing its buffers
/// ([`Table::reset_shape`]) and the transform scratch: steady-state calls
/// with unchanged shapes perform zero heap allocation.
///
/// Two paths (see the module docs): contiguous whole-line kernels for the
/// innermost dimension, and the row-vectorized lockstep pass for outer
/// dimensions.
pub fn transform_dim_into(
    table: &Table,
    dst: &mut Table,
    j: usize,
    new_levels: &[u32],
    beta: f64,
    scratch: &mut TransformScratch,
) {
    transform_dim_tagged((), (table, &[]), (dst, &mut Vec::new()), (j, new_levels, beta), scratch);
}

/// [`transform_dim_into`] carrying a tag beside each cell through every
/// selection (see [`kernels::Track`]); `dst_tags` is resized to `dst`.
/// Zero-sized tags are never stored: their buffers stay empty.
fn transform_dim_tagged<K: Track>(
    track: K,
    (table, tags): (&Table, &[K::Tag]),
    (dst, dst_tags): (&mut Table, &mut Vec<K::Tag>),
    (j, new_levels, beta): (usize, &[u32], f64),
    scratch: &mut TransformScratch<K::Tag>,
) {
    let d = table.dims();
    debug_assert!(j < d);
    dst.reset_shape(d, |jj| if jj == j { new_levels } else { table.levels(jj) }, f64::INFINITY);
    reset_tags(dst_tags, dst.len());
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

    if old_stride == 1 {
        // Innermost dimension: lines are contiguous already.
        debug_assert_eq!(new_stride, 1);
        let TransformScratch { suffix, suffix_tags, .. } = scratch;
        for (line, (in_line, out_line)) in
            in_vals.chunks_exact(n_old).zip(out_vals.chunks_exact_mut(n_new)).enumerate()
        {
            let in_tags = tags_in(tags, line * n_old..(line + 1) * n_old);
            let out_tags = tags_in_mut(dst_tags, line * n_new..(line + 1) * n_new);
            suffix.clear();
            suffix.extend_from_slice(in_line);
            suffix.push(f64::INFINITY);
            if stored::<K::Tag>() {
                suffix_tags.clear();
                suffix_tags.extend_from_slice(in_tags);
                suffix_tags.push(K::Tag::default());
            }
            kernels::suffix_min_tagged(track, suffix, suffix_tags);
            let mut k = 0usize;
            let (mut best_up, mut best_tag) = (f64::INFINITY, K::Tag::default());
            for (i, &v) in new_levels.iter().enumerate() {
                while k < n_old && old_levels[k] < v {
                    let c = in_line[k] - beta * f64::from(old_levels[k]);
                    (best_up, best_tag) = track.min(best_up, best_tag, c, tag_at(in_tags, k));
                    k += 1;
                }
                let up = beta * f64::from(v) + best_up;
                let stay = (suffix[k], tag_at(suffix_tags, k));
                let (value, tag) = track.min(stay.0, stay.1, up, best_tag);
                out_line[i] = value;
                set_tag(out_tags, i, tag);
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
    let TransformScratch { block, block_tags, best_up, best_up_tags, .. } = scratch;
    // Row n_old is the +∞ sentinel every suffix recurrence starts from.
    block[n_old * s..].fill(f64::INFINITY);
    block_tags.fill(K::Tag::default());
    for a in 0..outer_blocks {
        let in_base = a * n_old * s;
        let out_base = a * n_new * s;
        let in_row = |k: usize| {
            let r = in_base + k * s..in_base + (k + 1) * s;
            (&in_vals[r.clone()], tags_in(tags, r))
        };
        // Suffix rows: block[k] = min(block[k+1], in_row_k), elementwise.
        for k in (0..n_old).rev() {
            let (lo, hi) = block.split_at_mut((k + 1) * s);
            let mid = ((k + 1) * s).min(block_tags.len());
            let (lo_tags, hi_tags) = block_tags.split_at_mut(mid);
            kernels::row_min_into(
                track,
                (&mut lo[k * s..], tags_in_mut(lo_tags, k * s..(k + 1) * s)),
                (&hi[..s], tags_in(hi_tags, 0..s)),
                in_row(k),
            );
        }
        best_up.fill(f64::INFINITY);
        best_up_tags.fill(K::Tag::default());
        let mut k = 0usize;
        for (i, &v) in new_levels.iter().enumerate() {
            while k < n_old && old_levels[k] < v {
                // prev − β·old as prev + (−(β·old)): IEEE-identical.
                let shift = -(beta * f64::from(old_levels[k]));
                kernels::row_shift_min_inplace(track, (best_up, best_up_tags), in_row(k), shift);
                k += 1;
            }
            let up_shift = beta * f64::from(v);
            let out = out_base + i * s..out_base + (i + 1) * s;
            let stay = k * s..(k + 1) * s;
            kernels::row_combine_min_into(
                track,
                (&mut out_vals[out.clone()], tags_in_mut(dst_tags, out)),
                (&block[stay.clone()], tags_in(block_tags, stay)),
                (best_up, best_up_tags),
                up_shift,
            );
        }
    }
}

/// Full arrival transform: apply [`transform_dim_into`] for every
/// dimension, re-gridding to `new_levels` and charging `betas[j]` per
/// power-up.
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
    arrival_transform_tagged(
        (),
        (a, &mut Vec::new()),
        (b, &mut Vec::new()),
        new_levels,
        betas,
        scratch,
    );
}

/// [`arrival_transform_inplace`] carrying a tag beside each cell:
/// `a_tags` holds one tag per cell of `a` on entry and the transformed
/// cells' tags on exit, with `b_tags` as its ping-pong partner (both stay
/// empty for zero-sized tags).
fn arrival_transform_tagged<K: Track>(
    track: K,
    (a, a_tags): (&mut Table, &mut Vec<K::Tag>),
    (b, b_tags): (&mut Table, &mut Vec<K::Tag>),
    new_levels: &[Vec<u32>],
    betas: &[f64],
    scratch: &mut TransformScratch<K::Tag>,
) {
    let d = a.dims();
    debug_assert_eq!(new_levels.len(), d);
    debug_assert_eq!(betas.len(), d);
    {
        let (mut src, mut dst) = ((&mut *a, &mut *a_tags), (&mut *b, &mut *b_tags));
        for j in 0..d {
            let pass = (j, new_levels[j].as_slice(), betas[j]);
            transform_dim_tagged(
                track,
                (&*src.0, &src.1[..]),
                (&mut *dst.0, &mut *dst.1),
                pass,
                scratch,
            );
            std::mem::swap(&mut src, &mut dst);
        }
    }
    // After d passes the result sits in `a` for even d, `b` for odd d;
    // swapping the table structs (pointer-sized moves) restores the
    // contract without copying values.
    if d % 2 == 1 {
        std::mem::swap(a, b);
        std::mem::swap(a_tags, b_tags);
    }
}

/// The pointer-recording arrival transform: [`arrival_transform_inplace`]
/// (bit-identical values) that also leaves in `origins`, per cell of the
/// transformed `a`, the tag of the source cell its minimum came from:
/// its rank in `order` (`TieMin`'s order over `a`'s grid on entry) when
/// `certificate` vouches that the cell is the backtrack's `TieMin` pick,
/// else [`crate::kernels::UNCERTIFIED`] (see [`crate::kernels`];
/// [`TieOrder::origin`] names the cell). `origins` and `spare_origins`
/// are scratch.
pub(crate) fn arrival_transform_certified_inplace(
    (a, origins): (&mut Table, &mut Vec<f64>),
    (b, spare_origins): (&mut Table, &mut Vec<f64>),
    new_levels: &[Vec<u32>],
    betas: &[f64],
    (certificate, order): (Certificate, &TieOrder),
    scratch: &mut TransformScratch<f64>,
) {
    debug_assert_eq!(order.rank.len(), a.len());
    origins.clear();
    origins.extend_from_slice(&order.rank);
    let track = Certify::new(certificate);
    arrival_transform_tagged(track, (a, origins), (b, spare_origins), new_levels, betas, scratch);
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

    /// One-line transform with a caller-owned suffix-minima buffer: the
    /// pre-refactor line pass, kept as the reference the production
    /// passes are compared with bit for bit.
    fn transform_line_scratch(
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

    /// The arrival transform as the pre-refactor code computed it: every
    /// dimension pass runs one strided, closure-indexed line at a time
    /// through [`transform_line_scratch`].
    fn strided_reference(table: &Table, new_levels: &[Vec<u32>], betas: &[f64]) -> Table {
        let mut src = table.clone();
        let mut suffix = Vec::new();
        for (j, (new, &beta)) in new_levels.iter().zip(betas).enumerate() {
            let mut levels = src.all_levels().to_vec();
            levels[j] = new.clone();
            let mut out = Table::new(levels, f64::INFINITY);
            // Re-gridding j leaves the strides of j and every outer
            // dimension unchanged.
            let (n_old, s) = (src.levels(j).len(), src.stride(j));
            let out_vals = out.values_mut();
            for a in 0..src.len() / (n_old * s) {
                for b in 0..s {
                    let (in_base, out_base) = (a * n_old * s + b, a * new.len() * s + b);
                    transform_line_scratch(
                        src.levels(j),
                        new,
                        beta,
                        &mut suffix,
                        |k| src.values()[in_base + k * s],
                        |i, v| out_vals[out_base + i * s] = v,
                    );
                }
            }
            src = out;
        }
        src
    }

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
    fn transforms_match_the_strided_line_reference_bit_for_bit() {
        // The kernel layer's contract for the transform: the contiguous
        // innermost lines and the row-vectorized outer passes reproduce
        // the strided per-line reference bit for bit, including
        // infeasible (+∞) cells and mismatched source/target grids, in
        // both the allocating and the in-place entry points.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let (mut spare, mut scratch) = (Table::origin(1), TransformScratch::new());
        for _ in 0..40 {
            let d = rng.gen_range(1..=4);
            let levels_in = random_levels(&mut rng, d);
            let levels_out = random_levels(&mut rng, d);
            let betas: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..4.0)).collect();
            let mut t = Table::new(levels_in.clone(), 0.0);
            for v in t.values_mut() {
                *v = if rng.gen_bool(0.15) { f64::INFINITY } else { rng.gen_range(0.0..10.0) };
            }
            let reference = strided_reference(&t, &levels_out, &betas);
            let mut in_place = t.clone();
            arrival_transform_inplace(&mut in_place, &mut spare, &levels_out, &betas, &mut scratch);
            for got in [arrival_transform(&t, &levels_out, &betas), in_place] {
                assert_eq!(got.all_levels(), reference.all_levels());
                for (i, (a, b)) in got.values().iter().zip(reference.values()).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "cell {i}: {a} vs reference {b}");
                }
            }
        }
    }

    /// Sorted, non-empty random levels per dimension (not always from 0, so
    /// source and target grids differ).
    fn random_grid(rng: &mut rand::rngs::StdRng, d: usize) -> Vec<Vec<u32>> {
        use rand::Rng;
        (0..d)
            .map(|_| {
                let m = rng.gen_range(1..=6u32);
                let mut v: Vec<u32> = (0..=m).filter(|_| rng.gen_bool(0.7)).collect();
                if v.is_empty() {
                    v.push(rng.gen_range(0..=m));
                }
                v
            })
            .collect()
    }

    /// The backtrack's predecessor selection, written out naively: every
    /// finite source cell's value `OPT(x') + Σ_j (x_j − x'_j)^+·β_j` summed in
    /// dimension order, then the streaming `TieMin` rule — a candidate within
    /// `TIE_EPS·max(|min|, 1)` of the running minimum is tied, and ties go to
    /// the smaller total count, then the smaller index. Returns the winner
    /// and every finite candidate's `(index, value)`.
    fn tie_min_scan(
        source: &Table,
        target: &[u32],
        betas: &[f64],
    ) -> (Option<usize>, Vec<(usize, f64)>) {
        let mut candidates = Vec::new();
        let (mut min_v, mut best): (f64, Option<(f64, u64, usize)>) = (f64::INFINITY, None);
        for (i, cfg) in source.iter_configs() {
            let base = source.values()[i];
            if !base.is_finite() {
                continue;
            }
            let mut v = base;
            for (j, &beta) in betas.iter().enumerate() {
                v += f64::from(target[j].saturating_sub(cfg.count(j))) * beta;
            }
            candidates.push((i, v));
            min_v = min_v.min(v);
            let window = min_v + rsz_core::util::TIE_EPS * min_v.abs().max(1.0);
            let total = cfg.total();
            best = match best {
                None => Some((v, total, i)),
                Some((bv, bt, bi))
                    if v <= window && (bv > window || total < bt || (total == bt && i < bi)) =>
                {
                    Some((v, total, i))
                }
                keep => keep,
            };
        }
        (best.map(|(_, _, i)| i), candidates)
    }

    /// The certified transform against the value-only transform and the
    /// naive `TieMin` scan, on random `d = 1..4` grids with `+∞` cells and
    /// differing source and target levels. Half the cases draw small
    /// integers with integer β, which plants exact ties (certified only as
    /// `TieMin`'s own `(total, index)` choice); the other half draw
    /// continuous values. Both plant near-ties half a tie window apart,
    /// which no certificate may cover.
    #[test]
    fn certified_transform_pointers_match_the_tie_min_scan() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        let (mut finite_cells, mut certified, mut tied, mut contested) = (0usize, 0, 0, 0);
        for case in 0..400 {
            let d = rng.gen_range(1..=4);
            let levels_in = random_grid(&mut rng, d);
            let levels_out = random_grid(&mut rng, d);
            let integral = case % 2 == 0;
            let betas: Vec<f64> = (0..d)
                .map(|_| {
                    if integral {
                        f64::from(rng.gen_range(0..3u32))
                    } else {
                        rng.gen_range(0.0..4.0)
                    }
                })
                .collect();
            let mut table = Table::new(levels_in, 0.0);
            for v in table.values_mut() {
                *v = if rng.gen_bool(0.15) {
                    f64::INFINITY
                } else if integral {
                    f64::from(rng.gen_range(0..6u32))
                } else {
                    rng.gen_range(0.0..1.0e4)
                };
            }
            // Near-ties: a cell half a tie window above a neighbour along a
            // random dimension — beyond the rounding slack, inside the
            // margin — so they meet in that dimension's pass.
            for _ in 0..rng.gen_range(0..4) {
                let cell = rng.gen_range(0..table.len());
                let (v, mut pos) = (table.values()[cell], table.positions_of(cell));
                let j = rng.gen_range(0..d);
                if !v.is_finite() || table.levels(j).len() < 2 {
                    continue;
                }
                pos[j] = if pos[j] == 0 { 1 } else { pos[j] - 1 };
                let neighbour = table.index_of(&pos);
                table.values_mut()[neighbour] = v + 0.5 * rsz_core::util::TIE_EPS * v.max(1.0);
            }
            let cert = Certificate::new(table.values(), table.all_levels(), &levels_out, &betas);
            assert!(cert.resolves_ties(), "case {case}: small values resolve exact ties");

            let plain = arrival_transform(&table, &levels_out, &betas);
            let (transformed, pointers) = certified_pointers(&table, &levels_out, &betas, cert);
            assert_eq!(transformed.all_levels(), plain.all_levels());
            let bits = |t: &Table| t.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&transformed), bits(&plain), "case {case}: values moved");

            for (cell, cfg) in plain.iter_configs() {
                if !plain.values()[cell].is_finite() {
                    assert_eq!(
                        pointers[cell], None,
                        "case {case} cell {cell}: an infinite cell is certified"
                    );
                    continue;
                }
                finite_cells += 1;
                let (winner, candidates) = tie_min_scan(&table, cfg.counts(), &betas);
                let winner_v = candidates.iter().find(|c| Some(c.0) == winner).expect("a winner").1;
                let gaps = candidates
                    .iter()
                    .filter(|&&(i, _)| Some(i) != winner)
                    .map(|&(_, v)| v - winner_v);
                let (ties, ambiguous) = gaps.fold((0, 0), |(t, a), gap| {
                    if gap.abs() <= cert.slack {
                        (t + 1, a)
                    } else if gap <= cert.margin - cert.slack {
                        (t, a + 1)
                    } else {
                        (t, a)
                    }
                });
                contested += usize::from(ambiguous > 0);
                if let Some(pointer) = pointers[cell] {
                    certified += 1;
                    tied += usize::from(ties > 0);
                    assert_eq!(
                        Some(pointer),
                        winner,
                        "case {case} cell {cell}: pointer is not TieMin's"
                    );
                    assert_eq!(
                        ambiguous, 0,
                        "case {case} cell {cell}: certified with a rival in the margin"
                    );
                }
            }
        }
        // The certificate must be worth having, and both kinds of tie must
        // be there: exact ones it resolves, near ones it refuses.
        assert!(
            certified * 2 > finite_cells,
            "{certified} of {finite_cells} finite cells certified"
        );
        assert!(tied > 0, "no exact tie was certified");
        assert!(contested > 0, "no near-tie was generated");
    }

    /// The certified transform of `table` and each cell's certified
    /// pointer (`None` where the certificate does not vouch).
    fn certified_pointers(
        table: &Table,
        new_levels: &[Vec<u32>],
        betas: &[f64],
        certificate: Certificate,
    ) -> (Table, Vec<Option<usize>>) {
        let (mut out, mut spare) = (table.clone(), Table::origin(table.dims()));
        let (mut origins, mut spare_origins) = (Vec::new(), Vec::new());
        let mut order = TieOrder::default();
        order.for_grid(table.all_levels());
        arrival_transform_certified_inplace(
            (&mut out, &mut origins),
            (&mut spare, &mut spare_origins),
            new_levels,
            betas,
            (certificate, &order),
            &mut TransformScratch::default(),
        );
        let pointers = origins.iter().map(|&tag| order.origin(tag).map(|i| i as usize)).collect();
        (out, pointers)
    }
}
