//! The kernel layer: chunked 4-lane implementations of the solver's three
//! hot loops, plus the stride-1 row primitives behind the dimension passes.
//!
//! Every solve path — the slot-batched pipeline, the online engine's
//! prefix stepping, and the corridor refiner — bottoms out in
//! three inner loops:
//!
//! 1. **suffix minima** over a line of previous-table values
//!    ([`suffix_min_inplace`], the "stay or power down" half of the
//!    arrival transform),
//! 2. the **pricing fold** `v ← v + scale·g` with infeasibility
//!    saturation ([`axpy_fold`], how priced slot tables enter the
//!    recurrence), and
//! 3. the **windowed argmin** over a table ([`argmin_scan`], which seeds
//!    schedule recovery and the online engine's committed prefix optimum).
//!
//! Each kernel exists in two forms: a `*_lanes` implementation that walks
//! the data in `f64x4`-style 4-wide accumulator blocks (plain stable Rust
//! — `chunks_exact` over `[f64; 4]`-shaped windows the autovectorizer
//! lowers to vector loads), and a `*_scalar` reference twin that is the
//! pre-refactor loop, verbatim. The un-suffixed entry points dispatch on
//! the process-wide [`force_scalar`] switch so benches and the
//! determinism matrix can pit the two against each other on identical
//! solves.
//!
//! # Why the twins are bit-identical, not epsilon-close
//!
//! The contract tested by `crates/offline/tests/kernel_parity.rs` is
//! exact equality of every output bit. It holds because, under the
//! solver's table invariants (no NaN, no `-∞`, no negative zero — values
//! are sums and minima of nonnegative costs and `+∞` infeasibility
//! markers):
//!
//! * `min` is a **selection**: the result is one of its operands, and
//!   equal operands have equal bits, so any reassociation of a `min`
//!   reduction — per-lane accumulators, block trees, suffix carries —
//!   returns the same bits as the left-to-right scalar fold.
//! * Every **addition or multiplication keeps the scalar expression
//!   shape**: the lanes variants evaluate `v + scale·g`, `prev − β·old`
//!   (as `prev + (−(β·old))`, identical under IEEE-754), and
//!   `β·v + best_up` per element exactly as the scalar twins do; sums are
//!   never reassociated across elements.
//!
//! # The tie-break rule (the one place it is documented)
//!
//! Cell values are sums of dispatch solves whose last bits can wobble
//! between otherwise identical runs (parallel fills, a third-party
//! oracle's warm-started sweeps), and the selected cell seeds schedule
//! recovery — exact float comparison would let a one-ulp difference flip
//! a recovered schedule.
//! Everything that picks a winning cell therefore uses one policy,
//! anchored on a *relative* epsilon window around the true minimum:
//!
//! > A candidate is **tied** with the minimum when
//! > `v ≤ min + TIE_EPS·max(|min|, 1)` ([`TIE_EPS`]). Among tied
//! > candidates, the winner is the one with the smallest total server
//! > count, then the smallest flat (layout-order) index.
//!
//! [`argmin_scan`] implements the rule directly (min sweep, then a
//! candidate sweep over the window). `TieMin` is the streaming
//! accumulator form used where values are produced on the fly and cannot
//! be rescanned (DP backtracking); it anchors its window on the running
//! minimum, which coincides with the rule above unless near-ties chain
//! across more than one epsilon — which the 1e-9 window makes
//! vanishingly unlikely and the determinism tests pin in practice.

use std::sync::atomic::{AtomicBool, Ordering};

use rsz_core::util::TIE_EPS;

/// Accumulator width of the `*_lanes` kernels.
pub const LANES: usize = 4;

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Route every dispatching kernel entry point through the `*_scalar`
/// reference twins (`true`) or the `*_lanes` implementations (`false`,
/// the default). Scalar mode also makes the arrival transform and
/// [`crate::table::Table::band_slice`] take their pre-refactor per-cell
/// paths.
///
/// This is a process-wide test-and-bench hook, not a tuning knob: both
/// modes produce bit-identical results (see the module docs), so flipping
/// it mid-solve — even from another thread — cannot change any output,
/// only the wall-clock.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// `true` when [`force_scalar`] routed the kernels to the scalar twins.
#[must_use]
pub fn scalar_forced() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed)
}

/// Selection minimum: NaN-free two-operand `min` with the bit behavior
/// the module contract relies on (returns one of its operands; ties keep
/// the first).
#[inline]
fn fmin(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

// ---------------------------------------------------------------------------
// Kernel 1: suffix minima.
// ---------------------------------------------------------------------------

/// Replace `buf[k]` with `min(buf[k], …, buf[n−1])` for every `k`, in
/// place. The caller appends its own `+∞` sentinel when one is needed
/// (the transform keeps one at `buf[n_old]`).
///
/// Dispatches on [`force_scalar`]; both implementations are bit-identical.
pub fn suffix_min_inplace(buf: &mut [f64]) {
    if scalar_forced() {
        suffix_min_inplace_scalar(buf);
    } else {
        suffix_min_inplace_lanes(buf);
    }
}

/// Scalar reference twin of [`suffix_min_inplace`]: the pre-refactor
/// right-to-left fold.
pub fn suffix_min_inplace_scalar(buf: &mut [f64]) {
    for k in (0..buf.len().saturating_sub(1)).rev() {
        buf[k] = fmin(buf[k], buf[k + 1]);
    }
}

/// Lanes twin of [`suffix_min_inplace`]: 4-wide blocks from the back,
/// each block's internal suffix minima built as a tree (breaking the
/// serial dependence chain to one `min` per element of latency) and then
/// merged with the running carry. `min` is a selection, so the
/// reassociation is bit-exact.
pub fn suffix_min_inplace_lanes(buf: &mut [f64]) {
    let n = buf.len();
    if n < 2 {
        return;
    }
    let mut carry = buf[n - 1];
    let full = (n - 1) / LANES;
    for k in (full * LANES..n - 1).rev() {
        carry = fmin(buf[k], carry);
        buf[k] = carry;
    }
    let mut b = full;
    while b > 0 {
        b -= 1;
        let blk = &mut buf[b * LANES..(b + 1) * LANES];
        let m3 = blk[3];
        let m23 = fmin(blk[2], m3);
        let m123 = fmin(blk[1], m23);
        let m0123 = fmin(blk[0], m123);
        blk[3] = fmin(m3, carry);
        blk[2] = fmin(m23, carry);
        blk[1] = fmin(m123, carry);
        blk[0] = fmin(m0123, carry);
        carry = blk[0];
    }
}

// ---------------------------------------------------------------------------
// Kernel 2: the pricing fold.
// ---------------------------------------------------------------------------

/// One cell of the pricing fold: `+∞` operating cost marks the cell
/// infeasible for good; otherwise an already-infeasible accumulator
/// stays put and a feasible one accrues `scale·g`.
#[inline]
fn axpy_cell(v: &mut f64, g: f64, scale: f64) {
    if !g.is_finite() {
        *v = f64::INFINITY;
    } else if v.is_finite() {
        *v += scale * g;
    }
}

/// Fold a priced slot table into an accumulator: `v[i] ← v[i] +
/// scale·g[i]` with infeasibility saturation (see `axpy_cell`'s rules —
/// exactly the pre-refactor `add_priced` loop).
///
/// Dispatches on [`force_scalar`]; both implementations are bit-identical.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy_fold(v: &mut [f64], g: &[f64], scale: f64) {
    if scalar_forced() {
        axpy_fold_scalar(v, g, scale);
    } else {
        axpy_fold_lanes(v, g, scale);
    }
}

/// Scalar reference twin of [`axpy_fold`].
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy_fold_scalar(v: &mut [f64], g: &[f64], scale: f64) {
    assert_eq!(v.len(), g.len(), "pricing fold over mismatched tables");
    for (v, &g) in v.iter_mut().zip(g) {
        axpy_cell(v, g, scale);
    }
}

/// Lanes twin of [`axpy_fold`]: 4-wide blocks take a branch-free
/// multiply-add fast path when a conservative all-finite probe passes,
/// and fall back to the exact per-cell rules otherwise. The fast path
/// computes the same `v + scale·g` expression per element, so the split
/// is bit-invisible.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy_fold_lanes(v: &mut [f64], g: &[f64], scale: f64) {
    assert_eq!(v.len(), g.len(), "pricing fold over mismatched tables");
    let split = v.len() - v.len() % LANES;
    let (vh, vt) = v.split_at_mut(split);
    let (gh, gt) = g.split_at(split);
    for (vb, gb) in vh.chunks_exact_mut(LANES).zip(gh.chunks_exact(LANES)) {
        // A sum of absolutes is finite only if every addend is (inputs
        // are NaN-free); a spuriously overflowing probe merely routes a
        // finite block through the per-cell path, which is bit-identical.
        let probe = vb[0].abs()
            + vb[1].abs()
            + vb[2].abs()
            + vb[3].abs()
            + gb[0].abs()
            + gb[1].abs()
            + gb[2].abs()
            + gb[3].abs();
        if probe.is_finite() {
            vb[0] += scale * gb[0];
            vb[1] += scale * gb[1];
            vb[2] += scale * gb[2];
            vb[3] += scale * gb[3];
        } else {
            for (v, &g) in vb.iter_mut().zip(gb) {
                axpy_cell(v, g, scale);
            }
        }
    }
    for (v, &g) in vt.iter_mut().zip(gt) {
        axpy_cell(v, g, scale);
    }
}

// ---------------------------------------------------------------------------
// Kernel 3: min + windowed argmin.
// ---------------------------------------------------------------------------

/// Minimum over all values (`+∞` for an empty or all-infeasible slice).
///
/// Dispatches on [`force_scalar`]; both implementations are bit-identical.
#[must_use]
pub fn min_scan(values: &[f64]) -> f64 {
    if scalar_forced() {
        min_scan_scalar(values)
    } else {
        min_scan_lanes(values)
    }
}

/// Scalar reference twin of [`min_scan`]: the pre-refactor left-to-right
/// fold.
#[must_use]
pub fn min_scan_scalar(values: &[f64]) -> f64 {
    values.iter().fold(f64::INFINITY, |acc, &v| fmin(acc, v))
}

/// Lanes twin of [`min_scan`]: four independent accumulators, merged with
/// a tree at the end (bit-exact — `min` is a selection).
#[must_use]
pub fn min_scan_lanes(values: &[f64]) -> f64 {
    let mut acc = [f64::INFINITY; LANES];
    let mut chunks = values.chunks_exact(LANES);
    for c in chunks.by_ref() {
        acc[0] = fmin(acc[0], c[0]);
        acc[1] = fmin(acc[1], c[1]);
        acc[2] = fmin(acc[2], c[2]);
        acc[3] = fmin(acc[3], c[3]);
    }
    let mut m = fmin(fmin(acc[0], acc[1]), fmin(acc[2], acc[3]));
    for &v in chunks.remainder() {
        m = fmin(m, v);
    }
    m
}

/// Upper edge of the tie window anchored at `min_v` (see the module-level
/// tie-break rule).
#[inline]
#[must_use]
pub(crate) fn tie_window(min_v: f64) -> f64 {
    min_v + TIE_EPS * min_v.abs().max(1.0)
}

/// Index of the winning cell under the module-level tie-break rule:
/// smallest total server count, then smallest index, among the cells
/// within one relative epsilon of the true minimum. `total_of` is queried
/// only for cells inside the window. Returns `None` when every value is
/// non-finite (or the slice is empty).
///
/// Dispatches on [`force_scalar`]; both implementations are bit-identical.
pub fn argmin_scan(values: &[f64], total_of: impl Fn(usize) -> u64) -> Option<usize> {
    if scalar_forced() {
        argmin_scan_scalar(values, total_of)
    } else {
        argmin_scan_lanes(values, total_of)
    }
}

/// Scalar reference twin of [`argmin_scan`]: scalar min sweep, then the
/// shared candidate sweep.
pub fn argmin_scan_scalar(values: &[f64], total_of: impl Fn(usize) -> u64) -> Option<usize> {
    argmin_candidates(values, min_scan_scalar(values), total_of)
}

/// Lanes twin of [`argmin_scan`]: lanes min sweep, then a candidate sweep
/// that skips whole 4-blocks whose block minimum misses the tie window —
/// a block is skipped exactly when every cell in it would fail the
/// per-cell test, so the candidate sequence (and thus the winner) is
/// identical to the scalar twin's.
pub fn argmin_scan_lanes(values: &[f64], total_of: impl Fn(usize) -> u64) -> Option<usize> {
    let min_v = min_scan_lanes(values);
    if !min_v.is_finite() {
        return None;
    }
    let cutoff = tie_window(min_v);
    let mut best: Option<(u64, usize)> = None;
    let mut base = 0usize;
    for c in values.chunks(LANES) {
        let block_min = c.iter().fold(f64::INFINITY, |acc, &v| fmin(acc, v));
        if block_min <= cutoff {
            for (o, &v) in c.iter().enumerate() {
                if v <= cutoff {
                    let tot = total_of(base + o);
                    if best.is_none_or(|(bt, _)| tot < bt) {
                        best = Some((tot, base + o));
                    }
                }
            }
        }
        base += c.len();
    }
    best.map(|(_, i)| i)
}

/// Shared second phase of [`argmin_scan`]: the candidate sweep over the
/// tie window. Visits indices in ascending order, so "smallest total
/// count, then smallest index" needs only a strict `<` on totals.
fn argmin_candidates(values: &[f64], min_v: f64, total_of: impl Fn(usize) -> u64) -> Option<usize> {
    if !min_v.is_finite() {
        return None;
    }
    let cutoff = tie_window(min_v);
    let mut best: Option<(u64, usize)> = None;
    for (i, &v) in values.iter().enumerate() {
        if v <= cutoff {
            let tot = total_of(i);
            if best.is_none_or(|(bt, _)| tot < bt) {
                best = Some((tot, i));
            }
        }
    }
    best.map(|(_, i)| i)
}

// ---------------------------------------------------------------------------
// Stride-1 row primitives (the vectorized dimension pass).
// ---------------------------------------------------------------------------

/// `dst[i] = min(a[i], b[i])` — the suffix-row recurrence of the
/// row-vectorized transform (`suffix_row[k] = min(suffix_row[k+1],
/// prev_row[k])` one contiguous row at a time).
///
/// # Panics
/// Panics (via debug assertions) if the slices differ in length.
pub fn row_min_into(dst: &mut [f64], a: &[f64], b: &[f64]) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = fmin(x, y);
    }
}

/// `acc[i] = min(acc[i], src[i] + shift)` — the power-up running minimum,
/// one contiguous row at a time. With `shift = −(β·old_level)` this is
/// bit-identical to the scalar `prev − β·old` candidate (IEEE subtraction
/// is addition of the negation).
///
/// # Panics
/// Panics (via debug assertions) if the slices differ in length.
pub fn row_shift_min_inplace(acc: &mut [f64], src: &[f64], shift: f64) {
    debug_assert_eq!(acc.len(), src.len());
    for (a, &s) in acc.iter_mut().zip(src) {
        *a = fmin(*a, s + shift);
    }
}

/// `out[i] = min(stay[i], up_shift + up[i])` — the output merge of the
/// row-vectorized transform, with `up_shift = β·new_level`.
///
/// # Panics
/// Panics (via debug assertions) if the slices differ in length.
pub fn row_combine_min_into(out: &mut [f64], stay: &[f64], up: &[f64], up_shift: f64) {
    debug_assert_eq!(out.len(), stay.len());
    debug_assert_eq!(out.len(), up.len());
    for ((o, &s), &u) in out.iter_mut().zip(stay).zip(up) {
        *o = fmin(s, up_shift + u);
    }
}

// ---------------------------------------------------------------------------
// The streaming tie-break accumulator.
// ---------------------------------------------------------------------------

/// Streaming accumulator form of the module-level tie-break rule, for
/// paths that produce candidate values on the fly and cannot rescan them
/// (DP backtracking's predecessor selection).
///
/// Candidates within the epsilon window of the *running* minimum count as
/// tied; ties resolve toward the smallest total server count, then the
/// smallest index, and an incumbent that falls out of a lowered window is
/// evicted by the next in-window candidate. Anchoring on the running true
/// minimum — not the last accepted candidate — keeps chained near-ties
/// from drifting beyond one epsilon.
#[derive(Clone, Debug)]
pub(crate) struct TieMin {
    min_v: f64,
    /// `(value, total count, index)` of the current winner.
    best: Option<(f64, u64, usize)>,
}

impl TieMin {
    pub(crate) fn new() -> Self {
        Self { min_v: f64::INFINITY, best: None }
    }

    /// Offer candidate `i` with value `v`; `total` is queried only when
    /// the candidate lands inside the tie window.
    pub(crate) fn offer(&mut self, i: usize, v: f64, total: impl FnOnce() -> u64) {
        if !v.is_finite() {
            return;
        }
        if v < self.min_v {
            self.min_v = v;
        }
        let window = tie_window(self.min_v);
        match self.best {
            None => self.best = Some((v, total(), i)),
            Some((bv, btot, bi)) => {
                if v > window {
                    return; // outside the tie window
                }
                let tot = total();
                // Replace if the incumbent fell out of the lowered
                // window, else by (total count, index) preference.
                if bv > window || tot < btot || (tot == btot && i < bi) {
                    self.best = Some((v, tot, i));
                }
            }
        }
    }

    /// Index of the winner (`None` if every candidate was non-finite).
    pub(crate) fn best_index(&self) -> Option<usize> {
        self.best.map(|(_, _, i)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffix_min_twins_agree_on_all_remainders() {
        for n in 0..=13 {
            let mut a: Vec<f64> = (0..n)
                .map(|i| if i % 5 == 3 { f64::INFINITY } else { (i as f64 * 7.3) % 5.0 })
                .collect();
            let mut b = a.clone();
            suffix_min_inplace_scalar(&mut a);
            suffix_min_inplace_lanes(&mut b);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "n={n}"
            );
        }
    }

    #[test]
    fn axpy_saturates_infeasible_cells_in_both_twins() {
        let v0 = [1.0, f64::INFINITY, 2.0, 3.0, 4.0];
        let g = [0.5, 0.5, f64::INFINITY, 0.25, f64::INFINITY];
        let mut a = v0;
        let mut b = v0;
        axpy_fold_scalar(&mut a, &g, 2.0);
        axpy_fold_lanes(&mut b, &g, 2.0);
        assert_eq!(a, [2.0, f64::INFINITY, f64::INFINITY, 3.5, f64::INFINITY]);
        assert_eq!(a, b);
    }

    #[test]
    fn argmin_prefers_small_totals_inside_the_window() {
        // Index 2 ties index 0 within 1e-9 relative but has the smaller
        // "total"; index 3 is below the window edge's loser side.
        let values = [5.0, 5.0 + 1e-7, 5.0 + 1e-10, 6.0];
        let totals = [9u64, 1, 2, 0];
        let got = argmin_scan_lanes(&values, |i| totals[i]);
        assert_eq!(got, argmin_scan_scalar(&values, |i| totals[i]));
        assert_eq!(got, Some(2));
    }

    #[test]
    fn argmin_none_when_all_infinite() {
        let values = [f64::INFINITY; 7];
        assert_eq!(argmin_scan_lanes(&values, |_| 0), None);
        assert_eq!(argmin_scan_scalar(&values, |_| 0), None);
        assert_eq!(argmin_scan(&[], |_| 0), None);
    }

    #[test]
    fn min_scan_twins_agree() {
        let values: Vec<f64> = (0..67).map(|i| ((i * 31) % 17) as f64 - 3.0).collect();
        assert_eq!(min_scan_scalar(&values).to_bits(), min_scan_lanes(&values).to_bits());
        assert_eq!(min_scan(&[]), f64::INFINITY);
    }
}
