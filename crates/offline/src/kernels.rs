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
//! Each kernel walks the data in `f64x4`-style 4-wide accumulator blocks
//! (plain stable Rust — `chunks_exact` over `[f64; 4]`-shaped windows the
//! autovectorizer lowers to vector loads) and is the only implementation
//! any solve path calls. Each also has a `*_scalar` reference twin, the
//! pre-refactor loop verbatim, which only `tests/kernel_parity.rs` and
//! the `kernel_micro` bench call: they compare the two bit for bit and
//! time one against the other.
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
//!   shape**: the kernels evaluate `v + scale·g`, `prev − β·old`
//!   (as `prev + (−(β·old))`, identical under IEEE-754), and
//!   `β·v + best_up` per element exactly as the scalar twins do; sums are
//!   never reassociated across elements.
//!
//! # The tie-break rule (the one place it is documented)
//!
//! The selected cell seeds schedule recovery, and two ways of computing
//! one candidate value — the transform's order of additions and the
//! backtrack's — can differ in the last bits, so exact float comparison
//! would let a one-ulp difference decide a recovered schedule.
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
//! across more than one epsilon — which the narrow [`TIE_EPS`] window
//! makes vanishingly unlikely and the determinism tests pin in practice.
//!
//! # The backtrack certificate
//!
//! The forward pass that records backtrack pointers runs the arrival
//! transform with a tag beside each value (the `Track` parameter of the
//! suffix and row kernels below): the source cell the value came from,
//! as its rank in `TieMin`'s preference order (smaller total server
//! count, then smaller flat index), or `UNCERTIFIED` — a **certificate
//! bit** folded into the tag. Each slot has a candidate-value bound
//! `B = max finite |OPT_{t−1}| + Σ_j β_j·max level_j` (over the source
//! and target grids), a rounding slack `s = 8(d+1)·ε·B` and a margin
//! `M = TIE_EPS·max(B, 1) + 2s` (`Certificate`). Every selection
//! `min(a, b)` keeps
//!
//! * the winner's tag, certified or not, when the loser trails by more
//!   than `M`;
//! * on an **exact** tie (equal values), the smaller tag: the cell
//!   `TieMin` prefers when both operands are certified, `UNCERTIFIED`
//!   (which sorts below every rank) otherwise — and this only while
//!   `s ≤ TIE_EPS`;
//! * otherwise `UNCERTIFIED` (so also between two `+∞` values).
//!
//! Tags are `f64`s like the values, so a tagged selection is a handful
//! of branch-free lane operations (compare, select, subtract, minimum)
//! that vectorize with the values; the certified transform still costs
//! about three value-only ones.
//!
//! By induction over the selections (suffix carries, block trees, row
//! merges and the `d` dimension passes alike), a certified tag says: the
//! cell's candidates split into a group `S` whose values are bit-equal in
//! the transform's arithmetic, led by the tag, and the rest, each more
//! than `M` above `S`.
//!
//! The backtrack sums the same candidates in another order. The
//! transform rounds at most four times per dimension (`β·old`, the shift,
//! `β·v`, the up sum) and the backtrack twice (the product and the sum),
//! each by at most `ε/2·B` — every intermediate is bounded by `B` — so a
//! gap between two candidates moves by at most `6d·ε·B < s` from one
//! order to the other. In the backtrack's arithmetic the members of `S`
//! therefore lie within `s ≤ TIE_EPS` of each other, inside every tie
//! window anchored on one of them, and every other candidate lies more
//! than `TIE_EPS·max(B, 1) + s` above them, outside every such window.
//! `TieMin` scans in index order: the first member of `S` it meets
//! evicts any earlier incumbent, no later outsider enters the window,
//! and among the members it keeps the smaller `(total, index)` — the
//! tag's cell. An uncertified tag promises nothing; recovery then replays
//! the slot's segment and selects with `TieMin` itself.

use std::ops::Range;

use rsz_core::util::TIE_EPS;

/// Accumulator width of the kernels' 4-wide blocks.
pub const LANES: usize = 4;

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

/// What a transform pass carries beside each value through its selection
/// minima: nothing (`()`, the value-only transform every solver runs) or
/// a certified origin ([`Certify`], the forward pass that records
/// backtrack pointers). The suffix and row kernels are generic over it,
/// so both are one implementation; with `()` each kernel runs its plain
/// value loop.
pub(crate) trait Track: Copy {
    /// The per-cell tag.
    type Tag: Copy + Default;

    /// The selection minimum `min(a, b)` (`b` when `b < a`, else `a`)
    /// and the tag it keeps.
    fn min(self, a: f64, ta: Self::Tag, b: f64, tb: Self::Tag) -> (f64, Self::Tag);
}

impl Track for () {
    type Tag = ();

    #[inline]
    fn min(self, a: f64, (): (), b: f64, (): ()) -> (f64, ()) {
        (fmin(a, b), ())
    }
}

/// The tag of an origin the certificate does not vouch for. A certified
/// tag is the source cell's rank in `TieMin`'s preference order —
/// smaller total server count first, then smaller flat index
/// ([`TieOrder`]) — as an `f64`, so the cell `TieMin` prefers among tied
/// certified tags is their minimum, and the minimum of a certified tag
/// and this one is this one: an exact tie keeps a certificate only when
/// both operands hold one. Tags share the values' lane width, so the
/// tagged row kernels stay branch-free vector loops.
pub(crate) const UNCERTIFIED: f64 = -1.0;

/// The pointer-recording track (see the module-level certificate).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Certify {
    margin: f64,
    /// The gap of an exact tie when one may keep its certificate
    /// (`0`, [`Certificate::resolves_ties`]), else NaN, which no gap
    /// equals.
    tie_gap: f64,
}

impl Certify {
    pub(crate) fn new(certificate: Certificate) -> Self {
        let tie_gap = if certificate.resolves_ties() { 0.0 } else { f64::NAN };
        Self { margin: certificate.margin, tie_gap }
    }
}

impl Track for Certify {
    type Tag = f64;

    #[inline]
    fn min(self, a: f64, ta: f64, b: f64, tb: f64) -> (f64, f64) {
        let b_wins = b < a;
        let value = if b_wins { b } else { a };
        let winner = if b_wins { tb } else { ta };
        // NaN between two infinite operands, which compares false.
        let gap = (a - b).abs();
        let kept = if gap > self.margin { winner } else { UNCERTIFIED };
        // An exact tie: both groups enter TieMin's window together, and
        // it prefers the smaller rank.
        let tag = if gap == self.tie_gap { fmin(ta, tb) } else { kept };
        (value, tag)
    }
}

/// `TieMin`'s preference order over one grid's cells: smaller total
/// server count first, then smaller flat index. Rebuilt only when the
/// grid changes.
#[derive(Clone, Debug, Default)]
pub(crate) struct TieOrder {
    levels: Vec<Vec<u32>>,
    /// `rank[i]`: the certified tag of flat index `i`, its rank.
    pub(crate) rank: Vec<f64>,
    /// `index[r]`: the flat index of rank `r`.
    pub(crate) index: Vec<u32>,
}

impl TieOrder {
    /// Shape the order for the grid `levels`.
    pub(crate) fn for_grid(&mut self, levels: &[Vec<u32>]) -> &Self {
        if self.levels != levels {
            self.levels = levels.to_vec();
            let mut cursor = crate::grid::GridCursor::new(levels, 0);
            let cells: usize = levels.iter().map(Vec::len).product();
            let mut totals = Vec::with_capacity(cells);
            for _ in 0..cells {
                totals.push(cursor.total());
                cursor.advance();
            }
            #[allow(clippy::cast_possible_truncation)]
            let indices = 0..cells as u32;
            self.index = indices.collect();
            // Stable: equal totals keep index order.
            self.index.sort_by_key(|&i| totals[i as usize]);
            self.rank.resize(cells, 0.0);
            #[allow(clippy::cast_precision_loss)]
            for (r, &i) in self.index.iter().enumerate() {
                self.rank[i as usize] = r as f64;
            }
        }
        self
    }

    /// The flat index a certified tag names, or `None` for
    /// [`UNCERTIFIED`].
    #[inline]
    pub(crate) fn origin(&self, tag: f64) -> Option<u32> {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        (tag >= 0.0).then(|| self.index[tag as usize])
    }
}

/// Tags of the value-only track are zero-sized and never stored: every
/// tag buffer of a pass over `()` stays empty, and the helpers below hand
/// out empty slices and defaults for them, so that pass pays no bounds
/// check for its tags.
#[inline]
pub(crate) const fn stored<T>() -> bool {
    std::mem::size_of::<T>() != 0
}

/// The tags of `range` (empty for zero-sized tags).
#[inline]
pub(crate) fn tags_in<T>(tags: &[T], range: Range<usize>) -> &[T] {
    if stored::<T>() {
        &tags[range]
    } else {
        &[]
    }
}

/// [`tags_in`], mutably.
#[inline]
pub(crate) fn tags_in_mut<T>(tags: &mut [T], range: Range<usize>) -> &mut [T] {
    if stored::<T>() {
        &mut tags[range]
    } else {
        Default::default()
    }
}

/// The tag at `i` (the default for zero-sized tags).
#[inline]
pub(crate) fn tag_at<T: Copy + Default>(tags: &[T], i: usize) -> T {
    if stored::<T>() {
        tags[i]
    } else {
        T::default()
    }
}

/// Set the tag at `i` (nothing for zero-sized tags).
#[inline]
pub(crate) fn set_tag<T>(tags: &mut [T], i: usize, tag: T) {
    if stored::<T>() {
        tags[i] = tag;
    }
}

/// Resize a tag buffer to `n` default tags (it stays empty for
/// zero-sized tags).
#[inline]
pub(crate) fn reset_tags<T: Copy + Default>(tags: &mut Vec<T>, n: usize) {
    if stored::<T>() {
        tags.clear();
        tags.resize(n, T::default());
    }
}

/// The certificate of one arrival transform (see the module docs): the
/// rounding `slack = 8(d+1)·ε·B` and the `margin = TIE_EPS·max(B, 1) +
/// 2·slack` a selection must be decided by, for the candidate-value
/// bound `B`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Certificate {
    /// Gap by which a certified winner beats every candidate outside
    /// its exact tie.
    pub(crate) margin: f64,
    /// Bound on how far one candidate's value moves between the
    /// transform's order of additions and the backtrack's.
    pub(crate) slack: f64,
}

impl Certificate {
    /// The certificate of transforming `source` (over `old_levels`) onto
    /// `new_levels` with switching costs `betas`.
    #[must_use]
    pub(crate) fn new(
        source: &[f64],
        old_levels: &[Vec<u32>],
        new_levels: &[Vec<u32>],
        betas: &[f64],
    ) -> Self {
        let base = source.iter().filter(|v| v.is_finite()).fold(0.0_f64, |m, v| m.max(v.abs()));
        let top = |levels: &Vec<u32>| f64::from(levels.last().copied().unwrap_or(0));
        let bound = old_levels
            .iter()
            .zip(new_levels)
            .zip(betas)
            .fold(base, |b, ((old, new), &beta)| b + beta * top(old).max(top(new)));
        #[allow(clippy::cast_precision_loss)]
        let dims = betas.len() as f64;
        let slack = 8.0 * (dims + 1.0) * f64::EPSILON * bound;
        Self { margin: TIE_EPS * bound.max(1.0) + 2.0 * slack, slack }
    }

    /// Whether an exact tie in the transform's arithmetic is certified
    /// as `TieMin`'s own choice: only while every tied candidate stays
    /// inside `TieMin`'s narrowest window (`slack ≤ TIE_EPS`).
    #[must_use]
    pub(crate) fn resolves_ties(&self) -> bool {
        self.slack <= TIE_EPS
    }
}

// ---------------------------------------------------------------------------
// Kernel 1: suffix minima.
// ---------------------------------------------------------------------------

/// Scalar reference twin of [`suffix_min_inplace`]: the pre-refactor
/// right-to-left fold.
pub fn suffix_min_inplace_scalar(buf: &mut [f64]) {
    for k in (0..buf.len().saturating_sub(1)).rev() {
        buf[k] = fmin(buf[k], buf[k + 1]);
    }
}

/// Replace `buf[k]` with `min(buf[k], …, buf[n−1])` for every `k`, in
/// place. The caller appends its own `+∞` sentinel when one is needed
/// (the transform keeps one at `buf[n_old]`).
///
/// Walks 4-wide blocks from the back, each block's internal suffix minima
/// built as a tree (breaking the serial dependence chain to one `min` per
/// element of latency) and then merged with the running carry. `min` is a
/// selection, so the reassociation is bit-exact.
pub fn suffix_min_inplace(buf: &mut [f64]) {
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

/// [`suffix_min_inplace`] with a tag beside each value (`tags` is empty
/// for zero-sized tags, whose pass is [`suffix_min_inplace`] itself).
pub(crate) fn suffix_min_tagged<K: Track>(track: K, buf: &mut [f64], tags: &mut [K::Tag]) {
    if !stored::<K::Tag>() {
        suffix_min_inplace(buf);
        return;
    }
    let n = buf.len();
    if n < 2 {
        return;
    }
    let tags = tags_in_mut(tags, 0..n);
    let (mut carry, mut carry_tag) = (buf[n - 1], tag_at(tags, n - 1));
    let full = (n - 1) / LANES;
    for k in (full * LANES..n - 1).rev() {
        (carry, carry_tag) = track.min(buf[k], tag_at(tags, k), carry, carry_tag);
        buf[k] = carry;
        set_tag(tags, k, carry_tag);
    }
    let mut b = full;
    while b > 0 {
        b -= 1;
        let blk = &mut buf[b * LANES..(b + 1) * LANES];
        let tg = tags_in_mut(tags, b * LANES..(b + 1) * LANES);
        let m3 = (blk[3], tag_at(tg, 3));
        let m23 = track.min(blk[2], tag_at(tg, 2), m3.0, m3.1);
        let m123 = track.min(blk[1], tag_at(tg, 1), m23.0, m23.1);
        let m0123 = track.min(blk[0], tag_at(tg, 0), m123.0, m123.1);
        for (i, m) in [(0, m0123), (1, m123), (2, m23), (3, m3)] {
            let (v, t) = track.min(m.0, m.1, carry, carry_tag);
            blk[i] = v;
            set_tag(tg, i, t);
        }
        (carry, carry_tag) = (blk[0], tag_at(tg, 0));
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

/// Scalar reference twin of [`axpy_fold`]: the pre-refactor `add_priced`
/// loop.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy_fold_scalar(v: &mut [f64], g: &[f64], scale: f64) {
    assert_eq!(v.len(), g.len(), "pricing fold over mismatched tables");
    for (v, &g) in v.iter_mut().zip(g) {
        axpy_cell(v, g, scale);
    }
}

/// Fold a priced slot table into an accumulator: `v[i] ← v[i] +
/// scale·g[i]` with infeasibility saturation (see `axpy_cell`'s rules).
///
/// 4-wide blocks take a branch-free multiply-add fast path when a
/// conservative all-finite probe passes, and fall back to the exact
/// per-cell rules otherwise. The fast path computes the same
/// `v + scale·g` expression per element, so the split is bit-invisible.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy_fold(v: &mut [f64], g: &[f64], scale: f64) {
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

/// Scalar reference twin of [`min_scan`]: the pre-refactor left-to-right
/// fold.
#[must_use]
pub fn min_scan_scalar(values: &[f64]) -> f64 {
    values.iter().fold(f64::INFINITY, |acc, &v| fmin(acc, v))
}

/// Minimum over all values (`+∞` for an empty or all-infeasible slice),
/// from four independent accumulators merged with a tree at the end
/// (bit-exact — `min` is a selection).
#[must_use]
pub fn min_scan(values: &[f64]) -> f64 {
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

/// Scalar reference twin of [`argmin_scan`]: scalar min sweep, then the
/// shared candidate sweep.
pub fn argmin_scan_scalar(values: &[f64], total_of: impl Fn(usize) -> u64) -> Option<usize> {
    argmin_candidates(values, min_scan_scalar(values), total_of)
}

/// Index of the winning cell under the module-level tie-break rule:
/// smallest total server count, then smallest index, among the cells
/// within one relative epsilon of the true minimum. `total_of` is queried
/// only for cells inside the window. Returns `None` when every value is
/// non-finite (or the slice is empty).
///
/// A [`min_scan`] sweep, then a candidate sweep that skips whole 4-blocks
/// whose block minimum misses the tie window — a block is skipped exactly
/// when every cell in it would fail the per-cell test, so the candidate
/// sequence (and thus the winner) is identical to the scalar twin's.
pub fn argmin_scan(values: &[f64], total_of: impl Fn(usize) -> u64) -> Option<usize> {
    let min_v = min_scan(values);
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

/// Second phase of [`argmin_scan_scalar`]: the candidate sweep over the
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

/// Values beside their tags: one row of a tagged transform pass.
type Row<'r, T> = (&'r [f64], &'r [T]);

// Each row kernel runs a plain value loop for the value-only track and a
// zipped values-and-tags loop otherwise: both are branch-free, so both
// vectorize.

/// `dst[i] = min(a[i], b[i])` — the suffix-row recurrence of the
/// row-vectorized transform (`suffix_row[k] = min(suffix_row[k+1],
/// prev_row[k])` one contiguous row at a time).
#[inline]
pub(crate) fn row_min_into<K: Track>(
    track: K,
    (dst, dst_tags): (&mut [f64], &mut [K::Tag]),
    (a, a_tags): Row<'_, K::Tag>,
    (b, b_tags): Row<'_, K::Tag>,
) {
    if !stored::<K::Tag>() {
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            *d = fmin(x, y);
        }
        return;
    }
    debug_assert!(
        dst_tags.len() == dst.len() && a_tags.len() == a.len() && b_tags.len() == b.len()
    );
    for (((((d, dt), &x), &xt), &y), &yt) in
        dst.iter_mut().zip(dst_tags).zip(a).zip(a_tags).zip(b).zip(b_tags)
    {
        (*d, *dt) = track.min(x, xt, y, yt);
    }
}

/// `acc[i] = min(acc[i], src[i] + shift)` — the power-up running minimum,
/// one contiguous row at a time. With `shift = −(β·old_level)` this is
/// bit-identical to the scalar `prev − β·old` candidate (IEEE subtraction
/// is addition of the negation).
#[inline]
pub(crate) fn row_shift_min_inplace<K: Track>(
    track: K,
    (acc, acc_tags): (&mut [f64], &mut [K::Tag]),
    (src, src_tags): Row<'_, K::Tag>,
    shift: f64,
) {
    if !stored::<K::Tag>() {
        for (a, &s) in acc.iter_mut().zip(src) {
            *a = fmin(*a, s + shift);
        }
        return;
    }
    debug_assert!(acc_tags.len() == acc.len() && src_tags.len() == src.len());
    for (((a, at), &s), &st) in acc.iter_mut().zip(acc_tags).zip(src).zip(src_tags) {
        (*a, *at) = track.min(*a, *at, s + shift, st);
    }
}

/// `out[i] = min(stay[i], up_shift + up[i])` — the output merge of the
/// row-vectorized transform, with `up_shift = β·new_level`.
#[inline]
pub(crate) fn row_combine_min_into<K: Track>(
    track: K,
    (out, out_tags): (&mut [f64], &mut [K::Tag]),
    (stay, stay_tags): Row<'_, K::Tag>,
    (up, up_tags): Row<'_, K::Tag>,
    up_shift: f64,
) {
    if !stored::<K::Tag>() {
        for ((o, &s), &u) in out.iter_mut().zip(stay).zip(up) {
            *o = fmin(s, up_shift + u);
        }
        return;
    }
    debug_assert!(out_tags.len() == out.len() && stay_tags.len() == stay.len());
    debug_assert_eq!(up_tags.len(), up.len());
    for (((((o, ot), &s), &st), &u), &ut) in
        out.iter_mut().zip(out_tags).zip(stay).zip(stay_tags).zip(up).zip(up_tags)
    {
        (*o, *ot) = track.min(s, st, up_shift + u, ut);
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
            suffix_min_inplace(&mut b);
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
        axpy_fold(&mut b, &g, 2.0);
        assert_eq!(a, [2.0, f64::INFINITY, f64::INFINITY, 3.5, f64::INFINITY]);
        assert_eq!(a, b);
    }

    #[test]
    fn argmin_prefers_small_totals_inside_the_window() {
        // Index 2 ties index 0 within 1e-9 relative but has the smaller
        // "total"; index 3 is below the window edge's loser side.
        let values = [5.0, 5.0 + 1e-7, 5.0 + 1e-10, 6.0];
        let totals = [9u64, 1, 2, 0];
        let got = argmin_scan(&values, |i| totals[i]);
        assert_eq!(got, argmin_scan_scalar(&values, |i| totals[i]));
        assert_eq!(got, Some(2));
    }

    #[test]
    fn argmin_none_when_all_infinite() {
        let values = [f64::INFINITY; 7];
        assert_eq!(argmin_scan(&values, |_| 0), None);
        assert_eq!(argmin_scan_scalar(&values, |_| 0), None);
        assert_eq!(argmin_scan(&[], |_| 0), None);
    }

    #[test]
    fn min_scan_twins_agree() {
        let values: Vec<f64> = (0..67).map(|i| ((i * 31) % 17) as f64 - 3.0).collect();
        assert_eq!(min_scan_scalar(&values).to_bits(), min_scan(&values).to_bits());
        assert_eq!(min_scan(&[]), f64::INFINITY);
    }
}
