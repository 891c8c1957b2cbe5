//! Candidate grids: the full range `{0, …, m_j}` and the paper's reduced
//! sets `M^γ_j` (Section 4.2), plus the mixed-radix index math shared by
//! every table walker ([`GridCursor`]).

/// How the DP discretizes the number of active servers per type.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GridMode {
    /// Every count `0 ..= m_j` — the exact algorithm of Section 4.1.
    Full,
    /// The reduced set `M^γ_j = {0, m_j} ∪ {⌊γ^k⌋} ∪ {⌈γ^k⌉}` with
    /// `γ > 1` — the (2γ−1)-approximation of Section 4.2.
    Gamma(f64),
}

impl GridMode {
    /// The grid mode realizing a `(1+ε)`-approximation: `γ = 1 + ε/2`
    /// gives `2γ − 1 = 1 + ε` (Theorem 21).
    #[must_use]
    pub fn for_epsilon(epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        GridMode::Gamma(1.0 + epsilon / 2.0)
    }

    /// The approximation factor `2γ − 1` guaranteed by this mode
    /// (1 for the full grid).
    #[must_use]
    pub fn approximation_factor(&self) -> f64 {
        match self {
            GridMode::Full => 1.0,
            GridMode::Gamma(g) => 2.0 * g - 1.0,
        }
    }

    /// Candidate levels for one dimension with fleet bound `m`.
    #[must_use]
    pub fn levels(&self, m: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.fill_levels(m, &mut out);
        out
    }

    /// [`GridMode::levels`] into a caller-owned buffer, reusing its
    /// capacity — the per-step path of the online engine, where the
    /// target grid is recomputed every slot only when fleet sizes are
    /// time-varying.
    pub fn fill_levels(&self, m: u32, out: &mut Vec<u32>) {
        out.clear();
        match *self {
            GridMode::Full => out.extend(0..=m),
            GridMode::Gamma(gamma) => fill_gamma_levels(m, gamma, out),
        }
    }
}

/// The reduced level set `M^γ_j` of Section 4.2:
/// `{0, 1, ⌊γ¹⌋, ⌈γ¹⌉, ⌊γ²⌋, ⌈γ²⌉, …, m}`, sorted and deduplicated.
///
/// Including both roundings of every power keeps consecutive levels
/// `a < b` within `b ≤ max(γ·a, a+1)`: the ratio is at most `γ` except
/// where integrality forces single-server steps (which are even finer
/// than the proof of Theorem 16 requires).
///
/// # Panics
/// Panics if `gamma ≤ 1`.
#[must_use]
pub fn gamma_levels(m: u32, gamma: f64) -> Vec<u32> {
    let mut levels = Vec::new();
    fill_gamma_levels(m, gamma, &mut levels);
    levels
}

/// [`gamma_levels`] into a reused buffer (cleared first); the sort is
/// in-place (`sort_unstable`), so warm buffers allocate nothing.
///
/// # Panics
/// Panics if `gamma ≤ 1`.
pub fn fill_gamma_levels(m: u32, gamma: f64, levels: &mut Vec<u32>) {
    assert!(gamma > 1.0, "gamma must exceed 1");
    levels.clear();
    levels.push(0);
    if m >= 1 {
        levels.push(1);
    }
    let mut power = gamma;
    // γ^k grows geometrically, so this loop runs O(log_γ m) times.
    while power < m as f64 {
        let lo = power.floor() as u32;
        let hi = power.ceil() as u32;
        if lo >= 1 && lo <= m {
            levels.push(lo);
        }
        if hi >= 1 && hi <= m {
            levels.push(hi);
        }
        power *= gamma;
    }
    levels.push(m);
    levels.sort_unstable();
    levels.dedup();
}

/// Mixed-radix cursor over a grid's per-dimension levels, last dimension
/// fastest — an odometer that exposes the current cell's server counts
/// as a borrowed slice. Shared by the DP fill loops, the pricing
/// pipeline, backtracking and the corridor refiner so none of them
/// allocate (or run div/mod chains) per cell.
///
/// Strides are memoized at construction, so repositioning
/// ([`GridCursor::seek`]) never recomputes the radix products — this is
/// the one place in the crate that decomposes flat indices.
#[derive(Clone, Debug)]
pub struct GridCursor<'a> {
    levels: &'a [Vec<u32>],
    /// Memoized mixed-radix strides (last dimension has stride 1).
    strides: Vec<usize>,
    pos: Vec<usize>,
    counts: Vec<u32>,
}

/// The buffers of a finished [`GridCursor`], kept so that a caller who
/// walks one small grid after another (a solver pricing its pool misses)
/// allocates them once rather than per grid.
#[derive(Clone, Debug, Default)]
pub struct CursorBuffers {
    strides: Vec<usize>,
    pos: Vec<usize>,
    counts: Vec<u32>,
}

impl<'a> GridCursor<'a> {
    /// Cursor positioned at flat index `idx` of the grid `levels` (levels
    /// lists must be non-empty; `idx` may equal the grid size, in which
    /// case the cursor wraps to the origin like [`GridCursor::advance`]).
    #[must_use]
    pub fn new(levels: &'a [Vec<u32>], idx: usize) -> Self {
        Self::reusing(levels, idx, CursorBuffers::default())
    }

    /// [`GridCursor::new`] in `buffers`, which allocate nothing once they
    /// have held a grid of as many dimensions.
    #[must_use]
    pub(crate) fn reusing(levels: &'a [Vec<u32>], idx: usize, buffers: CursorBuffers) -> Self {
        let CursorBuffers { mut strides, mut pos, mut counts } = buffers;
        let d = levels.len();
        strides.clear();
        strides.resize(d, 1);
        for j in (0..d.saturating_sub(1)).rev() {
            strides[j] = strides[j + 1] * levels[j + 1].len();
        }
        pos.clear();
        pos.resize(d, 0);
        counts.clear();
        counts.resize(d, 0);
        let mut cursor = Self { levels, strides, pos, counts };
        cursor.seek(idx);
        cursor
    }

    /// Give the cursor's buffers back for the next
    /// [`GridCursor::reusing`].
    #[must_use]
    pub(crate) fn into_buffers(self) -> CursorBuffers {
        let Self { strides, pos, counts, .. } = self;
        CursorBuffers { strides, pos, counts }
    }

    /// Reposition at flat index `idx` (wrapping past the end), reusing
    /// the memoized strides.
    pub fn seek(&mut self, idx: usize) {
        for j in 0..self.levels.len() {
            let p = (idx / self.strides[j]) % self.levels[j].len();
            self.pos[j] = p;
            self.counts[j] = self.levels[j][p];
        }
    }

    /// Server counts of the current cell.
    #[must_use]
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Per-dimension level positions of the current cell.
    #[must_use]
    pub fn positions(&self) -> &[usize] {
        &self.pos
    }

    /// Total server count of the current cell.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum()
    }

    /// Step to the next cell in layout order (wrapping at the end),
    /// updating only the dimensions whose position changed.
    pub fn advance(&mut self) {
        for j in (0..self.pos.len()).rev() {
            self.pos[j] += 1;
            if self.pos[j] < self.levels[j].len() {
                self.counts[j] = self.levels[j][self.pos[j]];
                return;
            }
            self.pos[j] = 0;
            self.counts[j] = self.levels[j][0];
        }
    }
}

/// Decode flat index `idx` of the grid `levels` into per-dimension
/// server counts, written into `out` (cleared and resized in place — no
/// allocation once `out` has reached capacity `d`). The counterpart of
/// [`GridCursor`] for one-off decodes on hot paths that must stay
/// allocation-free, e.g. the online prefix solver's argmin counts.
pub fn decode_counts(levels: &[Vec<u32>], mut idx: usize, out: &mut Vec<u32>) {
    out.clear();
    out.resize(levels.len(), 0);
    for (j, l) in levels.iter().enumerate().rev() {
        let n = l.len();
        out[j] = l[idx % n];
        idx /= n;
    }
}

/// The smallest level ≥ `x` (the `xmin` of Eq. 18), if any.
///
/// Level lists are strictly sorted, so both neighbour lookups
/// binary-search (`partition_point`) instead of scanning — they sit on
/// the corridor-rounding and online hot paths where level lists can hold
/// thousands of entries on full grids.
#[must_use]
pub fn level_at_least(levels: &[u32], x: u32) -> Option<u32> {
    let i = levels.partition_point(|&v| v < x);
    levels.get(i).copied()
}

/// The largest level ≤ `x` (the `xmax` of Eq. 18), if any.
#[must_use]
pub fn level_at_most(levels: &[u32], x: u32) -> Option<u32> {
    let i = levels.partition_point(|&v| v <= x);
    i.checked_sub(1).map(|i| levels[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mode_enumerates_everything() {
        assert_eq!(GridMode::Full.levels(4), vec![0, 1, 2, 3, 4]);
        assert_eq!(GridMode::Full.levels(0), vec![0]);
    }

    #[test]
    fn gamma_two_matches_paper_example() {
        // Paper, Fig. 5: γ = 2, m = 10 → {0, 1, 2, 4, 8, 10}
        assert_eq!(gamma_levels(10, 2.0), vec![0, 1, 2, 4, 8, 10]);
    }

    #[test]
    fn gamma_levels_include_floor_and_ceil() {
        // γ = 1.5: powers 1.5, 2.25, 3.375, 5.06…, 7.59…
        let l = gamma_levels(8, 1.5);
        assert_eq!(l, vec![0, 1, 2, 3, 4, 5, 6, 7, 8]);
        // γ = 3: powers 3, 9, 27 → {0,1,3,8? no} for m=10: {0,1,3,9,10}
        let l = gamma_levels(10, 3.0);
        assert_eq!(l, vec![0, 1, 3, 9, 10]);
    }

    #[test]
    fn consecutive_levels_within_gamma_or_one_step() {
        for gamma in [1.1, 1.5, 2.0, 3.0] {
            for m in [1u32, 2, 7, 100, 1000, 65537] {
                let l = gamma_levels(m, gamma);
                for w in l.windows(2) {
                    let (a, b) = (f64::from(w[0]), f64::from(w[1]));
                    assert!(
                        b <= (gamma * a).max(a + 1.0) + 1e-9,
                        "gamma={gamma} m={m}: step {a}→{b} in {l:?}"
                    );
                }
                assert_eq!(*l.first().unwrap(), 0);
                assert_eq!(*l.last().unwrap(), m);
            }
        }
    }

    #[test]
    fn ratio_bound_holds_beyond_integrality_region() {
        // Where levels exceed 1/(γ−1), the pure ratio bound applies.
        for gamma in [1.25, 1.5, 2.0] {
            let cutoff = 1.0 / (gamma - 1.0);
            let l = gamma_levels(100_000, gamma);
            for w in l.windows(2) {
                if f64::from(w[0]) >= cutoff {
                    assert!(
                        f64::from(w[1]) / f64::from(w[0]) <= gamma + 1e-9,
                        "gamma={gamma}: {} → {}",
                        w[0],
                        w[1]
                    );
                }
            }
        }
    }

    #[test]
    fn grid_size_is_logarithmic() {
        let l = gamma_levels(1_000_000, 2.0);
        assert!(l.len() <= 45, "size {}", l.len());
    }

    #[test]
    fn neighbor_lookups() {
        let l = vec![0u32, 1, 2, 4, 8, 10];
        assert_eq!(level_at_least(&l, 3), Some(4));
        assert_eq!(level_at_least(&l, 0), Some(0));
        assert_eq!(level_at_most(&l, 7), Some(4));
        assert_eq!(level_at_most(&l, 0), Some(0));
    }

    #[test]
    fn cursor_seek_lands_on_the_mixed_radix_positions() {
        let levels = vec![vec![0u32, 1, 2], vec![0u32, 1], vec![0u32, 1, 2, 3]];
        let mut cursor = GridCursor::new(&levels, 0);
        for idx in 0..24 {
            cursor.seek(idx);
            let want = [(idx / 8) % 3, (idx / 4) % 2, idx % 4];
            assert_eq!(cursor.positions(), &want);
        }
        // Wrapping construction parity with seek.
        let wrapped = GridCursor::new(&levels, 24);
        assert_eq!(wrapped.positions(), &[0, 0, 0]);
    }

    #[test]
    fn decode_counts_matches_cursor() {
        let levels = vec![vec![0u32, 2, 5], vec![1u32, 3]];
        let mut out = Vec::new();
        for idx in 0..6 {
            decode_counts(&levels, idx, &mut out);
            assert_eq!(out.as_slice(), GridCursor::new(&levels, idx).counts(), "idx {idx}");
        }
    }

    #[test]
    fn epsilon_mapping() {
        let m = GridMode::for_epsilon(1.0);
        assert!(matches!(m, GridMode::Gamma(g) if (g - 1.5).abs() < 1e-12));
        assert!((m.approximation_factor() - 2.0).abs() < 1e-12);
        assert_eq!(GridMode::Full.approximation_factor(), 1.0);
    }
}
