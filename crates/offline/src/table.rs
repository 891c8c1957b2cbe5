//! Flattened cost tables over per-dimension candidate grids.
//!
//! A [`Table`] stores one `f64` per server configuration of a (possibly
//! reduced) grid `V_1 × … × V_d`, where `V_j` is a sorted list of candidate
//! counts for type `j` — either the full range `{0, …, m_j}` or the paper's
//! `M^γ_j` (Section 4.2). Values are stored in row-major (C) order with the
//! **last** dimension fastest.

use std::ops::Range;

use rsz_core::Config;

use crate::kernels;

pub use crate::grid::GridCursor;

/// Sorted candidate counts per dimension plus a flat value array.
#[derive(Clone, Debug)]
pub struct Table {
    levels: Vec<Vec<u32>>,
    strides: Vec<usize>,
    values: Vec<f64>,
}

impl Table {
    /// A table over the given per-dimension levels, filled with `init`.
    ///
    /// # Panics
    /// Panics if any dimension is empty or unsorted.
    #[must_use]
    pub fn new(levels: Vec<Vec<u32>>, init: f64) -> Self {
        for v in &levels {
            assert!(!v.is_empty(), "grid dimension must be non-empty");
            debug_assert!(v.windows(2).all(|w| w[0] < w[1]), "levels must be strictly sorted");
        }
        let strides = compute_strides(&levels);
        let size = levels.iter().map(Vec::len).product();
        Self { levels, strides, values: vec![init; size] }
    }

    /// The single-cell table over the origin `(0, …, 0)` with value 0 —
    /// the DP's initial state `OPT_0`.
    #[must_use]
    pub fn origin(d: usize) -> Self {
        let mut t = Table::new(vec![vec![0]; d], 0.0);
        t.values[0] = 0.0;
        t
    }

    /// Rebuild this table in place over `d` dimensions whose level lists
    /// are produced by `level_of`, setting every value to `init`.
    ///
    /// Unlike [`Table::new`] this **reuses** the existing level, stride
    /// and value allocations: once buffers have grown to a shape's
    /// high-water mark, repeated resets to same-or-smaller shapes touch
    /// no allocator at all. This is what lets the online engine's
    /// double-buffered DP step run allocation-free in steady state.
    ///
    /// # Panics
    /// Panics (via debug assertions) if any produced dimension is empty
    /// or unsorted.
    pub fn reset_shape<'l>(
        &mut self,
        d: usize,
        mut level_of: impl FnMut(usize) -> &'l [u32],
        init: f64,
    ) {
        assert!(d >= 1, "tables need at least one dimension");
        self.levels.resize_with(d, Vec::new);
        self.strides.resize(d, 1);
        let mut size = 1usize;
        for j in 0..d {
            let src = level_of(j);
            debug_assert!(!src.is_empty(), "grid dimension must be non-empty");
            debug_assert!(src.windows(2).all(|w| w[0] < w[1]), "levels must be strictly sorted");
            self.levels[j].clear();
            self.levels[j].extend_from_slice(src);
            size *= src.len();
        }
        self.strides[d - 1] = 1;
        for j in (0..d.saturating_sub(1)).rev() {
            self.strides[j] = self.strides[j + 1] * self.levels[j + 1].len();
        }
        self.values.clear();
        self.values.resize(size, init);
    }

    /// Number of dimensions `d`.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.levels.len()
    }

    /// Candidate levels of dimension `j`.
    #[must_use]
    pub fn levels(&self, j: usize) -> &[u32] {
        &self.levels[j]
    }

    /// All candidate level lists.
    #[must_use]
    pub fn all_levels(&self) -> &[Vec<u32>] {
        &self.levels
    }

    /// Total number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the table has no cells (never happens for valid grids).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The flat value slice.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable flat value slice.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Stride of dimension `j` in the flat layout.
    #[must_use]
    pub fn stride(&self, j: usize) -> usize {
        self.strides[j]
    }

    /// Flat index of the cell with per-dimension level *positions* `pos`.
    #[must_use]
    pub fn index_of(&self, pos: &[usize]) -> usize {
        debug_assert_eq!(pos.len(), self.dims());
        pos.iter().zip(&self.strides).map(|(&p, &s)| p * s).sum()
    }

    /// Decompose a flat index into per-dimension positions (a one-off
    /// [`GridCursor::seek`]; hot loops advance a cursor instead).
    #[must_use]
    pub fn positions_of(&self, idx: usize) -> Vec<usize> {
        self.cursor(idx).positions().to_vec()
    }

    /// The server configuration of a flat index.
    #[must_use]
    pub fn config_of(&self, idx: usize) -> Config {
        Config::new(self.cursor(idx).counts().to_vec())
    }

    /// Flat index of a configuration, if every count is on the grid.
    #[must_use]
    pub fn index_of_config(&self, x: &Config) -> Option<usize> {
        if x.dims() != self.dims() {
            return None;
        }
        let mut idx = 0;
        for j in 0..self.dims() {
            let p = self.levels[j].binary_search(&x.count(j)).ok()?;
            idx += p * self.strides[j];
        }
        Some(idx)
    }

    /// Value at a configuration (`None` if off-grid).
    #[must_use]
    pub fn get(&self, x: &Config) -> Option<f64> {
        self.index_of_config(x).map(|i| self.values[i])
    }

    /// Total server count of the configuration at a flat index, computed
    /// arithmetically — no intermediate `Vec`. This is the one indexed
    /// decode [`crate::grid::GridCursor`] does not subsume: it backs the
    /// *lazy* tie-break of [`Table::argmin`], which only fires for
    /// candidates inside the tie window, where keeping a cursor would
    /// force an allocation per call on the online engine's
    /// zero-allocation stepping path.
    #[must_use]
    pub fn total_count(&self, mut idx: usize) -> u64 {
        let mut total = 0u64;
        for (levels, &stride) in self.levels.iter().zip(&self.strides) {
            let p = idx / stride;
            idx %= stride;
            total += u64::from(levels[p]);
        }
        total
    }

    /// Flat index of the cell with minimum value, breaking ties toward the
    /// configuration with the smallest total count, then lexicographically
    /// smallest counts. Returns `None` if every cell is infinite.
    ///
    /// Ties are decided by the relative-epsilon window rule documented
    /// once in [`crate::kernels`] (and implemented by its
    /// [`crate::kernels::argmin_scan`] kernel) rather than exact float
    /// equality: cell values are sums of dispatch solves whose last bits
    /// may differ between otherwise identical runs, and the chosen cell
    /// seeds schedule recovery — exact comparison would let a one-ulp
    /// wobble flip the recovered schedule.
    #[must_use]
    pub fn argmin(&self) -> Option<usize> {
        kernels::argmin_scan(&self.values, |i| self.total_count(i))
    }

    /// Minimum value over all cells (`∞` when all infeasible), via the
    /// [`crate::kernels::min_scan`] kernel.
    #[must_use]
    pub fn min_value(&self) -> f64 {
        kernels::min_scan(&self.values)
    }

    /// A streaming counts cursor positioned at flat index `idx` — the
    /// allocation-free way to visit cells in layout order.
    #[must_use]
    pub fn cursor(&self, idx: usize) -> GridCursor<'_> {
        GridCursor::new(&self.levels, idx)
    }

    /// Iterate `(flat index, configuration)` pairs in layout order.
    ///
    /// Advances a [`GridCursor`] instead of re-deriving positions per
    /// index. The stateful cursor assumes front-to-back consumption,
    /// which the opaque `impl Iterator` return type enforces — callers
    /// cannot reach `next_back`/`.rev()` through it. Each yielded
    /// [`Config`] owns its counts; truly hot loops should walk a
    /// [`Table::cursor`] directly and borrow [`GridCursor::counts`].
    pub fn iter_configs(&self) -> impl Iterator<Item = (usize, Config)> + '_ {
        let mut cursor = self.cursor(0);
        (0..self.len()).map(move |i| {
            let cfg = Config::new(cursor.counts().to_vec());
            cursor.advance();
            (i, cfg)
        })
    }

    /// A new table over the per-dimension *position* sub-ranges `bands`
    /// of this table's grid, copying the banded cells — the sliced view
    /// the corridor refiner and the priced-slot pool carve out of
    /// full-grid tables.
    ///
    /// The innermost band is a contiguous run in the flat layout, so the
    /// copy proceeds one whole run (`memcpy`) at a time, walking the
    /// outer bands as an odometer — cache-blocked band iteration instead
    /// of a per-cell cursor walk.
    ///
    /// # Panics
    /// Panics (via debug assertions) if a band is empty or exceeds its
    /// dimension's length.
    #[must_use]
    pub fn band_slice(&self, bands: &[Range<usize>]) -> Table {
        debug_assert_eq!(bands.len(), self.dims());
        let levels: Vec<Vec<u32>> =
            self.levels.iter().zip(bands).map(|(l, b)| l[b.start..b.end].to_vec()).collect();
        let mut out = Table::new(levels, f64::INFINITY);
        let d = self.dims();
        let inner = &bands[d - 1];
        let run = inner.end - inner.start;
        let mut pos: Vec<usize> = bands.iter().take(d - 1).map(|b| b.start).collect();
        {
            let out_vals = out.values_mut();
            let mut out_off = 0usize;
            'blocks: loop {
                let base = pos.iter().zip(&self.strides).map(|(&p, &s)| p * s).sum::<usize>()
                    + inner.start;
                out_vals[out_off..out_off + run].copy_from_slice(&self.values[base..base + run]);
                out_off += run;
                // Odometer over the outer bands, last one fastest —
                // layout order of both tables.
                let mut j = d - 1;
                loop {
                    if j == 0 {
                        break 'blocks;
                    }
                    j -= 1;
                    pos[j] += 1;
                    if pos[j] < bands[j].end {
                        break;
                    }
                    pos[j] = bands[j].start;
                }
            }
        }
        out
    }
}

fn compute_strides(levels: &[Vec<u32>]) -> Vec<usize> {
    let d = levels.len();
    let mut strides = vec![1usize; d];
    for j in (0..d.saturating_sub(1)).rev() {
        strides[j] = strides[j + 1] * levels[j + 1].len();
    }
    strides
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new(vec![vec![0, 1, 2], vec![0, 2]], f64::INFINITY)
    }

    #[test]
    fn strides_and_indexing_round_trip() {
        let t = table();
        assert_eq!(t.len(), 6);
        assert_eq!(t.stride(0), 2);
        assert_eq!(t.stride(1), 1);
        for i in 0..t.len() {
            let pos = t.positions_of(i);
            assert_eq!(t.index_of(&pos), i);
            let cfg = t.config_of(i);
            assert_eq!(t.index_of_config(&cfg), Some(i));
        }
    }

    #[test]
    fn config_mapping() {
        let t = table();
        assert_eq!(t.config_of(0), Config::new(vec![0, 0]));
        assert_eq!(t.config_of(1), Config::new(vec![0, 2]));
        assert_eq!(t.config_of(5), Config::new(vec![2, 2]));
        assert_eq!(t.index_of_config(&Config::new(vec![1, 1])), None); // off-grid
    }

    #[test]
    fn argmin_breaks_ties_by_total_count() {
        let mut t = table();
        t.values_mut()[1] = 5.0; // (0,2)
        t.values_mut()[2] = 5.0; // (1,0) — same value, smaller total
        assert_eq!(t.argmin(), Some(2));
        t.values_mut()[0] = 5.0; // (0,0) — smallest total
        assert_eq!(t.argmin(), Some(0));
    }

    #[test]
    fn argmin_none_when_all_infinite() {
        let t = table();
        assert_eq!(t.argmin(), None);
        assert_eq!(t.min_value(), f64::INFINITY);
    }

    #[test]
    fn band_slice_copies_the_banded_cells() {
        let mut t = table(); // levels [0,1,2] × [0,2]
        for (i, v) in t.values_mut().iter_mut().enumerate() {
            *v = i as f64;
        }
        let b = t.band_slice(&[1..3, 0..2]);
        assert_eq!(b.all_levels(), &[vec![1, 2], vec![0, 2]]);
        assert_eq!(b.values(), &[2.0, 3.0, 4.0, 5.0]);
        let full = t.band_slice(&[0..3, 0..2]);
        assert_eq!(full.values(), t.values());
    }

    #[test]
    fn band_slice_matches_a_per_cell_copy() {
        // Every banded cell, looked up by its configuration in the full
        // table, must come back bit for bit and in band-layout order,
        // over random d = 1..4 grids with +∞ cells.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..60 {
            let d = rng.gen_range(1..=4);
            let levels: Vec<Vec<u32>> = (0..d)
                .map(|_| {
                    let n = rng.gen_range(1..=5);
                    (0..n).map(|k: u32| k * 2 + rng.gen_range(0..2u32)).collect()
                })
                .collect();
            let mut t = Table::new(levels, 0.0);
            for v in t.values_mut() {
                *v = if rng.gen_bool(0.15) { f64::INFINITY } else { rng.gen_range(0.0..10.0) };
            }
            let bands: Vec<Range<usize>> = (0..d)
                .map(|j| {
                    let n = t.levels(j).len();
                    let start = rng.gen_range(0..n);
                    start..rng.gen_range(start + 1..=n)
                })
                .collect();
            let sliced = t.band_slice(&bands);
            for (j, band) in bands.iter().enumerate() {
                assert_eq!(sliced.levels(j), &t.levels(j)[band.clone()], "bands {bands:?}");
            }
            let want: Vec<u64> = sliced
                .iter_configs()
                .map(|(_, cfg)| t.get(&cfg).expect("a banded cell is on the grid").to_bits())
                .collect();
            let got: Vec<u64> = sliced.values().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "bands {bands:?}");
        }
    }

    #[test]
    fn origin_table() {
        let t = Table::origin(3);
        assert_eq!(t.len(), 1);
        assert_eq!(t.values()[0], 0.0);
        assert_eq!(t.config_of(0), Config::zeros(3));
    }
}
