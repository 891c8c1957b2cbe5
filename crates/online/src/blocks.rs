//! The block decomposition of the competitive analysis (Section 2,
//! Figure 2).
//!
//! Algorithm A's schedule for a type `j` decomposes into **blocks**
//! `A_{j,i} = [s_{j,i}, s_{j,i} + t̄_j − 1]` — the lifetime of each
//! powered-up server — and **special time slots** `τ_{j,1} < … <
//! τ_{j,n'_j}`, constructed backwards so consecutive ones are at least
//! `t̄_j` apart. The proof of Lemma 7 hinges on the combinatorial fact
//! that *every block contains exactly one special slot*; this module
//! derives the power-up log from a committed schedule and computes the
//! decomposition from it, so experiments and tests can exhibit and
//! verify it on real runs.

/// One server lifetime `[start, end]` (inclusive slots).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Block {
    /// Power-up slot `s_{j,i}`.
    pub start: usize,
    /// Last active slot `s_{j,i} + t̄_j − 1`.
    pub end: usize,
}

impl Block {
    /// `true` if the block's interval contains slot `t`.
    #[must_use]
    pub fn contains(&self, t: usize) -> bool {
        self.start <= t && t <= self.end
    }
}

/// The full decomposition for one server type.
#[derive(Clone, Debug)]
pub struct BlockDecomposition {
    /// Blocks `A_{j,i}`, ordered by power-up slot (`s_{j,1} ≤ …`).
    pub blocks: Vec<Block>,
    /// Special slots `τ_{j,k}`, increasing.
    pub special_slots: Vec<usize>,
    /// Index sets `B_{j,k}`: for each special slot, the indices of the
    /// blocks containing it.
    pub index_sets: Vec<Vec<usize>>,
}

/// Algorithm A's power-up log for one type, derived from the active
/// counts `x` it committed: every server it powers up runs exactly
/// `tbar` slots, so `w_t = x_t − x_{t−1} + w_{t−t̄}` (with `x_{−1}` and
/// `w_{t−t̄}` for `t < t̄` zero).
///
/// # Panics
/// Panics if `x` drops by more servers than retire at some slot, which
/// no run of Algorithm A with runtime `tbar` does.
#[must_use]
pub fn power_ups(x: &[u32], tbar: usize) -> Vec<u32> {
    let mut w: Vec<u32> = Vec::with_capacity(x.len());
    let mut prev = 0;
    for (t, &now) in x.iter().enumerate() {
        let retired = t.checked_sub(tbar).map_or(0, |u| w[u]);
        w.push((now + retired).checked_sub(prev).expect("more servers left than retired"));
        prev = now;
    }
    w
}

/// Decompose a power-up log for one type.
///
/// `w[t]` is the number of type-`j` servers powered up at slot `t` (see
/// [`power_ups`]), `tbar` the deterministic runtime `t̄_j ≥ 1`.
#[must_use]
pub fn decompose(w: &[u32], tbar: usize) -> BlockDecomposition {
    assert!(tbar >= 1, "runtime must be at least one slot");
    // Power-up slots with multiplicity: s_{j,1} ≤ s_{j,2} ≤ …
    let starts: Vec<usize> =
        w.iter().enumerate().flat_map(|(t, &n)| std::iter::repeat_n(t, n as usize)).collect();
    let blocks: Vec<Block> =
        starts.iter().map(|&s| Block { start: s, end: s + tbar - 1 }).collect();

    // Special slots, constructed in reverse (paper definition):
    // τ_{n'} = s_{n}; τ_{k−1} = max { s_i ≤ τ_k − t̄ }.
    let mut special_rev: Vec<usize> = Vec::new();
    if let Some(&last) = starts.last() {
        special_rev.push(last);
        loop {
            let cur = *special_rev.last().expect("non-empty");
            if cur < tbar {
                break;
            }
            let bound = cur - tbar;
            match starts.iter().rev().find(|&&s| s <= bound) {
                Some(&prev) => special_rev.push(prev),
                None => break,
            }
        }
    }
    special_rev.reverse();
    let special_slots = special_rev;

    let index_sets: Vec<Vec<usize>> = special_slots
        .iter()
        .map(|&tau| {
            blocks.iter().enumerate().filter(|(_, b)| b.contains(tau)).map(|(i, _)| i).collect()
        })
        .collect();

    BlockDecomposition { blocks, special_slots, index_sets }
}

impl BlockDecomposition {
    /// Verify Lemma 7's combinatorial core: the index sets partition the
    /// block indices (every block contains exactly one special slot).
    #[must_use]
    pub fn is_partition(&self) -> bool {
        let mut seen = vec![false; self.blocks.len()];
        for set in &self.index_sets {
            for &i in set {
                if seen[i] {
                    return false; // a block contains two special slots
                }
                seen[i] = true;
            }
        }
        seen.iter().all(|&s| s)
    }

    /// Consecutive special slots are at least `tbar` apart.
    #[must_use]
    pub fn spacing_at_least(&self, tbar: usize) -> bool {
        self.special_slots.windows(2).all(|w| w[1] - w[0] >= tbar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_style_decomposition() {
        // Seven power-ups; t̄ = 4. Mirrors the structure of Figure 2:
        // clusters of overlapping blocks share one special slot.
        let mut w = vec![0u32; 16];
        w[0] = 1; // block 1: [0,3]
        w[2] = 1; // block 2: [2,5]
        w[6] = 2; // blocks 3,4: [6,9]
        w[11] = 3; // blocks 5,6,7: [11,14]
        let dec = decompose(&w, 4);
        assert_eq!(dec.blocks.len(), 7);
        assert!(dec.is_partition(), "{dec:?}");
        assert!(dec.spacing_at_least(4));
        // Backward construction: τ_last = 11, then max s ≤ 7 → 6, then
        // max s ≤ 2 → 2. Block [0,3] contains τ=2. OK.
        assert_eq!(dec.special_slots, vec![2, 6, 11]);
        assert_eq!(dec.index_sets, vec![vec![0, 1], vec![2, 3], vec![4, 5, 6]]);
    }

    #[test]
    fn every_block_contains_exactly_one_special_slot_randomized() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let horizon = rng.gen_range(1..40);
            let tbar = rng.gen_range(1..8);
            let w: Vec<u32> = (0..horizon)
                .map(|_| if rng.gen_bool(0.3) { rng.gen_range(1..4) } else { 0 })
                .collect();
            let dec = decompose(&w, tbar);
            assert!(dec.is_partition(), "tbar={tbar} w={w:?} dec={dec:?}");
            assert!(dec.spacing_at_least(tbar));
        }
    }

    #[test]
    fn power_ups_follow_the_retirements() {
        // t̄ = 2: the two servers powered up at 0 retire at 2, the one
        // from 1 at 3, where one is powered up again (retiring at 5).
        assert_eq!(power_ups(&[2, 3, 1, 1, 1, 0], 2), vec![2, 1, 0, 1, 0, 0]);
        assert_eq!(power_ups(&[], 3), Vec::<u32>::new());
    }

    #[test]
    fn empty_log_has_no_blocks() {
        let dec = decompose(&[0, 0, 0], 3);
        assert!(dec.blocks.is_empty());
        assert!(dec.special_slots.is_empty());
        assert!(dec.is_partition());
    }

    #[test]
    fn single_power_up() {
        let dec = decompose(&[0, 2, 0], 5);
        assert_eq!(dec.blocks.len(), 2);
        assert_eq!(dec.special_slots, vec![1]);
        assert_eq!(dec.index_sets, vec![vec![0, 1]]);
    }
}
