//! Server configurations — points of the discrete state space `M`.

use std::fmt;
use std::ops::Index;

use crate::server::ServerType;

/// A server configuration `x = (x_1, …, x_d)`: the number of **active**
/// servers of each type during one time slot.
///
/// This is the discrete state the paper optimizes over; all algorithms in
/// the workspace produce and consume integral configurations — no
/// fractional relaxation is ever rounded.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Config {
    counts: Vec<u32>,
}

impl Config {
    /// Configuration from explicit per-type counts.
    #[must_use]
    pub fn new(counts: Vec<u32>) -> Self {
        Self { counts }
    }

    /// The all-zero configuration `0 = (0, …, 0)` in `d` dimensions —
    /// the mandated start/end state `x_0 = x_{T+1}`.
    #[must_use]
    pub fn zeros(d: usize) -> Self {
        Self { counts: vec![0; d] }
    }

    /// Number of server types `d`.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.counts.len()
    }

    /// Active servers of type `j`.
    #[inline]
    #[must_use]
    pub fn count(&self, j: usize) -> u32 {
        self.counts[j]
    }

    /// All per-type counts.
    #[must_use]
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Total number of active servers `Σ_j x_j`.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum()
    }

    /// Total processing capacity `Σ_j x_j · z^max_j` under the given types.
    #[must_use]
    pub fn capacity(&self, types: &[ServerType]) -> f64 {
        debug_assert_eq!(types.len(), self.dims());
        self.counts.iter().zip(types).map(|(&x, ty)| f64::from(x) * ty.capacity).sum()
    }

    /// `true` if this configuration can process job volume `lambda`.
    #[must_use]
    pub fn can_serve(&self, types: &[ServerType], lambda: f64) -> bool {
        self.capacity(types) >= lambda
    }

    /// `true` if every count is within the fleet bound `x_j ≤ bound_j`.
    #[must_use]
    pub fn within(&self, bounds: &[u32]) -> bool {
        debug_assert_eq!(bounds.len(), self.dims());
        self.counts.iter().zip(bounds).all(|(&x, &m)| x <= m)
    }

    /// `true` if `self ≥ other` component-wise (the online invariant
    /// `x^A_{t,j} ≥ x̂^t_{t,j}`).
    #[must_use]
    pub fn dominates(&self, other: &Config) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.counts.iter().zip(&other.counts).all(|(&a, &b)| a >= b)
    }

    /// Switching cost `Σ_j β_j (to_j − from_j)^+` of moving from `self`
    /// to `to` under the given types.
    #[must_use]
    pub fn switching_cost_to(&self, to: &Config, types: &[ServerType]) -> f64 {
        debug_assert_eq!(self.dims(), to.dims());
        debug_assert_eq!(types.len(), self.dims());
        self.counts
            .iter()
            .zip(&to.counts)
            .zip(types)
            .map(|((&from, &to), ty)| f64::from(to.saturating_sub(from)) * ty.switching_cost)
            .sum()
    }

    /// Component-wise maximum — used when the online algorithms raise the
    /// active counts to the prefix optimum.
    #[must_use]
    pub fn max_with(&self, other: &Config) -> Config {
        debug_assert_eq!(self.dims(), other.dims());
        Config::new(self.counts.iter().zip(&other.counts).map(|(&a, &b)| a.max(b)).collect())
    }
}

impl Index<usize> for Config {
    type Output = u32;
    fn index(&self, j: usize) -> &u32 {
        &self.counts[j]
    }
}

impl From<Vec<u32>> for Config {
    fn from(counts: Vec<u32>) -> Self {
        Config::new(counts)
    }
}

impl From<&[u32]> for Config {
    fn from(counts: &[u32]) -> Self {
        Config::new(counts.to_vec())
    }
}

impl fmt::Debug for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Config{:?}", self.counts)
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::util::approx_eq;

    fn types() -> Vec<ServerType> {
        vec![
            ServerType::new("slow", 5, 2.0, 1.0, CostModel::constant(1.0)),
            ServerType::new("fast", 3, 8.0, 4.0, CostModel::constant(3.0)),
        ]
    }

    #[test]
    fn capacity_and_serving() {
        let x = Config::new(vec![2, 1]);
        assert!(approx_eq(x.capacity(&types()), 6.0));
        assert!(x.can_serve(&types(), 6.0));
        assert!(!x.can_serve(&types(), 6.1));
    }

    #[test]
    fn switching_cost_counts_only_power_ups() {
        let a = Config::new(vec![2, 1]);
        let b = Config::new(vec![1, 3]);
        // type 0 shrinks (free), type 1 grows by 2 at β=8
        assert!(approx_eq(a.switching_cost_to(&b, &types()), 16.0));
        // reverse direction: type 0 grows by 1 at β=2
        assert!(approx_eq(b.switching_cost_to(&a, &types()), 2.0));
    }

    #[test]
    fn dominance_and_max() {
        let a = Config::new(vec![2, 1]);
        let b = Config::new(vec![1, 3]);
        assert!(!a.dominates(&b));
        assert!(a.max_with(&b).dominates(&a));
        assert!(a.max_with(&b).dominates(&b));
        assert_eq!(a.max_with(&b), Config::new(vec![2, 3]));
    }

    #[test]
    fn zeros_and_total() {
        let z = Config::zeros(3);
        assert_eq!(z.total(), 0);
        assert_eq!(z.dims(), 3);
        assert!(Config::new(vec![1, 2, 3]).total() == 6);
    }

    #[test]
    fn within_bounds() {
        let x = Config::new(vec![2, 3]);
        assert!(x.within(&[2, 3]));
        assert!(!x.within(&[1, 3]));
    }

    #[test]
    fn display_formats_tuple() {
        assert_eq!(Config::new(vec![1, 2]).to_string(), "(1, 2)");
    }
}
