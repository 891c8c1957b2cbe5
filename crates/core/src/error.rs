//! Validation errors for problem instances and schedules.

use std::fmt;

/// Why an instance or schedule is malformed or infeasible.
#[derive(Clone, Debug, PartialEq)]
pub enum InstanceError {
    /// The instance has no server types.
    NoServerTypes,
    /// The instance has an empty time horizon.
    EmptyHorizon,
    /// A job volume is negative or non-finite.
    BadLoad {
        /// Offending slot (0-based).
        t: usize,
        /// The bad value.
        value: f64,
    },
    /// A server type parameter is out of range.
    BadServerType {
        /// Offending type index.
        j: usize,
        /// Description of the violation.
        reason: String,
    },
    /// A time-varying cost profile does not cover the whole horizon.
    CostHorizonMismatch {
        /// Offending type index.
        j: usize,
        /// Slots covered by the cost spec.
        spec_len: usize,
        /// Slots required.
        horizon: usize,
    },
    /// A time-varying fleet-size profile has the wrong shape.
    CountsShapeMismatch {
        /// Expected (T, d).
        expected: (usize, usize),
        /// Found (rows, cols of first bad row).
        found: (usize, usize),
    },
    /// Even powering everything on cannot serve the load at slot `t`.
    InfeasibleLoad {
        /// Offending slot (0-based).
        t: usize,
        /// The arriving volume.
        load: f64,
        /// The maximum total capacity at that slot.
        capacity: f64,
    },
    /// A sampled convexity/monotonicity check failed for a cost function.
    NonConvexCost {
        /// Offending type index.
        j: usize,
        /// Offending slot.
        t: usize,
        /// Description of the violation.
        reason: String,
    },
    /// A schedule's shape does not match the instance.
    ScheduleShapeMismatch {
        /// Expected (T, d).
        expected: (usize, usize),
        /// Found shape.
        found: (usize, usize),
    },
    /// A schedule exceeds fleet bounds or capacity at slot `t`.
    InfeasibleSchedule {
        /// Offending slot (0-based).
        t: usize,
        /// Description of the violation.
        reason: String,
    },
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::NoServerTypes => write!(f, "instance has no server types"),
            InstanceError::EmptyHorizon => write!(f, "instance has an empty time horizon"),
            InstanceError::BadLoad { t, value } => {
                write!(f, "load at slot {t} is invalid: {value}")
            }
            InstanceError::BadServerType { j, reason } => {
                write!(f, "server type {j} is invalid: {reason}")
            }
            InstanceError::CostHorizonMismatch { j, spec_len, horizon } => write!(
                f,
                "cost spec of type {j} covers {spec_len} slots but the horizon is {horizon}"
            ),
            InstanceError::CountsShapeMismatch { expected, found } => write!(
                f,
                "time-varying fleet sizes must be {}×{} but found {}×{}",
                expected.0, expected.1, found.0, found.1
            ),
            InstanceError::InfeasibleLoad { t, load, capacity } => {
                write!(f, "load {load} at slot {t} exceeds the maximum capacity {capacity}")
            }
            InstanceError::NonConvexCost { j, t, reason } => {
                write!(f, "cost of type {j} at slot {t} is not convex increasing: {reason}")
            }
            InstanceError::ScheduleShapeMismatch { expected, found } => write!(
                f,
                "schedule must be {}×{} but found {}×{}",
                expected.0, expected.1, found.0, found.1
            ),
            InstanceError::InfeasibleSchedule { t, reason } => {
                write!(f, "schedule infeasible at slot {t}: {reason}")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// Why the solver entry point `dp::try_solve` could not produce a
/// solution. Unlike [`InstanceError`] — which describes a
/// malformed *problem* — a `SolveError` describes an input or numerical
/// condition that would previously have panicked (or silently produced
/// garbage) inside the solver itself.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// A job volume handed to the solver is NaN, infinite, or negative.
    MalformedLambda {
        /// Offending slot (0-based).
        t: usize,
        /// The bad value.
        value: f64,
    },
    /// A configuration grid came out empty for some dimension, so the DP
    /// has no states to price.
    EmptyGrid {
        /// Offending slot (0-based).
        t: usize,
        /// Offending dimension (server type index).
        j: usize,
    },
    /// The underlying instance failed validation.
    Infeasible(InstanceError),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::MalformedLambda { t, value } => {
                write!(f, "malformed job volume at slot {t}: {value}")
            }
            SolveError::EmptyGrid { t, j } => {
                write!(f, "configuration grid is empty at slot {t}, dimension {j}")
            }
            SolveError::Infeasible(e) => write!(f, "instance infeasible: {e}"),
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::Infeasible(e) => Some(e),
            _ => None,
        }
    }
}

impl From<InstanceError> for SolveError {
    fn from(e: InstanceError) -> Self {
        SolveError::Infeasible(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = InstanceError::InfeasibleLoad { t: 3, load: 10.0, capacity: 5.0 };
        let s = e.to_string();
        assert!(s.contains("slot 3"));
        assert!(s.contains("10"));
        assert!(s.contains('5'));
    }

    #[test]
    fn implements_error_trait() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&InstanceError::EmptyHorizon);
    }
}
