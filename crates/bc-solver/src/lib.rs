#![warn(missing_docs)]
//! Probability computation for c-table conditions.
//!
//! The probability that a condition `φ(o)` holds — i.e. that object `o` is a
//! skyline answer — is a weighted model-counting problem, at least as hard
//! as #SAT (Section 5 of the paper). This crate provides:
//!
//! * [`AdpllSolver`] — the paper's adaptive DPLL (Algorithm 3): splits the
//!   CNF into variable-disjoint components, applies the special conjunctive
//!   rule and the general disjunctive rule on independent parts, and
//!   branches on the most frequent variable otherwise,
//! * [`NaiveSolver`] — brute-force enumeration of all variable assignments,
//! * [`ApproxCountSolver`] — the generalized weighted ApproxCount the paper
//!   compares against (and finds inferior),
//! * [`MonteCarloSolver`] — a plain sampling estimator,
//! * [`factored`] — ADPLL's sum in closed form on the conditions Get-CTable
//!   builds: one table per clause over the object's own cells, from which
//!   `Pr(φ)` follows, straight off them when at most one own cell is
//!   shared and by one pass otherwise, and one more pass gives every
//!   `Pr(φ ∧ e)` of its candidates; what a session scores with,
//! * [`VarDists`] — per-variable value distributions (from the Bayesian
//!   network) with expression-probability helpers, and
//! * [`utility`] — the marginal-utility function `G(o, e)` (Definition 6).
//!
//! ADPLL and [`factored::Workspace::probability`] check the value they
//! return with [`checked_probability`]: a value that is not a probability
//! is [`SolverError::InvalidProbability`] where it is produced, so no
//! caller re-checks one.

pub mod adpll;
pub mod approxcount;
mod arena;
pub mod dists;
pub mod factored;
pub mod montecarlo;
pub mod naive;
pub mod utility;

pub use adpll::{AdpllSolver, BranchHeuristic, SolveStats};
pub use approxcount::ApproxCountSolver;
pub use dists::VarDists;
pub use montecarlo::MonteCarloSolver;
pub use naive::{ModelCount, NaiveSolver};

use bc_ctable::Condition;
use std::fmt;

/// Errors raised by probability computation.
#[derive(Clone, Debug, PartialEq)]
pub enum SolverError {
    /// A variable in the condition has no distribution.
    MissingDistribution(bc_data::VarId),
    /// The naive enumerator would visit more states than allowed.
    StateSpaceTooLarge {
        /// States the enumeration would need.
        states: u128,
        /// The configured cap.
        limit: u128,
    },
    /// A solver returned a probability that is not finite or lies outside
    /// `[0, 1]` by more than rounding slack.
    InvalidProbability(f64),
    /// A condition is outside the shape factor tables evaluate
    /// ([`factored`]): this variable, not one of the object's own cells,
    /// occurs in two expressions, or it is the second own cell of a var-var
    /// expression.
    NotFactored(bc_data::VarId),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::MissingDistribution(v) => {
                write!(f, "no distribution for variable {v}")
            }
            SolverError::StateSpaceTooLarge { states, limit } => {
                write!(f, "enumeration needs {states} states (limit {limit})")
            }
            SolverError::InvalidProbability(p) => {
                write!(f, "solver returned {p}, which is not a probability")
            }
            SolverError::NotFactored(v) => {
                write!(f, "condition is not factored by its object's cells at {v}")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// `p` if it is a probability up to rounding slack of `1e-9`, else
/// [`SolverError::InvalidProbability`]: a non-finite value, or one outside
/// `[0, 1]` by more than the slack, means broken inputs or a broken solver.
pub fn checked_probability(p: f64) -> Result<f64, SolverError> {
    const SLACK: f64 = 1e-9;
    if p.is_finite() && (-SLACK..=1.0 + SLACK).contains(&p) {
        Ok(p)
    } else {
        Err(SolverError::InvalidProbability(p))
    }
}

/// A probability solver for c-table conditions.
pub trait Solver {
    /// `Pr(φ)` under the given per-variable distributions.
    fn probability(&self, cond: &Condition, dists: &VarDists) -> Result<f64, SolverError>;

    /// `Pr(φ)` plus the effort counters attributable to *this call alone*.
    ///
    /// The default implementation reports empty stats; a solver that
    /// counts its search (like [`AdpllSolver`]) overrides it with that
    /// search's counters, so callers attribute work per condition.
    fn probability_with_stats(
        &self,
        cond: &Condition,
        dists: &VarDists,
    ) -> Result<(f64, SolveStats), SolverError> {
        Ok((self.probability(cond, dists)?, SolveStats::default()))
    }

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_probabilities_are_typed_errors() {
        for bad in [f64::NAN, f64::INFINITY, -0.01, 1.0 + 1e-6] {
            let got = checked_probability(bad);
            assert!(
                matches!(got, Err(SolverError::InvalidProbability(p))
                    if p.is_nan() == bad.is_nan() && (p.is_nan() || p == bad)),
                "{bad} accepted: {got:?}"
            );
        }
        // Rounding slack is tolerated and passed through unchanged.
        for ok in [0.0, 1.0, -1e-12, 1.0 + 1e-12] {
            assert_eq!(checked_probability(ok), Ok(ok));
        }
    }
}
