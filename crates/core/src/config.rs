//! Framework configuration: the knobs of a run ([`BayesCrowdConfig`]),
//! their validation ([`ConfigError`]), and the answer threshold the paper
//! fixes ([`ANSWER_THRESHOLD`]).

use crate::selection::ObjectRanking;
use crate::strategy::TaskStrategy;
use bc_bayes::ModelConfig;
use bc_crowd::RetryPolicy;
use bc_ctable::{CTableConfig, DominatorStrategy};
use std::fmt;

/// Why a configuration was rejected by [`BayesCrowdConfig::validate`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// `budget == 0`: the run could never post a task.
    ZeroBudget,
    /// `latency == 0`: no round may run (use `latency = 1` for a one-shot
    /// batch of the whole budget).
    ZeroLatency,
    /// `alpha` is outside `[0, 1]` (or NaN) — it is a fraction of `|O|`.
    AlphaOutOfRange(f64),
    /// `Hhs { m: 0 }`: the hybrid strategy's lookahead would never consider
    /// a single candidate.
    ZeroLookahead,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroBudget => write!(f, "budget must be at least 1 task"),
            ConfigError::ZeroLatency => write!(f, "latency must be at least 1 round"),
            ConfigError::AlphaOutOfRange(a) => {
                write!(f, "alpha must lie in [0, 1], got {a}")
            }
            ConfigError::ZeroLookahead => {
                write!(f, "HHS lookahead m must be at least 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The probability above which an open object is reported as an answer:
/// the paper's 0.5, a most-likely guess between "in the skyline" and not.
pub const ANSWER_THRESHOLD: f64 = 0.5;

/// All knobs of a BayesCrowd run. Field defaults follow the paper's
/// Synthetic-dataset setting where one exists.
///
/// What the paper fixes is not a knob: every condition probability comes
/// from ADPLL (Algorithm 3) with its most-frequent-variable branching and
/// component caching, dominator sets come from the fast index, and an open
/// object is an answer above [`ANSWER_THRESHOLD`]. The brute-force and
/// sampling solvers are Figure 3 comparators, run straight from
/// `bc_solver`.
#[derive(Clone, Debug)]
pub struct BayesCrowdConfig {
    /// Budget `B`: total number of tasks the requester can afford.
    pub budget: usize,
    /// Latency constraint `L`: number of task-selection rounds; each round
    /// posts up to `⌈B / L⌉` tasks.
    pub latency: usize,
    /// The pruning threshold `α` of c-table construction.
    pub alpha: f64,
    /// Task-selection strategy (FBS / UBS / HHS).
    pub strategy: TaskStrategy,
    /// How objects are ranked when choosing the top-k per round (the paper
    /// uses entropy; `Random` is the ablation baseline).
    pub ranking: ObjectRanking,
    /// Bayesian-network modeling configuration (set
    /// `model.uniform_prior = true` for the no-correlation ablation).
    pub model: ModelConfig,
    /// If `false`, tasks in one round may share variables — the
    /// conflict-avoidance ablation (the paper requires `true`).
    pub conflict_free: bool,
    /// If `false`, crowd answers only decide their own expression instead of
    /// being propagated through the constraint store — the inference
    /// ablation that makes BayesCrowd behave like a non-inferring baseline.
    pub propagate_answers: bool,
    /// Compute per-object probabilities on multiple threads.
    pub parallel: bool,
    /// How tasks that come back unanswered (expired or inconsistent) are
    /// re-queued. The default gives every failed task one more attempt;
    /// `RetryPolicy::none()` restores fire-and-forget posting.
    pub retry: RetryPolicy,
}

impl Default for BayesCrowdConfig {
    fn default() -> Self {
        BayesCrowdConfig {
            budget: 1000,
            latency: 10,
            alpha: 0.01,
            strategy: TaskStrategy::Hhs { m: 50 },
            ranking: ObjectRanking::Entropy,
            model: ModelConfig::default(),
            conflict_free: true,
            propagate_answers: true,
            parallel: false,
            retry: RetryPolicy::default(),
        }
    }
}

impl BayesCrowdConfig {
    /// The paper's NBA-dataset defaults: `α = 0.003`, `B = 50`, `m = 15`,
    /// `L = 5`.
    pub fn nba_defaults() -> BayesCrowdConfig {
        BayesCrowdConfig {
            budget: 50,
            latency: 5,
            alpha: 0.003,
            strategy: TaskStrategy::Hhs { m: 15 },
            ..Default::default()
        }
    }

    /// The paper's Synthetic-dataset defaults: `α = 0.01`, `B = 1000`,
    /// `m = 50`, `L = 10`.
    pub fn synthetic_defaults() -> BayesCrowdConfig {
        BayesCrowdConfig::default()
    }

    /// Tasks per round: `μ = ⌈B / L⌉` (Algorithm 4, line 1).
    pub fn tasks_per_round(&self) -> usize {
        if self.latency == 0 {
            self.budget
        } else {
            self.budget.div_ceil(self.latency)
        }
    }

    /// The c-table construction sub-config: dominator sets from the
    /// paper's fast index.
    pub fn ctable_config(&self) -> CTableConfig {
        CTableConfig {
            alpha: self.alpha,
            strategy: DominatorStrategy::FastIndex,
        }
    }

    /// Checks the configuration's invariants. A struct literal is not
    /// checked when it is built (tests use degenerate configs like
    /// `budget: 0` to probe edge behavior); `try_run` and
    /// `BayesCrowd::session*` call this first.
    ///
    /// ```
    /// use bayescrowd::{BayesCrowdConfig, ConfigError, TaskStrategy};
    ///
    /// let config = BayesCrowdConfig {
    ///     budget: 50,
    ///     latency: 5,
    ///     alpha: 0.003,
    ///     strategy: TaskStrategy::Hhs { m: 15 },
    ///     ..Default::default()
    /// };
    /// assert_eq!(config.validate(), Ok(()));
    /// assert_eq!(config.tasks_per_round(), 10);
    /// let zero = BayesCrowdConfig { budget: 0, ..config };
    /// assert_eq!(zero.validate(), Err(ConfigError::ZeroBudget));
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.budget == 0 {
            return Err(ConfigError::ZeroBudget);
        }
        if self.latency == 0 {
            return Err(ConfigError::ZeroLatency);
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(ConfigError::AlphaOutOfRange(self.alpha));
        }
        if matches!(self.strategy, TaskStrategy::Hhs { m: 0 }) {
            return Err(ConfigError::ZeroLookahead);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_per_round_matches_algorithm_4() {
        let c = BayesCrowdConfig {
            budget: 6,
            latency: 3,
            ..Default::default()
        };
        assert_eq!(c.tasks_per_round(), 2);
        let c = BayesCrowdConfig {
            budget: 7,
            latency: 3,
            ..Default::default()
        };
        assert_eq!(c.tasks_per_round(), 3);
        let c = BayesCrowdConfig {
            budget: 5,
            latency: 0,
            ..Default::default()
        };
        assert_eq!(c.tasks_per_round(), 5);
    }

    #[test]
    fn paper_defaults() {
        let nba = BayesCrowdConfig::nba_defaults();
        assert_eq!(nba.budget, 50);
        assert_eq!(nba.latency, 5);
        assert!((nba.alpha - 0.003).abs() < 1e-12);
        assert_eq!(nba.strategy, TaskStrategy::Hhs { m: 15 });
        let syn = BayesCrowdConfig::synthetic_defaults();
        assert_eq!(syn.budget, 1000);
        assert_eq!(syn.strategy, TaskStrategy::Hhs { m: 50 });
    }

    #[test]
    fn validate_rejects_zero_budget() {
        let config = BayesCrowdConfig {
            budget: 0,
            ..Default::default()
        };
        assert_eq!(config.validate(), Err(ConfigError::ZeroBudget));
    }

    #[test]
    fn validate_rejects_zero_latency() {
        let config = BayesCrowdConfig {
            latency: 0,
            ..Default::default()
        };
        assert_eq!(config.validate(), Err(ConfigError::ZeroLatency));
    }

    #[test]
    fn validate_rejects_alpha_outside_unit_interval() {
        let with_alpha = |alpha| BayesCrowdConfig {
            alpha,
            ..Default::default()
        };
        for bad in [-0.1, 1.5, f64::NAN] {
            let err = with_alpha(bad).validate().unwrap_err();
            assert!(
                matches!(err, ConfigError::AlphaOutOfRange(_)),
                "alpha {bad} gave {err:?}"
            );
        }
        // The closed interval's endpoints are fine (tests use alpha = 1.0).
        assert!(with_alpha(0.0).validate().is_ok());
        assert!(with_alpha(1.0).validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_lookahead() {
        let with_strategy = |strategy| BayesCrowdConfig {
            strategy,
            ..Default::default()
        };
        assert_eq!(
            with_strategy(TaskStrategy::Hhs { m: 0 }).validate(),
            Err(ConfigError::ZeroLookahead)
        );
        // FBS/UBS have no lookahead to validate.
        assert!(with_strategy(TaskStrategy::Fbs).validate().is_ok());
    }

    #[test]
    fn config_errors_display_actionably() {
        for (err, needle) in [
            (ConfigError::ZeroBudget, "budget"),
            (ConfigError::ZeroLatency, "latency"),
            (ConfigError::AlphaOutOfRange(2.0), "alpha"),
            (ConfigError::ZeroLookahead, "lookahead"),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
