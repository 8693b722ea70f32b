//! Task-selection strategies (Section 6.2): FBS, UBS, HHS.

use crate::config::solve_with_fallback;
use bc_ctable::{Condition, Expr};
use bc_data::VarId;
use bc_solver::utility::marginal_utility_with_prior;
use bc_solver::{BranchHeuristic, SolveStats, Solver, SolverError, VarDists};
use std::collections::{BTreeSet, HashMap};

/// The three expression-selection strategies of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskStrategy {
    /// Frequency-based: pick the expression appearing most often across the
    /// chosen objects' conditions. Fastest, least accurate.
    Fbs,
    /// Utility-based: pick the expression with the highest marginal utility
    /// (Definition 6). Most accurate, slowest; HHS with unbounded lookahead.
    Ubs,
    /// Hybrid heuristic (Algorithm 4): walk expressions in frequency order,
    /// computing utilities, and stop after `m` consecutive non-improvements.
    Hhs {
        /// The lookahead parameter `m`.
        m: usize,
    },
}

impl TaskStrategy {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            TaskStrategy::Fbs => "FBS",
            TaskStrategy::Ubs => "UBS",
            TaskStrategy::Hhs { .. } => "HHS",
        }
    }
}

/// Expression frequencies across a set of conditions (the paper counts how
/// often each expression appears in the conditions of the chosen top-k
/// objects).
pub fn expression_frequencies<'a>(
    conditions: impl IntoIterator<Item = &'a Condition>,
) -> HashMap<Expr, usize> {
    let mut freq = HashMap::new();
    for cond in conditions {
        for e in cond.exprs() {
            *freq.entry(*e).or_insert(0) += 1;
        }
    }
    freq
}

/// The candidate expressions of `cond`, excluding those touching a blocked
/// variable, ordered by descending frequency (ties broken by expression
/// order for determinism).
fn candidates(
    cond: &Condition,
    freq: &HashMap<Expr, usize>,
    blocked: &BTreeSet<VarId>,
) -> Vec<Expr> {
    let mut seen = BTreeSet::new();
    let mut out: Vec<Expr> = cond
        .exprs()
        .filter(|e| seen.insert(**e))
        .filter(|e| e.vars().all(|v| !blocked.contains(&v)))
        .copied()
        .collect();
    out.sort_by(|a, b| {
        freq.get(b)
            .unwrap_or(&0)
            .cmp(freq.get(a).unwrap_or(&0))
            .then(a.cmp(b))
    });
    out
}

/// The solver effort behind a batch of marginal-utility evaluations.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct UtilityTally {
    /// Candidate expressions scored.
    pub candidates: u64,
    /// Solver invocations: one `Pr(φ ∧ e)` solve per candidate whose
    /// `Pr(e)` lies strictly inside `(0, 1)`, plus failed attempts that
    /// needed a fallback.
    pub solver_calls: u64,
    /// Candidates the configured solver failed on and a fresh ADPLL
    /// re-solved.
    pub fallbacks: u64,
    /// Search effort of the successful solves.
    pub stats: SolveStats,
}

/// Scores candidate expressions by marginal utility (Definition 6) and
/// tallies the solver effort.
///
/// A candidate the configured solver fails on (e.g. the naive enumerator's
/// state cap) is re-solved by a fresh ADPLL built with the run's branching
/// heuristic and caching flag, and counted as a fallback — the same policy
/// as the per-round probability batch. An error that survives the fallback
/// is returned; it is never scored as zero utility.
pub struct UtilityScorer<'a> {
    solver: &'a dyn Solver,
    dists: &'a VarDists,
    heuristic: BranchHeuristic,
    caching: bool,
    tally: UtilityTally,
}

impl<'a> UtilityScorer<'a> {
    /// A scorer over `solver` and `dists`; `heuristic` and `caching`
    /// configure the fallback ADPLL.
    pub fn new(
        solver: &'a dyn Solver,
        dists: &'a VarDists,
        heuristic: BranchHeuristic,
        caching: bool,
    ) -> UtilityScorer<'a> {
        UtilityScorer {
            solver,
            dists,
            heuristic,
            caching,
            tally: UtilityTally::default(),
        }
    }

    /// The effort spent so far.
    pub fn tally(&self) -> UtilityTally {
        self.tally
    }

    /// `G(o, e)` for `e` in `cond`, where `p_phi` is `Pr(cond)` under the
    /// scorer's distributions.
    pub fn score(&mut self, cond: &Condition, e: &Expr, p_phi: f64) -> Result<f64, SolverError> {
        self.tally.candidates += 1;
        let dists = self.dists;
        let (eval, fell_back) =
            solve_with_fallback(self.solver, self.heuristic, self.caching, |s| {
                marginal_utility_with_prior(s, cond, e, dists, p_phi)
            })?;
        // The failed first attempt was a call too.
        self.tally.solver_calls += u64::from(fell_back);
        self.tally.fallbacks += u64::from(fell_back);
        if let Some(stats) = eval.solve {
            self.tally.solver_calls += 1;
            self.tally.stats += stats;
        }
        Ok(eval.utility)
    }
}

/// Selects the crowd expression for one object's condition under the given
/// strategy. `blocked` holds variables already used by tasks selected this
/// round (conflict avoidance); `p_phi` is the object's current condition
/// probability under the scorer's distributions (the utility computation
/// relies on it being fresh). Returns `Ok(None)` if every expression
/// conflicts.
pub fn select_expression(
    strategy: TaskStrategy,
    cond: &Condition,
    freq: &HashMap<Expr, usize>,
    blocked: &BTreeSet<VarId>,
    scorer: &mut UtilityScorer<'_>,
    p_phi: f64,
) -> Result<Option<Expr>, SolverError> {
    let cands = candidates(cond, freq, blocked);
    // UBS is HHS that never stops early.
    let lookahead = match strategy {
        TaskStrategy::Fbs => return Ok(cands.first().copied()),
        TaskStrategy::Ubs => usize::MAX,
        TaskStrategy::Hhs { m } => m.max(1),
    };
    let mut best: Option<(f64, Expr)> = None;
    let mut since_improvement = 0usize;
    for e in cands {
        let g = scorer.score(cond, &e, p_phi)?;
        if best.is_none_or(|(bg, _)| g > bg) {
            best = Some((g, e));
            since_improvement = 0;
        } else {
            since_improvement += 1;
            if since_improvement >= lookahead {
                break;
            }
        }
    }
    Ok(best.map(|(_, e)| e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_bayes::Pmf;
    use bc_solver::{AdpllSolver, NaiveSolver};

    fn v(o: u32, a: u16) -> VarId {
        VarId::new(o, a)
    }

    /// [`select_expression`] with a fresh scorer over `solver`.
    fn pick(
        strategy: TaskStrategy,
        cond: &Condition,
        freq: &HashMap<Expr, usize>,
        blocked: &BTreeSet<VarId>,
        solver: &dyn Solver,
        dists: &VarDists,
        p_phi: f64,
    ) -> Option<Expr> {
        let mut scorer = UtilityScorer::new(solver, dists, BranchHeuristic::default(), true);
        select_expression(strategy, cond, freq, blocked, &mut scorer, p_phi).unwrap()
    }

    fn simple_setup() -> (Condition, VarDists) {
        // φ = (x < 5 ∨ y < 1) ∧ (z > 3): x-question is most informative in
        // the first clause; z in its own clause.
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(v(0, 0), 5), Expr::lt(v(1, 0), 1)],
            vec![Expr::gt(v(2, 0), 3)],
        ]);
        let dists: VarDists = [
            (v(0, 0), Pmf::uniform(10)),
            (v(1, 0), Pmf::uniform(10)),
            (v(2, 0), Pmf::uniform(10)),
        ]
        .into_iter()
        .collect();
        (cond, dists)
    }

    #[test]
    fn a_nan_utility_solve_is_an_error_not_zero_utility() {
        let (cond, dists) = simple_setup();
        let nan = crate::config::FixedSolver(f64::NAN);
        let mut scorer = UtilityScorer::new(&nan, &dists, BranchHeuristic::default(), true);
        let e = *cond.exprs().next().unwrap();
        assert!(matches!(
            scorer.score(&cond, &e, 0.5),
            Err(SolverError::InvalidProbability(p)) if p.is_nan()
        ));
        assert_eq!(
            scorer.tally().fallbacks,
            0,
            "a broken answer is not retried"
        );
    }

    #[test]
    fn fbs_follows_frequency() {
        let (cond, dists) = simple_setup();
        // Make y's expression globally frequent.
        let other = Condition::from_clauses(vec![vec![Expr::lt(v(1, 0), 1)]]);
        let freq = expression_frequencies([&cond, &other, &other]);
        let solver = AdpllSolver::new();
        let p = solver.probability(&cond, &dists).unwrap();
        let picked = pick(
            TaskStrategy::Fbs,
            &cond,
            &freq,
            &BTreeSet::new(),
            &solver,
            &dists,
            p,
        )
        .unwrap();
        assert_eq!(picked, Expr::lt(v(1, 0), 1));
    }

    #[test]
    fn ubs_follows_utility() {
        let (cond, dists) = simple_setup();
        let freq = expression_frequencies([&cond]);
        let solver = AdpllSolver::new();
        let p = solver.probability(&cond, &dists).unwrap();
        let picked = pick(
            TaskStrategy::Ubs,
            &cond,
            &freq,
            &BTreeSet::new(),
            &solver,
            &dists,
            p,
        )
        .unwrap();
        // "y < 1" is nearly decided (p = .1) so the utility of asking it is
        // small; x or z dominate. UBS must not pick y.
        assert_ne!(picked, Expr::lt(v(1, 0), 1));
    }

    #[test]
    fn hhs_with_large_m_matches_ubs() {
        let (cond, dists) = simple_setup();
        let freq = expression_frequencies([&cond]);
        let solver = AdpllSolver::new();
        let p = solver.probability(&cond, &dists).unwrap();
        let ubs = pick(
            TaskStrategy::Ubs,
            &cond,
            &freq,
            &BTreeSet::new(),
            &solver,
            &dists,
            p,
        );
        let hhs = pick(
            TaskStrategy::Hhs { m: 100 },
            &cond,
            &freq,
            &BTreeSet::new(),
            &solver,
            &dists,
            p,
        );
        assert_eq!(ubs, hhs);
    }

    #[test]
    fn hhs_with_m_one_stops_early() {
        let (cond, dists) = simple_setup();
        let freq = expression_frequencies([&cond]);
        let solver = AdpllSolver::new();
        // m = 1: stops at the first non-improving expression, so it returns
        // some expression but possibly not the UBS optimum; it must still
        // return one.
        let p = solver.probability(&cond, &dists).unwrap();
        let picked = pick(
            TaskStrategy::Hhs { m: 1 },
            &cond,
            &freq,
            &BTreeSet::new(),
            &solver,
            &dists,
            p,
        );
        assert!(picked.is_some());
    }

    #[test]
    fn blocked_variables_are_skipped() {
        let (cond, dists) = simple_setup();
        let freq = expression_frequencies([&cond]);
        let solver = AdpllSolver::new();
        let blocked: BTreeSet<VarId> = [v(0, 0), v(2, 0)].into_iter().collect();
        let p = solver.probability(&cond, &dists).unwrap();
        let picked = pick(
            TaskStrategy::Fbs,
            &cond,
            &freq,
            &blocked,
            &solver,
            &dists,
            p,
        )
        .unwrap();
        assert_eq!(picked, Expr::lt(v(1, 0), 1));
        // Everything blocked → no task.
        let all: BTreeSet<VarId> = [v(0, 0), v(1, 0), v(2, 0)].into_iter().collect();
        assert_eq!(
            pick(TaskStrategy::Fbs, &cond, &freq, &all, &solver, &dists, p),
            None
        );
    }

    #[test]
    fn only_open_candidates_cost_a_solve() {
        // x is confined to {0, 1}, so "x < 5" is decided and costs nothing;
        // every other candidate costs exactly one solve (two before the
        // complement identity).
        let (x, y, z) = (v(0, 0), v(1, 0), v(2, 0));
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(x, 5), Expr::lt(y, 4)],
            vec![Expr::gt(z, 3), Expr::var_gt(y, z)],
        ]);
        let dists: VarDists = [
            (x, Pmf::uniform(10).conditioned(0b11).unwrap()),
            (y, Pmf::uniform(10)),
            (z, Pmf::uniform(10)),
        ]
        .into_iter()
        .collect();
        let freq = expression_frequencies([&cond]);
        let solver = AdpllSolver::new();
        let p = solver.probability(&cond, &dists).unwrap();
        let mut scorer = UtilityScorer::new(&solver, &dists, BranchHeuristic::default(), true);
        let picked = select_expression(
            TaskStrategy::Ubs,
            &cond,
            &freq,
            &BTreeSet::new(),
            &mut scorer,
            p,
        )
        .unwrap();
        assert!(picked.is_some());
        let open = cond
            .exprs()
            .filter(|e| {
                let p_e = dists.expr_prob(e).unwrap();
                p_e > f64::EPSILON && p_e < 1.0 - f64::EPSILON
            })
            .count() as u64;
        let tally = scorer.tally();
        assert_eq!(tally.candidates, 4);
        assert_eq!(open, 3);
        assert_eq!(tally.solver_calls, open);
        assert_eq!(tally.fallbacks, 0);
    }

    #[test]
    fn a_failing_solver_falls_back_to_adpll_and_is_counted() {
        let (cond, dists) = simple_setup();
        let freq = expression_frequencies([&cond]);
        let adpll = AdpllSolver::new();
        let p = adpll.probability(&cond, &dists).unwrap();
        let want = pick(
            TaskStrategy::Ubs,
            &cond,
            &freq,
            &BTreeSet::new(),
            &adpll,
            &dists,
            p,
        );
        // A one-state cap makes the naive enumerator reject every solve.
        let capped = NaiveSolver::with_limit(1);
        let mut scorer = UtilityScorer::new(&capped, &dists, BranchHeuristic::default(), true);
        let got = select_expression(
            TaskStrategy::Ubs,
            &cond,
            &freq,
            &BTreeSet::new(),
            &mut scorer,
            p,
        )
        .unwrap();
        assert_eq!(got, want);
        let tally = scorer.tally();
        assert_eq!(tally.fallbacks, tally.candidates);
        // Each candidate: the failed attempt plus the fallback solve.
        assert_eq!(tally.solver_calls, 2 * tally.candidates);
    }

    #[test]
    fn an_error_surviving_the_fallback_is_returned_not_scored_zero() {
        let (cond, mut dists) = simple_setup();
        let freq = expression_frequencies([&cond]);
        dists.remove(v(2, 0));
        let solver = AdpllSolver::new();
        let mut scorer = UtilityScorer::new(&solver, &dists, BranchHeuristic::default(), true);
        let err = select_expression(
            TaskStrategy::Hhs { m: 3 },
            &cond,
            &freq,
            &BTreeSet::new(),
            &mut scorer,
            0.5,
        );
        assert!(err.is_err(), "{err:?}");
        // FBS never scores, so it cannot fail.
        assert!(select_expression(
            TaskStrategy::Fbs,
            &cond,
            &freq,
            &BTreeSet::new(),
            &mut scorer,
            0.5
        )
        .unwrap()
        .is_some());
    }

    #[test]
    fn strategy_names() {
        assert_eq!(TaskStrategy::Fbs.name(), "FBS");
        assert_eq!(TaskStrategy::Ubs.name(), "UBS");
        assert_eq!(TaskStrategy::Hhs { m: 3 }.name(), "HHS");
    }
}
