//! Object entropy and the marginal-utility function (Definition 6).
//!
//! `G(o, e) = H(o) − E[H(o | e)]` needs three probabilities:
//!
//! * `Pr(e)`, read off the variable distributions (no solve),
//! * `Pr(φ ∧ e)`,
//! * `Pr(φ ∧ ¬e) = Pr(φ) − Pr(φ ∧ e)`, clamped to `[0, 1]` (no solve).
//!
//! A candidate whose `Pr(e)` is (within `f64::EPSILON`) 0 or 1 is decided:
//! its utility is zero and costs nothing. For the open ones, `Pr(φ ∧ e)`
//! comes one of two ways:
//!
//! * a session reads it off the factor tables of `φ`
//!   ([`crate::factored::Joints::utility`]): one pass per object, and
//!   nothing per candidate after it;
//! * [`marginal_utility_with_prior`] solves `φ` with the unit clause `[e]`
//!   conjoined: one solver call per candidate. Any solver's reference
//!   utility takes this path.
//!
//! **Precondition.** The `p_phi` passed in must be `Pr(φ)` under the
//! *same* `dists`; a stale one silently skews the utility.

use crate::adpll::SolveStats;
use crate::dists::VarDists;
use crate::{Solver, SolverError};
use bc_bayes::pmf::binary_entropy;
use bc_ctable::{Condition, Expr};

/// The entropy `H(o)` of an object whose condition holds with probability
/// `p` (Eq. 3): maximal at a fair coin flip, zero when decided.
pub fn object_entropy(p: f64) -> f64 {
    binary_entropy(p)
}

/// One marginal-utility evaluation plus the solver effort behind it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct UtilityEval {
    /// `G(o, e)`.
    pub utility: f64,
    /// Effort of the one `Pr(φ ∧ e)` solve; `None` when `e` was already
    /// decided and nothing was solved.
    pub solve: Option<SolveStats>,
}

/// The expected marginal utility `G(o, e) = H(o) − E[H(o | e)]` of
/// crowdsourcing expression `e` from condition `φ(o)` (Eq. 4/5), by one
/// `Pr(φ ∧ e)` solve, plus the solver effort it took. `p_phi` is `Pr(φ)`,
/// which the framework computes once per round for the entropy ranking;
/// it must be `Pr(φ)` under `dists` (see the module docs). When `e` is
/// (probabilistically) already decided, the utility is zero and nothing
/// is solved.
pub fn marginal_utility_with_prior(
    solver: &dyn Solver,
    cond: &Condition,
    e: &Expr,
    dists: &VarDists,
    p_phi: f64,
) -> Result<UtilityEval, SolverError> {
    let p_e = dists.expr_prob(e)?;
    if !is_open(p_e) {
        return Ok(UtilityEval::default());
    }
    let (p_and_true, stats) = solver.probability_with_stats(&cond.and_expr(*e), dists)?;
    let p_and_false = (p_phi - p_and_true).clamp(0.0, 1.0);
    Ok(UtilityEval {
        utility: utility_from_joint(p_phi, p_e, p_and_true, p_and_false),
        solve: Some(stats),
    })
}

/// Whether an expression with probability `p_e` is open: strictly inside
/// `(0, 1)` by more than `f64::EPSILON`. Only open candidates cost work.
pub fn is_open(p_e: f64) -> bool {
    p_e > f64::EPSILON && p_e < 1.0 - f64::EPSILON
}

/// `G` from `Pr(φ)`, `Pr(e)` (strictly inside `(0, 1)`), `Pr(φ ∧ e)` and
/// `Pr(φ ∧ ¬e)`.
pub(crate) fn utility_from_joint(p_phi: f64, p_e: f64, p_and_true: f64, p_and_false: f64) -> f64 {
    let p_true = (p_and_true / p_e).clamp(0.0, 1.0);
    let p_false = (p_and_false / (1.0 - p_e)).clamp(0.0, 1.0);
    let expected = p_e * binary_entropy(p_true) + (1.0 - p_e) * binary_entropy(p_false);
    (object_entropy(p_phi) - expected).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdpllSolver;
    use bc_bayes::Pmf;
    use bc_data::VarId;
    use std::cell::Cell;

    fn v(o: u32, a: u16) -> VarId {
        VarId::new(o, a)
    }

    /// ADPLL that counts how often it is asked to solve.
    struct CountingSolver {
        inner: AdpllSolver,
        calls: Cell<u64>,
    }

    impl Solver for CountingSolver {
        fn probability(&self, cond: &Condition, dists: &VarDists) -> Result<f64, SolverError> {
            self.calls.set(self.calls.get() + 1);
            self.inner.probability(cond, dists)
        }

        fn probability_with_stats(
            &self,
            cond: &Condition,
            dists: &VarDists,
        ) -> Result<(f64, SolveStats), SolverError> {
            self.calls.set(self.calls.get() + 1);
            self.inner.probability_with_stats(cond, dists)
        }

        fn name(&self) -> &'static str {
            "counting"
        }
    }

    /// The pre-identity formula: `Pr(φ ∧ e)` and `Pr(φ ∧ ¬e)` both solved.
    fn two_solve_utility(s: &dyn Solver, cond: &Condition, e: &Expr, d: &VarDists) -> f64 {
        let p_phi = s.probability(cond, d).unwrap();
        let p_e = d.expr_prob(e).unwrap();
        if p_e <= f64::EPSILON || p_e >= 1.0 - f64::EPSILON {
            return 0.0;
        }
        let p_and_true = s.probability(&cond.and_expr(*e), d).unwrap();
        let p_and_false = s.probability(&cond.and_expr(e.negated()), d).unwrap();
        utility_from_joint(p_phi, p_e, p_and_true, p_and_false)
    }

    /// The one-solve utility of every expression of `cond` equals the
    /// two-solve reference within 1e-12.
    fn assert_identity(cond: &Condition, d: &VarDists) {
        let s = AdpllSolver::new();
        let p_phi = s.probability(cond, d).unwrap();
        for e in cond.exprs() {
            let one = marginal_utility_with_prior(&s, cond, e, d, p_phi)
                .unwrap()
                .utility;
            let two = two_solve_utility(&s, cond, e, d);
            assert!(
                (one - two).abs() <= 1e-12,
                "{e} in {cond}: one-solve {one} vs two-solve {two}"
            );
        }
    }

    #[test]
    fn entropy_peaks_at_half() {
        assert!(object_entropy(0.5) > object_entropy(0.3));
        assert!(object_entropy(0.3) > object_entropy(0.05));
        assert_eq!(object_entropy(0.0), 0.0);
        assert_eq!(object_entropy(1.0), 0.0);
    }

    #[test]
    fn resolving_the_only_expression_removes_all_uncertainty() {
        // φ = (x < 5), x uniform over 10 → H(o) = 1 bit; knowing e's truth
        // decides φ, so the utility equals the full entropy.
        let x = v(0, 0);
        let e = Expr::lt(x, 5);
        let cond = Condition::from_clauses(vec![vec![e]]);
        let d: VarDists = [(x, Pmf::uniform(10))].into_iter().collect();
        let s = AdpllSolver::new();
        let p = s.probability(&cond, &d).unwrap();
        let g = marginal_utility_with_prior(&s, &cond, &e, &d, p).unwrap();
        assert!((g.utility - 1.0).abs() < 1e-9, "got {}", g.utility);
    }

    #[test]
    fn informative_expressions_score_higher() {
        // φ = (x < 5 ∨ y < 1), y uniform over 10.
        // Asking x (big swing) beats asking y (rarely flips anything).
        let x = v(0, 0);
        let y = v(1, 0);
        let ex = Expr::lt(x, 5);
        let ey = Expr::lt(y, 1);
        let cond = Condition::from_clauses(vec![vec![ex, ey]]);
        let d: VarDists = [(x, Pmf::uniform(10)), (y, Pmf::uniform(10))]
            .into_iter()
            .collect();
        let s = AdpllSolver::new();
        let p = s.probability(&cond, &d).unwrap();
        let gx = marginal_utility_with_prior(&s, &cond, &ex, &d, p)
            .unwrap()
            .utility;
        let gy = marginal_utility_with_prior(&s, &cond, &ey, &d, p)
            .unwrap()
            .utility;
        assert!(gx > gy, "G(x)={gx} should beat G(y)={gy}");
    }

    #[test]
    fn decided_expression_has_zero_utility() {
        let x = v(0, 0);
        // x only takes values {0,1} → "x < 5" is certain.
        let e = Expr::lt(x, 5);
        let cond = Condition::from_clauses(vec![vec![e, Expr::gt(v(1, 0), 3)]]);
        let d: VarDists = [
            (x, Pmf::uniform(10).conditioned(0b11).unwrap()),
            (v(1, 0), Pmf::uniform(10)),
        ]
        .into_iter()
        .collect();
        let s = AdpllSolver::new();
        // A decided expression has zero utility and costs no solve at all.
        let p = s.probability(&cond, &d).unwrap();
        let eval = marginal_utility_with_prior(&s, &cond, &e, &d, p).unwrap();
        assert_eq!(eval, UtilityEval::default());
    }

    #[test]
    fn open_expression_costs_exactly_one_solve() {
        let x = v(0, 0);
        let y = v(1, 0);
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(x, 3), Expr::var_gt(x, y)],
            vec![Expr::gt(y, 1), Expr::lt(x, 6)],
        ]);
        let d: VarDists = [(x, Pmf::uniform(8)), (y, Pmf::uniform(8))]
            .into_iter()
            .collect();
        let s = CountingSolver {
            inner: AdpllSolver::new(),
            calls: Cell::new(0),
        };
        let p = s.probability(&cond, &d).unwrap();
        for e in cond.exprs() {
            s.calls.set(0);
            let eval = marginal_utility_with_prior(&s, &cond, e, &d, p).unwrap();
            assert_eq!(s.calls.get(), 1, "{e}");
            assert!(eval.solve.is_some(), "{e}");
        }
    }

    #[test]
    fn utility_never_exceeds_entropy() {
        let x = v(0, 0);
        let y = v(1, 0);
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(x, 3), Expr::gt(y, 6)],
            vec![Expr::gt(x, 0)],
        ]);
        let d: VarDists = [(x, Pmf::uniform(8)), (y, Pmf::uniform(8))]
            .into_iter()
            .collect();
        let s = AdpllSolver::new();
        let p = s.probability(&cond, &d).unwrap();
        let h = object_entropy(p);
        for e in cond.exprs() {
            let g = marginal_utility_with_prior(&s, &cond, e, &d, p)
                .unwrap()
                .utility;
            assert!(g <= h + 1e-9, "G={g} exceeds H={h}");
            assert!(g >= 0.0);
        }
    }

    #[test]
    fn one_solve_matches_two_solves_on_var_const_conditions() {
        let (x, y, z) = (v(0, 0), v(1, 0), v(2, 0));
        let d: VarDists = [
            (x, Pmf::uniform(6)),
            (y, Pmf::from_weights(vec![5.0, 1.0, 1.0, 2.0, 0.5, 3.0])),
            (z, Pmf::from_weights(vec![0.2, 4.0, 1.0, 1.0, 1.0, 0.3])),
        ]
        .into_iter()
        .collect();
        for cond in [
            Condition::from_clauses(vec![vec![Expr::lt(x, 3)]]),
            Condition::from_clauses(vec![vec![Expr::lt(x, 3), Expr::gt(y, 2)]]),
            Condition::from_clauses(vec![
                vec![Expr::lt(x, 4), Expr::gt(y, 1)],
                vec![Expr::gt(z, 2)],
                vec![Expr::lt(y, 5), Expr::gt(x, 0), Expr::lt(z, 4)],
            ]),
        ] {
            assert_identity(&cond, &d);
        }
    }

    #[test]
    fn one_solve_matches_two_solves_on_var_var_conditions() {
        let (x, y, z) = (v(0, 0), v(1, 0), v(2, 0));
        let d: VarDists = [
            (x, Pmf::from_weights(vec![1.0, 2.0, 3.0, 4.0, 5.0])),
            (y, Pmf::uniform(5)),
            (z, Pmf::from_weights(vec![3.0, 0.5, 0.5, 2.0, 1.0])),
        ]
        .into_iter()
        .collect();
        for cond in [
            Condition::from_clauses(vec![vec![Expr::var_gt(x, y)]]),
            Condition::from_clauses(vec![
                vec![Expr::var_gt(x, y), Expr::lt(z, 2)],
                vec![Expr::var_gt(z, x), Expr::gt(y, 1)],
            ]),
        ] {
            assert_identity(&cond, &d);
        }
    }

    #[test]
    fn one_solve_matches_two_solves_when_e_subsumes_its_clauses() {
        // `x < 2` appears in two clauses; conjoining the unit clause [x < 2]
        // subsumes both, so φ ∧ e collapses to [x < 2] ∧ (z > 1) while
        // φ ∧ ¬e keeps every clause.
        let (x, y, z) = (v(0, 0), v(1, 0), v(2, 0));
        let e = Expr::lt(x, 2);
        let cond = Condition::from_clauses(vec![
            vec![e, Expr::gt(y, 3)],
            vec![e, Expr::var_gt(y, z)],
            vec![Expr::gt(z, 1)],
        ]);
        let conjoined = cond.and_expr(e);
        assert_eq!(conjoined.clauses().len(), 2, "{conjoined}");
        let d: VarDists = [
            (x, Pmf::uniform(5)),
            (y, Pmf::from_weights(vec![1.0, 1.0, 2.0, 3.0, 1.0])),
            (z, Pmf::uniform(5)),
        ]
        .into_iter()
        .collect();
        assert_identity(&cond, &d);
    }
}
