//! Property tests: the three probability solvers agree.
//!
//! ADPLL is the paper's contribution; Naive enumeration is ground truth by
//! construction. On arbitrary random conditions and distributions the two
//! must agree exactly (they are both exact), and Monte-Carlo must land
//! nearby. Also checks the complement law, the complement identity the
//! marginal utility relies on, and branching-heuristic independence.

use bc_bayes::Pmf;
use bc_ctable::{CmpOp, Condition, Expr, Operand};
use bc_data::VarId;
use bc_solver::{AdpllSolver, BranchHeuristic, MonteCarloSolver, NaiveSolver, Solver, VarDists};
use proptest::prelude::*;

const N_VARS: u32 = 5;
const CARD: usize = 4;

fn var(i: u32) -> VarId {
    VarId::new(i, 0)
}

/// An arbitrary expression over the fixed variable pool.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let ops = prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
    ];
    (0..N_VARS, ops, 0..(N_VARS + CARD as u32)).prop_map(|(v, op, rhs)| {
        if rhs < N_VARS && rhs != v {
            Expr::new(var(v), op, Operand::Var(var(rhs)))
        } else {
            let c = (rhs % CARD as u32) as u16;
            Expr::new(var(v), op, Operand::Const(c))
        }
    })
}

fn arb_condition() -> impl Strategy<Value = Condition> {
    prop::collection::vec(prop::collection::vec(arb_expr(), 1..4), 1..4)
        .prop_map(Condition::from_clauses)
}

fn arb_dists() -> impl Strategy<Value = VarDists> {
    prop::collection::vec(prop::collection::vec(0.01f64..1.0, CARD), N_VARS as usize).prop_map(
        |weights| {
            weights
                .into_iter()
                .enumerate()
                .map(|(i, w)| (var(i as u32), Pmf::from_weights(w)))
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn adpll_equals_naive(cond in arb_condition(), dists in arb_dists()) {
        let naive = NaiveSolver::new().probability(&cond, &dists).unwrap();
        let adpll = AdpllSolver::new().probability(&cond, &dists).unwrap();
        bc_oracle::assert_prob_close!(naive, adpll, 1e-9, "naive vs adpll on {}", cond);
    }

    #[test]
    fn component_caching_is_transparent(cond in arb_condition(), dists in arb_dists()) {
        let cached = AdpllSolver::new().probability(&cond, &dists).unwrap();
        let uncached = AdpllSolver::new()
            .with_caching(false)
            .probability(&cond, &dists)
            .unwrap();
        bc_oracle::assert_prob_close!(cached, uncached, 1e-9, "caching changed the result");
    }

    #[test]
    fn branching_heuristics_agree(cond in arb_condition(), dists in arb_dists()) {
        let a = AdpllSolver::with_heuristic(BranchHeuristic::MostFrequent)
            .probability(&cond, &dists)
            .unwrap();
        let b = AdpllSolver::with_heuristic(BranchHeuristic::First)
            .probability(&cond, &dists)
            .unwrap();
        bc_oracle::assert_prob_close!(a, b, 1e-9, "branch heuristics disagree");
    }

    #[test]
    fn probabilities_are_probabilities(cond in arb_condition(), dists in arb_dists()) {
        let p = AdpllSolver::new().probability(&cond, &dists).unwrap();
        prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
    }

    #[test]
    fn unit_complement_law(e in arb_expr(), dists in arb_dists()) {
        // Pr(e) + Pr(¬e) = 1 for single expressions.
        let p = dists.expr_prob(&e).unwrap();
        let q = dists.expr_prob(&e.negated()).unwrap();
        bc_oracle::assert_prob_close!(p + q, 1.0, 1e-9, "complement law for {}", e);
    }

    #[test]
    fn conjoining_an_expression_never_increases_probability(
        cond in arb_condition(),
        e in arb_expr(),
        dists in arb_dists(),
    ) {
        let s = AdpllSolver::new();
        let p = s.probability(&cond, &dists).unwrap();
        let p_and = s.probability(&cond.and_expr(e), &dists).unwrap();
        prop_assert!(p_and <= p + 1e-9, "Pr(φ∧e)={p_and} > Pr(φ)={p}");
    }

    #[test]
    fn total_probability_over_expression(
        cond in arb_condition(),
        e in arb_expr(),
        dists in arb_dists(),
    ) {
        // Pr(φ) = Pr(φ ∧ e) + Pr(φ ∧ ¬e).
        let s = NaiveSolver::new();
        let p = s.probability(&cond, &dists).unwrap();
        let pt = s.probability(&cond.and_expr(e), &dists).unwrap();
        let pf = s.probability(&cond.and_expr(e.negated()), &dists).unwrap();
        bc_oracle::assert_prob_close!(p, pt + pf, 1e-9, "total probability over {}", e);
    }

    #[test]
    fn complement_identity_adpll_against_naive(
        cond in arb_condition(),
        e in arb_expr(),
        dists in arb_dists(),
    ) {
        // The identity the marginal utility relies on:
        // Pr(φ ∧ e) + Pr(φ ∧ ¬e) = Pr(φ), with Pr(φ) and Pr(φ ∧ e) from
        // ADPLL and Pr(φ ∧ ¬e) solved directly by naive enumeration.
        let adpll = AdpllSolver::new();
        let p = adpll.probability(&cond, &dists).unwrap();
        let pt = adpll.probability(&cond.and_expr(e), &dists).unwrap();
        let pf = NaiveSolver::new()
            .probability(&cond.and_expr(e.negated()), &dists)
            .unwrap();
        bc_oracle::assert_prob_close!(pt + pf, p, 1e-9, "complement identity over {} in {}", e, cond);
    }

    #[test]
    fn substitution_is_total_probability(
        cond in arb_condition(),
        dists in arb_dists(),
        v_idx in 0..N_VARS,
    ) {
        // Pr(φ) = Σ_a p(v = a) · Pr(φ[v := a]).
        let v = var(v_idx);
        let s = NaiveSolver::new();
        let p = s.probability(&cond, &dists).unwrap();
        let pmf = dists.pmf(v).unwrap().clone();
        let mut total = 0.0;
        for a in pmf.support() {
            total += pmf.p(a) * s.probability(&cond.substitute(v, a), &dists).unwrap();
        }
        bc_oracle::assert_prob_close!(p, total, 1e-9, "substitution of {}", v);
    }

    #[test]
    fn utility_is_bounded_by_entropy(
        cond in arb_condition(),
        dists in arb_dists(),
    ) {
        let s = AdpllSolver::new();
        let p = s.probability(&cond, &dists).unwrap();
        let h = bc_solver::utility::object_entropy(p);
        for e in cond.exprs() {
            let g = bc_solver::utility::marginal_utility_with_prior(&s, &cond, e, &dists, p)
                .unwrap()
                .utility;
            prop_assert!(g >= 0.0, "negative utility {g}");
            prop_assert!(g <= h + 1e-9, "G={g} > H={h}");
        }
    }
}

/// The shrunk case recorded in `solver_equivalence.proptest-regressions`:
/// `(Var(o1, a0) < 4)` compares against the domain cardinality itself, so
/// every solver must saturate at exactly 1.0 — the `pr_lt` boundary. The
/// vendored proptest stand-in does not replay regression files, so the
/// case is re-run explicitly here; the same shape is committed to the
/// oracle fuzz corpus as `reg-boundary-const.bcsnap` (see
/// `bc_oracle::corpus`).
#[test]
fn regression_boundary_constant_comparison() {
    let skew = Pmf::from_probs(vec![
        0.5093092101391585,
        0.00743283030467129,
        0.3598544550106761,
        0.12340350454549417,
    ]);
    let dists: VarDists = (0..N_VARS)
        .map(|i| {
            let pmf = if i == 1 {
                skew.clone()
            } else {
                Pmf::uniform(CARD)
            };
            (var(i), pmf)
        })
        .collect();
    let cond = Condition::from_clauses(vec![vec![Expr::lt(var(1), CARD as u16)]]);
    for (name, p) in [
        ("naive", NaiveSolver::new().probability(&cond, &dists)),
        ("adpll", AdpllSolver::new().probability(&cond, &dists)),
    ] {
        bc_oracle::assert_prob_close!(p.unwrap(), 1.0, 0.0, "{} at the domain boundary", name);
    }
    // The complement (`>= card`) must be exactly impossible.
    let none = Condition::from_clauses(vec![vec![Expr::new(
        var(1),
        CmpOp::Ge,
        Operand::Const(CARD as u16),
    )]]);
    bc_oracle::assert_prob_close!(
        AdpllSolver::new().probability(&none, &dists).unwrap(),
        0.0,
        0.0,
        "complement at the domain boundary"
    );
}

#[test]
fn montecarlo_is_consistent() {
    // Not a proptest (sampling is slow); spot-check convergence on a fixed
    // family of conditions.
    let dists: VarDists = (0..N_VARS)
        .map(|i| (var(i), Pmf::from_weights(vec![1.0, 2.0, 3.0, 4.0])))
        .collect();
    for k in 0..5u16 {
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(var(0), k % 4), Expr::var_gt(var(1), var(2))],
            vec![Expr::gt(var(3), k % 3)],
        ]);
        let exact = NaiveSolver::new().probability(&cond, &dists).unwrap();
        let est = MonteCarloSolver::new(40_000, 9)
            .probability(&cond, &dists)
            .unwrap();
        bc_oracle::assert_prob_close!(exact, est, 0.015, "k={}: Monte Carlo drifted", k);
    }
}
