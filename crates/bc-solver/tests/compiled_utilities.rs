//! Property tests: a compiled ADPLL search agrees with the plain one.
//!
//! On random conditions — var-var expressions, clauses whose expressions
//! share a variable (ADPLL's nested-branch path), pmfs with zero entries,
//! and products that stop early at a zero factor — under both branching
//! heuristics, with component caching on and off:
//!
//! * the circuit's `Pr(φ)` is bit-identical to the plain solve's, and its
//!   search effort is equal;
//! * every var-const `Pr(φ ∧ e)` from the derivative pass, and every
//!   utility built on it, is within `1e-12` of the one-solve reference.
//!
//! And for a circuit kept across random mask narrowings:
//!
//! * re-evaluating it is bit-identical to a plain solve of the compiled
//!   condition under the narrowed pmfs;
//! * its derivatives are bit-identical to those of a fresh compile under
//!   the base pmfs evaluated once under the narrowed ones;
//! * evaluating a circuit under pmfs wider than its compile's is
//!   [`SolverError::StaleCircuit`] or, when the extra values never mattered
//!   to the search, still a bit-identical replay.

use bc_bayes::Pmf;
use bc_ctable::{CmpOp, Condition, Expr, Operand};
use bc_data::VarId;
use bc_solver::utility::{compile_utilities, marginal_utility_with_prior, CompiledUtilities};
use bc_solver::{AdpllSolver, BranchHeuristic, Circuit, Solver, SolverError, VarDists};
use proptest::prelude::*;

const N_VARS: u32 = 5;
const CARD: usize = 5;

fn var(i: u32) -> VarId {
    VarId::new(i, 0)
}

fn arb_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
    ]
}

/// An expression over the variable pool: var-var about one time in three,
/// constants up to one past the domain.
fn arb_expr() -> impl Strategy<Value = Expr> {
    (
        0..N_VARS,
        arb_op(),
        0..N_VARS,
        any::<bool>(),
        0..CARD as u16 + 1,
    )
        .prop_map(|(v, op, w, var_var, c)| {
            if var_var && w != v {
                Expr::new(var(v), op, Operand::Var(var(w)))
            } else {
                Expr::new(var(v), op, Operand::Const(c))
            }
        })
}

fn arb_condition() -> impl Strategy<Value = Condition> {
    prop::collection::vec(prop::collection::vec(arb_expr(), 1..4), 1..6)
        .prop_map(Condition::from_clauses)
}

/// Pmfs over the pool, each weight zero with probability about 1/3 (but
/// never all of one variable's).
fn arb_dists() -> impl Strategy<Value = VarDists> {
    let weight = prop_oneof![Just(0.0), 0.05f64..1.0, 0.05f64..1.0];
    prop::collection::vec(prop::collection::vec(weight, CARD), N_VARS as usize).prop_map(
        |weights| {
            weights
                .into_iter()
                .enumerate()
                .map(|(i, mut w)| {
                    if w.iter().all(|&x| x == 0.0) {
                        w[i % CARD] = 1.0;
                    }
                    (var(i as u32), Pmf::from_weights(w))
                })
                .collect()
        },
    )
}

/// The four search configurations.
fn solvers() -> Vec<AdpllSolver> {
    let mut out = Vec::new();
    for heuristic in [BranchHeuristic::MostFrequent, BranchHeuristic::First] {
        for caching in [true, false] {
            out.push(AdpllSolver::with_heuristic(heuristic).with_caching(caching));
        }
    }
    out
}

/// Checks every claim of the module docs for `cond` under `dists`.
fn check(cond: &Condition, dists: &VarDists) -> Result<(), TestCaseError> {
    for solver in solvers() {
        let (p_phi, plain) = solver.probability_with_stats(cond, dists).unwrap();
        let (circuit, compiled) = solver.compile(cond, dists).unwrap().unwrap();
        prop_assert_eq!(
            circuit.probability().to_bits(),
            p_phi.to_bits(),
            "root of {} under {:?}",
            cond,
            solver
        );
        prop_assert_eq!(compiled, plain, "effort on {}", cond);
        let partials = circuit.partials();
        let utilities = compile_utilities(&solver, cond, dists, p_phi)
            .unwrap()
            .unwrap();
        let mut exprs: Vec<Expr> = cond.exprs().copied().collect();
        exprs.dedup();
        for e in exprs {
            let Some(joint) = partials.joint(&e, dists).unwrap() else {
                prop_assert!(utilities.utility(&e, dists).unwrap().is_none());
                continue;
            };
            let solved = solver.probability(&cond.and_expr(e), dists).unwrap();
            prop_assert!(
                (joint - solved).abs() <= 1e-12,
                "Pr(φ ∧ {}) on {}: {} by derivatives, {} by solve",
                e,
                cond,
                joint,
                solved
            );
            let got = utilities.utility(&e, dists).unwrap().unwrap();
            let want = marginal_utility_with_prior(&solver, cond, &e, dists, p_phi)
                .unwrap()
                .utility;
            prop_assert!(
                (got - want).abs() <= 1e-12,
                "G({}) on {}: compiled {}, one-solve {}",
                e,
                cond,
                got,
                want
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn compiled_utilities_match_one_solve_each(
        cond in arb_condition(),
        dists in arb_dists(),
    ) {
        check(&cond, &dists)?;
    }
}

/// A sequence of narrowings: each keeps the values of one variable's mask.
fn arb_narrowings() -> impl Strategy<Value = Vec<(u32, u64)>> {
    prop::collection::vec((0..N_VARS, 1u64..(1 << CARD)), 1..5)
}

fn compile(solver: &AdpllSolver, cond: &Condition, dists: &VarDists) -> Circuit {
    solver.compile(cond, dists).unwrap().unwrap().0
}

/// Bit patterns of every conditional of `circuit` over `cond`'s variables.
fn conditional_bits(circuit: &Circuit, cond: &Condition) -> Vec<Option<Vec<u64>>> {
    let partials = circuit.partials();
    cond.vars()
        .into_iter()
        .map(|v| {
            partials
                .conditional(v)
                .map(|g| g.iter().map(|x| x.to_bits()).collect())
        })
        .collect()
}

/// Checks the kept-circuit claims of the module docs for `cond`, compiled
/// under `base` and re-evaluated after each narrowing in turn.
fn check_kept(
    cond: &Condition,
    base: &VarDists,
    narrowings: &[(u32, u64)],
) -> Result<(), TestCaseError> {
    for solver in solvers() {
        let mut kept = compile(&solver, cond, base);
        let mut now = base.clone();
        for &(v, mask) in narrowings {
            let Some(pmf) = now.pmf(var(v)).unwrap().conditioned(mask) else {
                continue;
            };
            now.insert(var(v), pmf);
            let want = solver.probability(cond, &now).unwrap();
            let got = kept.evaluate(&now).unwrap();
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{} under {:?}", cond, solver);
            let mut fresh = compile(&solver, cond, base);
            prop_assert_eq!(fresh.evaluate(&now).unwrap().to_bits(), want.to_bits());
            prop_assert_eq!(
                conditional_bits(&kept, cond),
                conditional_bits(&fresh, cond)
            );
            let utilities = CompiledUtilities::of_circuit(&kept, want).unwrap();
            for e in cond.exprs() {
                let Some(g) = utilities.utility(e, &now).unwrap() else {
                    continue;
                };
                let one = marginal_utility_with_prior(&solver, cond, e, &now, want)
                    .unwrap()
                    .utility;
                prop_assert!(
                    (g - one).abs() <= 1e-12,
                    "G({}) on {}: {} vs {}",
                    e,
                    cond,
                    g,
                    one
                );
            }
        }
        // The other way round: compiled under the narrowed pmfs, evaluated
        // under the base ones.
        let mut narrow = compile(&solver, cond, &now);
        match narrow.evaluate(base) {
            Err(SolverError::StaleCircuit) => {}
            Ok(p) => {
                let want = solver.probability(cond, base).unwrap();
                prop_assert_eq!(p.to_bits(), want.to_bits(), "widened {}", cond);
            }
            Err(other) => prop_assert!(false, "widened {}: {}", cond, other),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn kept_circuits_replay_narrowed_solves(
        cond in arb_condition(),
        base in arb_dists(),
        narrowings in arb_narrowings(),
    ) {
        check_kept(&cond, &base, &narrowings)?;
    }
}

fn uniform_except(zero: usize) -> Pmf {
    let mut w = vec![1.0; CARD];
    w[zero] = 0.0;
    Pmf::from_weights(w)
}

/// In the branch `x = 0` the residual `(y = 1) ∧ (z < 2)` splits into two
/// components, and `y = 1` has probability zero: the product stops before
/// it reaches `z`, so the circuit never records `z` under that branch.
#[test]
fn a_zero_product_early_exit_keeps_the_derivatives_exact() {
    let (x, y, z) = (var(0), var(1), var(2));
    let cond = Condition::from_clauses(vec![
        vec![Expr::gt(x, 0), Expr::new(y, CmpOp::Eq, Operand::Const(1))],
        vec![Expr::gt(x, 0), Expr::lt(z, 2)],
    ]);
    let dists: VarDists = [
        (x, Pmf::uniform(CARD)),
        (y, uniform_except(1)),
        (z, Pmf::from_weights(vec![1.0, 2.0, 0.0, 3.0, 1.0])),
    ]
    .into_iter()
    .collect();
    check(&cond, &dists).unwrap();
    // x = 0 is the only branch that reaches z, and it stops at y's zero
    // factor: the circuit never mentions z, so Pr(φ | z = a) = Pr(φ).
    let partials = AdpllSolver::new()
        .compile(&cond, &dists)
        .unwrap()
        .unwrap()
        .0
        .partials();
    assert_eq!(partials.conditional(z), None);
    assert!(partials.conditional(y).is_some());
}

/// A clause whose expressions share a variable is branched on inside the
/// disjunctive rule's place; its nodes still differentiate exactly.
#[test]
fn a_clause_with_a_shared_variable_differentiates_exactly() {
    let (x, y) = (var(0), var(1));
    let cond = Condition::from_clauses(vec![
        vec![Expr::lt(x, 1), Expr::gt(x, 3), Expr::var_gt(y, x)],
        vec![Expr::lt(y, 4)],
    ]);
    let dists: VarDists = [
        (x, Pmf::from_weights(vec![1.0, 0.5, 0.0, 2.0, 1.5])),
        (y, Pmf::from_weights(vec![0.0, 1.0, 1.0, 3.0, 1.0])),
    ]
    .into_iter()
    .collect();
    check(&cond, &dists).unwrap();
}

#[test]
fn a_stale_prior_is_a_typed_error() {
    let (x, y) = (var(0), var(1));
    let cond = Condition::from_clauses(vec![vec![Expr::lt(x, 2), Expr::gt(y, 2)]]);
    let dists: VarDists = [(x, Pmf::uniform(CARD)), (y, Pmf::uniform(CARD))]
        .into_iter()
        .collect();
    let solver = AdpllSolver::new();
    let fresh = solver.probability(&cond, &dists).unwrap();
    let cached = fresh - 0.1;
    assert_eq!(
        compile_utilities(&solver, &cond, &dists, cached).unwrap_err(),
        SolverError::StalePrior { cached, fresh }
    );
    // One ulp off is stale too: the check compares bits.
    let ulp = f64::from_bits(fresh.to_bits() + 1);
    assert!(compile_utilities(&solver, &cond, &dists, ulp).is_err());
    assert!(compile_utilities(&solver, &cond, &dists, fresh).is_ok());
}
