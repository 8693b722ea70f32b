//! Property tests: a compiled ADPLL search agrees with the plain one.
//!
//! On random conditions — var-var expressions, clauses whose expressions
//! share a variable (ADPLL's nested-branch path), pmfs with zero entries,
//! and products that stop early at a zero factor — under both branching
//! heuristics, with component caching on and off:
//!
//! * the circuit's `Pr(φ)` is bit-identical to the plain solve's, and its
//!   search effort is equal;
//! * every var-const `Pr(φ ∧ e)` from the derivative pass, every var-var
//!   one from the derivative pass or the clamped pass, and every utility
//!   built on them, is within `1e-12` of the one-solve reference.
//!
//! And for a circuit kept across random mask narrowings:
//!
//! * re-evaluating it is bit-identical to a plain solve of the compiled
//!   condition under the narrowed pmfs;
//! * its derivatives are bit-identical to those of a fresh compile under
//!   the base pmfs evaluated once under the narrowed ones;
//! * every var-var `Pr(φ ∧ e)` read off it is within `1e-12` of a solve of
//!   `φ ∧ e` under the narrowed pmfs, and reading them leaves its
//!   `Pr(φ)` and derivatives bit-identical;
//! * evaluating a circuit under pmfs wider than its compile's is
//!   [`SolverError::StaleCircuit`] or, when the extra values never mattered
//!   to the search, still a bit-identical replay.

use bc_bayes::Pmf;
use bc_ctable::{CmpOp, Condition, Expr, Operand};
use bc_data::VarId;
use bc_solver::utility::{compile_utilities, marginal_utility_with_prior, CompiledUtilities};
use bc_solver::{
    AdpllSolver, BranchHeuristic, Circuit, ClampScratch, Solver, SolverError, VarDists,
};
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
        let (circuit, compiled) = solver.compile(cond, dists).unwrap();
        prop_assert_eq!(
            circuit.probability().to_bits(),
            p_phi.to_bits(),
            "root of {} under {:?}",
            cond,
            solver
        );
        prop_assert_eq!(compiled, plain, "effort on {}", cond);
        let partials = circuit.partials();
        let utilities = compile_utilities(&solver, cond, dists, p_phi).unwrap();
        let mut scratch = ClampScratch::default();
        let mut exprs: Vec<Expr> = cond.exprs().copied().collect();
        exprs.dedup();
        for e in exprs {
            // Off the derivatives, or for a var-var `e` whose variables
            // the circuit both reads, off the clamped pass.
            let joint = match partials.joint(&e, dists).unwrap() {
                Some(joint) => joint,
                None => circuit.var_var_joint(&e, &mut scratch).unwrap().unwrap(),
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
            let got = utilities.utility(&e, dists, &mut scratch).unwrap().unwrap();
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
    solver.compile(cond, dists).unwrap().0
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
            let mut scratch = ClampScratch::default();
            for e in cond.exprs() {
                let Some(g) = utilities.utility(e, &now, &mut scratch).unwrap() else {
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

/// A condition with at least one var-var expression: [`arb_condition`]'s
/// clauses, one of them extended by `v op w`.
fn arb_var_var_condition() -> impl Strategy<Value = Condition> {
    (
        prop::collection::vec(prop::collection::vec(arb_expr(), 1..4), 1..6),
        0usize..8,
        0..N_VARS,
        arb_op(),
        1..N_VARS,
    )
        .prop_map(|(mut clauses, at, v, op, shift)| {
            let w = (v + shift) % N_VARS;
            let at = at % clauses.len();
            clauses[at].push(Expr::new(var(v), op, Operand::Var(var(w))));
            Condition::from_clauses(clauses)
        })
}

/// For `cond` compiled under the wide `base` pmfs and evaluated after each
/// narrowing, as kept circuits are: every var-var `Pr(φ ∧ e)` the circuit
/// answers is within `1e-12` of a solve of `φ ∧ e` under the narrowed
/// pmfs, and scoring leaves the circuit's `Pr(φ)` and derivatives
/// bit-identical.
fn check_kept_var_var(
    cond: &Condition,
    base: &VarDists,
    narrowings: &[(u32, u64)],
) -> Result<usize, TestCaseError> {
    let var_var: Vec<Expr> = {
        let mut v: Vec<Expr> = cond
            .exprs()
            .filter(|e| e.rhs_var().is_some())
            .copied()
            .collect();
        v.sort();
        v.dedup();
        v
    };
    let mut answered = 0;
    for solver in solvers() {
        let mut kept = compile(&solver, cond, base);
        let mut now = base.clone();
        let mut scratch = ClampScratch::default();
        for &(v, mask) in narrowings {
            if let Some(pmf) = now.pmf(var(v)).unwrap().conditioned(mask) {
                now.insert(var(v), pmf);
            }
            // A product the compile rounded to zero can come back as a
            // few ulps under a narrowing: a session then solves plainly.
            let p_phi = match kept.evaluate(&now) {
                Ok(p) => p,
                Err(SolverError::StaleCircuit) => break,
                Err(other) => return Err(TestCaseError::fail(other.to_string())),
            };
            let (bits, derivatives) = (kept.probability().to_bits(), conditional_bits(&kept, cond));
            let utilities = CompiledUtilities::of_circuit(&kept, p_phi).unwrap();
            for e in &var_var {
                let Some(joint) = kept.var_var_joint(e, &mut scratch).unwrap() else {
                    continue;
                };
                answered += 1;
                let solved = solver.probability(&cond.and_expr(*e), &now).unwrap();
                prop_assert!(
                    (joint - solved).abs() <= 1e-12,
                    "Pr(φ ∧ {}) on {} under {:?}: {} clamped, {} by solve",
                    e,
                    cond,
                    solver,
                    joint,
                    solved
                );
                let g = utilities.utility(e, &now, &mut scratch).unwrap();
                prop_assert!(g.is_some(), "G({}) on {} needs a solve", e, cond);
            }
            prop_assert_eq!(kept.probability().to_bits(), bits);
            prop_assert_eq!(conditional_bits(&kept, cond), derivatives);
        }
    }
    Ok(answered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn var_var_joints_off_kept_circuits_match_solves(
        cond in arb_var_var_condition(),
        base in arb_dists(),
        narrowings in arb_narrowings(),
    ) {
        check_kept_var_var(&cond, &base, &narrowings)?;
    }
}

/// The generator above reaches the clamped passes: most cases keep a
/// var-var expression both of whose variables the circuit reads.
#[test]
fn the_var_var_generator_reaches_the_clamped_passes() {
    let mut runner = proptest::TestRunner::new(ProptestConfig::with_cases(100), "reach");
    let strategy = (arb_var_var_condition(), arb_dists(), arb_narrowings());
    let mut answered = 0;
    for _ in 0..100 {
        let (cond, base, narrowings) = strategy.generate(runner.rng());
        answered += check_kept_var_var(&cond, &base, &narrowings).unwrap();
    }
    assert!(
        answered > 200,
        "only {answered} var-var joints read off circuits"
    );
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
