//! Possible-worlds check of the marginal utility (Definition 6).
//!
//! The solver computes `G(o, e)` from `Pr(φ ∧ e)` and the complement
//! `Pr(φ ∧ ¬e) = Pr(φ) − Pr(φ ∧ e)`, taking `Pr(φ ∧ e)` either from one
//! solve of `φ ∧ e` or from the factor tables of `φ`
//! ([`bc_solver::factored`]). [`utility_matches_worlds`] recomputes
//! every ingredient by brute force — `Pr(φ)`, `Pr(e)`, `Pr(φ ∧ e)` and
//! `Pr(φ ∧ ¬e)` as weighted world counts, with no solver and no complement
//! identity — derives `G` with its own entropy arithmetic, and compares
//! both paths against it.

use crate::diff::exact_ctable;
use crate::gen::Instance;
use crate::prob_close;
use crate::worlds::PossibleWorlds;
use bc_ctable::{Condition, Expr, Operand};
use bc_data::ObjectId;
use bc_solver::factored::Workspace;
use bc_solver::utility::marginal_utility_with_prior;
use bc_solver::{AdpllSolver, NaiveSolver, Solver, VarDists};

/// Weighted world counts for one (object, expression) pair.
#[derive(Default)]
struct Joint {
    phi: f64,
    e: f64,
    phi_and_e: f64,
    phi_and_not_e: f64,
}

/// Binary entropy in bits, written out independently of `bc_bayes`.
fn entropy(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        0.0
    } else {
        -p * p.log2() - (1.0 - p) * (1.0 - p).log2()
    }
}

impl Joint {
    /// `G = H(φ) − Pr(e)·H(φ | e) − Pr(¬e)·H(φ | ¬e)`; zero when `e` is
    /// decided.
    fn utility(&self) -> f64 {
        if self.e <= f64::EPSILON || self.e >= 1.0 - f64::EPSILON {
            return 0.0;
        }
        let not_e = 1.0 - self.e;
        entropy(self.phi)
            - self.e * entropy(self.phi_and_e / self.e)
            - not_e * entropy(self.phi_and_not_e / not_e)
    }
}

/// For every open object of `inst`'s exact c-table and every distinct
/// expression of its condition (var-const and var-var alike), checks that
/// ADPLL's and the naive enumerator's `G(o, e)` — each given its own
/// `Pr(φ)` as the prior, as the framework does — match the possible-worlds
/// value within `eps`.
///
/// It also checks each object's factor tables: their `Pr(φ)` is within
/// `1e-12` of [`AdpllSolver`]'s; every `Pr(φ ∧ e)` read off their outside
/// pass is within `1e-12` of the solve of `φ ∧ e` and within `eps` of the
/// possible worlds; and so is every `G(o, e)` scored off them. Every
/// object's tables are built in one workspace, one after the other, as a
/// session builds them, so what one object leaves in its buffers must not
/// reach the next's values.
pub fn utility_matches_worlds(inst: &Instance, eps: f64) -> Result<UtilityCoverage, String> {
    let ctable = exact_ctable(&inst.data);
    let mut pairs: Vec<(ObjectId, Expr)> = Vec::new();
    for o in ctable.open_objects() {
        let cond = ctable.condition(o);
        let mut exprs: Vec<Expr> = cond.exprs().copied().collect();
        exprs.sort();
        exprs.dedup();
        pairs.extend(exprs.into_iter().map(|e| (o, e)));
    }
    if pairs.is_empty() {
        return Ok(UtilityCoverage::default());
    }

    let mut joints: Vec<Joint> = pairs.iter().map(|_| Joint::default()).collect();
    PossibleWorlds::new()
        .for_each_world(&inst.data, &inst.pmfs, |world, weight| {
            let lookup =
                |v: bc_data::VarId| world.get(v.object, v.attr).expect("world is complete");
            let holds = ctable.eval_world(lookup);
            for (&(o, e), joint) in pairs.iter().zip(joints.iter_mut()) {
                let phi = holds[o.index()];
                let e_holds = e.eval(lookup);
                if phi {
                    joint.phi += weight;
                }
                if e_holds {
                    joint.e += weight;
                }
                match (phi, e_holds) {
                    (true, true) => joint.phi_and_e += weight,
                    (true, false) => joint.phi_and_not_e += weight,
                    _ => {}
                }
            }
            Ok(())
        })
        .map_err(|e| format!("{}: world enumeration failed: {e}", inst.name))?;

    let dists = inst.dists();
    let adpll = AdpllSolver::new();
    let naive = NaiveSolver::default();
    let solvers: [(&str, &dyn Solver); 2] = [("adpll", &adpll), ("naive", &naive)];
    for (&(o, e), joint) in pairs.iter().zip(&joints) {
        let cond: &Condition = ctable.condition(o);
        let want = joint.utility();
        for (name, solver) in solvers {
            let fail = |what: String| format!("{}: {name} on object {o}, `{e}`: {what}", inst.name);
            let p_phi = solver
                .probability(cond, &dists)
                .map_err(|err| fail(format!("Pr(φ) failed: {err}")))?;
            let got = marginal_utility_with_prior(solver, cond, &e, &dists, p_phi)
                .map_err(|err| fail(format!("utility failed: {err}")))?
                .utility;
            if !prob_close(got, want, eps) {
                return Err(fail(format!(
                    "G = {got}, possible worlds say {want} (|Δ| = {:e} > {eps:e})",
                    (got - want).abs()
                )));
            }
        }
    }
    let mut coverage = UtilityCoverage {
        pairs: pairs.len(),
        var_var_on_tables: 0,
    };
    let mut workspace = Workspace::default();
    let mut start = 0;
    while start < pairs.len() {
        let o = pairs[start].0;
        let end = start + pairs[start..].iter().take_while(|(p, _)| *p == o).count();
        coverage.var_var_on_tables += tables_match(
            &mut workspace,
            o,
            ctable.condition(o),
            &pairs[start..end],
            &joints[start..end],
            &dists,
            eps,
        )
        .map_err(|what| format!("{}: factor tables of object {o}: {what}", inst.name))?;
        start = end;
    }
    Ok(coverage)
}

/// What [`utility_matches_worlds`] checked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UtilityCoverage {
    /// (object, expression) pairs, each checked by ADPLL and naive solves.
    pub pairs: usize,
    /// The var-var pairs among them, each also checked off the factor
    /// tables.
    pub var_var_on_tables: usize,
}

/// The factor-table checks of [`utility_matches_worlds`] for object `o`,
/// whose distinct expressions and world counts are `pairs` and `joints`,
/// with its tables built in `workspace`. Returns the number of var-var
/// pairs checked.
fn tables_match(
    workspace: &mut Workspace,
    o: ObjectId,
    cond: &Condition,
    pairs: &[(ObjectId, Expr)],
    joints: &[Joint],
    dists: &VarDists,
    eps: f64,
) -> Result<usize, String> {
    let adpll = AdpllSolver::new();
    let p_phi = adpll
        .probability(cond, dists)
        .map_err(|err| format!("Pr(φ) failed: {err}"))?;
    let (p_tables, _) = workspace
        .probability(o, cond, dists)
        .map_err(|err| format!("Pr(φ) off the tables failed: {err}"))?;
    if !prob_close(p_tables, p_phi, 1e-12) {
        return Err(format!(
            "tables Pr(φ) = {p_tables:e}, the solve says {p_phi:e}"
        ));
    }
    workspace
        .build(o, cond, dists)
        .map_err(|err| format!("tables failed: {err}"))?;
    let mut outside = workspace
        .joints(cond, dists)
        .map_err(|err| format!("outside pass failed: {err}"))?;
    let mut var_var = 0;
    for (&(_, e), joint) in pairs.iter().zip(joints) {
        let got = outside.joint(&e).map_err(|err| format!("`{e}`: {err}"))?;
        var_var += usize::from(matches!(e.rhs(), Operand::Var(_)));
        let solved = adpll
            .probability(&cond.and_expr(e), dists)
            .map_err(|err| format!("`{e}`: Pr(φ ∧ e) failed: {err}"))?;
        if !prob_close(got, solved, 1e-12) {
            return Err(format!(
                "`{e}`: Pr(φ ∧ e) = {got:e} off the tables, {solved:e} by solve"
            ));
        }
        if !prob_close(got, joint.phi_and_e, eps) {
            return Err(format!(
                "`{e}`: Pr(φ ∧ e) = {got:e} off the tables, possible worlds say {:e}",
                joint.phi_and_e
            ));
        }
        let g = outside
            .utility(&e, p_tables)
            .map_err(|err| format!("`{e}`: {err}"))?;
        if !prob_close(g, joint.utility(), eps) {
            return Err(format!(
                "`{e}`: G = {g} off the tables, possible worlds say {}",
                joint.utility()
            ));
        }
    }
    Ok(var_var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_instance, GenConfig};

    #[test]
    fn entropy_matches_the_solver_convention() {
        assert_eq!(entropy(0.0), 0.0);
        assert_eq!(entropy(1.0), 0.0);
        assert!((entropy(0.5) - 1.0).abs() < 1e-15);
        assert!(
            (entropy(0.2) - bc_solver::utility::object_entropy(0.2)).abs() < 1e-15,
            "bits, not nats"
        );
    }

    #[test]
    fn random_instances_pass() {
        let mut checked = 0;
        for seed in 0..40 {
            let inst = random_instance(seed, &GenConfig::default());
            checked += utility_matches_worlds(&inst, 1e-9)
                .unwrap_or_else(|e| panic!("{e}"))
                .pairs;
        }
        assert!(checked > 0, "no open condition in 40 instances");
    }

    #[test]
    fn a_stale_prior_moves_the_utility() {
        // The complement identity needs the fresh Pr(φ): a skewed prior
        // moves G, so the check above would flag a stale cache.
        let inst = (0..)
            .map(|s| random_instance(s, &GenConfig::default()))
            .find(|i| !exact_ctable(&i.data).open_objects().is_empty())
            .unwrap();
        let ct = exact_ctable(&inst.data);
        let o = ct.open_objects()[0];
        let cond = ct.condition(o);
        let dists = inst.dists();
        let s = AdpllSolver::new();
        let p = s.probability(cond, &dists).unwrap();
        let stale = if p < 0.5 { p + 0.25 } else { p - 0.25 };
        let moved = cond.exprs().any(|e| {
            let fresh = marginal_utility_with_prior(&s, cond, e, &dists, p).unwrap();
            let skewed = marginal_utility_with_prior(&s, cond, e, &dists, stale).unwrap();
            fresh.solve.is_some() && (fresh.utility - skewed.utility).abs() > 1e-6
        });
        assert!(moved, "a stale prior went unnoticed on object {o}");
    }
}
