//! Task-selection strategies (Section 6.2): FBS, UBS, HHS.

use crate::config::Checked;
use bc_ctable::{Condition, Expr};
use bc_data::{FxMap, ObjectId, VarId};
use bc_solver::utility::{
    compile_utilities, is_open, marginal_utility_with_prior, CompiledUtilities,
};
use bc_solver::{Circuit, ClampScratch, SolveStats, Solver, SolverError, VarDists};
use std::cmp::Reverse;
use std::collections::BTreeSet;

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

/// Expression frequencies across a set of conditions: how often each
/// expression occurs in them, clause repetition included. A round counts
/// over the conditions of the objects it ranks first, as many as it posts
/// tasks (the paper's "chosen top-k objects"); an expression outside them
/// has frequency 0. The map is reserved up front to the conditions' total
/// expression count, so counting never grows it.
pub fn expression_frequencies<'a, I>(conditions: I) -> FxMap<Expr, usize>
where
    I: IntoIterator<Item = &'a Condition>,
    I::IntoIter: Clone,
{
    let conditions = conditions.into_iter();
    let total = conditions.clone().map(Condition::n_exprs).sum();
    let mut freq = FxMap::with_capacity_and_hasher(total, Default::default());
    for cond in conditions {
        for e in cond.exprs() {
            *freq.entry(*e).or_insert(0) += 1;
        }
    }
    freq
}

/// An expression's place in the candidate order: frequency descending,
/// then expression order ascending. The smallest key comes first.
type WalkKey = (Reverse<usize>, Expr);

/// Whether `e` touches no blocked variable.
fn is_free(e: &Expr, blocked: &BTreeSet<VarId>) -> bool {
    e.vars().all(|v| !blocked.contains(&v))
}

/// `e`'s walk key under `freq`.
fn walk_key(e: &Expr, freq: &FxMap<Expr, usize>) -> WalkKey {
    (Reverse(freq.get(e).copied().unwrap_or(0)), *e)
}

/// FBS's pick: the first of the candidates UBS/HHS would walk, found in one
/// pass that allocates nothing. Only a key that would beat the best so far
/// needs the blocked check.
fn most_frequent(
    cond: &Condition,
    freq: &FxMap<Expr, usize>,
    blocked: &BTreeSet<VarId>,
) -> Option<Expr> {
    let mut best: Option<WalkKey> = None;
    for e in cond.exprs() {
        let key = walk_key(e, freq);
        if best.is_none_or(|b| key < b) && is_free(e, blocked) {
            best = Some(key);
        }
    }
    best.map(|(_, e)| e)
}

/// The distinct candidates of `cond` that touch no blocked variable, in
/// walk order: one sort of the keyed occurrences, then one dedup (equal
/// expressions have equal keys, so their copies are adjacent).
fn walk_order(
    cond: &Condition,
    freq: &FxMap<Expr, usize>,
    blocked: &BTreeSet<VarId>,
) -> Vec<WalkKey> {
    let mut keyed: Vec<WalkKey> = cond
        .exprs()
        .filter(|e| is_free(e, blocked))
        .map(|e| walk_key(e, freq))
        .collect();
    keyed.sort_unstable();
    keyed.dedup();
    keyed
}

/// The reference candidate order the walk must reproduce: distinct
/// unblocked expressions, sorted, then stably re-sorted by descending
/// frequency.
#[cfg(test)]
fn candidates(cond: &Condition, freq: &FxMap<Expr, usize>, blocked: &BTreeSet<VarId>) -> Vec<Expr> {
    let mut out: Vec<Expr> = cond
        .exprs()
        .filter(|e| e.vars().all(|v| !blocked.contains(&v)))
        .copied()
        .collect();
    out.sort_unstable();
    out.dedup();
    // Stable: equally frequent expressions keep their order.
    out.sort_by_cached_key(|e| Reverse(freq.get(e).copied().unwrap_or(0)));
    out
}

/// The solver effort behind a batch of marginal-utility evaluations.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct UtilityTally {
    /// Candidate expressions scored.
    pub candidates: u64,
    /// Solver invocations: one compile per object with an open candidate
    /// and no kept circuit, and one `Pr(φ ∧ e)` solve per open candidate no
    /// circuit scores (a var-var one whose clamped pass fails, or every
    /// candidate of a solver that does not compile). A candidate is open
    /// when its `Pr(e)` lies strictly inside `(0, 1)`.
    pub solver_calls: u64,
    /// Conditions compiled: the part of `solver_calls` that scored the
    /// open candidates of one object.
    pub compiles: u64,
    /// Circuit nodes those compiles recorded.
    pub circuit_nodes: u64,
    /// Objects whose candidates were scored off a kept circuit, with no
    /// compile.
    pub reused: u64,
    /// Search effort of the successful compiles and solves.
    pub stats: SolveStats,
}

/// A circuit kept for one object (see [`KeptCircuits`]).
pub struct KeptCircuit<'c> {
    /// Compiled from the object's condition, or from one it was simplified
    /// from and equivalent to on the current supports; evaluated under the
    /// scorer's distributions.
    pub circuit: &'c Circuit,
    /// The search effort of building it just now, when it had to be
    /// (re)built for scoring; `None` when it was already built.
    pub compiled: Option<SolveStats>,
}

/// Where a [`UtilityScorer`] finds the circuits a session keeps.
pub trait KeptCircuits {
    /// The kept circuit of object `o`, if there is one.
    fn circuit(&mut self, o: ObjectId) -> Result<Option<KeptCircuit<'_>>, SolverError>;
}

/// Scores candidate expressions by marginal utility (Definition 6) and
/// tallies the solver effort.
///
/// Scoring goes one object at a time, through [`UtilityScorer::object`].
/// ADPLL compiles an object's condition once, at its first open candidate,
/// and every utility is read off that circuit: off its derivative pass, or
/// for a var-var candidate whose variables it both reads, off a clamped
/// pass ([`Circuit::var_var_joint`]) in buffers the scorer reuses. A
/// var-var candidate whose clamped pass fails costs one solve, as does
/// every candidate of a solver that does not compile (a test's reference).
/// With [`UtilityScorer::with_kept`], an object that has a kept circuit is
/// scored off it and compiles nothing.
///
/// Every probability a compile or solve returns is checked, like the
/// per-round probability batch's. A solver error, an invalid probability
/// included, is returned at once; it is never scored as zero utility.
pub struct UtilityScorer<'a> {
    solver: &'a dyn Solver,
    dists: &'a VarDists,
    kept: Option<&'a mut dyn KeptCircuits>,
    scratch: ClampScratch,
    tally: UtilityTally,
}

impl<'a> UtilityScorer<'a> {
    /// A scorer over `solver` and `dists`.
    pub fn new(solver: &'a dyn Solver, dists: &'a VarDists) -> UtilityScorer<'a> {
        UtilityScorer {
            solver,
            dists,
            kept: None,
            scratch: ClampScratch::default(),
            tally: UtilityTally::default(),
        }
    }

    /// Scores objects off the circuits `kept` holds, where it holds one.
    pub fn with_kept(mut self, kept: &'a mut dyn KeptCircuits) -> UtilityScorer<'a> {
        self.kept = Some(kept);
        self
    }

    /// The effort spent so far.
    pub fn tally(&self) -> UtilityTally {
        self.tally
    }

    /// Starts scoring the candidates of object `o`, whose condition is
    /// `cond`; `p_phi` is `Pr(cond)` under the scorer's distributions. A
    /// kept or compiled circuit checks it, and a stale one is
    /// [`SolverError::StalePrior`]. A compiled circuit lives as long as the
    /// returned scorer.
    pub fn object<'s>(
        &'s mut self,
        o: ObjectId,
        cond: &'s Condition,
        p_phi: f64,
    ) -> ObjectScorer<'s, 'a> {
        ObjectScorer {
            scorer: self,
            object: o,
            cond,
            p_phi,
            compiled: None,
        }
    }

    /// The utilities of object `o`: off its kept circuit if there is one,
    /// else from a compile of `cond`; `None` when the solver does not
    /// compile.
    fn utilities(
        &mut self,
        o: ObjectId,
        cond: &Condition,
        p_phi: f64,
    ) -> Result<Option<CompiledUtilities>, SolverError> {
        if let Some(kept) = self.kept.as_deref_mut() {
            if let Some(k) = kept.circuit(o)? {
                let compiled = k.compiled;
                let utilities = CompiledUtilities::of_circuit(k.circuit, p_phi)?;
                match compiled {
                    Some(stats) => {
                        self.tally.solver_calls += 1;
                        self.tally.compiles += 1;
                        self.tally.circuit_nodes += utilities.nodes() as u64;
                        self.tally.stats += stats;
                    }
                    None => self.tally.reused += 1,
                }
                return Ok(Some(utilities));
            }
        }
        self.compile(cond, p_phi)
    }

    /// Compiles `cond`; `None` when the solver does not compile.
    fn compile(
        &mut self,
        cond: &Condition,
        p_phi: f64,
    ) -> Result<Option<CompiledUtilities>, SolverError> {
        let compiled = compile_utilities(&Checked(self.solver), cond, self.dists, p_phi)?;
        if let Some(c) = &compiled {
            self.tally.solver_calls += 1;
            self.tally.compiles += 1;
            self.tally.circuit_nodes += c.nodes() as u64;
            self.tally.stats += c.stats();
        }
        Ok(compiled)
    }

    /// `G(o, e)` by one `Pr(φ ∧ e)` solve (none when `e` is decided).
    fn solve(&mut self, cond: &Condition, e: &Expr, p_phi: f64) -> Result<f64, SolverError> {
        let eval = marginal_utility_with_prior(&Checked(self.solver), cond, e, self.dists, p_phi)?;
        if let Some(stats) = eval.solve {
            self.tally.solver_calls += 1;
            self.tally.stats += stats;
        }
        Ok(eval.utility)
    }
}

/// Scores the candidates of one object; see [`UtilityScorer::object`].
pub struct ObjectScorer<'s, 'a> {
    scorer: &'s mut UtilityScorer<'a>,
    object: ObjectId,
    cond: &'s Condition,
    p_phi: f64,
    /// `None` until the first open candidate; then the kept or compiled
    /// circuit's utilities, or `Some(None)` when the solver does not
    /// compile.
    compiled: Option<Option<CompiledUtilities>>,
}

impl ObjectScorer<'_, '_> {
    /// `G(o, e)` for `e` in the object's condition.
    pub fn score(&mut self, e: &Expr) -> Result<f64, SolverError> {
        let scorer = &mut *self.scorer;
        scorer.tally.candidates += 1;
        let dists = scorer.dists;
        if self.compiled.is_none() && dists.expr_prob(e).is_ok_and(is_open) {
            self.compiled = Some(scorer.utilities(self.object, self.cond, self.p_phi)?);
        }
        if let Some(Some(compiled)) = &self.compiled {
            // A kept circuit stays the session's: a var-var candidate reads
            // it again, already evaluated.
            let kept = match (e.rhs_var(), scorer.kept.as_deref_mut()) {
                (Some(_), Some(kept)) if compiled.circuit().is_none() => {
                    kept.circuit(self.object)?.map(|k| k.circuit)
                }
                _ => None,
            };
            if let Some(g) = compiled.utility(e, dists, kept, &mut scorer.scratch)? {
                return Ok(g);
            }
        }
        scorer.solve(self.cond, e, self.p_phi)
    }
}

/// Selects the crowd expression for object `o`'s condition `cond` under
/// the given strategy. `blocked` holds variables already used by tasks
/// selected this round (conflict avoidance); `p_phi` is the object's
/// current condition probability under the scorer's distributions (the
/// utility computation relies on it being fresh, and a kept or compiled
/// circuit checks it). Returns `Ok(None)` if every expression conflicts.
///
/// The candidates are the distinct expressions of `cond` that touch no
/// blocked variable, ordered by descending `freq` (see
/// [`expression_frequencies`]) with ties broken by ascending expression
/// order. FBS takes the first of them. UBS scores them all and HHS walks
/// them in that order until `m` consecutive candidates fail to improve on
/// the best utility; both keep the first of equal utilities.
pub fn select_expression(
    strategy: TaskStrategy,
    o: ObjectId,
    cond: &Condition,
    freq: &FxMap<Expr, usize>,
    blocked: &BTreeSet<VarId>,
    scorer: &mut UtilityScorer<'_>,
    p_phi: f64,
) -> Result<Option<Expr>, SolverError> {
    // UBS is HHS that never stops early.
    let lookahead = match strategy {
        TaskStrategy::Fbs => return Ok(most_frequent(cond, freq, blocked)),
        TaskStrategy::Ubs => usize::MAX,
        TaskStrategy::Hhs { m } => m.max(1),
    };
    let mut object = scorer.object(o, cond, p_phi);
    let mut best: Option<(f64, Expr)> = None;
    let mut since_improvement = 0usize;
    for (_, e) in walk_order(cond, freq, blocked) {
        let g = object.score(&e)?;
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
    use proptest::prelude::*;

    fn v(o: u32, a: u16) -> VarId {
        VarId::new(o, a)
    }

    /// [`select_expression`] with a fresh scorer over `solver`.
    fn pick(
        strategy: TaskStrategy,
        cond: &Condition,
        freq: &FxMap<Expr, usize>,
        blocked: &BTreeSet<VarId>,
        solver: &dyn Solver,
        dists: &VarDists,
        p_phi: f64,
    ) -> Option<Expr> {
        let mut scorer = UtilityScorer::new(solver, dists);
        select_expression(
            strategy,
            ObjectId(0),
            cond,
            freq,
            blocked,
            &mut scorer,
            p_phi,
        )
        .unwrap()
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
        let mut scorer = UtilityScorer::new(&nan, &dists);
        let e = *cond.exprs().next().unwrap();
        assert!(matches!(
            scorer.object(ObjectId(0), &cond, 0.5).score(&e),
            Err(SolverError::InvalidProbability(p)) if p.is_nan()
        ));
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
    fn only_open_candidates_cost_work() {
        // x is confined to {0, 1}, so "x < 5" is decided and costs nothing.
        // The open candidates "y < 4", "z > 3" and the var-var "y > z" are
        // all read off one compile of φ.
        let (x, y, z) = (v(0, 0), v(1, 0), v(2, 0));
        let var_var = Expr::var_gt(y, z);
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(x, 5), Expr::lt(y, 4)],
            vec![Expr::gt(z, 3), var_var],
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
        let mut scorer = UtilityScorer::new(&solver, &dists);
        let picked = select_expression(
            TaskStrategy::Ubs,
            ObjectId(0),
            &cond,
            &freq,
            &BTreeSet::new(),
            &mut scorer,
            p,
        )
        .unwrap();
        assert!(picked.is_some());
        let open = |e: &&Expr| {
            let p_e = dists.expr_prob(e).unwrap();
            p_e > f64::EPSILON && p_e < 1.0 - f64::EPSILON
        };
        assert!(cond.exprs().any(|e| e == &var_var && open(&e)));
        let tally = scorer.tally();
        assert_eq!(tally.candidates, 4);
        assert_eq!(cond.exprs().filter(open).count(), 3);
        assert_eq!((tally.compiles, tally.solver_calls), (1, 1));
        // The search effort is exactly one compile: a plain solve of φ.
        let (_, compile) = solver.probability_with_stats(&cond, &dists).unwrap();
        assert_eq!(tally.stats, compile);
        assert!(tally.circuit_nodes > 2);
    }

    #[test]
    fn var_var_candidates_score_off_the_circuit_like_a_solve() {
        // Every candidate of the condition, var-var ones included, scores
        // within 1e-12 of its one-solve utility, and the var-var ones cost
        // no solve, also off a kept circuit.
        let (x, y, z) = (v(0, 0), v(1, 0), v(2, 0));
        let cond = Condition::from_clauses(vec![
            vec![Expr::var_gt(x, y), Expr::lt(z, 3)],
            vec![Expr::var_gt(z, x), Expr::gt(y, 1)],
            vec![Expr::lt(x, 7), Expr::var_gt(y, z)],
        ]);
        let dists: VarDists = [
            (
                x,
                Pmf::from_weights(vec![1.0, 2.0, 0.0, 3.0, 4.0, 5.0, 1.0, 2.0]),
            ),
            (y, Pmf::uniform(8)),
            (
                z,
                Pmf::from_weights(vec![3.0, 0.5, 0.5, 2.0, 1.0, 0.0, 1.0, 1.0]),
            ),
        ]
        .into_iter()
        .collect();
        let solver = AdpllSolver::new();
        let p = solver.probability(&cond, &dists).unwrap();
        let reference = OneSolveEach(AdpllSolver::new());
        let (circuit, _) = solver.compile(&cond, &dists).unwrap().unwrap();
        let mut kept = OneKept(circuit);
        let mut compiled = UtilityScorer::new(&solver, &dists);
        let mut off_kept = UtilityScorer::new(&solver, &dists).with_kept(&mut kept);
        let mut solved = UtilityScorer::new(&reference, &dists);
        let (mut a, mut b, mut c) = (
            compiled.object(ObjectId(0), &cond, p),
            off_kept.object(ObjectId(0), &cond, p),
            solved.object(ObjectId(0), &cond, p),
        );
        let var_var: Vec<Expr> = cond
            .exprs()
            .filter(|e| e.rhs_var().is_some())
            .copied()
            .collect();
        assert_eq!(var_var.len(), 3);
        for e in cond.exprs() {
            let want = c.score(e).unwrap();
            for got in [a.score(e).unwrap(), b.score(e).unwrap()] {
                assert!(
                    (got - want).abs() <= 1e-12,
                    "{e}: {got} vs one-solve {want}"
                );
            }
        }
        let (compiled, off_kept) = (compiled.tally(), off_kept.tally());
        assert_eq!((compiled.compiles, compiled.solver_calls), (1, 1));
        assert_eq!((off_kept.reused, off_kept.solver_calls), (1, 0));
        assert!(solved.tally().solver_calls >= var_var.len() as u64);
    }

    #[test]
    fn a_stale_prior_is_an_error() {
        let (cond, dists) = simple_setup();
        let solver = AdpllSolver::new();
        let p = solver.probability(&cond, &dists).unwrap();
        let e = *cond.exprs().next().unwrap();
        let stale = p + 0.125;
        let mut scorer = UtilityScorer::new(&solver, &dists);
        assert_eq!(
            scorer.object(ObjectId(0), &cond, stale).score(&e),
            Err(SolverError::StalePrior {
                cached: stale,
                fresh: p
            })
        );
        // A solver that does not compile cannot check the prior.
        let naive = NaiveSolver::new();
        let mut scorer = UtilityScorer::new(&naive, &dists);
        assert!(scorer.object(ObjectId(0), &cond, stale).score(&e).is_ok());
    }

    /// One object's kept circuit, compiled under `dists`.
    struct OneKept(Circuit);

    impl KeptCircuits for OneKept {
        fn circuit(&mut self, o: ObjectId) -> Result<Option<KeptCircuit<'_>>, SolverError> {
            Ok((o == ObjectId(0)).then_some(KeptCircuit {
                circuit: &self.0,
                compiled: None,
            }))
        }
    }

    #[test]
    fn a_kept_circuit_scores_without_a_compile() {
        let (cond, dists) = simple_setup();
        let solver = AdpllSolver::new();
        let p = solver.probability(&cond, &dists).unwrap();
        let (circuit, _) = solver.compile(&cond, &dists).unwrap().unwrap();
        let mut kept = OneKept(circuit);
        let mut scorer = UtilityScorer::new(&solver, &dists).with_kept(&mut kept);
        let mut plain = UtilityScorer::new(&solver, &dists);
        for e in cond.exprs().filter(|e| e.rhs_var().is_none()) {
            for o in [ObjectId(0), ObjectId(1)] {
                let g = scorer.object(o, &cond, p).score(e).unwrap();
                let want = plain.object(o, &cond, p).score(e).unwrap();
                assert_eq!(g.to_bits(), want.to_bits(), "{e}");
            }
        }
        let (reused, compiled) = (scorer.tally(), plain.tally());
        // Object 0 reuses the kept circuit; object 1 has none and compiles.
        assert_eq!(
            (reused.reused, reused.compiles),
            (compiled.compiles / 2, compiled.compiles / 2)
        );
        // The kept circuit's root is checked against the prior like a compile.
        let stale = p + 0.125;
        let e = cond.exprs().find(|e| e.rhs_var().is_none()).unwrap();
        assert_eq!(
            scorer.object(ObjectId(0), &cond, stale).score(e),
            Err(SolverError::StalePrior {
                cached: stale,
                fresh: p
            })
        );
    }

    #[test]
    fn a_solver_error_is_returned_not_scored_zero() {
        let (cond, mut dists) = simple_setup();
        let freq = expression_frequencies([&cond]);
        dists.remove(v(2, 0));
        let solver = AdpllSolver::new();
        let mut scorer = UtilityScorer::new(&solver, &dists);
        let err = select_expression(
            TaskStrategy::Hhs { m: 3 },
            ObjectId(0),
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
            ObjectId(0),
            &cond,
            &freq,
            &BTreeSet::new(),
            &mut scorer,
            0.5
        )
        .unwrap()
        .is_some());
    }

    /// ADPLL with its compile hidden: the one-solve-per-candidate
    /// reference.
    struct OneSolveEach(AdpllSolver);

    impl Solver for OneSolveEach {
        fn probability(&self, cond: &Condition, dists: &VarDists) -> Result<f64, SolverError> {
            self.0.probability(cond, dists)
        }

        fn probability_with_stats(
            &self,
            cond: &Condition,
            dists: &VarDists,
        ) -> Result<(f64, SolveStats), SolverError> {
            self.0.probability_with_stats(cond, dists)
        }

        fn name(&self) -> &'static str {
            "one-solve"
        }
    }

    /// A random condition over five variables (about one expression in ten
    /// var-var) and random pmfs, some entries zero.
    fn random_case(rng: &mut rand::rngs::StdRng) -> (Condition, VarDists) {
        use bc_ctable::{CmpOp, Operand};
        use rand::Rng;
        const CARD: u16 = 6;
        let ops = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        let clauses: Vec<Vec<Expr>> = (0..rng.gen_range(2..7))
            .map(|_| {
                (0..rng.gen_range(1..4))
                    .map(|_| {
                        let (l, r) = (rng.gen_range(0..5u32), rng.gen_range(0..5u32));
                        let op = ops[rng.gen_range(0..ops.len())];
                        if l != r && rng.gen_bool(0.1) {
                            Expr::new(v(l, 0), op, Operand::Var(v(r, 0)))
                        } else {
                            Expr::new(v(l, 0), op, Operand::Const(rng.gen_range(0..CARD)))
                        }
                    })
                    .collect()
            })
            .collect();
        let dists = (0..5)
            .map(|o| {
                let mut w: Vec<f64> = (0..CARD)
                    .map(|_| {
                        if rng.gen_bool(0.2) {
                            0.0
                        } else {
                            rng.gen_range(0.05..1.0)
                        }
                    })
                    .collect();
                w[0] += 0.01;
                (v(o, 0), Pmf::from_weights(w))
            })
            .collect();
        (Condition::from_clauses(clauses), dists)
    }

    /// Whether a reference walk over utilities `g` (in candidate order)
    /// hinges on a near-tie: under UBS, its top two are within 1e-12;
    /// under HHS, some candidate came within 1e-12 of the running best, so
    /// that comparison (and with it the early stop) may go either way.
    fn hinges_on_a_tie(strategy: TaskStrategy, g: &[f64]) -> bool {
        const TIE: f64 = 1e-12;
        match strategy {
            TaskStrategy::Hhs { m } => {
                let (mut best, mut since) = (g[0], 0);
                for &x in &g[1..] {
                    if (x - best).abs() <= TIE {
                        return true;
                    }
                    if x > best {
                        (best, since) = (x, 0);
                    } else {
                        since += 1;
                        if since >= m {
                            return false;
                        }
                    }
                }
                false
            }
            _ => {
                let mut sorted = g.to_vec();
                sorted.sort_by(|a, b| b.total_cmp(a));
                sorted.len() > 1 && sorted[0] - sorted[1] <= TIE
            }
        }
    }

    /// Compiled scoring picks the one-solve reference's expression, except
    /// where the reference's own walk hinges on utilities within 1e-12 of
    /// each other: a tie the ~1e-14 re-association may break either way.
    #[test]
    fn compiled_scoring_picks_the_reference_expression_except_at_ties() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (mut picks, mut flips) = (0, 0);
        for _ in 0..400 {
            let (cond, dists) = random_case(&mut rng);
            if cond.is_decided() {
                continue;
            }
            let freq = expression_frequencies([&cond]);
            let none = BTreeSet::new();
            let adpll = AdpllSolver::new();
            let reference = OneSolveEach(AdpllSolver::new());
            let p = adpll.probability(&cond, &dists).unwrap();
            let mut scorer = UtilityScorer::new(&reference, &dists);
            let mut object = scorer.object(ObjectId(0), &cond, p);
            let g: Vec<f64> = candidates(&cond, &freq, &none)
                .iter()
                .map(|e| object.score(e).unwrap())
                .collect();
            for strategy in [TaskStrategy::Ubs, TaskStrategy::Hhs { m: 2 }] {
                let got = pick(strategy, &cond, &freq, &none, &adpll, &dists, p);
                let want = pick(strategy, &cond, &freq, &none, &reference, &dists, p);
                picks += 1;
                if got != want {
                    assert!(
                        hinges_on_a_tie(strategy, &g),
                        "{strategy:?} on {cond}: picked {got:?}, reference {want:?}, utilities {g:?}"
                    );
                    flips += 1;
                }
            }
        }
        assert!(picks > 600, "only {picks} picks compared");
        assert!(flips * 20 < picks, "{flips} tie flips in {picks} picks");
    }

    #[test]
    fn equal_frequencies_are_resolved_by_expression_order() {
        let (a, b) = (v(0, 0), v(1, 0));
        // In expression order: a < 2, a > b, b < 1, b ≥ 5 (the canonical
        // form of b > 4). The condition's clauses read a < 2 ∨ b ≥ 5 and
        // a > b ∨ b < 1, so b ≥ 5 is the first of the tied three there.
        let cond = Condition::from_clauses(vec![
            vec![Expr::gt(b, 4), Expr::lt(a, 2)],
            vec![Expr::var_gt(a, b), Expr::lt(b, 1)],
        ]);
        let mut freq: FxMap<Expr, usize> = [
            (Expr::gt(b, 4), 2),
            (Expr::var_gt(a, b), 2),
            (Expr::lt(b, 1), 2),
        ]
        .into_iter()
        .collect();
        let walk = |freq: &FxMap<Expr, usize>, blocked: &BTreeSet<VarId>| -> Vec<Expr> {
            walk_order(&cond, freq, blocked)
                .into_iter()
                .map(|(_, e)| e)
                .collect()
        };
        let none = BTreeSet::new();
        // a < 2 has no count, so it is frequency 0 and comes last.
        let tied = vec![
            Expr::var_gt(a, b),
            Expr::lt(b, 1),
            Expr::gt(b, 4),
            Expr::lt(a, 2),
        ];
        assert_eq!(walk(&freq, &none), tied);
        assert_eq!(most_frequent(&cond, &freq, &none), Some(Expr::var_gt(a, b)));
        // Blocking a leaves the b-only expressions, still in order.
        let no_a: BTreeSet<VarId> = [a].into_iter().collect();
        assert_eq!(walk(&freq, &no_a), [Expr::lt(b, 1), Expr::gt(b, 4)]);
        assert_eq!(most_frequent(&cond, &freq, &no_a), Some(Expr::lt(b, 1)));
        // A higher count goes first whatever its expression order.
        freq.insert(Expr::lt(a, 2), 3);
        assert_eq!(walk(&freq, &none)[0], Expr::lt(a, 2));
        assert_eq!(most_frequent(&cond, &freq, &none), Some(Expr::lt(a, 2)));
        for freq in [&freq, &FxMap::default()] {
            assert_eq!(
                walk(freq, &none),
                candidates(&cond, freq, &none),
                "{freq:?}"
            );
        }
    }

    /// Expressions over four variables and four constants, about a third
    /// of them var-var, so random conditions repeat expressions often.
    fn small_expr() -> impl Strategy<Value = Expr> {
        use bc_ctable::{CmpOp, Operand};
        let ops = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        (0u32..4, 0usize..6, 0u16..4, 0u32..4, any::<bool>()).prop_map(
            move |(l, op, c, r, var_var)| {
                if var_var && l != r {
                    Expr::new(v(l, 0), ops[op], Operand::Var(v(r, 0)))
                } else {
                    Expr::new(v(l, 0), ops[op], Operand::Const(c))
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// FBS picks the reference order's first candidate, and UBS/HHS
        /// walk exactly the reference order, under frequency tables with
        /// many ties (counts 0–2; 0 means no entry) and blocked variables.
        #[test]
        fn selection_order_matches_the_reference(
            raw in prop::collection::vec(prop::collection::vec(small_expr(), 1..5), 1..10),
            counts in prop::collection::vec(0usize..3, 1..24),
            blocked in prop::collection::btree_set(0u32..4, 0..3),
        ) {
            let cond = Condition::from_clauses(raw);
            let blocked: BTreeSet<VarId> = blocked.into_iter().map(|o| v(o, 0)).collect();
            let distinct: BTreeSet<Expr> = cond.exprs().copied().collect();
            let freq: FxMap<Expr, usize> = distinct
                .iter()
                .zip(counts.iter().cycle())
                .filter(|&(_, &n)| n > 0)
                .map(|(e, &n)| (*e, n))
                .collect();
            let want = candidates(&cond, &freq, &blocked);
            let walked: Vec<Expr> = walk_order(&cond, &freq, &blocked)
                .into_iter()
                .map(|(_, e)| e)
                .collect();
            prop_assert_eq!(&walked, &want);
            let dists = VarDists::default();
            let solver = AdpllSolver::new();
            let fbs = pick(TaskStrategy::Fbs, &cond, &freq, &blocked, &solver, &dists, 0.5);
            prop_assert_eq!(fbs, want.first().copied());
        }
    }

    #[test]
    fn strategy_names() {
        assert_eq!(TaskStrategy::Fbs.name(), "FBS");
        assert_eq!(TaskStrategy::Ubs.name(), "UBS");
        assert_eq!(TaskStrategy::Hhs { m: 3 }.name(), "HHS");
    }
}
