//! Task-selection strategies (Section 6.2): FBS, UBS, HHS.

use bc_ctable::{Condition, Expr};
use bc_data::{FxMap, ObjectId, VarId};
use bc_solver::factored::{Joints, Workspace};
use bc_solver::utility::is_open;
use bc_solver::{SolverError, VarDists};
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
pub(crate) fn expression_frequencies<'a, I>(conditions: I) -> FxMap<Expr, usize>
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

/// The effort behind a batch of marginal-utility evaluations.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct UtilityTally {
    /// Candidate expressions scored.
    pub(crate) candidates: u64,
    /// Outside passes: one per object with an open candidate (its `Pr(e)`
    /// strictly inside `(0, 1)`).
    pub(crate) passes: u64,
    /// Joint-support points those passes visited.
    pub(crate) points: u64,
    /// Clause tables built for those passes.
    pub(crate) clause_tables: u64,
}

/// Scores candidate expressions by marginal utility (Definition 6) off
/// the objects' factor tables, and tallies the effort.
///
/// Scoring goes one object at a time, through [`UtilityScorer::object`].
/// At an object's first open candidate the scorer builds the object's
/// tables in its workspace and runs one outside pass over them
/// ([`Workspace::joints`]), and reads every candidate's `Pr(φ ∧ e)` off
/// that pass, in buffers the workspace reuses.
///
/// An error, a condition outside the tables' shape included, is returned
/// at once; it is never scored as zero utility.
pub(crate) struct UtilityScorer<'a> {
    workspace: &'a mut Workspace,
    dists: &'a VarDists,
    tally: UtilityTally,
}

impl<'a> UtilityScorer<'a> {
    /// A scorer building tables in `workspace`, under `dists`.
    pub(crate) fn new(workspace: &'a mut Workspace, dists: &'a VarDists) -> UtilityScorer<'a> {
        UtilityScorer {
            workspace,
            dists,
            tally: UtilityTally::default(),
        }
    }

    /// The effort spent so far.
    pub(crate) fn tally(&self) -> UtilityTally {
        self.tally
    }

    /// Starts scoring the candidates of object `o`, whose condition is
    /// `cond`; `p_phi` is `Pr(cond)` under the scorer's distributions.
    pub(crate) fn object<'s>(
        &'s mut self,
        o: ObjectId,
        cond: &'s Condition,
        p_phi: f64,
    ) -> ObjectScorer<'s> {
        ObjectScorer {
            workspace: Some(&mut *self.workspace),
            dists: self.dists,
            tally: &mut self.tally,
            o,
            cond,
            p_phi,
            joints: None,
        }
    }
}

/// Scores the candidates of one object; see [`UtilityScorer::object`].
pub(crate) struct ObjectScorer<'s> {
    /// The workspace, until the first open candidate builds the
    /// object's tables in it.
    workspace: Option<&'s mut Workspace>,
    dists: &'s VarDists,
    tally: &'s mut UtilityTally,
    o: ObjectId,
    cond: &'s Condition,
    p_phi: f64,
    /// From the first open candidate on: the outside pass.
    joints: Option<Joints<'s>>,
}

impl ObjectScorer<'_> {
    /// `G(o, e)` for `e` in the object's condition.
    pub(crate) fn score(&mut self, e: &Expr) -> Result<f64, SolverError> {
        self.tally.candidates += 1;
        if self.joints.is_none() {
            if !is_open(self.dists.expr_prob(e)?) {
                return Ok(0.0);
            }
            let workspace = self.workspace.take().expect("taken once, with the joints");
            let built = workspace.build(self.o, self.cond, self.dists)?;
            let joints = workspace.joints(self.cond, self.dists)?;
            self.tally.passes += 1;
            self.tally.points += joints.stats().points;
            self.tally.clause_tables += built.clause_tables;
            self.joints = Some(joints);
        }
        let joints = self.joints.as_mut().expect("set above");
        joints.utility(e, self.p_phi)
    }
}

/// Selects the crowd expression for object `o`'s condition `cond` under
/// the given strategy. `blocked` holds variables already used by tasks
/// selected this round (conflict avoidance); `p_phi` is the object's
/// current condition probability under the scorer's distributions (the
/// utility computation relies on it being fresh). Returns `Ok(None)` if
/// every expression conflicts.
///
/// The candidates are the distinct expressions of `cond` that touch no
/// blocked variable, ordered by descending `freq` (see
/// [`expression_frequencies`]) with ties broken by ascending expression
/// order. FBS takes the first of them. UBS scores them all and HHS walks
/// them in that order until `m` consecutive candidates fail to improve on
/// the best utility; both keep the first of equal utilities.
pub(crate) fn select_expression(
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
    use bc_solver::utility::marginal_utility_with_prior;
    use bc_solver::{AdpllSolver, Solver};
    use proptest::prelude::*;

    fn v(o: u32, a: u16) -> VarId {
        VarId::new(o, a)
    }

    /// [`select_expression`] with a fresh scorer and workspace.
    fn pick(
        strategy: TaskStrategy,
        cond: &Condition,
        freq: &FxMap<Expr, usize>,
        blocked: &BTreeSet<VarId>,
        dists: &VarDists,
        p_phi: f64,
    ) -> Option<Expr> {
        let mut workspace = Workspace::default();
        let mut scorer = UtilityScorer::new(&mut workspace, dists);
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
    fn fbs_follows_frequency() {
        let (cond, dists) = simple_setup();
        // Make y's expression globally frequent.
        let other = Condition::from_clauses(vec![vec![Expr::lt(v(1, 0), 1)]]);
        let freq = expression_frequencies([&cond, &other, &other]);
        let solver = AdpllSolver::new();
        let p = solver.probability(&cond, &dists).unwrap();
        let picked = pick(TaskStrategy::Fbs, &cond, &freq, &BTreeSet::new(), &dists, p).unwrap();
        assert_eq!(picked, Expr::lt(v(1, 0), 1));
    }

    #[test]
    fn ubs_follows_utility() {
        let (cond, dists) = simple_setup();
        let freq = expression_frequencies([&cond]);
        let solver = AdpllSolver::new();
        let p = solver.probability(&cond, &dists).unwrap();
        let picked = pick(TaskStrategy::Ubs, &cond, &freq, &BTreeSet::new(), &dists, p).unwrap();
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
        let ubs = pick(TaskStrategy::Ubs, &cond, &freq, &BTreeSet::new(), &dists, p);
        let hhs = pick(
            TaskStrategy::Hhs { m: 100 },
            &cond,
            &freq,
            &BTreeSet::new(),
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
        let picked = pick(TaskStrategy::Fbs, &cond, &freq, &blocked, &dists, p).unwrap();
        assert_eq!(picked, Expr::lt(v(1, 0), 1));
        // Everything blocked → no task.
        let all: BTreeSet<VarId> = [v(0, 0), v(1, 0), v(2, 0)].into_iter().collect();
        assert_eq!(pick(TaskStrategy::Fbs, &cond, &freq, &all, &dists, p), None);
    }

    #[test]
    fn only_open_candidates_cost_work() {
        // x is confined to {0, 1}, so "x < 5" is decided and costs nothing.
        // The open candidates "y < 4", "z > 3" and the var-var "u > w" are
        // all read off one outside pass over the tables of φ(o0), whose own
        // cells are x and u.
        let (x, u, y, z, w) = (v(0, 0), v(0, 1), v(1, 0), v(2, 0), v(3, 1));
        let var_var = Expr::var_gt(u, w);
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(x, 5), Expr::lt(y, 4)],
            vec![Expr::gt(z, 3), var_var],
        ]);
        let dists: VarDists = [
            (x, Pmf::uniform(10).conditioned(0b11).unwrap()),
            (u, Pmf::uniform(10)),
            (y, Pmf::uniform(10)),
            (z, Pmf::uniform(10)),
            (w, Pmf::uniform(10)),
        ]
        .into_iter()
        .collect();
        let freq = expression_frequencies([&cond]);
        let p = AdpllSolver::new().probability(&cond, &dists).unwrap();
        let mut workspace = Workspace::default();
        let mut scorer = UtilityScorer::new(&mut workspace, &dists);
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
        let open = |e: &&Expr| is_open(dists.expr_prob(e).unwrap());
        assert!(cond.exprs().any(|e| e == &var_var && open(&e)));
        let tally = scorer.tally();
        assert_eq!(tally.candidates, 4);
        assert_eq!(cond.exprs().filter(open).count(), 3);
        // One pass, over one point: x and u are each read by one clause
        // only, so both are summed out into their clauses. Both clause
        // tables were built for it.
        assert_eq!((tally.passes, tally.points, tally.clause_tables), (1, 1, 2));
    }

    /// φ(o0) over own cells x and u, with three var-var expressions, and
    /// pmfs with zero entries.
    fn var_var_setup() -> (Condition, VarDists) {
        let (x, u) = (v(0, 0), v(0, 1));
        let (y, z, w, q, r) = (v(1, 0), v(2, 1), v(3, 1), v(4, 0), v(5, 1));
        let cond = Condition::from_clauses(vec![
            vec![Expr::var_gt(x, y), Expr::lt(z, 3)],
            vec![Expr::var_gt(u, w), Expr::gt(q, 1)],
            vec![Expr::lt(x, 7), Expr::var_gt(r, u)],
        ]);
        let skewed = Pmf::from_weights(vec![1.0, 2.0, 0.0, 3.0, 4.0, 5.0, 1.0, 2.0]);
        let gapped = Pmf::from_weights(vec![3.0, 0.5, 0.5, 2.0, 1.0, 0.0, 1.0, 1.0]);
        let dists: VarDists = [
            (x, skewed.clone()),
            (u, gapped.clone()),
            (y, Pmf::uniform(8)),
            (z, gapped),
            (w, skewed),
            (q, Pmf::uniform(8)),
            (r, Pmf::uniform(8)),
        ]
        .into_iter()
        .collect();
        (cond, dists)
    }

    #[test]
    fn every_candidate_scores_like_a_solve() {
        // Every candidate of the condition, var-var ones included, scores
        // within 1e-12 of its one-solve utility, and a workspace that
        // built another object's tables first gives a fresh one's bits.
        let (cond, dists) = var_var_setup();
        let solver = AdpllSolver::new();
        let p = solver.probability(&cond, &dists).unwrap();
        let (mut fresh, mut used) = (Workspace::default(), Workspace::default());
        let (other, other_dists) = simple_setup();
        used.build(ObjectId(0), &other, &other_dists).unwrap();
        let mut built = UtilityScorer::new(&mut fresh, &dists);
        let mut reused = UtilityScorer::new(&mut used, &dists);
        let (mut a, mut b) = (
            built.object(ObjectId(0), &cond, p),
            reused.object(ObjectId(0), &cond, p),
        );
        let var_var = cond.exprs().filter(|e| e.rhs_var().is_some()).count();
        assert_eq!(var_var, 3);
        for e in cond.exprs() {
            let want = marginal_utility_with_prior(&solver, &cond, e, &dists, p).unwrap();
            let (got_a, got_b) = (a.score(e).unwrap(), b.score(e).unwrap());
            assert_eq!(got_a.to_bits(), got_b.to_bits(), "{e}");
            assert!(
                (got_a - want.utility).abs() <= 1e-12,
                "{e}: {got_a} vs one-solve {}",
                want.utility
            );
        }
        for tally in [built.tally(), reused.tally()] {
            assert_eq!((tally.passes, tally.clause_tables), (1, 3));
        }
    }

    #[test]
    fn a_solver_error_is_returned_not_scored_zero() {
        let (cond, mut dists) = simple_setup();
        let freq = expression_frequencies([&cond]);
        dists.remove(v(2, 0));
        let mut workspace = Workspace::default();
        let mut scorer = UtilityScorer::new(&mut workspace, &dists);
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
        // Nor is a condition outside the tables' shape scored: y is in
        // two clauses.
        let (x, y) = (v(0, 0), v(1, 0));
        let shared = Condition::from_clauses(vec![
            vec![Expr::lt(x, 5), Expr::lt(y, 1)],
            vec![Expr::gt(x, 2), Expr::gt(y, 3)],
        ]);
        let mut scorer = UtilityScorer::new(&mut workspace, &dists);
        let e = Expr::lt(x, 5);
        assert_eq!(
            scorer.object(ObjectId(0), &shared, 0.5).score(&e),
            Err(SolverError::NotFactored(y))
        );
    }

    /// A random condition of the c-table's shape for object 0: each clause
    /// is one dominator's, with one expression on each of some of three
    /// attributes: on the own cell, on the dominator's cell, or a var-var
    /// one between them (about one in five). Random pmfs, some entries
    /// zero.
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
        let dominators = rng.gen_range(2..7u32);
        let mut clauses: Vec<Vec<Expr>> = Vec::new();
        for p in 1..=dominators {
            let mut clause = Vec::new();
            for a in 0..3u16 {
                if !rng.gen_bool(0.6) {
                    continue;
                }
                let op = ops[rng.gen_range(0..ops.len())];
                let c = Operand::Const(rng.gen_range(0..CARD));
                clause.push(match rng.gen_range(0..5) {
                    0 => Expr::new(v(0, a), op, Operand::Var(v(p, a))),
                    1 | 2 => Expr::new(v(0, a), op, c),
                    _ => Expr::new(v(p, a), op, c),
                });
            }
            if !clause.is_empty() {
                clauses.push(clause);
            }
        }
        let dists = (0..=dominators)
            .flat_map(|o| (0..3).map(move |a| v(o, a)))
            .map(|var| {
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
                (var, Pmf::from_weights(w))
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

    /// The expression a UBS/HHS walk picks from `candidates`, in walk
    /// order, whose utilities are `g`: the first of equal utilities, and
    /// under HHS the best before `m` consecutive non-improvements.
    fn reference_pick(strategy: TaskStrategy, candidates: &[Expr], g: &[f64]) -> Option<Expr> {
        let lookahead = match strategy {
            TaskStrategy::Hhs { m } => m.max(1),
            _ => usize::MAX,
        };
        let mut best: Option<(f64, Expr)> = None;
        let mut since = 0;
        for (&e, &g) in candidates.iter().zip(g) {
            if best.is_none_or(|(bg, _)| g > bg) {
                (best, since) = (Some((g, e)), 0);
            } else {
                since += 1;
                if since >= lookahead {
                    break;
                }
            }
        }
        best.map(|(_, e)| e)
    }

    /// Scoring off tables picks the one-solve reference's expression,
    /// except where the reference's own walk hinges on utilities within
    /// 1e-12 of each other: a tie the ~1e-14 re-association may break
    /// either way.
    #[test]
    fn table_scoring_picks_the_reference_expression_except_at_ties() {
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
            let p = adpll.probability(&cond, &dists).unwrap();
            let reference = candidates(&cond, &freq, &none);
            let g: Vec<f64> = reference
                .iter()
                .map(|e| {
                    marginal_utility_with_prior(&adpll, &cond, e, &dists, p)
                        .unwrap()
                        .utility
                })
                .collect();
            for strategy in [TaskStrategy::Ubs, TaskStrategy::Hhs { m: 2 }] {
                let got = pick(strategy, &cond, &freq, &none, &dists, p);
                let want = reference_pick(strategy, &reference, &g);
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
            let fbs = pick(TaskStrategy::Fbs, &cond, &freq, &blocked, &dists, 0.5);
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
