//! The adaptive DPLL solver (Algorithm 3).
//!
//! ADPLL computes `Pr(φ)` exactly. It first splits the CNF into
//! variable-disjoint components (the generalization of Algorithm 3's
//! "conjuncts are independent" check): component probabilities multiply by
//! the *special conjunctive rule*. A component that is a single clause with
//! variable-disjoint expressions is closed directly by the *general
//! disjunctive rule* `Pr(∨ eⱼ) = 1 − Π (1 − Pr(eⱼ))`. Otherwise the solver
//! branches on a variable (by default the most frequent one, the paper's
//! heuristic), summing `p(v = a) · Pr(φ[v := a])` over the variable's
//! support — weakening the expression correlation at every level exactly as
//! the paper describes.

use crate::arena::{Arena, ClauseId};
use crate::circuit::{Circuit, CircuitBuilder, NodeId};
use crate::dists::VarDists;
use crate::{Solver, SolverError};
use bc_ctable::{Condition, Expr};
use bc_data::{FxMap, Value, VarId};
use std::cell::{Cell, RefCell};
use std::fmt;

/// What one search memoizes: each correlated component it branched on,
/// keyed by its run of clause ids, and each variable-disjoint clause it
/// closed by the disjunctive rule, by id, with its probability and the
/// recorder's node for it. Sibling branches recompute the latter for every
/// clause the branching variable does not touch.
#[derive(Default)]
struct Cache {
    components: FxMap<Box<[ClauseId]>, (f64, NodeId)>,
    clauses: Vec<Option<(f64, NodeId)>>,
}

impl Cache {
    fn clear(&mut self) {
        self.components.clear();
        self.clauses.clear();
    }
}

/// What the search reports about the nodes of its trace, so one search
/// routine serves both a plain solve ([`NoTrace`]) and a compile
/// ([`CircuitBuilder`]). Every node comes with the probability the search
/// computed for it; children are handed over one by one and closed by the
/// node that owns them, from the frame opened at `mark`.
pub(crate) trait Recorder {
    /// `True` (`p = 1`) or `False` (`p = 0`).
    fn constant(&mut self, p: f64) -> NodeId;
    /// Notes expression `e`, with `Pr(e)`, of the clause leaf being built.
    fn leaf_expr(&mut self, e: &Expr, p_e: f64, dists: &VarDists) -> Result<(), SolverError>;
    /// Closes a disjunctive-rule leaf over the expressions noted since the
    /// last leaf.
    fn clause(&mut self, p: f64) -> NodeId;
    /// Opens a frame of children.
    fn mark(&self) -> usize;
    /// Adds the branch `v = value` of an open decision, or a factor of an
    /// open product (`value` unused).
    fn child(&mut self, value: Value, node: NodeId);
    /// Closes a decision on `v`, whose value distribution is `probs`.
    fn decision(&mut self, v: VarId, probs: &[f64], mark: usize, p: f64) -> NodeId;
    /// Closes a product of independent components; `cut` when it stopped
    /// at a zero product before its last component.
    fn and(&mut self, mark: usize, p: f64, cut: bool) -> NodeId;
}

/// The recorder of a plain solve: records nothing, and every node is 0.
struct NoTrace;

impl Recorder for NoTrace {
    #[inline]
    fn constant(&mut self, _: f64) -> NodeId {
        0
    }

    #[inline]
    fn leaf_expr(&mut self, _: &Expr, _: f64, _: &VarDists) -> Result<(), SolverError> {
        Ok(())
    }

    #[inline]
    fn clause(&mut self, _: f64) -> NodeId {
        0
    }

    #[inline]
    fn mark(&self) -> usize {
        0
    }

    #[inline]
    fn child(&mut self, _: Value, _: NodeId) {}

    #[inline]
    fn decision(&mut self, _: VarId, _: &[f64], _: usize, _: f64) -> NodeId {
        0
    }

    #[inline]
    fn and(&mut self, _: usize, _: f64, _: bool) -> NodeId {
        0
    }
}

/// The buffers a solver's searches reuse: the clause arena, the caches and
/// the circuit builder, cleared (not freed) at the start of each call.
#[derive(Default)]
struct Scratch {
    arena: Arena,
    cache: Cache,
    builder: CircuitBuilder,
}

/// A solver's [`Scratch`]; a clone starts with empty buffers.
#[derive(Default)]
struct ScratchCell(RefCell<Scratch>);

impl Clone for ScratchCell {
    fn clone(&self) -> Self {
        ScratchCell::default()
    }
}

impl fmt::Debug for ScratchCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Scratch")
    }
}

/// Which variable to branch on when a component is correlated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BranchHeuristic {
    /// The paper's choice: the variable occurring in the most expressions
    /// (ties break toward the smallest variable id, deterministically).
    #[default]
    MostFrequent,
    /// The first (smallest-id) variable — the ablation baseline showing the
    /// value of the frequency heuristic.
    First,
}

/// Counters describing one solve — the shape of the ADPLL search tree.
///
/// All fields but `max_depth` are monotone event counts; `max_depth` is the
/// deepest branching recursion reached, combined by `max` rather than `+`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Number of value-branching decisions taken.
    pub branches: u64,
    /// Number of independent components closed directly by the general
    /// disjunctive rule (no branching).
    pub direct_components: u64,
    /// Number of times connected-component decomposition split a condition
    /// into more than one independent sub-problem.
    pub component_splits: u64,
    /// Number of component probabilities served from the cache.
    pub cache_hits: u64,
    /// Number of correlated components that had to be solved by branching
    /// because the cache had no entry (or caching was disabled).
    pub cache_misses: u64,
    /// Deepest branching recursion reached.
    pub max_depth: u64,
}

impl SolveStats {
    /// Counter-wise difference `self - earlier`, for before/after
    /// snapshots around a single call. Event counts subtract saturating
    /// (a reset in between must not wrap a reused solver's counters
    /// around); `max_depth` is not a count and carries over as the
    /// cumulative maximum.
    pub fn since(&self, earlier: &SolveStats) -> SolveStats {
        SolveStats {
            branches: self.branches.saturating_sub(earlier.branches),
            direct_components: self
                .direct_components
                .saturating_sub(earlier.direct_components),
            component_splits: self
                .component_splits
                .saturating_sub(earlier.component_splits),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            max_depth: self.max_depth,
        }
    }
}

impl std::ops::AddAssign for SolveStats {
    fn add_assign(&mut self, rhs: SolveStats) {
        self.branches += rhs.branches;
        self.direct_components += rhs.direct_components;
        self.component_splits += rhs.component_splits;
        self.cache_hits += rhs.cache_hits;
        self.cache_misses += rhs.cache_misses;
        self.max_depth = self.max_depth.max(rhs.max_depth);
    }
}

/// The adaptive DPLL solver.
///
/// ```
/// use bc_bayes::Pmf;
/// use bc_ctable::{Condition, Expr};
/// use bc_data::VarId;
/// use bc_solver::{AdpllSolver, Solver, VarDists};
///
/// // φ = (x < 2) ∧ (y > 4), x and y uniform over 0..10.
/// let x = VarId::new(0, 0);
/// let y = VarId::new(1, 0);
/// let cond = Condition::from_clauses(vec![
///     vec![Expr::lt(x, 2)],
///     vec![Expr::gt(y, 4)],
/// ]);
/// let dists: VarDists = [(x, Pmf::uniform(10)), (y, Pmf::uniform(10))]
///     .into_iter()
///     .collect();
/// let p = AdpllSolver::new().probability(&cond, &dists).unwrap();
/// assert!((p - 0.2 * 0.5).abs() < 1e-12);
/// ```
///
/// By default the solver memoizes component probabilities *within one
/// `probability` or `compile` call* (component/formula caching in the
/// style of Sang, Beame & Kautz — reference \[32\] of the paper).
/// Sibling branches whose substitutions collapse to the same residual
/// component are then solved once. It also memoizes the disjunctive-rule probability of each clause
/// it closes directly; that memo is invisible to [`SolveStats`], which
/// counts every direct closure. Caching is sound per call because the
/// distributions are fixed for its duration; it is cleared between calls.
///
/// The search runs over a clause arena (DESIGN.md, "Search kernel"). The
/// solver keeps the arena, the caches and a circuit builder between
/// calls, cleared but not freed, so a search allocates little; a clone
/// starts with empty buffers. Like the counters, the buffers make the
/// solver `!Sync`: each thread builds its own.
#[derive(Clone, Debug)]
pub struct AdpllSolver {
    heuristic: BranchHeuristic,
    caching: bool,
    branches: Cell<u64>,
    direct: Cell<u64>,
    splits: Cell<u64>,
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
    /// Current branching recursion depth (transient within one call).
    depth: Cell<u64>,
    max_depth: Cell<u64>,
    scratch: ScratchCell,
}

impl Default for AdpllSolver {
    fn default() -> Self {
        AdpllSolver {
            heuristic: BranchHeuristic::default(),
            caching: true,
            branches: Cell::new(0),
            direct: Cell::new(0),
            splits: Cell::new(0),
            cache_hits: Cell::new(0),
            cache_misses: Cell::new(0),
            depth: Cell::new(0),
            max_depth: Cell::new(0),
            scratch: ScratchCell::default(),
        }
    }
}

impl AdpllSolver {
    /// A solver with the paper's most-frequent-variable heuristic and
    /// component caching enabled.
    pub fn new() -> AdpllSolver {
        AdpllSolver::default()
    }

    /// A solver with an explicit branching heuristic (for the ablation).
    pub fn with_heuristic(heuristic: BranchHeuristic) -> AdpllSolver {
        AdpllSolver {
            heuristic,
            ..Default::default()
        }
    }

    /// Enables or disables per-call component caching, clause memo
    /// included (the ablation knob).
    pub fn with_caching(mut self, caching: bool) -> AdpllSolver {
        self.caching = caching;
        self
    }

    /// Statistics accumulated since construction (or the last reset).
    pub fn stats(&self) -> SolveStats {
        SolveStats {
            branches: self.branches.get(),
            direct_components: self.direct.get(),
            component_splits: self.splits.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            max_depth: self.max_depth.get(),
        }
    }

    /// Clears the counters.
    pub fn reset_stats(&self) {
        self.branches.set(0);
        self.direct.set(0);
        self.splits.set(0);
        self.cache_hits.set(0);
        self.cache_misses.set(0);
        self.max_depth.set(0);
    }

    /// Runs one search of `cond` on the solver's scratch buffers.
    fn search<R: Recorder>(
        &self,
        cond: &Condition,
        dists: &VarDists,
        rec: &mut R,
        arena: &mut Arena,
        cache: &mut Cache,
    ) -> Result<(f64, NodeId), SolverError> {
        let clauses = match cond {
            Condition::True => return Ok((1.0, rec.constant(1.0))),
            Condition::False => return Ok((0.0, rec.constant(0.0))),
            Condition::Cnf(clauses) => clauses,
        };
        arena.reset(clauses);
        cache.clear();
        Search {
            solver: self,
            dists,
            arena,
            cache,
            rec,
        }
        .solve(0, clauses.len())
    }
}

/// One search: Algorithm 3 over runs of clause ids on the arena's stack.
/// Each run stands for the canonical `Condition` with those clauses, and
/// every step is the one that condition's rewrites would take (DESIGN.md,
/// "Search kernel"), so the counters, the recorder's calls and the
/// probability bits do not depend on the representation.
struct Search<'a, R> {
    solver: &'a AdpllSolver,
    dists: &'a VarDists,
    arena: &'a mut Arena,
    cache: &'a mut Cache,
    rec: &'a mut R,
}

impl<R: Recorder> Search<'_, R> {
    fn clause_probability(&mut self, id: ClauseId) -> Result<(f64, NodeId), SolverError> {
        let s = self.solver;
        // Within-clause expressions are variable-disjoint by construction;
        // a manually built clause that violates it falls back to local
        // branching.
        if !self.arena.disjoint(id) {
            // Shared variables inside one clause: treat it as a one-clause
            // condition and branch, with caches of its own.
            let at = self.arena.stack.len();
            self.arena.stack.push(id);
            let outer = std::mem::take(&mut *self.cache);
            let out = self.branch(at, at + 1);
            *self.cache = outer;
            self.arena.stack.truncate(at);
            return out;
        }
        if s.caching {
            if let Some(Some(hit)) = self.cache.clauses.get(id as usize) {
                return Ok(*hit);
            }
        }
        // General disjunctive rule (clamped: pmf normalization can leave
        // 1e-16-scale slack in the complement products).
        let mut none = 1.0;
        for e in self.arena.exprs(id) {
            let p_e = self.dists.expr_prob(e)?;
            self.rec.leaf_expr(e, p_e, self.dists)?;
            none *= (1.0 - p_e).clamp(0.0, 1.0);
        }
        let p = (1.0 - none).clamp(0.0, 1.0);
        let out = (p, self.rec.clause(p));
        if s.caching {
            let memo = &mut self.cache.clauses;
            if memo.len() <= id as usize {
                memo.resize(id as usize + 1, None);
            }
            memo[id as usize] = Some(out);
        }
        Ok(out)
    }

    /// Branches on a variable of the condition `stack[at..end]`.
    fn branch(&mut self, at: usize, end: usize) -> Result<(f64, NodeId), SolverError> {
        let s = self.solver;
        let local = match s.heuristic {
            BranchHeuristic::MostFrequent => self.arena.most_frequent_var(at, end),
            BranchHeuristic::First => self.arena.first_var(at, end),
        };
        let v = self.arena.var(local);
        let pmf = self.dists.pmf(v)?;
        let d = s.depth.get() + 1;
        s.depth.set(d);
        s.max_depth.set(s.max_depth.get().max(d));
        let mark = self.rec.mark();
        let mut total = 0.0;
        let branch = self.arena.open_branch(at, end, local, pmf.probs());
        // The support in value order: the values with nonzero probability.
        for (value, &p_value) in pmf.probs().iter().enumerate().filter(|(_, &p)| p > 0.0) {
            s.branches.set(s.branches.get() + 1);
            let solved = match self.arena.substitute(at, end, branch, value as Value) {
                None => Ok((0.0, self.rec.constant(0.0))),
                Some(sub) => {
                    let solved = self.solve(sub, self.arena.stack.len());
                    self.arena.stack.truncate(sub);
                    solved
                }
            };
            match solved {
                Ok((p, node)) => {
                    total += p_value * p;
                    self.rec.child(value as Value, node);
                }
                Err(e) => {
                    s.depth.set(d - 1);
                    self.arena.close_branch(branch);
                    return Err(e);
                }
            }
        }
        s.depth.set(d - 1);
        self.arena.close_branch(branch);
        let p = total.clamp(0.0, 1.0);
        Ok((p, self.rec.decision(v, pmf.probs(), mark, p)))
    }

    /// `Pr` of the condition `stack[at..end]`.
    fn solve(&mut self, at: usize, end: usize) -> Result<(f64, NodeId), SolverError> {
        let s = self.solver;
        match end - at {
            0 => return Ok((1.0, self.rec.constant(1.0))),
            1 => {
                s.direct.set(s.direct.get() + 1);
                return self.clause_probability(self.arena.stack[at]);
            }
            _ => {}
        }
        // Split clauses into variable-connected components, written above
        // the condition with their ends on `bounds`; one component is the
        // condition itself.
        let (top, first) = (self.arena.stack.len(), self.arena.bounds.len());
        let split = self.arena.components(at, end);
        let (mut start, n_comps) = if split {
            s.splits.set(s.splits.get() + 1);
            (top, self.arena.bounds.len() - first)
        } else {
            (at, 1)
        };
        let mark = self.rec.mark();
        let mut total = 1.0;
        let mut cut = false;
        for k in 0..n_comps {
            let stop = if split {
                self.arena.bounds[first + k] as usize
            } else {
                end
            };
            let (p, node) = if stop - start == 1 {
                s.direct.set(s.direct.get() + 1);
                self.clause_probability(self.arena.stack[start])?
            } else {
                self.component_probability(start, stop)?
            };
            self.rec.child(0, node);
            total *= p;
            if total == 0.0 {
                cut = k + 1 < n_comps;
                break;
            }
            start = stop;
        }
        self.arena.stack.truncate(top);
        self.arena.bounds.truncate(first);
        let p = total.clamp(0.0, 1.0);
        Ok((p, self.rec.and(mark, p, cut)))
    }

    /// `Pr` of the correlated component `stack[at..end]`, from the cache
    /// or by branching.
    fn component_probability(
        &mut self,
        at: usize,
        end: usize,
    ) -> Result<(f64, NodeId), SolverError> {
        let s = self.solver;
        if !s.caching {
            s.cache_misses.set(s.cache_misses.get() + 1);
            return self.branch(at, end);
        }
        if let Some(&hit) = self.cache.components.get(&self.arena.stack[at..end]) {
            s.cache_hits.set(s.cache_hits.get() + 1);
            return Ok(hit);
        }
        s.cache_misses.set(s.cache_misses.get() + 1);
        let out = self.branch(at, end)?;
        self.cache
            .components
            .insert(self.arena.stack[at..end].into(), out);
        Ok(out)
    }
}

impl Solver for AdpllSolver {
    fn probability(&self, cond: &Condition, dists: &VarDists) -> Result<f64, SolverError> {
        let scratch = &mut *self.scratch.0.borrow_mut();
        self.search(
            cond,
            dists,
            &mut NoTrace,
            &mut scratch.arena,
            &mut scratch.cache,
        )
        .map(|(p, _)| p)
    }

    fn probability_with_stats(
        &self,
        cond: &Condition,
        dists: &VarDists,
    ) -> Result<(f64, SolveStats), SolverError> {
        let before = self.stats();
        let p = self.probability(cond, dists)?;
        Ok((p, self.stats().since(&before)))
    }

    /// Records the search [`probability`](Solver::probability) runs, so
    /// the circuit's [`probability`](Circuit::probability) is bit-identical
    /// to it and the effort equals
    /// [`probability_with_stats`](Solver::probability_with_stats)'s.
    fn compile(
        &self,
        cond: &Condition,
        dists: &VarDists,
    ) -> Option<Result<(Circuit, SolveStats), SolverError>> {
        let before = self.stats();
        let Scratch {
            arena,
            cache,
            builder,
        } = &mut *self.scratch.0.borrow_mut();
        builder.begin();
        Some(
            self.search(cond, dists, builder, arena, cache)
                .map(|(p, root)| (builder.finish(root, p), self.stats().since(&before))),
        )
    }

    fn name(&self) -> &'static str {
        "ADPLL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_bayes::Pmf;
    use bc_ctable::Expr;

    fn v(o: u32, a: u16) -> VarId {
        VarId::new(o, a)
    }

    #[test]
    fn trivial_conditions() {
        let s = AdpllSolver::new();
        let d = VarDists::default();
        assert_eq!(s.probability(&Condition::True, &d).unwrap(), 1.0);
        assert_eq!(s.probability(&Condition::False, &d).unwrap(), 0.0);
    }

    #[test]
    fn independent_clauses_use_the_product_rule() {
        // (x < 2) ∧ (y < 5), x,y uniform over 10 → 0.2 * 0.5.
        let cond =
            Condition::from_clauses(vec![vec![Expr::lt(v(0, 0), 2)], vec![Expr::lt(v(1, 0), 5)]]);
        let d: VarDists = [(v(0, 0), Pmf::uniform(10)), (v(1, 0), Pmf::uniform(10))]
            .into_iter()
            .collect();
        let s = AdpllSolver::new();
        let p = s.probability(&cond, &d).unwrap();
        assert!((p - 0.1).abs() < 1e-12);
        // No branching should have happened.
        assert_eq!(s.stats().branches, 0);
        assert_eq!(s.stats().direct_components, 2);
    }

    #[test]
    fn disjunctive_rule_within_a_clause() {
        // (x < 2 ∨ y < 5) → 1 - 0.8*0.5 = 0.6.
        let cond = Condition::from_clauses(vec![vec![Expr::lt(v(0, 0), 2), Expr::lt(v(1, 0), 5)]]);
        let d: VarDists = [(v(0, 0), Pmf::uniform(10)), (v(1, 0), Pmf::uniform(10))]
            .into_iter()
            .collect();
        let p = AdpllSolver::new().probability(&cond, &d).unwrap();
        assert!((p - 0.6).abs() < 1e-12);
    }

    #[test]
    fn correlated_clauses_branch_correctly() {
        // (x < 2) ∧ (x > 0 ∨ y < 5) with x,y uniform over 4.
        // Exact: P(x=1)·1 + P(x=0)·P(y<5=1)… compute by hand:
        // x<2 → x ∈ {0,1}. If x=1: second clause true (x>0). If x=0: second
        // clause iff y<5 (always true for card 4). So P = P(x<2) = 0.5.
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(v(0, 0), 2)],
            vec![Expr::gt(v(0, 0), 0), Expr::lt(v(1, 0), 5)],
        ]);
        let d: VarDists = [(v(0, 0), Pmf::uniform(4)), (v(1, 0), Pmf::uniform(4))]
            .into_iter()
            .collect();
        let s = AdpllSolver::new();
        let p = s.probability(&cond, &d).unwrap();
        assert!((p - 0.5).abs() < 1e-12, "got {p}");
        assert!(s.stats().branches > 0);
    }

    #[test]
    fn narrower_y_matters() {
        // Same shape but y uniform over 8 and clause needs y < 2:
        // P = P(x=1) + P(x=0)·P(y<2) = 0.25 + 0.25·0.25 = 0.3125.
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(v(0, 0), 2)],
            vec![Expr::gt(v(0, 0), 0), Expr::lt(v(1, 0), 2)],
        ]);
        let d: VarDists = [(v(0, 0), Pmf::uniform(4)), (v(1, 0), Pmf::uniform(8))]
            .into_iter()
            .collect();
        let p = AdpllSolver::new().probability(&cond, &d).unwrap();
        assert!((p - 0.3125).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn heuristics_agree_on_probability() {
        let cond = Condition::from_clauses(vec![
            vec![Expr::gt(v(0, 0), 2), Expr::gt(v(0, 1), 3)],
            vec![Expr::var_gt(v(0, 0), v(1, 0)), Expr::gt(v(0, 1), 2)],
        ]);
        let d: VarDists = [
            (v(0, 0), Pmf::uniform(10)),
            (v(0, 1), Pmf::uniform(8)),
            (v(1, 0), Pmf::uniform(10)),
        ]
        .into_iter()
        .collect();
        let a = AdpllSolver::with_heuristic(BranchHeuristic::MostFrequent)
            .probability(&cond, &d)
            .unwrap();
        let b = AdpllSolver::with_heuristic(BranchHeuristic::First)
            .probability(&cond, &d)
            .unwrap();
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn caching_does_not_change_results_and_saves_branches() {
        // A condition whose branches collapse to repeated residuals: the
        // cached solver must agree with the uncached one and record hits.
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(v(0, 0), 5), Expr::lt(v(1, 0), 3)],
            vec![Expr::gt(v(0, 0), 1), Expr::gt(v(2, 0), 6)],
            vec![
                Expr::lt(v(0, 0), 8),
                Expr::gt(v(1, 0), 1),
                Expr::lt(v(2, 0), 9),
            ],
        ]);
        let d: VarDists = (0..3).map(|o| (v(o, 0), Pmf::uniform(10))).collect();
        let cached = AdpllSolver::new();
        let uncached = AdpllSolver::new().with_caching(false);
        let a = cached.probability(&cond, &d).unwrap();
        let b = uncached.probability(&cond, &d).unwrap();
        assert!((a - b).abs() < 1e-12);
        assert!(cached.stats().cache_hits > 0, "expected cache hits");
        assert!(
            cached.stats().branches < uncached.stats().branches,
            "caching should prune branches: {} vs {}",
            cached.stats().branches,
            uncached.stats().branches
        );
    }

    #[test]
    fn cache_is_per_call() {
        // Two calls with different distributions must not contaminate each
        // other even though the conditions are identical.
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(v(0, 0), 2)],
            vec![Expr::gt(v(0, 0), 0), Expr::lt(v(1, 0), 2)],
        ]);
        let s = AdpllSolver::new();
        let d1: VarDists = [(v(0, 0), Pmf::uniform(4)), (v(1, 0), Pmf::uniform(4))]
            .into_iter()
            .collect();
        let d2: VarDists = [(v(0, 0), Pmf::uniform(4)), (v(1, 0), Pmf::delta(4, 3))]
            .into_iter()
            .collect();
        let p1 = s.probability(&cond, &d1).unwrap();
        let p2 = s.probability(&cond, &d2).unwrap();
        // P(x<2)·[P(x=1)/P(x<2) + P(x=0)/P(x<2)·P(y<2)] = .25 + .25·.5.
        assert!((p1 - 0.375).abs() < 1e-12, "got {p1}");
        // With y pinned to 3, the clause (x>0 ∨ y<2) needs x>0:
        // P = P(x=1) = 0.25.
        assert!((p2 - 0.25).abs() < 1e-12, "got {p2}");
    }

    #[test]
    fn per_call_stats_are_not_cumulative() {
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(v(0, 0), 2)],
            vec![Expr::gt(v(0, 0), 0), Expr::lt(v(1, 0), 2)],
        ]);
        let d: VarDists = [(v(0, 0), Pmf::uniform(4)), (v(1, 0), Pmf::uniform(4))]
            .into_iter()
            .collect();
        let s = AdpllSolver::new();
        let (_, first) = s.probability_with_stats(&cond, &d).unwrap();
        let (_, second) = s.probability_with_stats(&cond, &d).unwrap();
        assert!(first.branches > 0);
        // The second call reports only its own work, while the cumulative
        // counters keep growing.
        assert_eq!(first.branches, second.branches);
        assert_eq!(s.stats().branches, first.branches + second.branches);
    }

    #[test]
    fn since_saturates_when_solver_is_reset_between_snapshots() {
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(v(0, 0), 2)],
            vec![Expr::gt(v(0, 0), 0), Expr::lt(v(1, 0), 2)],
        ]);
        let d: VarDists = [(v(0, 0), Pmf::uniform(4)), (v(1, 0), Pmf::uniform(4))]
            .into_iter()
            .collect();
        let s = AdpllSolver::new();
        s.probability(&cond, &d).unwrap();
        let before = s.stats();
        assert!(before.branches > 0 && before.cache_misses > 0);
        // A reset between the snapshot and the diff — exactly what happens
        // when a solver is reused across rounds — must saturate to zero,
        // not wrap around.
        s.reset_stats();
        s.probability(&Condition::True, &d).unwrap();
        let diff = s.stats().since(&before);
        assert_eq!(diff.branches, 0);
        assert_eq!(diff.direct_components, 0);
        assert_eq!(diff.component_splits, 0);
        assert_eq!(diff.cache_hits, 0);
        assert_eq!(diff.cache_misses, 0);
        // max_depth is not a count: it carries over as the cumulative max.
        assert_eq!(diff.max_depth, s.stats().max_depth);

        // Normal forward diffs still report exactly the delta.
        let mid = s.stats();
        s.probability(&cond, &d).unwrap();
        let fwd = s.stats().since(&mid);
        assert_eq!(fwd.branches, before.branches);
        assert_eq!(fwd.cache_misses, before.cache_misses);
    }

    #[test]
    fn missing_distribution_propagates() {
        let cond = Condition::from_clauses(vec![vec![Expr::lt(v(7, 7), 1)]]);
        let d = VarDists::default();
        assert!(matches!(
            AdpllSolver::new().probability(&cond, &d),
            Err(SolverError::MissingDistribution(_))
        ));
    }
}
