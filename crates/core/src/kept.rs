//! Kept circuits: one compiled circuit per open condition for the whole
//! session, and the round-level probability cache they feed.
//!
//! The first time a round needs `Pr(φ(o))`, the condition is compiled once
//! ([`AdpllSolver::compile`]) against the *base* distributions — the model's
//! pmfs, before any crowd answer — and evaluated under the current ones.
//! Later rounds re-evaluate the kept circuit ([`Circuit::evaluate`])
//! instead of solving again. Crowd answers only narrow masks, and each
//! current pmf is its base pmf conditioned on the variable's mask, so
//! supports only shrink. The kept circuit's root is therefore
//! bit-identical to a plain ADPLL solve of the condition it was compiled
//! from, `φ_c`, under the current pmfs. In real arithmetic it also equals
//! `Pr(φ(o))` for the current condition, because propagation only decides
//! expressions that the narrowed supports already decide.
//!
//! Because compiles go against the base pmfs, a circuit's structure is a
//! function of `φ_c` alone, and a resumed session can rebuild it from the
//! `φ_c` the checkpoint stores: same nodes, same roots, same derivatives.
//! `φ_c` is not copied: while propagation leaves the condition alone it is
//! the c-table's, and the pass that first rewrites it hands the old one
//! over ([`ProbCache::replaced`]).
//!
//! A circuit is dropped when its condition is decided, and when a var-var
//! answer `(v, w)` arrives for a condition that mentions both `v` and `w`:
//! [`bc_ctable::ConstraintStore::decide`] uses a relation fact only for that
//! exact pair, and that is the one rewrite no mask narrowing explains. With
//! propagation off, an answer settles its expression directly, so every
//! condition mentioning an answered variable drops its circuit. So does
//! every condition mentioning a variable whose new mask has no base mass
//! (its pmf then keeps its old support). DESIGN.md ("Kept circuits") has
//! the argument.
//!
//! A circuit that went [stale](SolverError::StaleCircuit) falls back to a
//! plain solve of the current condition and is not kept.
//!
//! Every probability cached here comes from a compile, an evaluation or a
//! plain solve, each of which checks its root
//! ([`bc_solver::checked_probability`]); one that is not a probability is
//! [`SolverError::InvalidProbability`] and aborts the run.
//!
//! Task selection scores an object off its kept circuit
//! ([`ProbCache::scoring`]), rebuilding a restored one on first use
//! ([`Kept::scoring_circuit`]). An object without one compiles under the
//! current pmfs and keeps nothing.

use crate::error::RunError;
use bc_ctable::{CTable, Condition, Expr};
use bc_data::{ObjectId, VarId};
use bc_solver::{AdpllSolver, Circuit, SolveStats, Solver, SolverError, VarDists};
use std::collections::BTreeMap;

/// An object's kept circuit.
pub(crate) struct Kept {
    /// The condition it was compiled from, `φ_c`, once propagation has
    /// rewritten the object's condition; `None` while the two are the same.
    from: Option<Condition>,
    /// Compiled from `φ_c` against the base pmfs and last evaluated under
    /// the pmfs of its last use; `None` when restored from a checkpoint
    /// and not yet rebuilt.
    circuit: Option<Circuit>,
    /// The variables of `φ_c` that `circuit` does not read (all of them
    /// while it is `None`), sorted. Usually empty, and then unallocated:
    /// the search reads every variable unless a zero product or a branch
    /// cuts it off.
    unread: Vec<VarId>,
}

impl Kept {
    /// A circuit to compile, or rebuild, from `from` or, without one, from
    /// the object's `current` condition.
    fn new(from: Option<Condition>, current: &Condition) -> Kept {
        let compiled = from.as_ref().unwrap_or(current);
        let mut unread: Vec<VarId> = compiled.exprs().flat_map(Expr::vars).collect();
        unread.sort_unstable();
        unread.dedup();
        Kept {
            from,
            circuit: None,
            unread,
        }
    }

    /// Compiles `φ_c` (`from`, else the object's `current` condition)
    /// against `base`, evaluates it under `dists` and keeps it. Returns the
    /// compile's effort and the root under `dists`; the root is `None`
    /// when the circuit went [stale](SolverError::StaleCircuit) there, and
    /// then nothing is kept.
    fn rebuild(
        &mut self,
        current: &Condition,
        solver: &AdpllSolver,
        base: &VarDists,
        dists: &VarDists,
    ) -> Result<(SolveStats, Option<f64>), SolverError> {
        let (mut circuit, stats) = solver.compile(self.from.as_ref().unwrap_or(current), base)?;
        match circuit.evaluate(dists) {
            Ok(p) => {
                self.attach(circuit);
                Ok((stats, Some(p)))
            }
            Err(SolverError::StaleCircuit) => Ok((stats, None)),
            Err(e) => Err(e),
        }
    }

    /// The circuit to score the object off, whose condition is `current`,
    /// evaluated under `dists`, with the search effort of building it just
    /// now. One restored from a checkpoint is rebuilt here, on first use,
    /// against `base`. Every other kept circuit was evaluated when its
    /// probability was cached, and no pmf it reads has changed since (an
    /// answer touching one would have invalidated the cache): its effort
    /// is `None`. `None` when the rebuild went stale.
    pub(crate) fn scoring_circuit(
        &mut self,
        current: &Condition,
        solver: &AdpllSolver,
        base: &VarDists,
        dists: &VarDists,
    ) -> Result<Option<(&Circuit, Option<SolveStats>)>, SolverError> {
        let mut rebuilt = None;
        if self.circuit.is_none() {
            match self.rebuild(current, solver, base, dists)? {
                (stats, Some(_)) => rebuilt = Some(stats),
                (_, None) => return Ok(None),
            }
        }
        Ok(self.circuit.as_ref().map(|circuit| (circuit, rebuilt)))
    }

    /// Keeps `circuit`, compiled from `φ_c`.
    fn attach(&mut self, circuit: Circuit) {
        {
            let mut read = circuit.vars().peekable();
            self.unread.retain(|&v| {
                while read.next_if(|&w| w < v).is_some() {}
                read.peek() != Some(&v)
            });
        }
        self.unread.shrink_to_fit();
        self.circuit = Some(circuit);
    }

    /// The variables of `φ_c`: the circuit's and the unread ones.
    fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        let read = self.circuit.iter().flat_map(Circuit::vars);
        read.chain(self.unread.iter().copied())
    }

    /// Whether `φ_c` mentions a variable of `set`.
    fn mentions_any(&self, set: &VarSet) -> bool {
        self.vars().any(|v| set.contains(v))
    }

    /// Whether `φ_c` mentions both `v` and `w`.
    fn mentions_both(&self, v: VarId, w: VarId) -> bool {
        self.vars().any(|u| u == v) && self.vars().any(|u| u == w)
    }
}

/// A sorted list of variables with a per-object pre-check, so that a pass
/// over every cached object tests membership with one bit lookup for most
/// variables.
struct VarSet<'v> {
    sorted: &'v [VarId],
    /// `objects[i]`: a variable of `sorted` belongs to object `i`.
    objects: Vec<bool>,
}

impl<'v> VarSet<'v> {
    fn new(sorted: &'v [VarId]) -> VarSet<'v> {
        let mut objects = Vec::new();
        for v in sorted {
            let i = v.object.index();
            if i >= objects.len() {
                objects.resize(i + 1, false);
            }
            objects[i] = true;
        }
        VarSet { sorted, objects }
    }

    fn contains(&self, v: VarId) -> bool {
        self.objects.get(v.object.index()).copied().unwrap_or(false)
            && self.sorted.binary_search(&v).is_ok()
    }

    /// Whether `cond` mentions a variable of the set.
    fn mentioned_by(&self, cond: &Condition) -> bool {
        cond.exprs().flat_map(Expr::vars).any(|v| self.contains(v))
    }
}

/// What the session remembers about one object between rounds.
#[derive(Default)]
struct Entry {
    /// `Pr(φ(o))` under the current pmfs, while no answer has touched it.
    p: Option<f64>,
    kept: Option<Kept>,
}

/// The effort behind one probability batch.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BatchWork {
    /// Search effort of the compiles and plain solves.
    pub stats: SolveStats,
    /// Compiles and plain solves.
    pub solver_calls: u64,
    /// Conditions compiled to a kept circuit.
    pub compiles: u64,
    /// Kept circuits re-evaluated instead of solved.
    pub evaluations: u64,
}

impl std::ops::AddAssign for BatchWork {
    fn add_assign(&mut self, rhs: BatchWork) {
        self.stats += rhs.stats;
        self.solver_calls += rhs.solver_calls;
        self.compiles += rhs.compiles;
        self.evaluations += rhs.evaluations;
    }
}

/// An object of a batch, its current condition and its kept circuit.
type Job<'t> = (ObjectId, &'t Condition, Option<Kept>);

/// What a batch computed for one object.
type Solved = (ObjectId, f64, Option<Kept>);

/// The session's per-object cache: each open object's probability, valid
/// until a crowd answer touches it, and its kept circuit.
#[derive(Default)]
pub(crate) struct ProbCache {
    entries: BTreeMap<ObjectId, Entry>,
    /// The ADPLL of sequential batches and of scoring.
    solver: AdpllSolver,
}

impl ProbCache {
    /// A cache restored from a checkpoint: the cached probabilities, and
    /// for every object that had a kept circuit, the condition it was
    /// compiled from (`None`: the object's condition in `ctable`).
    pub(crate) fn restore(
        probs: BTreeMap<ObjectId, f64>,
        compiled_from: Vec<(ObjectId, Option<Condition>)>,
        ctable: &CTable,
    ) -> ProbCache {
        let mut entries: BTreeMap<ObjectId, Entry> = probs
            .into_iter()
            .map(|(o, p)| {
                let entry = Entry {
                    p: Some(p),
                    kept: None,
                };
                (o, entry)
            })
            .collect();
        for (o, from) in compiled_from {
            let kept = Kept::new(from, ctable.condition(o));
            entries.entry(o).or_default().kept = Some(kept);
        }
        ProbCache {
            entries,
            solver: AdpllSolver::new(),
        }
    }

    /// The cached probability of `o`.
    pub(crate) fn get(&self, o: ObjectId) -> Option<f64> {
        self.entries.get(&o).and_then(|e| e.p)
    }

    /// The objects of `open` with no cached probability.
    pub(crate) fn stale(&self, open: &[ObjectId]) -> Vec<ObjectId> {
        open.iter()
            .copied()
            .filter(|&o| self.get(o).is_none())
            .collect()
    }

    /// Every cached probability, by object.
    pub(crate) fn probabilities(&self) -> impl Iterator<Item = (ObjectId, f64)> + '_ {
        self.entries
            .iter()
            .filter_map(|(&o, e)| e.p.map(|p| (o, p)))
    }

    /// Every kept circuit's object and the condition it was compiled
    /// from, `None` where that is the object's current condition.
    pub(crate) fn compiled_from(&self) -> impl Iterator<Item = (ObjectId, Option<&Condition>)> {
        self.entries
            .iter()
            .filter_map(|(&o, e)| Some((o, e.kept.as_ref()?.from.as_ref())))
    }

    /// Takes note that propagation replaced `o`'s condition, `old`: a
    /// circuit compiled from `old` keeps it as its `φ_c`.
    pub(crate) fn replaced(&mut self, o: ObjectId, old: Condition) {
        if let Some(kept) = self.entries.get_mut(&o).and_then(|e| e.kept.as_mut()) {
            kept.from.get_or_insert(old);
        }
    }

    /// The per-round invalidation, run after a round's answers arrive and
    /// before they are propagated. It forgets every decided object, and
    /// the probability of every object whose circuit's condition mentions
    /// a `touched` variable. It drops the circuits of conditions that
    /// mention both sides of a `var_var` answer, or, when answers rewrite
    /// conditions directly (`rewrites`, propagation off), any `touched`
    /// variable.
    pub(crate) fn invalidate(
        &mut self,
        ctable: &CTable,
        touched: &[VarId],
        var_var: &[(VarId, VarId)],
        rewrites: bool,
    ) {
        let touched = VarSet::new(touched);
        self.entries.retain(|&o, entry| {
            let cond = ctable.condition(o);
            if cond.is_decided() {
                return false;
            }
            // The current condition's variables are a subset of `φ_c`'s.
            let Some(kept) = &entry.kept else {
                if touched.mentioned_by(cond) {
                    entry.p = None;
                }
                return entry.p.is_some();
            };
            if !kept.mentions_any(&touched) {
                return true;
            }
            entry.p = None;
            let drop = if rewrites {
                touched.mentioned_by(cond)
            } else {
                var_var.iter().any(|&(v, w)| {
                    kept.mentions_both(v, w) && cond.mentions_any(&[v]) && cond.mentions_any(&[w])
                })
            };
            if drop {
                entry.kept = None;
            }
            entry.kept.is_some()
        });
    }

    /// Drops the circuit of every condition compiled from one that
    /// mentions a variable of `vars` (sorted). For variables whose new
    /// mask has no base mass; rare, so this scan is not folded into
    /// [`ProbCache::invalidate`].
    pub(crate) fn drop_circuits_mentioning(&mut self, vars: &[VarId]) {
        let vars = VarSet::new(vars);
        self.entries.retain(|_, entry| {
            if entry.kept.as_ref().is_some_and(|k| k.mentions_any(&vars)) {
                entry.kept = None;
            }
            entry.p.is_some() || entry.kept.is_some()
        });
    }

    /// Caches `Pr(φ(o))` for every object of `objects` under `dists`. An
    /// object with a kept circuit re-evaluates it; one without compiles its
    /// condition against `base` and keeps the circuit; a circuit gone stale
    /// solves the current condition.
    /// With `parallel`, batches above 64 objects split over threads, each
    /// with its own ADPLL, with the same bits as the sequential path.
    pub(crate) fn solve_batch(
        &mut self,
        parallel: bool,
        ctable: &CTable,
        objects: &[ObjectId],
        base: &VarDists,
        dists: &VarDists,
    ) -> Result<BatchWork, RunError> {
        let mut jobs: Vec<Job> = objects
            .iter()
            .map(|&o| {
                let kept = self.entries.get_mut(&o).and_then(|e| e.kept.take());
                (o, ctable.condition(o), kept)
            })
            .collect();
        let (solved, work) = if parallel && objects.len() > 64 {
            let n_threads = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(objects.len());
            let chunk = objects.len().div_ceil(n_threads);
            let mut chunks = Vec::with_capacity(n_threads);
            while !jobs.is_empty() {
                let rest = jobs.split_off(chunk.min(jobs.len()));
                chunks.push(std::mem::replace(&mut jobs, rest));
            }
            let mut solved = Vec::with_capacity(objects.len());
            let mut work = BatchWork::default();
            let mut first_err: Option<RunError> = None;
            std::thread::scope(|s| {
                let handles: Vec<_> = chunks
                    .into_iter()
                    .map(|chunk| {
                        s.spawn(move || solve_chunk(&AdpllSolver::new(), chunk, base, dists))
                    })
                    .collect();
                for h in handles {
                    match join_worker(h).and_then(|r| r) {
                        Ok((chunk_solved, chunk_work)) => {
                            solved.extend(chunk_solved);
                            work += chunk_work;
                        }
                        Err(e) => first_err = first_err.take().or(Some(e)),
                    }
                }
            });
            match first_err {
                Some(e) => return Err(e),
                None => (solved, work),
            }
        } else {
            solve_chunk(&self.solver, jobs, base, dists)?
        };
        for (o, p, kept) in solved {
            let entry = self.entries.entry(o).or_default();
            entry.p = Some(p);
            entry.kept = kept;
        }
        Ok(work)
    }

    /// The solver, and object `o`'s kept circuit if it has one, for
    /// scoring `o` ([`Kept::scoring_circuit`]).
    pub(crate) fn scoring(&mut self, o: ObjectId) -> (&AdpllSolver, Option<&mut Kept>) {
        let kept = self.entries.get_mut(&o).and_then(|e| e.kept.as_mut());
        (&self.solver, kept)
    }
}

/// One worker's share of a batch, in order.
fn solve_chunk(
    solver: &AdpllSolver,
    jobs: Vec<Job>,
    base: &VarDists,
    dists: &VarDists,
) -> Result<(Vec<Solved>, BatchWork), RunError> {
    let mut work = BatchWork::default();
    let mut out = Vec::with_capacity(jobs.len());
    for (o, cond, kept) in jobs {
        let (p, kept) = probability(solver, cond, kept, base, dists, &mut work)?;
        out.push((o, p, kept));
    }
    Ok((out, work))
}

/// `Pr(cond)` under `dists`, from `kept` if there is one, else from a
/// compile against `base` that is then kept, else (the compile went
/// stale) from a plain solve.
fn probability(
    solver: &AdpllSolver,
    cond: &Condition,
    mut kept: Option<Kept>,
    base: &VarDists,
    dists: &VarDists,
    work: &mut BatchWork,
) -> Result<(f64, Option<Kept>), RunError> {
    if let Some(Kept {
        circuit: Some(circuit),
        ..
    }) = kept.as_mut()
    {
        return match circuit.evaluate(dists) {
            Ok(p) => {
                work.evaluations += 1;
                Ok((p, kept))
            }
            Err(SolverError::StaleCircuit) => plain(solver, cond, dists, work),
            Err(e) => Err(e.into()),
        };
    }
    let mut kept = kept.unwrap_or_else(|| Kept::new(None, cond));
    let (stats, p) = kept.rebuild(cond, solver, base, dists)?;
    work.solver_calls += 1;
    work.compiles += 1;
    work.stats += stats;
    match p {
        Some(p) => Ok((p, Some(kept))),
        None => plain(solver, cond, dists, work),
    }
}

/// `Pr(cond)` by a plain solve; keeps nothing.
fn plain(
    solver: &AdpllSolver,
    cond: &Condition,
    dists: &VarDists,
    work: &mut BatchWork,
) -> Result<(f64, Option<Kept>), RunError> {
    let (p, stats) = solver.probability_with_stats(cond, dists)?;
    work.solver_calls += 1;
    work.stats += stats;
    Ok((p, None))
}

/// Joins a worker thread; a panic becomes [`RunError::WorkerPanicked`]
/// carrying the panic message.
pub(crate) fn join_worker<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> Result<T, RunError> {
    handle.join().map_err(|panic| {
        let message = panic
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        RunError::WorkerPanicked(message)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::UtilityScorer;
    use bc_bayes::Pmf;
    use bc_solver::utility::compile_utilities;
    use bc_solver::ClampScratch;

    fn v(o: u32, a: u16) -> VarId {
        VarId::new(o, a)
    }

    /// φ(o0) = (x > y ∨ x < 3) ∧ (x > 1 ∨ z < 2), φ(o1) = (y < 4 ∨ z > 2):
    /// `o0` mentions x, y and z, `o1` only y and z.
    fn table() -> CTable {
        let (x, y, z) = (v(0, 0), v(1, 0), v(2, 0));
        CTable::new(vec![
            Condition::from_clauses(vec![
                vec![Expr::var_gt(x, y), Expr::lt(x, 3)],
                vec![Expr::gt(x, 1), Expr::lt(z, 2)],
            ]),
            Condition::from_clauses(vec![vec![Expr::lt(y, 4), Expr::gt(z, 2)]]),
        ])
    }

    fn base() -> VarDists {
        (0..3)
            .map(|o| (v(o, 0), Pmf::from_weights(vec![1.0, 2.0, 3.0, 2.0, 1.0])))
            .collect()
    }

    /// Every open object solved under `dists`, kept circuits and all.
    fn solve_all(cache: &mut ProbCache, ctable: &CTable, dists: &VarDists) -> BatchWork {
        let objects = cache.stale(&ctable.open_objects());
        cache
            .solve_batch(false, ctable, &objects, &base(), dists)
            .expect("ADPLL solves")
    }

    /// What a propagation pass does when it rewrites `o`'s condition.
    fn rewrite(ctable: &mut CTable, cache: &mut ProbCache, o: u32, new: Condition) {
        let old = ctable.condition(ObjectId(o)).clone();
        ctable.set_condition(ObjectId(o), new);
        cache.replaced(ObjectId(o), old);
    }

    fn kept(cache: &ProbCache, o: u32) -> bool {
        cache
            .entries
            .get(&ObjectId(o))
            .is_some_and(|e| e.kept.is_some())
    }

    #[test]
    fn kept_circuits_re_evaluate_instead_of_solving() {
        let ctable = table();
        let mut cache = ProbCache::default();
        let mut dists = base();
        let work = solve_all(&mut cache, &ctable, &dists);
        assert_eq!(
            (work.compiles, work.evaluations, work.solver_calls),
            (2, 0, 2)
        );
        let x = v(0, 0);
        cache.invalidate(&ctable, &[x], &[], false);
        assert_eq!(cache.get(ObjectId(0)), None);
        assert!(cache.get(ObjectId(1)).is_some());
        let narrowed = dists.pmf(x).unwrap().conditioned(0b11010).unwrap();
        dists.insert(x, narrowed);
        let work = solve_all(&mut cache, &ctable, &dists);
        assert_eq!(
            (work.compiles, work.evaluations, work.solver_calls),
            (0, 1, 0)
        );
        let solved = AdpllSolver::new()
            .probability(ctable.condition(ObjectId(0)), &dists)
            .unwrap();
        assert_eq!(cache.get(ObjectId(0)).unwrap().to_bits(), solved.to_bits());
    }

    #[test]
    fn a_var_var_answer_drops_the_circuits_that_mention_both_sides() {
        let ctable = table();
        let mut cache = ProbCache::default();
        solve_all(&mut cache, &ctable, &base());
        let (x, y) = (v(0, 0), v(1, 0));
        cache.invalidate(&ctable, &[x, y], &[(x, y)], false);
        assert!(!kept(&cache, 0), "φ(o0) mentions x and y");
        assert!(kept(&cache, 1), "φ(o1) mentions y only");
        assert_eq!(
            (cache.get(ObjectId(0)), cache.get(ObjectId(1))),
            (None, None)
        );
        let work = solve_all(&mut cache, &ctable, &base());
        assert_eq!((work.compiles, work.evaluations), (1, 1));
    }

    #[test]
    fn a_mask_without_base_mass_drops_the_circuits_that_read_it() {
        let ctable = table();
        let mut cache = ProbCache::default();
        solve_all(&mut cache, &ctable, &base());
        let x = v(0, 0);
        cache.invalidate(&ctable, &[x], &[], false);
        cache.drop_circuits_mentioning(&[x]);
        assert!(!cache.entries.contains_key(&ObjectId(0)), "φ(o0) reads x");
        assert!(kept(&cache, 1));
        assert!(cache.get(ObjectId(1)).is_some());
    }

    #[test]
    fn answers_that_rewrite_conditions_drop_every_touched_circuit() {
        let ctable = table();
        let mut cache = ProbCache::default();
        solve_all(&mut cache, &ctable, &base());
        cache.invalidate(&ctable, &[v(2, 0)], &[], true);
        assert!(cache.entries.is_empty(), "both conditions mention z");
    }

    #[test]
    fn invalidation_follows_the_compiled_condition() {
        let mut ctable = table();
        let mut cache = ProbCache::default();
        solve_all(&mut cache, &ctable, &base());
        // Propagation simplified φ(o1) to (z > 2): the kept circuit still
        // reads y, so an answer on y invalidates its probability.
        let (y, z) = (v(1, 0), v(2, 0));
        let compiled = ctable.condition(ObjectId(1)).clone();
        let simplified = Condition::from_clauses(vec![vec![Expr::gt(z, 2)]]);
        rewrite(&mut ctable, &mut cache, 1, simplified);
        cache.invalidate(&ctable, &[y], &[], false);
        assert_eq!(cache.get(ObjectId(1)), None);
        assert!(kept(&cache, 1));
        let from: Vec<_> = cache.compiled_from().collect();
        assert_eq!(from, [(ObjectId(0), None), (ObjectId(1), Some(&compiled))]);
        // A second rewrite keeps the condition the circuit was compiled from.
        let again = Condition::from_clauses(vec![vec![Expr::gt(z, 3)]]);
        rewrite(&mut ctable, &mut cache, 1, again);
        let from: Vec<_> = cache.compiled_from().collect();
        assert_eq!(from[1], (ObjectId(1), Some(&compiled)));
        // A decided condition forgets everything.
        ctable.set_condition(ObjectId(0), Condition::True);
        cache.invalidate(&ctable, &[], &[], false);
        assert!(!cache.entries.contains_key(&ObjectId(0)));
    }

    #[test]
    fn a_restored_cache_keeps_the_compiled_conditions() {
        let mut ctable = table();
        let mut cache = ProbCache::default();
        solve_all(&mut cache, &ctable, &base());
        let z = v(2, 0);
        let simplified = Condition::from_clauses(vec![vec![Expr::gt(z, 2)]]);
        rewrite(&mut ctable, &mut cache, 1, simplified);
        let probs: BTreeMap<ObjectId, f64> = cache.probabilities().collect();
        let from: Vec<(ObjectId, Option<Condition>)> = cache
            .compiled_from()
            .map(|(o, c)| (o, c.cloned()))
            .collect();
        let restored = ProbCache::restore(probs.clone(), from.clone(), &ctable);
        assert_eq!(restored.probabilities().collect::<BTreeMap<_, _>>(), probs);
        let again: Vec<(ObjectId, Option<Condition>)> = restored
            .compiled_from()
            .map(|(o, c)| (o, c.cloned()))
            .collect();
        assert_eq!(again, from);
        // Restored circuits are rebuilt on first use, from the same
        // condition against the same base: the same root, bit for bit.
        let mut restored = restored;
        let dists = base();
        let current = ctable.condition(ObjectId(1));
        let (solver, kept) = restored.scoring(ObjectId(1));
        let (circuit, rebuilt) = kept
            .expect("kept")
            .scoring_circuit(current, solver, &dists, &dists)
            .unwrap()
            .expect("not stale");
        assert!(rebuilt.is_some());
        assert_eq!(
            circuit.probability().to_bits(),
            probs[&ObjectId(1)].to_bits()
        );
    }

    #[test]
    fn a_stale_circuit_solves_plainly_and_scoring_compiles_afresh() {
        let ctable = table();
        let (o, x) = (ObjectId(0), v(0, 0));
        // φ(o0) branches on x, compiled where x = 2 has no mass.
        let mut base = base();
        base.insert(x, Pmf::from_weights(vec![1.0, 2.0, 0.0, 2.0, 1.0]));
        let mut cache = ProbCache::default();
        cache
            .solve_batch(false, &ctable, &ctable.open_objects(), &base, &base)
            .unwrap();
        assert!(kept(&cache, 0));
        // x = 2 regains mass: outside the compiled support.
        let mut dists = base.clone();
        dists.insert(x, Pmf::uniform(5));
        cache.invalidate(&ctable, &[x], &[], false);
        let work = cache
            .solve_batch(false, &ctable, &[o], &base, &dists)
            .unwrap();
        assert_eq!(
            (work.solver_calls, work.compiles, work.evaluations),
            (1, 0, 0)
        );
        assert!(!kept(&cache, 0));
        let cond = ctable.condition(o);
        let solver = AdpllSolver::new();
        let p = solver.probability(cond, &dists).unwrap();
        assert_eq!(cache.get(o).unwrap().to_bits(), p.to_bits());
        // Scoring the object compiles under the current pmfs, keeps
        // nothing, and scores like that compile.
        let want = compile_utilities(&solver, cond, &dists, p).unwrap();
        let mut scratch = ClampScratch::default();
        let mut scorer = UtilityScorer::new(&mut cache, &base, &dists);
        let mut object = scorer.object(o, cond, p);
        for e in cond.exprs() {
            let got = object.score(e).unwrap();
            let want = want
                .utility(e, &dists, &mut scratch)
                .unwrap()
                .expect("off the circuit");
            assert_eq!(got.to_bits(), want.to_bits(), "{e}");
        }
        let tally = scorer.tally();
        assert_eq!(
            (tally.compiles, tally.reused, tally.solver_calls),
            (1, 0, 1)
        );
        assert!(!kept(&cache, 0));
    }
}
