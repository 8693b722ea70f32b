//! The session's per-object cache: each open object's probability, valid
//! until a crowd answer touches it, and its factor tables
//! ([`bc_solver::factored`]) for the whole session.
//!
//! The first time a round needs `Pr(φ(o))`, every clause of `φ(o)` gets a
//! table over the object's own cells, and one pass over their joint
//! support sums the probability. After a round's answers, the tables of
//! the clauses that read an answered variable are forgotten: those
//! variables' pmfs change, and propagation rewrites only clauses that
//! mention them. The next batch keeps every other table whose clause is
//! unchanged and computes the rest. A table is a pure function of its
//! clause and the current pmfs, so kept tables equal fresh ones bit for
//! bit, and a session resumed from a checkpoint, which stores no tables,
//! rebuilds the same ones from its c-table and pmfs.
//!
//! Task selection scores an object off its tables
//! ([`ProbCache::scoring`]), building them first when the object has none
//! (restored from a checkpoint).
//!
//! Every probability cached here is checked where the tables sum it
//! ([`bc_solver::checked_probability`]); one that is not a probability is
//! [`SolverError::InvalidProbability`] and aborts the run. A condition
//! outside the tables' shape is [`SolverError::NotFactored`] and aborts
//! the run too.

use crate::error::RunError;
use bc_ctable::{CTable, Condition, Expr};
use bc_data::{ObjectId, VarId};
use bc_solver::factored::{FactorTables, TableScratch, TableStats};
use bc_solver::{SolverError, VarDists};
use std::collections::BTreeMap;

/// What the session remembers about one object between rounds.
struct Entry {
    /// `Pr(φ(o))` under the current pmfs, while no answer has touched it.
    p: Option<f64>,
    /// `None` until first built, and after a restore.
    tables: Option<FactorTables>,
}

/// The effort behind one probability batch.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BatchWork {
    /// Objects whose tables were built or updated: at least one clause
    /// table computed.
    pub solver_calls: u64,
    /// Clause tables reused and computed, factor groups and joint-support
    /// points of the batch's passes.
    pub stats: TableStats,
}

impl std::ops::AddAssign for BatchWork {
    fn add_assign(&mut self, rhs: BatchWork) {
        self.solver_calls += rhs.solver_calls;
        self.stats += rhs.stats;
    }
}

/// An object of a batch, its current condition and its tables.
type Job<'t> = (ObjectId, &'t Condition, Option<FactorTables>);

/// What a batch computed for one object.
type Solved = (ObjectId, f64, FactorTables);

/// Each open object's probability and factor tables.
#[derive(Default)]
pub(crate) struct ProbCache {
    entries: BTreeMap<ObjectId, Entry>,
    /// The buffers of sequential batches and of scoring.
    scratch: TableScratch,
}

impl ProbCache {
    /// A cache restored from a checkpoint's cached probabilities; tables
    /// are rebuilt when first needed.
    pub(crate) fn restore(probs: BTreeMap<ObjectId, f64>) -> ProbCache {
        let entries = probs
            .into_iter()
            .map(|(o, p)| {
                let entry = Entry {
                    p: Some(p),
                    tables: None,
                };
                (o, entry)
            })
            .collect();
        ProbCache {
            entries,
            scratch: TableScratch::default(),
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

    /// The per-round invalidation, run after a round's answers arrive and
    /// before they are propagated. It forgets every decided object, the
    /// probability of every object whose condition mentions a `touched`
    /// variable (sorted), and the table of every clause that reads one.
    /// An object with a probability has tables of exactly its condition's
    /// clauses, or none (restored from a checkpoint).
    pub(crate) fn invalidate(&mut self, ctable: &CTable, touched: &[VarId]) {
        let touched = VarSet::new(touched);
        self.entries.retain(|&o, entry| {
            let cond = ctable.condition(o);
            if cond.is_decided() {
                return false;
            }
            let mentioned = match &mut entry.tables {
                Some(tables) => tables.forget(|v| touched.contains(v)),
                None => cond
                    .exprs()
                    .flat_map(Expr::vars)
                    .any(|v| touched.contains(v)),
            };
            if mentioned {
                entry.p = None;
            }
            true
        });
    }

    /// Caches `Pr(φ(o))` for every object of `objects` under `dists`,
    /// refreshing its tables first. With `parallel`, batches above 64
    /// objects split over threads, each with its own buffers, with the
    /// same bits as the sequential path.
    pub(crate) fn solve_batch(
        &mut self,
        parallel: bool,
        ctable: &CTable,
        objects: &[ObjectId],
        dists: &VarDists,
    ) -> Result<BatchWork, RunError> {
        let mut jobs: Vec<Job> = objects
            .iter()
            .map(|&o| {
                let tables = self.entries.get_mut(&o).and_then(|e| e.tables.take());
                (o, ctable.condition(o), tables)
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
                        s.spawn(move || solve_chunk(&mut TableScratch::default(), chunk, dists))
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
            solve_chunk(&mut self.scratch, jobs, dists)?
        };
        for (o, p, tables) in solved {
            let entry = Entry {
                p: Some(p),
                tables: Some(tables),
            };
            self.entries.insert(o, entry);
        }
        Ok(work)
    }

    /// Object `o`'s tables, to score it off, whose condition is `cond`,
    /// under `dists`, and the buffers to score in. An object without
    /// tables (restored from a checkpoint) builds them here and keeps
    /// them; the refresh's effort comes back with them. Every other
    /// object's tables were refreshed when its probability was cached,
    /// and no pmf they read has changed since (an answer touching one
    /// would have invalidated the probability).
    pub(crate) fn scoring(
        &mut self,
        o: ObjectId,
        cond: &Condition,
        dists: &VarDists,
    ) -> Result<(&FactorTables, &mut TableScratch, Option<TableStats>), SolverError> {
        let entry = self.entries.entry(o).or_insert(Entry {
            p: None,
            tables: None,
        });
        let mut built = None;
        if entry.tables.is_none() {
            let mut tables = FactorTables::new(o);
            built = Some(tables.refresh(cond, dists, &mut self.scratch)?);
            entry.tables = Some(tables);
        }
        let tables = entry.tables.as_ref().expect("built above");
        Ok((tables, &mut self.scratch, built))
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
}

/// One worker's share of a batch, in order.
fn solve_chunk(
    scratch: &mut TableScratch,
    jobs: Vec<Job>,
    dists: &VarDists,
) -> Result<(Vec<Solved>, BatchWork), RunError> {
    let mut work = BatchWork::default();
    let mut out = Vec::with_capacity(jobs.len());
    for (o, cond, tables) in jobs {
        let mut tables = tables.unwrap_or_else(|| FactorTables::new(o));
        let refreshed = tables.refresh(cond, dists, scratch)?;
        let (p, pass) = tables.probability(dists, scratch)?;
        work.solver_calls += u64::from(refreshed.computed > 0);
        work.stats += refreshed;
        work.stats += pass;
        out.push((o, p, tables));
    }
    Ok((out, work))
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
    use bc_bayes::Pmf;
    use bc_solver::{AdpllSolver, Solver};

    fn v(o: u32, a: u16) -> VarId {
        VarId::new(o, a)
    }

    /// φ(o0) = (x0 > y0 ∨ p < 3) ∧ (x0 > 1 ∨ q < 2) ∧ (r > 2),
    /// φ(o1) = (y0 < 4 ∨ z > 2): own cells x0 of o0 and y0 of o1.
    fn table() -> CTable {
        let (x0, y0) = (v(0, 0), v(1, 0));
        let (p, q, r, z) = (v(2, 1), v(3, 0), v(4, 0), v(5, 0));
        CTable::new(vec![
            Condition::from_clauses(vec![
                vec![Expr::var_gt(x0, y0), Expr::lt(p, 3)],
                vec![Expr::gt(x0, 1), Expr::lt(q, 2)],
                vec![Expr::gt(r, 2)],
            ]),
            Condition::from_clauses(vec![vec![Expr::lt(y0, 4), Expr::gt(z, 2)]]),
        ])
    }

    fn dists() -> VarDists {
        [(0, 0), (1, 0), (2, 1), (3, 0), (4, 0), (5, 0)]
            .into_iter()
            .map(|(o, a)| (v(o, a), Pmf::from_weights(vec![1.0, 2.0, 3.0, 2.0, 1.0])))
            .collect()
    }

    /// Every open object solved under `dists`.
    fn solve_all(cache: &mut ProbCache, ctable: &CTable, dists: &VarDists) -> BatchWork {
        let objects = cache.stale(&ctable.open_objects());
        cache
            .solve_batch(false, ctable, &objects, dists)
            .expect("the tables solve")
    }

    #[test]
    fn an_answer_recomputes_only_the_clauses_that_read_it() {
        let ctable = table();
        let mut cache = ProbCache::default();
        let mut dists = dists();
        let work = solve_all(&mut cache, &ctable, &dists);
        assert_eq!(work.solver_calls, 2);
        assert_eq!((work.stats.reused, work.stats.computed), (0, 4));
        // An answer narrows q: only φ(o0)'s second clause reads it.
        let q = v(3, 0);
        cache.invalidate(&ctable, &[q]);
        assert_eq!(cache.get(ObjectId(0)), None);
        assert!(cache.get(ObjectId(1)).is_some());
        let narrowed = dists.pmf(q).unwrap().conditioned(0b11010).unwrap();
        dists.insert(q, narrowed);
        let work = solve_all(&mut cache, &ctable, &dists);
        assert_eq!(work.solver_calls, 1);
        assert_eq!((work.stats.reused, work.stats.computed), (2, 1));
        let fresh =
            bc_solver::factored::probability(ObjectId(0), ctable.condition(ObjectId(0)), &dists);
        assert_eq!(
            cache.get(ObjectId(0)).unwrap().to_bits(),
            fresh.unwrap().to_bits()
        );
        let solved = AdpllSolver::new()
            .probability(ctable.condition(ObjectId(0)), &dists)
            .unwrap();
        assert!((cache.get(ObjectId(0)).unwrap() - solved).abs() <= 1e-12);
    }

    #[test]
    fn a_rewritten_clause_is_recomputed_and_a_decided_object_forgotten() {
        let mut ctable = table();
        let mut cache = ProbCache::default();
        let dists = dists();
        solve_all(&mut cache, &ctable, &dists);
        // Propagation decided `p < 3` false after an answer on p.
        let (x0, y0, q, r) = (v(0, 0), v(1, 0), v(3, 0), v(4, 0));
        let p = v(2, 1);
        cache.invalidate(&ctable, &[p]);
        ctable.set_condition(
            ObjectId(0),
            Condition::from_clauses(vec![
                vec![Expr::var_gt(x0, y0)],
                vec![Expr::gt(x0, 1), Expr::lt(q, 2)],
                vec![Expr::gt(r, 2)],
            ]),
        );
        let work = solve_all(&mut cache, &ctable, &dists);
        assert_eq!((work.stats.reused, work.stats.computed), (2, 1));
        // A decided condition forgets everything.
        ctable.set_condition(ObjectId(1), Condition::True);
        cache.invalidate(&ctable, &[]);
        assert!(!cache.entries.contains_key(&ObjectId(1)));
        assert!(cache.get(ObjectId(0)).is_some());
    }

    #[test]
    fn a_restored_cache_builds_the_same_tables_when_scoring() {
        let ctable = table();
        let dists = dists();
        let mut cache = ProbCache::default();
        solve_all(&mut cache, &ctable, &dists);
        let probs: BTreeMap<ObjectId, f64> = cache.probabilities().collect();
        let mut restored = ProbCache::restore(probs.clone());
        assert_eq!(restored.probabilities().collect::<BTreeMap<_, _>>(), probs);
        let cond = ctable.condition(ObjectId(0));
        let (tables, scratch, built) = restored.scoring(ObjectId(0), cond, &dists).unwrap();
        assert_eq!(built.map(|s| s.computed), Some(3));
        let (p, _) = tables.probability(&dists, scratch).unwrap();
        assert_eq!(p.to_bits(), probs[&ObjectId(0)].to_bits());
        let (_, _, again) = restored.scoring(ObjectId(0), cond, &dists).unwrap();
        assert_eq!(again, None, "built once, then kept");
    }

    #[test]
    fn a_condition_outside_the_shape_fails_the_batch() {
        let (x0, p) = (v(0, 0), v(2, 1));
        let ctable = CTable::new(vec![Condition::from_clauses(vec![
            vec![Expr::gt(x0, 1), Expr::lt(p, 2)],
            vec![Expr::gt(x0, 3), Expr::gt(p, 0)],
        ])]);
        let mut cache = ProbCache::default();
        let err = cache
            .solve_batch(false, &ctable, &[ObjectId(0)], &dists())
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, RunError::Solver(SolverError::NotFactored(v)) if v == p),
            "{err:?}"
        );
    }
}
