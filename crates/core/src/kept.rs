//! The session's per-object cache: each open object's probability, valid
//! until a crowd answer touches its condition, and the workspace
//! ([`bc_solver::factored::Workspace`]) probabilities and scores are
//! computed in.
//!
//! A round sums `Pr(φ(o))` for each open object without one in one call
//! ([`bc_solver::factored::Workspace::probability`]): in closed form from
//! the clause tables when at most one own cell is read by two clauses, and
//! by group tables and a pass over their classes otherwise. Only the
//! probability is kept. After a round's answers, every object whose
//! condition mentions an answered variable is forgotten: those variables'
//! pmfs change, and propagation rewrites, and may decide, only conditions
//! that mention them. So the cache holds only open objects. Every other
//! probability stays valid, and a session resumed from a checkpoint
//! restores them with their bits.
//!
//! Task selection scores an object in the same workspace
//! ([`ProbCache::workspace`]), building its tables there: a table is a
//! pure function of its clause and the current pmfs, and the closed form
//! sums what a pass over them would, bit for bit, so scoring reads the
//! tables of the same `Pr(φ)`.
//!
//! Every probability cached here is checked where the tables sum it
//! ([`bc_solver::checked_probability`]); one that is not a probability is
//! [`SolverError::InvalidProbability`] and aborts the run. A condition
//! outside the tables' shape is [`SolverError::NotFactored`] and aborts
//! the run too.
//!
//! [`SolverError::InvalidProbability`]: bc_solver::SolverError::InvalidProbability
//! [`SolverError::NotFactored`]: bc_solver::SolverError::NotFactored

use crate::error::RunError;
use bc_ctable::CTable;
use bc_data::ObjectId;
use bc_solver::factored::{TableStats, Workspace};
use bc_solver::VarDists;
use std::collections::BTreeMap;

/// Each open object's probability, and the workspace of sequential
/// batches and of scoring.
#[derive(Default)]
pub(crate) struct ProbCache {
    probs: BTreeMap<ObjectId, f64>,
    workspace: Workspace,
}

impl ProbCache {
    /// A cache restored from a checkpoint's cached probabilities, keeping
    /// only the objects `ctable` leaves open.
    pub(crate) fn restore(mut probs: BTreeMap<ObjectId, f64>, ctable: &CTable) -> ProbCache {
        probs.retain(|&o, _| !ctable.condition(o).is_decided());
        ProbCache {
            probs,
            workspace: Workspace::default(),
        }
    }

    /// The cached probability of `o`.
    pub(crate) fn get(&self, o: ObjectId) -> Option<f64> {
        self.probs.get(&o).copied()
    }

    /// The objects of `open` with no cached probability.
    pub(crate) fn stale(&self, open: &[ObjectId]) -> Vec<ObjectId> {
        open.iter()
            .copied()
            .filter(|o| !self.probs.contains_key(o))
            .collect()
    }

    /// Every cached probability, by object.
    pub(crate) fn probabilities(&self) -> impl Iterator<Item = (ObjectId, f64)> + '_ {
        self.probs.iter().map(|(&o, &p)| (o, p))
    }

    /// The workspace scoring builds tables in.
    pub(crate) fn workspace(&mut self) -> &mut Workspace {
        &mut self.workspace
    }

    /// The per-round invalidation, run after a round's answers arrive and
    /// before they are propagated: forgets every object of `touched`, the
    /// open objects whose condition mentions an answered variable
    /// ([`CTable::open_mentioning`]).
    pub(crate) fn invalidate(&mut self, touched: &[ObjectId]) {
        for o in touched {
            self.probs.remove(o);
        }
    }

    /// Caches `Pr(φ(o))` for every object of `objects` under `dists`;
    /// returns the effort of the sums.
    /// With `parallel`, batches above 64 objects split over threads, each
    /// with its own workspace, with the same bits as the sequential path.
    pub(crate) fn solve_batch(
        &mut self,
        parallel: bool,
        ctable: &CTable,
        objects: &[ObjectId],
        dists: &VarDists,
    ) -> Result<TableStats, RunError> {
        let mut stats = TableStats::default();
        if parallel && objects.len() > 64 {
            let n_threads = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(objects.len());
            let chunk = objects.len().div_ceil(n_threads);
            let mut first_err: Option<RunError> = None;
            std::thread::scope(|s| {
                let handles: Vec<_> = objects
                    .chunks(chunk)
                    .map(|chunk| {
                        s.spawn(move || {
                            let mut workspace = Workspace::default();
                            let mut solved = Vec::with_capacity(chunk.len());
                            let stats =
                                solve_chunk(&mut workspace, ctable, chunk, dists, &mut solved)?;
                            Ok::<_, RunError>((solved, stats))
                        })
                    })
                    .collect();
                for h in handles {
                    match join_worker(h).and_then(|r| r) {
                        Ok((solved, chunk_stats)) => {
                            self.probs.extend(solved);
                            stats += chunk_stats;
                        }
                        Err(e) => first_err = first_err.take().or(Some(e)),
                    }
                }
            });
            if let Some(e) = first_err {
                return Err(e);
            }
        } else {
            let mut solved = Vec::with_capacity(objects.len());
            stats = solve_chunk(&mut self.workspace, ctable, objects, dists, &mut solved)?;
            self.probs.extend(solved);
        }
        Ok(stats)
    }
}

/// One worker's share of a batch, in order: each object's probability
/// goes to `solved`.
fn solve_chunk(
    workspace: &mut Workspace,
    ctable: &CTable,
    objects: &[ObjectId],
    dists: &VarDists,
    solved: &mut Vec<(ObjectId, f64)>,
) -> Result<TableStats, RunError> {
    let mut stats = TableStats::default();
    for &o in objects {
        let (p, work) = workspace.probability(o, ctable.condition(o), dists)?;
        stats += work;
        solved.push((o, p));
    }
    Ok(stats)
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
    use bc_ctable::{Condition, Expr};
    use bc_data::VarId;
    use bc_solver::{AdpllSolver, Solver, SolverError};

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

    /// Every open object without a probability solved under `dists`.
    fn solve_all(cache: &mut ProbCache, ctable: &CTable, dists: &VarDists) -> TableStats {
        let objects = cache.stale(&ctable.open_objects());
        cache
            .solve_batch(false, ctable, &objects, dists)
            .expect("the tables solve")
    }

    #[test]
    fn an_answer_forgets_only_the_objects_that_read_it() {
        let ctable = table();
        let mut cache = ProbCache::default();
        let mut dists = dists();
        let stats = solve_all(&mut cache, &ctable, &dists);
        assert_eq!(stats.clause_tables, 4);
        // An answer narrows q: only φ(o0) reads it, and its three clause
        // tables are built again.
        let q = v(3, 0);
        cache.invalidate(&ctable.open_mentioning(&[q]));
        assert_eq!(cache.get(ObjectId(0)), None);
        let kept = cache.get(ObjectId(1)).expect("o1 does not read q");
        let narrowed = dists.pmf(q).unwrap().conditioned(0b11010).unwrap();
        dists.insert(q, narrowed);
        assert_eq!(solve_all(&mut cache, &ctable, &dists).clause_tables, 3);
        assert_eq!(cache.get(ObjectId(1)).unwrap().to_bits(), kept.to_bits());
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
        // A restored cache holds the same bits.
        let probs: BTreeMap<ObjectId, f64> = cache.probabilities().collect();
        let restored = ProbCache::restore(probs.clone(), &ctable);
        assert_eq!(restored.probabilities().collect::<BTreeMap<_, _>>(), probs);
    }

    #[test]
    fn a_restored_cache_forgets_decided_objects() {
        let mut ctable = table();
        ctable.set_condition(ObjectId(1), Condition::True);
        let probs = BTreeMap::from([(ObjectId(0), 0.5), (ObjectId(1), 0.25)]);
        let restored = ProbCache::restore(probs, &ctable);
        assert_eq!(restored.get(ObjectId(1)), None);
        assert_eq!(restored.get(ObjectId(0)), Some(0.5));
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
