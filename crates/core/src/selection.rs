//! Per-round object ranking and conflict-free task assembly (the two steps
//! of Section 6.2).

use crate::strategy::{expression_frequencies, select_expression, TaskStrategy, UtilityScorer};
use bc_crowd::Task;
use bc_ctable::CTable;
use bc_data::{ObjectId, VarId};
use bc_solver::utility::object_entropy;
use bc_solver::SolverError;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// How open objects are ranked before task selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjectRanking {
    /// Descending Shannon entropy of `Pr(φ(o))` — the paper's step (i).
    Entropy,
    /// A seeded random permutation — the ablation showing the entropy
    /// heuristic's value.
    Random {
        /// Shuffle seed.
        seed: u64,
    },
}

/// An open object with its current probability and entropy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct RankedObject {
    /// The object.
    pub(crate) object: ObjectId,
    /// `Pr(φ(o))` under the current distributions.
    pub(crate) probability: f64,
    /// `H(o)` (Eq. 3).
    pub(crate) entropy: f64,
}

/// Ranks open objects by descending entropy (ties by id, deterministic) —
/// step (i) of task selection.
pub(crate) fn rank_by_entropy(probs: &[(ObjectId, f64)]) -> Vec<RankedObject> {
    let mut ranked: Vec<RankedObject> = probs
        .iter()
        .map(|&(object, probability)| RankedObject {
            object,
            probability,
            entropy: object_entropy(probability),
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.entropy
            .total_cmp(&a.entropy)
            .then(a.object.cmp(&b.object))
    });
    ranked
}

/// Ranks open objects under the chosen policy.
pub(crate) fn rank_objects(probs: &[(ObjectId, f64)], ranking: ObjectRanking) -> Vec<RankedObject> {
    match ranking {
        ObjectRanking::Entropy => rank_by_entropy(probs),
        ObjectRanking::Random { seed } => {
            let mut ranked: Vec<RankedObject> = probs
                .iter()
                .map(|&(object, probability)| RankedObject {
                    object,
                    probability,
                    entropy: object_entropy(probability),
                })
                .collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            ranked.shuffle(&mut rng);
            ranked
        }
    }
}

/// Step (ii): walks the ranked objects and selects one expression (= task)
/// per object under the strategy until `limit` tasks are chosen. With
/// `conflict_free`, no two selected tasks may share a variable — objects
/// whose every expression conflicts are skipped (and more objects further
/// down the ranking are considered instead).
///
/// `blocked` vars are off-limits from the start, in both modes: the
/// framework reserves the variables of tasks already in flight (queued
/// retries) so a round never asks about them twice.
///
/// Expression frequencies are counted once per round, over the conditions
/// of the first `limit` ranked objects (the paper's "chosen top-k
/// objects", see [`expression_frequencies`]), and every walked object's
/// candidates are ordered by them (see [`select_expression`]): an object
/// further down the ranking sees frequency 0 for expressions only it
/// mentions.
///
/// UBS/HHS score candidates through `scorer`, whose tally then holds the
/// round's utility effort. Each ranked probability must be `Pr(φ(o))`
/// under the scorer's distributions. A solver error aborts the round.
pub(crate) fn assemble_round(
    ranked: &[RankedObject],
    ctable: &CTable,
    strategy: TaskStrategy,
    scorer: &mut UtilityScorer<'_>,
    limit: usize,
    conflict_free: bool,
    blocked: &BTreeSet<VarId>,
) -> Result<Vec<Task>, SolverError> {
    if limit == 0 {
        return Ok(Vec::new());
    }
    let freq = expression_frequencies(
        ranked
            .iter()
            .take(limit)
            .map(|r| ctable.condition(r.object)),
    );

    let mut used_vars: BTreeSet<VarId> = blocked.clone();
    let mut tasks = Vec::with_capacity(limit);
    for r in ranked {
        if tasks.len() >= limit {
            break;
        }
        let cond = ctable.condition(r.object);
        if cond.is_decided() {
            continue;
        }
        let off_limits = if conflict_free { &used_vars } else { blocked };
        let Some(expr) = select_expression(
            strategy,
            r.object,
            cond,
            &freq,
            off_limits,
            scorer,
            r.probability,
        )?
        else {
            continue;
        };
        let task = Task::from_expr(&expr);
        if conflict_free {
            used_vars.extend(task.vars());
        }
        tasks.push(task);
    }
    Ok(tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_bayes::Pmf;
    use bc_ctable::{Condition, Expr};
    use bc_solver::factored::Workspace;
    use bc_solver::{AdpllSolver, Solver, VarDists};

    fn v(o: u32, a: u16) -> VarId {
        VarId::new(o, a)
    }

    #[test]
    fn ranking_prefers_uncertain_objects() {
        let ranked =
            rank_by_entropy(&[(ObjectId(0), 0.95), (ObjectId(1), 0.5), (ObjectId(2), 0.7)]);
        assert_eq!(ranked[0].object, ObjectId(1));
        assert_eq!(ranked[1].object, ObjectId(2));
        assert_eq!(ranked[2].object, ObjectId(0));
        assert!(ranked[0].entropy > ranked[2].entropy);
    }

    #[test]
    fn random_ranking_is_a_seeded_permutation() {
        let probs: Vec<(ObjectId, f64)> = (0..10).map(|i| (ObjectId(i), 0.1 * i as f64)).collect();
        let a = rank_objects(&probs, ObjectRanking::Random { seed: 4 });
        let b = rank_objects(&probs, ObjectRanking::Random { seed: 4 });
        assert_eq!(a, b, "same seed, same order");
        let c = rank_objects(&probs, ObjectRanking::Random { seed: 5 });
        assert_ne!(a, c, "different seed, different order");
        // Same multiset of objects as the entropy ranking.
        let mut ids: Vec<ObjectId> = a.iter().map(|r| r.object).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).map(ObjectId).collect::<Vec<_>>());
    }

    #[test]
    fn ranking_breaks_ties_by_id() {
        let ranked = rank_by_entropy(&[(ObjectId(3), 0.5), (ObjectId(1), 0.5)]);
        assert_eq!(ranked[0].object, ObjectId(1));
    }

    /// [`assemble_round`] with a fresh scorer and workspace.
    fn round(
        ranked: &[RankedObject],
        ctable: &CTable,
        strategy: TaskStrategy,
        dists: &VarDists,
        limit: usize,
        conflict_free: bool,
        blocked: &BTreeSet<VarId>,
    ) -> Vec<Task> {
        let mut workspace = Workspace::default();
        let mut scorer = UtilityScorer::new(&mut workspace, dists);
        assemble_round(
            ranked,
            ctable,
            strategy,
            &mut scorer,
            limit,
            conflict_free,
            blocked,
        )
        .unwrap()
    }

    fn two_object_setup() -> (CTable, VarDists) {
        // o0: (x < 5), o1: (x > 2 ∨ y < 3) — they share variable x.
        let x = v(9, 0);
        let y = v(9, 1);
        let ct = CTable::new(vec![
            Condition::from_clauses(vec![vec![Expr::lt(x, 5)]]),
            Condition::from_clauses(vec![vec![Expr::gt(x, 2), Expr::lt(y, 3)]]),
        ]);
        let dists: VarDists = [(x, Pmf::uniform(10)), (y, Pmf::uniform(10))]
            .into_iter()
            .collect();
        (ct, dists)
    }

    #[test]
    fn conflict_free_round_never_shares_variables() {
        let (ct, dists) = two_object_setup();
        let ranked = rank_by_entropy(&[(ObjectId(0), 0.5), (ObjectId(1), 0.6)]);
        let tasks = round(
            &ranked,
            &ct,
            TaskStrategy::Fbs,
            &dists,
            2,
            true,
            &BTreeSet::new(),
        );
        assert_eq!(tasks.len(), 2);
        assert!(!tasks[0].conflicts_with(&tasks[1]));
    }

    #[test]
    fn without_conflict_avoidance_duplicate_vars_can_appear() {
        let (ct, dists) = two_object_setup();
        let ranked = rank_by_entropy(&[(ObjectId(0), 0.5), (ObjectId(1), 0.6)]);
        // FBS picks the x-expression for both objects when not blocked
        // (x-expressions are the most frequent across the two conditions).
        let tasks = round(
            &ranked,
            &ct,
            TaskStrategy::Fbs,
            &dists,
            2,
            false,
            &BTreeSet::new(),
        );
        assert_eq!(tasks.len(), 2);
        assert!(tasks[0].conflicts_with(&tasks[1]));
    }

    #[test]
    fn blocked_vars_are_off_limits_in_both_modes() {
        let (ct, dists) = two_object_setup();
        let ranked = rank_by_entropy(&[(ObjectId(0), 0.5), (ObjectId(1), 0.6)]);
        // Reserving x forces every selected task onto other variables.
        let blocked: BTreeSet<VarId> = [v(9, 0)].into_iter().collect();
        for conflict_free in [true, false] {
            let tasks = round(
                &ranked,
                &ct,
                TaskStrategy::Fbs,
                &dists,
                2,
                conflict_free,
                &blocked,
            );
            assert!(
                tasks
                    .iter()
                    .all(|t| t.vars().all(|var| !blocked.contains(&var))),
                "cf={conflict_free}: selected a blocked variable in {tasks:?}"
            );
            // Only o1 has a non-x expression, so exactly one task fits.
            assert_eq!(tasks.len(), 1, "cf={conflict_free}");
        }
    }

    #[test]
    fn a_ubs_round_runs_one_pass_per_object() {
        // z is confined to {0, 1}, so "z < 7" is decided in both conditions.
        // Every other distinct candidate is an open var-const one, so each
        // object costs exactly one outside pass. Neither condition mentions
        // an own cell, so each pass visits one point.
        let (x, y, z) = (v(9, 0), v(9, 1), v(9, 2));
        let ct = CTable::new(vec![
            Condition::from_clauses(vec![
                vec![Expr::lt(x, 5)],
                vec![Expr::lt(z, 7), Expr::gt(y, 1)],
            ]),
            Condition::from_clauses(vec![vec![Expr::gt(x, 2), Expr::lt(y, 3), Expr::lt(z, 7)]]),
        ]);
        let dists: VarDists = [
            (x, Pmf::uniform(10)),
            (y, Pmf::uniform(10)),
            (z, Pmf::uniform(10).conditioned(0b11).unwrap()),
        ]
        .into_iter()
        .collect();
        let solver = AdpllSolver::new();
        let probs: Vec<(ObjectId, f64)> = [ObjectId(0), ObjectId(1)]
            .into_iter()
            .map(|o| (o, solver.probability(ct.condition(o), &dists).unwrap()))
            .collect();
        let ranked = rank_by_entropy(&probs);
        let mut workspace = Workspace::default();
        let mut scorer = UtilityScorer::new(&mut workspace, &dists);
        let tasks = assemble_round(
            &ranked,
            &ct,
            TaskStrategy::Ubs,
            &mut scorer,
            2,
            false,
            &BTreeSet::new(),
        )
        .unwrap();
        assert_eq!(tasks.len(), 2);
        let mut candidates = 0;
        let mut open = 0;
        for o in [ObjectId(0), ObjectId(1)] {
            let distinct: BTreeSet<Expr> = ct.condition(o).exprs().copied().collect();
            candidates += distinct.len() as u64;
            open += distinct
                .iter()
                .filter(|e| {
                    let p = dists.expr_prob(e).unwrap();
                    p > f64::EPSILON && p < 1.0 - f64::EPSILON
                })
                .count() as u64;
        }
        let tally = scorer.tally();
        assert_eq!((candidates, open), (6, 4));
        assert_eq!(tally.candidates, candidates);
        assert_eq!((tally.passes, tally.points), (2, 2));
    }

    #[test]
    fn limit_caps_the_batch() {
        let (ct, dists) = two_object_setup();
        let ranked = rank_by_entropy(&[(ObjectId(0), 0.5), (ObjectId(1), 0.6)]);
        let tasks = round(
            &ranked,
            &ct,
            TaskStrategy::Fbs,
            &dists,
            1,
            true,
            &BTreeSet::new(),
        );
        assert_eq!(tasks.len(), 1);
        assert!(round(
            &ranked,
            &ct,
            TaskStrategy::Fbs,
            &dists,
            0,
            true,
            &BTreeSet::new()
        )
        .is_empty());
    }
}
