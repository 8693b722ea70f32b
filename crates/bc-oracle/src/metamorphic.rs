//! Metamorphic invariants over whole runs.
//!
//! The differential harness ([`crate::diff`]) checks a *static* instance;
//! the checks here perturb an instance or drive a full crowdsourcing run
//! and assert relations that must hold regardless of the numbers involved:
//!
//! * [`conditioning_decomposes`] — the law of total probability across
//!   answer propagation: conditioning the c-table and the pmfs on each
//!   possible answer to a cell and mixing back by the prior reproduces the
//!   unconditioned probability exactly. This is the statement that
//!   constraint pruning/propagation preserves weighted model counts.
//! * [`reflection_preserves_skyline`] — reflecting minimize-direction
//!   attributes ([`bc_data::normalize_directions`] on values,
//!   [`Pmf::reflected`] on distributions) preserves every skyline
//!   probability, and the reflected instance still passes the full
//!   differential check.
//! * [`session_invariants`] — drives a live [`Session`] round by round:
//!   open expressions never increase, decided conditions never revert,
//!   after every round the session's c-table equals its initial c-table
//!   propagated from scratch, whole conditions at a time, against its
//!   constraint store (so incremental propagation loses and keeps nothing
//!   the reference fixpoint would not), and the
//!   session's own per-object probabilities equal an exhaustive
//!   possible-worlds evaluation of its current c-table under its current
//!   posterior.
//! * [`propagation_matches_fixpoint`] — the c-table part of
//!   [`session_invariants`] on tables too large to enumerate.
//! * [`resume_preserves_probabilities`] — checkpointing at a round and
//!   resuming in a fresh session preserves every per-object probability,
//!   at the resume point and at the end of the run.
//!
//! Every function returns `Err(String)` with a human-readable account of
//! the first violated invariant — suitable both for test assertions and
//! the fuzz binary's failure report.

use crate::diff::{check_instance, exact_ctable, DiffConfig};
use crate::gen::{GenConfig, Instance};
use crate::prob_close;
use crate::worlds::PossibleWorlds;
use bayescrowd::{BayesCrowd, BayesCrowdConfig, Session};
use bc_bayes::Pmf;
use bc_crowd::{GroundTruthOracle, SimulatedPlatform};
use bc_ctable::{build_ctable, CTable, Condition, ConstraintStore, Operand, Relation};
use bc_data::{normalize_directions, Direction, ObjectId, VarId};
use bc_solver::{NaiveSolver, Solver, VarDists};
use std::collections::{BTreeMap, BTreeSet};

/// Checks, for every missing cell, that conditioning on each possible
/// answer and mixing by the prior reproduces the unconditioned skyline
/// probability of every object: `Pr(φ) = Σ_v Pr(var = v) · Pr(φ | var = v)`,
/// where the conditional runs through the *production* propagation path
/// ([`ConstraintStore::record`] + [`bc_ctable::CTable::propagate`] +
/// [`Pmf::conditioned`]). Returns the number of (cell, value) pairs
/// exercised.
pub fn conditioning_decomposes(inst: &Instance, eps: f64) -> Result<usize, String> {
    let ctable = exact_ctable(&inst.data);
    let naive = NaiveSolver::default();
    let dists = inst.dists();
    let prior: Vec<f64> = inst
        .data
        .objects()
        .map(|o| naive.probability(ctable.condition(o), &dists))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: prior probability failed: {e}", inst.name))?;

    let mut exercised = 0;
    for &var in &inst.data.missing_vars() {
        let pmf = &inst.pmfs[&var];
        let mut mixed = vec![0.0; inst.data.n_objects()];
        for v in pmf.support() {
            exercised += 1;
            let mut store = ConstraintStore::new(&inst.data);
            store.record(var, Operand::Const(v), Relation::Eq);
            let mut conditioned = ctable.clone();
            let objects = conditioned.open_mentioning(&[var]);
            conditioned.propagate(&store, &[var], &objects);
            let mut map = BTreeMap::new();
            for (&w, base) in &inst.pmfs {
                if let Some(p) = base.conditioned(store.mask(w)) {
                    map.insert(w, p);
                }
            }
            let cond_dists = VarDists::new(map);
            for o in inst.data.objects() {
                let p = naive
                    .probability(conditioned.condition(o), &cond_dists)
                    .map_err(|e| format!("{}: conditional on {var}={v} failed: {e}", inst.name))?;
                mixed[o.index()] += pmf.p(v) * p;
            }
        }
        for o in inst.data.objects() {
            if !prob_close(mixed[o.index()], prior[o.index()], eps) {
                return Err(format!(
                    "{}: conditioning on {var} does not decompose for object {o}: \
                     mixed {} vs prior {}",
                    inst.name,
                    mixed[o.index()],
                    prior[o.index()]
                ));
            }
        }
    }
    Ok(exercised)
}

/// `inst` with minimize-direction attributes reflected: values through
/// [`normalize_directions`], distributions through [`Pmf::reflected`] (the
/// matching pushforward — only pmfs of reflected attributes change).
pub fn reflected_instance(inst: &Instance, dirs: &[Direction]) -> Result<Instance, String> {
    let data = normalize_directions(&inst.data, dirs)
        .map_err(|e| format!("{}: reflection failed: {e}", inst.name))?;
    let pmfs: BTreeMap<VarId, Pmf> = inst
        .pmfs
        .iter()
        .map(|(v, p)| {
            let p = match dirs[v.attr.index()] {
                Direction::Minimize => p.reflected(),
                Direction::Maximize => p.clone(),
            };
            (*v, p)
        })
        .collect();
    Ok(Instance {
        name: format!("{}-reflected", inst.name),
        seed: inst.seed,
        data,
        pmfs,
    })
}

/// Checks that skyline probabilities under mixed preference directions are
/// invariant under the reflection the pipeline actually performs: the
/// directional possible-worlds oracle on the original instance must equal
/// the plain (maximize-everything) oracle on the reflected instance, and
/// the reflected instance must pass the full differential check.
pub fn reflection_preserves_skyline(
    inst: &Instance,
    dirs: &[Direction],
    cfg: &DiffConfig,
) -> Result<(), String> {
    let worlds = PossibleWorlds::with_limit(cfg.max_worlds);
    let direct = worlds
        .skyline_with_directions(&inst.data, &inst.pmfs, dirs)
        .map_err(|e| format!("{}: directional oracle failed: {e}", inst.name))?;
    let reflected = reflected_instance(inst, dirs)?;
    let via_reflection = worlds
        .report(&reflected.data, &reflected.pmfs, None)
        .map_err(|e| format!("{}: reflected oracle failed: {e}", reflected.name))?;
    for o in inst.data.objects() {
        let (a, b) = (direct[o.index()], via_reflection.skyline[o.index()]);
        if !prob_close(a, b, cfg.eps) {
            return Err(format!(
                "{}: reflection changes skyline probability of {o}: {a} vs {b}",
                inst.name
            ));
        }
    }
    check_instance(&reflected, cfg).map_err(|d| d.to_string())?;
    Ok(())
}

/// A completion of `inst` to serve as the crowd's ground truth — each
/// missing cell sampled once from its pmf, deterministically from `seed`.
pub fn sample_ground_truth(inst: &Instance, seed: u64) -> bc_data::Dataset {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut complete = inst.data.clone();
    for (v, pmf) in &inst.pmfs {
        complete
            .set(v.object, v.attr, Some(pmf.sample(&mut rng)))
            .expect("sampled value is in-domain");
    }
    complete
}

fn oracle_config() -> BayesCrowdConfig {
    BayesCrowdConfig {
        budget: 10_000,
        latency: 1_000,
        alpha: 1.0, // exactness requires no pruning
        ..Default::default()
    }
}

/// What [`session_invariants`] covered.
#[derive(Clone, Copy, Debug)]
pub struct SessionTrace {
    /// Crowdsourcing rounds executed.
    pub rounds: usize,
    /// Per-object probability values compared against the oracle.
    pub prob_checks: usize,
}

/// Compares every probability the session currently reports against an
/// exhaustive possible-worlds evaluation of its *current* c-table under
/// its *current* posterior. `n` is the number of objects.
fn check_session_against_worlds(
    session: &mut Session,
    inst: &Instance,
    eps: f64,
    round: usize,
) -> Result<usize, String> {
    let probs = session
        .object_probabilities()
        .map_err(|e| format!("{}: round {round}: probabilities failed: {e}", inst.name))?;
    let pmfs: BTreeMap<VarId, Pmf> = session
        .dists()
        .iter()
        .map(|(v, p)| (*v, p.clone()))
        .collect();
    let n = inst.data.n_objects();
    let mut freq = vec![0.0; n];
    let ctable = session.ctable();
    PossibleWorlds::new()
        .for_each_world(&inst.data, &pmfs, |world, weight| {
            let lookup = |v: VarId| world.get(v.object, v.attr).expect("world is complete");
            for (i, h) in ctable.eval_world(lookup).into_iter().enumerate() {
                if h {
                    freq[i] += weight;
                }
            }
            Ok(())
        })
        .map_err(|e| {
            format!(
                "{}: round {round}: world enumeration failed: {e}",
                inst.name
            )
        })?;
    for (o, p) in &probs {
        if !prob_close(*p, freq[o.index()], eps) {
            return Err(format!(
                "{}: round {round}: session says Pr({o}) = {p}, possible worlds say {}",
                inst.name,
                freq[o.index()]
            ));
        }
    }
    Ok(n)
}

/// Drives a full crowdsourced run over `inst` (perfect workers answering
/// from a pmf-sampled ground truth) and checks, after every round:
/// open expression count never increases, decided conditions never revert,
/// the c-table equals the initial one propagated from scratch against the
/// session's constraint store by a whole-condition fixpoint, and the
/// session's per-object probabilities match the possible-worlds oracle on
/// its current state.
pub fn session_invariants(inst: &Instance, seed: u64, eps: f64) -> Result<SessionTrace, String> {
    let truth = GroundTruthOracle::new(sample_ground_truth(inst, seed));
    let mut platform = SimulatedPlatform::new(truth, 1.0, seed);
    let config = oracle_config();
    let initial = build_ctable(&inst.data, &config.ctable_config());
    let mut session = BayesCrowd::new(config)
        .session(&inst.data, &mut platform)
        .map_err(|e| format!("{}: session start failed: {e}", inst.name))?;

    let mut prev_open = usize::MAX;
    let mut decided_true = BTreeSet::new();
    let mut decided_false = BTreeSet::new();
    let mut trace = SessionTrace {
        rounds: 0,
        prob_checks: 0,
    };
    loop {
        let round = session.round();
        let open = session.open_exprs();
        if open > prev_open {
            return Err(format!(
                "{}: round {round}: open expressions grew from {prev_open} to {open}",
                inst.name
            ));
        }
        prev_open = open;
        for (o, cond) in session.ctable().iter() {
            let reverted = match cond {
                Condition::True => {
                    decided_true.insert(o);
                    decided_false.contains(&o)
                }
                Condition::False => {
                    decided_false.insert(o);
                    decided_true.contains(&o)
                }
                Condition::Cnf(_) => decided_true.contains(&o) || decided_false.contains(&o),
            };
            if reverted {
                return Err(format!(
                    "{}: round {round}: object {o} reverted to {cond:?} after being decided",
                    inst.name
                ));
            }
        }
        check_against_fixpoint(&session, &initial, inst, round)?;
        trace.prob_checks += check_session_against_worlds(&mut session, inst, eps, round)?;

        let more = session
            .step()
            .map_err(|e| format!("{}: round {round}: step failed: {e}", inst.name))?;
        trace.rounds += 1;
        if !more {
            break;
        }
    }
    check_session_against_worlds(&mut session, inst, eps, usize::MAX)?;
    Ok(trace)
}

/// The generator shape of [`propagation_matches_fixpoint`]'s tables:
/// larger than the differential harness's, since nothing enumerates their
/// possible worlds.
pub fn wide_gen_config() -> GenConfig {
    GenConfig {
        min_objects: 16,
        max_objects: 40,
        max_attrs: 5,
        max_card: 6,
        max_missing: 48,
        skew_prob: 0.5,
    }
}

/// Drives a crowdsourced run over `inst` as [`session_invariants`] does,
/// but without enumerating possible worlds, so `inst` may be large
/// ([`wide_gen_config`]), and with three tasks a round, so most answers
/// reach a c-table another round's answers already rewrote. After every
/// round the session's c-table must equal its initial c-table propagated
/// from scratch against the session's constraint store, whole conditions
/// at a time. Returns the rounds run.
pub fn propagation_matches_fixpoint(inst: &Instance, seed: u64) -> Result<usize, String> {
    let truth = GroundTruthOracle::new(sample_ground_truth(inst, seed));
    let mut platform = SimulatedPlatform::new(truth, 1.0, seed);
    let config = BayesCrowdConfig {
        budget: 300,
        latency: 100,
        ..oracle_config()
    };
    let initial = build_ctable(&inst.data, &config.ctable_config());
    let mut session = BayesCrowd::new(config)
        .session(&inst.data, &mut platform)
        .map_err(|e| format!("{}: session start failed: {e}", inst.name))?;
    loop {
        let round = session.round();
        let more = session
            .step()
            .map_err(|e| format!("{}: round {round}: step failed: {e}", inst.name))?;
        check_against_fixpoint(&session, &initial, inst, session.round())?;
        if !more {
            return Ok(session.round());
        }
    }
}

/// Whether every condition of the session's c-table equals the one
/// `initial` holds, propagated from scratch against the session's store.
fn check_against_fixpoint(
    session: &Session,
    initial: &CTable,
    inst: &Instance,
    round: usize,
) -> Result<(), String> {
    let current = session.ctable();
    for (o, cond) in initial.iter() {
        let want = fixpoint(cond, session.store());
        if want != *current.condition(o) {
            return Err(format!(
                "{}: round {round}: object {o} holds {:?}, the initial condition \
                 propagated from scratch is {want:?}",
                inst.name,
                current.condition(o)
            ));
        }
    }
    Ok(())
}

/// `cond` propagated from scratch against `store`, the whole condition at
/// a time and independently of `CTable`'s propagation: `simplify` with the
/// store's decisions, then `substitute` every pinned variable, until
/// nothing changes.
fn fixpoint(cond: &Condition, store: &ConstraintStore) -> Condition {
    let mut current = cond.clone();
    loop {
        let mut next = current.simplify(|e| store.decide(e));
        let mut pinned: Vec<(VarId, bc_data::Value)> = next
            .exprs()
            .flat_map(|e| e.vars())
            .filter_map(|v| store.pinned_value(v).map(|x| (v, x)))
            .collect();
        pinned.sort_unstable();
        pinned.dedup();
        for &(v, x) in &pinned {
            next = next.substitute(v, x);
        }
        if next == current {
            return current;
        }
        current = next;
    }
}

fn probs_of(
    session: &mut Session,
    inst: &Instance,
    what: &str,
) -> Result<BTreeMap<ObjectId, f64>, String> {
    session
        .object_probabilities()
        .map_err(|e| format!("{}: {what}: probabilities failed: {e}", inst.name))
}

fn same_probs(
    a: &BTreeMap<ObjectId, f64>,
    b: &BTreeMap<ObjectId, f64>,
    eps: f64,
    inst: &Instance,
    what: &str,
) -> Result<(), String> {
    for (o, pa) in a {
        let pb = b[o];
        if !prob_close(*pa, pb, eps) {
            return Err(format!(
                "{}: {what}: Pr({o}) diverged: {pa} (uninterrupted) vs {pb} (resumed)",
                inst.name
            ));
        }
    }
    Ok(())
}

/// Runs `inst` to completion once uninterrupted, once checkpointed at
/// round `resume_at` and resumed in a fresh session (and platform), and
/// checks that every per-object probability — at the resume point and at
/// the end — is identical, along with the reported answer set.
pub fn resume_preserves_probabilities(
    inst: &Instance,
    resume_at: usize,
    seed: u64,
    eps: f64,
) -> Result<(), String> {
    let complete = sample_ground_truth(inst, seed);
    let framework = BayesCrowd::new(oracle_config());

    let mut platform_a =
        SimulatedPlatform::new(GroundTruthOracle::new(complete.clone()), 1.0, seed);
    let mut session = framework
        .session(&inst.data, &mut platform_a)
        .map_err(|e| format!("{}: session start failed: {e}", inst.name))?;
    for _ in 0..resume_at {
        if session.is_finished() {
            break;
        }
        session
            .step()
            .map_err(|e| format!("{}: step failed: {e}", inst.name))?;
    }
    let mut checkpoint = Vec::new();
    session
        .checkpoint(&mut checkpoint)
        .map_err(|e| format!("{}: checkpoint failed: {e}", inst.name))?;
    let probs_at_k = probs_of(&mut session, inst, "at checkpoint")?;
    while session
        .step()
        .map_err(|e| format!("{}: step failed: {e}", inst.name))?
    {}
    let final_a = probs_of(&mut session, inst, "uninterrupted end")?;
    let report_a = session
        .finalize()
        .map_err(|e| format!("{}: finalize failed: {e}", inst.name))?;

    let mut platform_b = SimulatedPlatform::new(GroundTruthOracle::new(complete), 1.0, seed);
    let mut resumed = Session::resume(checkpoint.as_slice(), &mut platform_b)
        .map_err(|e| format!("{}: resume failed: {e}", inst.name))?;
    let probs_resumed = probs_of(&mut resumed, inst, "after resume")?;
    same_probs(&probs_at_k, &probs_resumed, eps, inst, "resume point")?;
    while resumed
        .step()
        .map_err(|e| format!("{}: resumed step failed: {e}", inst.name))?
    {}
    let final_b = probs_of(&mut resumed, inst, "resumed end")?;
    same_probs(&final_a, &final_b, eps, inst, "final state")?;
    let report_b = resumed
        .finalize()
        .map_err(|e| format!("{}: resumed finalize failed: {e}", inst.name))?;
    if report_a.result != report_b.result {
        return Err(format!(
            "{}: answer sets diverge after resume: {:?} vs {:?}",
            inst.name, report_a.result, report_b.result
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_instance, GenConfig};

    #[test]
    fn conditioning_decomposes_on_random_instances() {
        for seed in [2u64, 5, 8, 13] {
            let inst = random_instance(seed, &GenConfig::default());
            conditioning_decomposes(&inst, 1e-9).unwrap();
        }
    }

    #[test]
    fn reflection_invariance_on_random_instances() {
        let cfg = DiffConfig::default();
        for seed in [1u64, 4, 9] {
            let inst = random_instance(seed, &GenConfig::default());
            let d = inst.data.n_attrs();
            // Alternate directions so at least one attribute is minimized.
            let dirs: Vec<Direction> = (0..d)
                .map(|i| {
                    if i % 2 == 0 {
                        Direction::Minimize
                    } else {
                        Direction::Maximize
                    }
                })
                .collect();
            reflection_preserves_skyline(&inst, &dirs, &cfg).unwrap();
        }
    }

    #[test]
    fn sessions_stay_consistent_with_the_oracle() {
        for seed in [3u64, 7] {
            let inst = random_instance(seed, &GenConfig::default());
            let trace = session_invariants(&inst, seed, 1e-9).unwrap();
            assert!(trace.rounds >= 1);
            assert!(trace.prob_checks >= inst.data.n_objects());
        }
    }

    #[test]
    fn wide_sessions_propagate_to_the_fixpoint() {
        let mut rounds = 0;
        for seed in [1u64, 2, 3, 4] {
            let inst = random_instance(seed, &wide_gen_config());
            rounds += propagation_matches_fixpoint(&inst, seed).unwrap();
        }
        assert!(rounds >= 12, "{rounds} rounds");
    }

    #[test]
    fn resume_is_transparent_to_probabilities() {
        let inst = random_instance(6, &GenConfig::default());
        resume_preserves_probabilities(&inst, 1, 6, 1e-12).unwrap();
    }
}
