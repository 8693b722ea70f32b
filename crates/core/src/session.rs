//! Resumable run sessions with durable checkpoints.
//!
//! A crowd run spans real human latency, and every answered task is money
//! already spent. [`Session`] exposes the crowdsourcing loop of Algorithm 4
//! one round at a time ([`Session::step`]) so a caller can persist the full
//! mid-run state between rounds ([`Session::checkpoint`]) and, after a
//! crash, pick the run back up exactly where it stopped
//! ([`Session::resume`]).
//!
//! Resumption is *deterministically continuing*: a run resumed at round `k`
//! produces a [`RunReport`] identical field-by-field (wall-clock durations
//! aside) to the uninterrupted run, because the checkpoint carries
//! everything the remaining rounds depend on — the learned distributions,
//! the c-table and constraint store, the retry queue, the probability
//! cache, every counter, and the platform's own RNG streams
//! ([`bc_crowd::PlatformState`]).
//!
//! [`BayesCrowd::run`](crate::BayesCrowd::run) and
//! [`BayesCrowd::try_run`](crate::BayesCrowd::try_run) are thin loops over
//! this type.

use crate::config::{BayesCrowdConfig, SolverKind};
use crate::error::RunError;
use crate::kept::ProbCache;
use crate::report::RunReport;
use crate::selection::{assemble_round, rank_objects, ObjectRanking};
use crate::strategy::{TaskStrategy, UtilityScorer};
use bc_bayes::anneal::AnnealConfig;
use bc_bayes::em::EmConfig;
use bc_bayes::learn::LearnConfig;
use bc_bayes::{MissingValueModel, ModelConfig, Pmf, StructureSearch};
use bc_crowd::{CrowdPlatform, PlatformState, RetryPolicy, Task, TaskAnswer, TaskOutcome};
use bc_crowd::{CrowdStats, FaultStats};
use bc_ctable::{
    CTable, Clause, CmpOp, Condition, ConstraintStore, DominatorStrategy, Expr, Operand, Relation,
};
use bc_data::{Accuracy, Dataset, Domain, ObjectId, VarId};
use bc_obs::{Event, NoopObserver, Observer, RunPhase, Span};
use bc_snapshot::{fnv1a64, Snapshot, SnapshotError, SnapshotWriter, Value};
use bc_solver::{BranchHeuristic, Solver, VarDists};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// A failed task waiting in the retry queue.
#[derive(Clone, Copy, Debug)]
struct PendingTask {
    task: Task,
    /// Posting attempts so far (≥ 1; the task failed each of them).
    attempts: usize,
    /// First round (1-based) the task may be re-posted in, per the retry
    /// policy's backoff.
    eligible_round: usize,
}

/// Whether a failed task is still worth re-posting: propagation may have
/// decided everything its variables touch, in which case the answer would
/// be useless.
fn task_still_open(ctable: &CTable, task: &Task) -> bool {
    let rhs = match task.rhs {
        Operand::Var(v) => v,
        Operand::Const(_) => task.var,
    };
    let mut vars = [task.var, rhs];
    vars.sort_unstable();
    ctable
        .iter()
        .any(|(_, c)| !c.is_decided() && c.mentions_any(&vars))
}

/// Per-object condition probabilities (see [`ProbCache::solve_batch`]),
/// cached, emitting one [`Event::ProbabilityBatch`] per non-empty batch.
/// Solver errors (e.g. the naive enumerator's state cap) fall back to a
/// fresh, identically configured ADPLL; the fallback count is surfaced on
/// the event so the degradation is visible. An error that survives the
/// fallback aborts the run as [`RunError::Solver`]. Returns the number of
/// conditions computed.
#[allow(clippy::too_many_arguments)]
fn probabilities(
    config: &BayesCrowdConfig,
    ctable: &CTable,
    cache: &mut ProbCache,
    objects: &[ObjectId],
    solver: &dyn Solver,
    base: &VarDists,
    dists: &VarDists,
    phase: RunPhase,
    observer: &mut dyn Observer,
) -> Result<u64, RunError> {
    if objects.is_empty() {
        return Ok(0);
    }
    let t = Instant::now();
    let work = cache.solve_batch(config, ctable, objects, solver, base, dists)?;
    let stats = work.stats;
    observer.event(&Event::ProbabilityBatch {
        phase,
        objects: objects.len(),
        solver_calls: work.solver_calls,
        compiles: work.compiles,
        evaluations: work.evaluations,
        branches: stats.branches,
        cache_hits: stats.cache_hits,
        fallbacks: work.fallbacks,
        nanos: t.elapsed().as_nanos(),
    });
    observer.event(&Event::SolverSearch {
        phase,
        decisions: stats.branches,
        direct_components: stats.direct_components,
        component_splits: stats.component_splits,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        max_depth: stats.max_depth,
    });
    Ok(objects.len() as u64)
}

/// An in-flight crowd run: the crowdsourcing phase of Algorithm 4, paused
/// between rounds.
///
/// Obtain one from [`BayesCrowd::session`](crate::BayesCrowd::session)
/// (which runs the modeling phase), drive it with [`Session::step`], and
/// close it with [`Session::finalize`]. Between steps — after a round's
/// answers have been propagated and before the next task selection — the
/// whole state can be written out with [`Session::checkpoint`] and later
/// revived with [`Session::resume`].
pub struct Session<'a> {
    config: BayesCrowdConfig,
    data: Dataset,
    platform: &'a mut dyn CrowdPlatform,
    observer: Option<&'a mut dyn Observer>,
    noop: NoopObserver,
    solver: Box<dyn Solver>,
    /// The model's pmfs, before any crowd answer: what circuits compile
    /// against.
    base: VarDists,
    dists: VarDists,
    ctable: CTable,
    store: ConstraintStore,
    budget: usize,
    mu: usize,
    rounds_before: usize,
    pending: Vec<PendingTask>,
    tasks_expired: usize,
    tasks_retried: usize,
    rounds_stalled: usize,
    idle_rounds: usize,
    round_idx: usize,
    total_posted: usize,
    total_answered: usize,
    evals: u64,
    cache: ProbCache,
    finished: bool,
    modeling_time: Duration,
    /// Wall-clock accumulated by earlier incarnations of this run (zero for
    /// a fresh session, the checkpointed elapsed time after a resume).
    prior_elapsed: Duration,
    started: Instant,
}

impl<'a> Session<'a> {
    /// Runs the modeling phase (Algorithm 1 lines 1–3) and returns the
    /// session paused before the first crowdsourcing round. Emits the same
    /// events a `try_run` would up to this point.
    pub(crate) fn start(
        config: BayesCrowdConfig,
        data: &Dataset,
        platform: &'a mut dyn CrowdPlatform,
        mut observer: Option<&'a mut dyn Observer>,
    ) -> Result<Session<'a>, RunError> {
        if data.n_objects() == 0 {
            return Err(RunError::EmptyDataset);
        }
        let started = Instant::now();
        let mut local_noop = NoopObserver;
        let obs: &mut dyn Observer = match observer.as_deref_mut() {
            Some(o) => o,
            None => &mut local_noop,
        };
        obs.event(&Event::RunStarted {
            objects: data.n_objects(),
            attrs: data.n_attrs(),
            missing_vars: data.n_missing(),
            budget: config.budget,
            latency: config.latency,
        });

        // ---- Modeling phase --------------------------------------------
        let model_span = Span::start(RunPhase::Model);
        let (model, model_stats) = MissingValueModel::learn_with_stats(data, &config.model);
        let base = VarDists::new(model.into_pmfs());
        let dists = base.clone();
        obs.event(&Event::ModelTrained {
            bic: model_stats.bic,
            edges: model_stats.edges,
            em_iters: model_stats.em_iters,
            search_iters: model_stats.search_iters,
            blanket_cells: model_stats.blanket_cells,
            ve_cells: model_stats.ve_cells,
            blanket_keys: model_stats.blanket_keys,
            nanos: model_span.elapsed_nanos(),
        });
        model_span.finish(obs);

        let ctable_span = Span::start(RunPhase::CTable);
        let (ctable, build_stats) =
            bc_ctable::build_ctable_with_stats(data, &config.ctable_config());
        obs.event(&Event::CTableBuilt {
            objects: build_stats.objects,
            open_objects: build_stats.open,
            vars: build_stats.vars,
            exprs: build_stats.exprs,
            pruned: build_stats.pruned,
            candidates: build_stats.candidates,
            bitset_words: build_stats.bitset_words,
            nanos: ctable_span.elapsed_nanos(),
        });
        ctable_span.finish(obs);
        let modeling_time = started.elapsed();

        let solver = config.build_solver();
        let store = ConstraintStore::new(data);
        let budget = config.budget;
        let mu = config.tasks_per_round().max(1);
        let rounds_before = platform.stats().rounds;
        Ok(Session {
            config,
            data: data.clone(),
            platform,
            observer,
            noop: NoopObserver,
            solver,
            base,
            dists,
            ctable,
            store,
            budget,
            mu,
            rounds_before,
            pending: Vec::new(),
            tasks_expired: 0,
            tasks_retried: 0,
            rounds_stalled: 0,
            idle_rounds: 0,
            round_idx: 0,
            total_posted: 0,
            total_answered: 0,
            evals: 0,
            cache: ProbCache::default(),
            finished: false,
            modeling_time,
            prior_elapsed: Duration::ZERO,
            started,
        })
    }

    /// The session's configuration.
    pub fn config(&self) -> &BayesCrowdConfig {
        &self.config
    }

    /// Rounds executed so far (the round counter of the last `step`).
    pub fn round(&self) -> usize {
        self.round_idx
    }

    /// Budget remaining.
    pub fn budget_left(&self) -> usize {
        self.budget
    }

    /// Symbolic expressions still undecided in the c-table.
    pub fn open_exprs(&self) -> usize {
        self.ctable.n_open_exprs()
    }

    /// Whether the crowdsourcing loop has terminated ([`Session::step`]
    /// will do nothing more; only [`Session::finalize`] remains).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The c-table as of the last step — each object's current condition
    /// after all propagation so far. Together with [`Session::dists`] this
    /// is everything an external oracle needs to recompute the session's
    /// probabilities from scratch.
    pub fn ctable(&self) -> &CTable {
        &self.ctable
    }

    /// The current per-variable posterior distributions (the learned pmfs,
    /// truncated by every crowd answer propagated so far).
    pub fn dists(&self) -> &VarDists {
        &self.dists
    }

    /// Every object's probability of being a skyline answer under the
    /// current posterior: `1.0` for conditions already decided true, `0.0`
    /// for false, and `Pr(φ(o))` via the configured solver otherwise.
    ///
    /// This is the oracle-checking hook: callable between any two
    /// [`Session::step`]s (or after a resume), it exposes the exact
    /// per-object numbers a [`Session::finalize`] at this instant would
    /// threshold — so a test can compare every intermediate state against
    /// an independent possible-worlds computation, not just the final
    /// [`RunReport`]. Freshly solved probabilities land in the session's
    /// round-level cache, exactly as a finalize would leave them.
    pub fn object_probabilities(&mut self) -> Result<BTreeMap<ObjectId, f64>, RunError> {
        let stale = self.cache.stale(&self.ctable.open_objects());
        let observer: &mut dyn Observer = match self.observer.as_deref_mut() {
            Some(o) => o,
            None => &mut self.noop,
        };
        self.evals += probabilities(
            &self.config,
            &self.ctable,
            &mut self.cache,
            &stale,
            self.solver.as_ref(),
            &self.base,
            &self.dists,
            RunPhase::Finalize,
            observer,
        )?;
        let mut out = BTreeMap::new();
        for (o, cond) in self.ctable.iter() {
            let p = match cond {
                Condition::True => 1.0,
                Condition::False => 0.0,
                Condition::Cnf(_) => self.cache.get(o).expect("solved above"),
            };
            out.insert(o, p);
        }
        Ok(out)
    }

    /// Runs one crowdsourcing round (one iteration of Algorithm 4):
    /// selection, posting, and answer propagation. Returns `Ok(true)` while
    /// the loop may continue and `Ok(false)` once it has terminated (budget
    /// or latency exhausted, nothing left to ask, or every expression
    /// decided). Idempotent after termination.
    pub fn step(&mut self) -> Result<bool, RunError> {
        if self.finished {
            return Ok(false);
        }
        let Session {
            config,
            data,
            platform,
            observer,
            noop,
            solver,
            base,
            dists,
            ctable,
            store,
            budget,
            mu,
            rounds_before,
            pending,
            tasks_expired,
            tasks_retried,
            rounds_stalled,
            idle_rounds,
            round_idx,
            total_posted,
            total_answered,
            evals,
            cache,
            finished,
            ..
        } = self;
        let observer: &mut dyn Observer = match observer {
            Some(o) => &mut **o,
            None => noop,
        };
        let retry = config.retry;

        if *budget == 0 || ctable.n_open_exprs() == 0 {
            *finished = true;
            return Ok(false);
        }
        // Latency is measured against the platform's own round counter (a
        // straggling platform may consume several rounds per posted batch)
        // plus locally idled backoff rounds.
        if config.latency > 0
            && (platform.stats().rounds - *rounds_before) + *idle_rounds >= config.latency
        {
            *finished = true;
            return Ok(false);
        }
        *round_idx += 1;
        observer.event(&Event::RoundStarted { round: *round_idx });
        let round_start = Instant::now();
        let limit = (*mu).min(*budget);
        let select_span = Span::start(RunPhase::Select);

        // Re-posts come first: failed tasks whose backoff has elapsed and
        // whose answer is still useful (propagation may have decided
        // everything they touch in the meantime — those drop quietly).
        let mut batch: Vec<Task> = Vec::new();
        let mut attempts_in_batch: Vec<usize> = Vec::new();
        let mut waiting: Vec<PendingTask> = Vec::new();
        for p in pending.drain(..) {
            if !task_still_open(ctable, &p.task) {
                continue;
            }
            if p.eligible_round <= *round_idx && batch.len() < limit {
                batch.push(p.task);
                attempts_in_batch.push(p.attempts);
            } else {
                waiting.push(p);
            }
        }
        *pending = waiting;
        let n_retries = batch.len();
        *tasks_retried += n_retries;
        if n_retries > 0 && retry.escalate_workers > 0 {
            platform.escalate(retry.escalate_workers);
        }

        // Variables already spoken for: this round's re-posts and the
        // queued tasks still backing off. Fresh selection must not ask
        // about them a second time.
        let mut reserved: BTreeSet<VarId> = batch.iter().flat_map(|t| t.vars()).collect();
        reserved.extend(pending.iter().flat_map(|p| p.task.vars()));

        if batch.len() < limit {
            let open = ctable.open_objects();
            let stale = cache.stale(&open);
            *evals += probabilities(
                config,
                ctable,
                cache,
                &stale,
                solver.as_ref(),
                base,
                dists,
                RunPhase::Select,
                observer,
            )?;
            // Utilities take `Pr(φ)` from the cache: an entry survives only
            // while no answered variable touches the condition its circuit
            // was compiled from, and only the answered variables' masks
            // (hence pmfs) change, so every entry is `Pr(φ)` under the
            // current `dists`.
            let probs: Vec<(ObjectId, f64)> = open
                .iter()
                .map(|&o| (o, cache.get(o).expect("solved above")))
                .collect();
            let ranked = rank_objects(&probs, config.ranking);
            let t = Instant::now();
            let mut kept = cache.for_scoring(ctable, solver.as_ref(), base, dists);
            let mut scorer = UtilityScorer::new(
                solver.as_ref(),
                dists,
                config.branch_heuristic,
                config.solver_caching,
            )
            .with_kept(&mut kept);
            let fresh_tasks = assemble_round(
                &ranked,
                ctable,
                config.strategy,
                &mut scorer,
                limit - batch.len(),
                config.conflict_free,
                &reserved,
            )?;
            let tally = scorer.tally();
            observer.event(&Event::UtilityBatch {
                candidates: tally.candidates,
                solver_calls: tally.solver_calls,
                compiles: tally.compiles,
                circuit_nodes: tally.circuit_nodes,
                reused: tally.reused,
                decisions: tally.stats.branches,
                cache_hits: tally.stats.cache_hits,
                fallbacks: tally.fallbacks,
                nanos: t.elapsed().as_nanos(),
            });
            attempts_in_batch.resize(batch.len() + fresh_tasks.len(), 0);
            batch.extend(fresh_tasks);
        }
        select_span.finish(observer);

        if batch.is_empty() {
            observer.event(&Event::RoundFinished {
                round: *round_idx,
                posted: 0,
                answered: 0,
                expired: 0,
                requeued: 0,
                retried: 0,
                nanos: round_start.elapsed().as_nanos(),
            });
            if pending.is_empty() {
                *finished = true;
                return Ok(false);
            }
            // Everything still owed is backing off: idle one round.
            *idle_rounds += 1;
            *rounds_stalled += 1;
            return Ok(true);
        }

        // Algorithm 4 line 8: B ← max(B − μ, 0). The full per-round
        // allowance is charged even if conflicts left some of it unused,
        // which is what bounds the number of rounds by L. Re-posts are
        // tasks like any other and consume the same allowance.
        *budget = budget.saturating_sub(limit);

        let post_span = Span::start(RunPhase::Post);
        let results = platform.post_round(&batch);
        post_span.finish(observer);
        // Nothing posted before means no propagation pass has run yet.
        let first_pass = *total_posted == 0;
        *total_posted += batch.len();

        let mut answers: Vec<TaskAnswer> = Vec::with_capacity(batch.len());
        let mut round_expired = 0usize;
        let mut round_requeued = 0usize;
        for (i, task) in batch.iter().enumerate() {
            // Defensive against foreign platforms returning short result
            // vectors: a missing result is an expired task.
            let outcome = results
                .get(i)
                .map(|r| r.outcome)
                .unwrap_or(TaskOutcome::Expired);
            match outcome {
                TaskOutcome::Answered(relation) => answers.push(TaskAnswer {
                    task: *task,
                    relation,
                }),
                TaskOutcome::Expired | TaskOutcome::Inconsistent => {
                    let attempts = attempts_in_batch[i] + 1;
                    if attempts < retry.max_attempts {
                        round_requeued += 1;
                        pending.push(PendingTask {
                            task: *task,
                            attempts,
                            eligible_round: *round_idx + 1 + retry.backoff_rounds(attempts),
                        });
                    } else {
                        round_expired += 1;
                    }
                }
            }
        }
        *tasks_expired += round_expired;
        *total_answered += answers.len();
        if answers.is_empty() {
            *rounds_stalled += 1;
        }
        let propagate_span = Span::start(RunPhase::Propagate);
        // Invalidate cached probabilities of conditions touching any
        // variable the round asked about (their pmfs and/or conditions
        // change below), and drop the circuits that re-evaluation cannot
        // carry over (see `ProbCache::invalidate`).
        let mut touched: Vec<VarId> = answers.iter().flat_map(|a| a.task.vars()).collect();
        touched.sort_unstable();
        touched.dedup();
        let var_var: Vec<(VarId, VarId)> = answers
            .iter()
            .filter_map(|a| match a.task.rhs {
                Operand::Var(w) => Some((a.task.var, w)),
                Operand::Const(_) => None,
            })
            .collect();
        cache.invalidate(ctable, &touched, &var_var, !config.propagate_answers);
        if config.propagate_answers {
            let mut narrowed = BTreeSet::new();
            for a in &answers {
                narrowed.extend(store.record(a.task.var, a.task.rhs, a.relation));
            }
            // The store changed only on the answered variables, and every
            // earlier pass left each open condition at its fixpoint; so
            // after the first (full) pass, only conditions mentioning an
            // answered variable can move. A kept circuit compiled from a
            // condition the pass rewrites keeps that condition.
            let touching = (!first_pass).then_some(touched.as_slice());
            let prop_stats =
                ctable.propagate_replacing(store, touching, |o, old| cache.replaced(o, old));
            // Re-condition only the variables whose candidate set narrowed;
            // every other distribution is unchanged (the base pmf while the
            // mask is the full domain). A mask with no base mass leaves the
            // pmf as it was, which no kept circuit can follow.
            let mut unconditioned = Vec::new();
            for var in narrowed {
                match base.pmf(var).ok().map(|b| b.conditioned(store.mask(var))) {
                    Some(Some(pmf)) => dists.insert(var, pmf),
                    Some(None) => unconditioned.push(var),
                    None => {}
                }
            }
            if !unconditioned.is_empty() {
                cache.drop_circuits_mentioning(&unconditioned);
            }
            observer.event(&Event::Propagated {
                answers: answers.len(),
                examined: prop_stats.examined,
                decided: prop_stats.decided,
                depth: prop_stats.max_depth,
                nanos: propagate_span.elapsed_nanos(),
            });
        } else {
            // Ablation: an answer only settles the exact expression it was
            // derived from — no cross-condition inference.
            let answered: BTreeMap<Task, Relation> =
                answers.iter().map(|a| (a.task, a.relation)).collect();
            for o in data.objects() {
                let cond = ctable.condition(o);
                if cond.is_decided() {
                    continue;
                }
                let simplified = cond.simplify(|e| {
                    answered
                        .get(&Task::from_expr(e))
                        .map(|&rel| crate::framework::expr_truth(e.op(), rel))
                });
                ctable.set_condition(o, simplified);
            }
        }
        propagate_span.finish(observer);
        observer.event(&Event::RoundFinished {
            round: *round_idx,
            posted: batch.len(),
            answered: answers.len(),
            expired: round_expired,
            requeued: round_requeued,
            retried: n_retries,
            nanos: round_start.elapsed().as_nanos(),
        });
        Ok(true)
    }

    /// Drives any remaining rounds to completion, derives the answer set,
    /// and returns the report. Consumes the session.
    ///
    /// A platform that answered nothing at all surfaces as
    /// [`RunError::PlatformExhausted`] with the degraded report attached,
    /// exactly as `try_run` does.
    pub fn finalize(mut self) -> Result<RunReport, RunError> {
        while self.step()? {}
        let Session {
            config,
            platform,
            mut observer,
            mut noop,
            solver,
            base,
            dists,
            ctable,
            budget,
            pending,
            mut tasks_expired,
            tasks_retried,
            rounds_stalled,
            total_posted,
            total_answered,
            mut evals,
            mut cache,
            modeling_time,
            prior_elapsed,
            started,
            ..
        } = self;
        let observer: &mut dyn Observer = match &mut observer {
            Some(o) => *o,
            None => &mut noop,
        };

        // Tasks still queued (and still useful) when budget or latency ran
        // out never got their answer: graceful degradation, not an error.
        let tasks_abandoned = pending
            .iter()
            .filter(|p| task_still_open(&ctable, &p.task))
            .count();
        tasks_expired += tasks_abandoned;
        if tasks_abandoned > 0 {
            observer.event(&Event::Degraded { tasks_abandoned });
        }
        let degraded = tasks_expired > 0;

        // ---- Derive the answer set -------------------------------------
        // Open conditions keep their symbolic variables; their objects are
        // judged by the probability under the current posterior, exactly as
        // in a fully-budgeted run that simply stopped earlier. Cached
        // probabilities are still valid (invalidation dropped everything a
        // crowd answer touched), so only stale conditions are re-solved.
        let finalize_span = Span::start(RunPhase::Finalize);
        let open = ctable.open_objects();
        let stale = cache.stale(&open);
        evals += probabilities(
            &config,
            &ctable,
            &mut cache,
            &stale,
            solver.as_ref(),
            &base,
            &dists,
            RunPhase::Finalize,
            observer,
        )?;
        let certain = ctable.certain_answers();
        let mut result = certain.clone();
        let mut open_probabilities = BTreeMap::new();
        for o in open {
            let p = cache.get(o).expect("solved above");
            open_probabilities.insert(o, p);
            if p > config.answer_threshold {
                result.push(o);
            }
        }
        result.sort_unstable();
        finalize_span.finish(observer);

        let truth = platform
            .ground_truth()
            .and_then(|complete| bc_data::skyline::skyline_sfs(complete).ok());
        let accuracy = truth.map(|t| Accuracy::of(&result, &t));

        let total_time = prior_elapsed + started.elapsed();
        let report = RunReport {
            result,
            certain,
            open_probabilities,
            accuracy,
            crowd: platform.stats(),
            budget_left: budget,
            modeling_time,
            total_time,
            probability_evals: evals,
            open_exprs_left: ctable.n_open_exprs(),
            tasks_expired,
            tasks_retried,
            rounds_stalled,
            degraded,
        };
        observer.event(&Event::RunFinished {
            rounds: report.crowd.rounds,
            tasks_posted: report.crowd.tasks_posted,
            tasks_answered: total_answered,
            tasks_expired: report.tasks_expired,
            tasks_retried: report.tasks_retried,
            probability_evals: report.probability_evals,
            nanos: total_time.as_nanos(),
        });

        // A platform that swallowed every single task is indistinguishable
        // from no crowd at all: surface it as an error with the degraded
        // report attached (the trace above is already complete).
        if total_posted > 0 && total_answered == 0 && report.open_exprs_left > 0 {
            return Err(RunError::PlatformExhausted {
                report: Box::new(report),
            });
        }
        Ok(report)
    }

    // ---- Checkpoint / resume -------------------------------------------

    /// Serializes the full mid-run state to `out` as one `bc-snapshot`
    /// document and emits [`Event::CheckpointWritten`]. Call it between
    /// steps — after a round's answers have been propagated, before the
    /// next selection.
    ///
    /// Fails with [`RunError::Snapshot`] when the platform does not support
    /// durable state ([`bc_crowd::CrowdPlatform::save_state`] returning
    /// `None`) or the writer fails.
    pub fn checkpoint<W: Write>(&mut self, out: &mut W) -> Result<(), RunError> {
        let t = Instant::now();
        let state = self.platform.save_state().ok_or_else(|| {
            inv("platform does not support checkpointing (save_state returned None)")
        })?;
        let config_v = enc_config(&self.config);
        let dataset_v = enc_dataset(&self.data);
        let fp = fingerprint_of(&config_v, &dataset_v);
        let mut w = SnapshotWriter::new(out, &fp)?;
        w.section("config", config_v)?;
        w.section("dataset", dataset_v)?;
        w.section("model", enc_pmf_map(self.base.iter()))?;
        w.section("dists", enc_pmf_map(self.dists.iter()))?;
        w.section("store", enc_store(&self.store))?;
        w.section("ctable", enc_ctable(&self.ctable))?;
        w.section("progress", self.enc_progress())?;
        w.section("pending", enc_pending(&self.pending))?;
        w.section("prob_cache", enc_prob_cache(self.cache.probabilities()))?;
        w.section(
            "compiled_from",
            enc_compiled_from(self.cache.compiled_from()),
        )?;
        w.section("platform", enc_platform_state(&state))?;
        let bytes = w.finish()?;
        let observer: &mut dyn Observer = match self.observer.as_deref_mut() {
            Some(o) => o,
            None => &mut self.noop,
        };
        observer.event(&Event::CheckpointWritten {
            round: self.round_idx,
            bytes,
            nanos: t.elapsed().as_nanos(),
        });
        Ok(())
    }

    /// Restores a session from a checkpoint, unobserved.
    ///
    /// `platform` must be constructed the same way as the one the
    /// checkpoint was taken from (same oracle, rates, and cost model); its
    /// mutable state — accounting, answer log, RNG streams — is overwritten
    /// from the snapshot via
    /// [`load_state`](bc_crowd::CrowdPlatform::load_state). The snapshot's
    /// fingerprint, checksum, and section shapes are all verified; a torn
    /// or foreign checkpoint is rejected, never half-resumed.
    pub fn resume(
        reader: impl Read,
        platform: &'a mut dyn CrowdPlatform,
    ) -> Result<Session<'a>, RunError> {
        Session::resume_inner(reader, platform, None)
    }

    /// [`Session::resume`] with an observer; emits [`Event::Resumed`] and
    /// streams all later events to it.
    pub fn resume_observed(
        reader: impl Read,
        platform: &'a mut dyn CrowdPlatform,
        observer: &'a mut dyn Observer,
    ) -> Result<Session<'a>, RunError> {
        Session::resume_inner(reader, platform, Some(observer))
    }

    fn resume_inner(
        reader: impl Read,
        platform: &'a mut dyn CrowdPlatform,
        observer: Option<&'a mut dyn Observer>,
    ) -> Result<Session<'a>, RunError> {
        let snap = Snapshot::parse(reader)?;
        let config_v = snap.section("config")?;
        let dataset_v = snap.section("dataset")?;
        let fp = fingerprint_of(config_v, dataset_v);
        if fp != snap.fingerprint() {
            return Err(inv(format!(
                "snapshot fingerprint {} does not match its own config+dataset ({fp})",
                snap.fingerprint()
            ))
            .into());
        }
        let config = dec_config(config_v)?;
        let data = dec_dataset(dataset_v)?;
        let base = VarDists::new(dec_pmf_map(snap.section("model")?, &data)?);
        let dists = VarDists::new(dec_pmf_map(snap.section("dists")?, &data)?);
        let store = dec_store(snap.section("store")?, &data)?;
        let ctable = dec_ctable(snap.section("ctable")?)?;
        let pending = dec_pending(snap.section("pending")?)?;
        // Version 1 kept no circuits: every condition compiles afresh.
        let compiled_from = match snap.version() {
            1 => Vec::new(),
            _ => dec_compiled_from(snap.section("compiled_from")?, &ctable)?,
        };
        let cache = ProbCache::restore(
            dec_prob_cache(snap.section("prob_cache")?)?,
            compiled_from,
            &ctable,
        );
        let state = dec_platform_state(snap.section("platform")?)?;
        platform
            .load_state(&state)
            .map_err(|e| inv(format!("platform cannot restore this checkpoint: {e}")))?;

        let p = snap.section("progress")?;
        let solver = config.build_solver();
        let mu = config.tasks_per_round().max(1);
        let mut session = Session {
            budget: get_usize(p, "budget")?,
            mu,
            rounds_before: get_usize(p, "rounds_before")?,
            tasks_expired: get_usize(p, "tasks_expired")?,
            tasks_retried: get_usize(p, "tasks_retried")?,
            rounds_stalled: get_usize(p, "rounds_stalled")?,
            idle_rounds: get_usize(p, "idle_rounds")?,
            round_idx: get_usize(p, "round")?,
            total_posted: get_usize(p, "total_posted")?,
            total_answered: get_usize(p, "total_answered")?,
            evals: get_u64(p, "evals")?,
            finished: get_bool(p, "finished")?,
            modeling_time: Duration::from_nanos(get_u64(p, "modeling_nanos")?),
            prior_elapsed: Duration::from_nanos(get_u64(p, "elapsed_nanos")?),
            started: Instant::now(),
            config,
            data,
            platform,
            observer,
            noop: NoopObserver,
            solver,
            base,
            dists,
            ctable,
            store,
            pending,
            cache,
        };
        let obs: &mut dyn Observer = match session.observer.as_deref_mut() {
            Some(o) => o,
            None => &mut session.noop,
        };
        obs.event(&Event::Resumed {
            round: session.round_idx,
            budget_left: session.budget,
            open_exprs: session.ctable.n_open_exprs(),
        });
        Ok(session)
    }

    fn enc_progress(&self) -> Value {
        Value::obj(vec![
            ("budget", uint(self.budget)),
            ("round", uint(self.round_idx)),
            ("idle_rounds", uint(self.idle_rounds)),
            ("tasks_expired", uint(self.tasks_expired)),
            ("tasks_retried", uint(self.tasks_retried)),
            ("rounds_stalled", uint(self.rounds_stalled)),
            ("total_posted", uint(self.total_posted)),
            ("total_answered", uint(self.total_answered)),
            ("evals", Value::Int(self.evals as i128)),
            ("rounds_before", uint(self.rounds_before)),
            ("finished", Value::Bool(self.finished)),
            (
                "modeling_nanos",
                Value::Int(self.modeling_time.as_nanos().min(u64::MAX as u128) as i128),
            ),
            (
                "elapsed_nanos",
                Value::Int(
                    (self.prior_elapsed + self.started.elapsed())
                        .as_nanos()
                        .min(u64::MAX as u128) as i128,
                ),
            ),
        ])
    }
}

// ---- Codecs ------------------------------------------------------------
//
// Everything below maps domain state onto `bc_snapshot::Value` trees. The
// shapes are part of the on-disk format (see DESIGN.md); changing any of
// them requires bumping `bc_snapshot::FORMAT_VERSION`.

fn inv(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Invalid(msg.into())
}

fn uint(n: usize) -> Value {
    Value::Int(n as i128)
}

fn get<'v>(v: &'v Value, key: &str) -> Result<&'v Value, SnapshotError> {
    v.get(key)
        .ok_or_else(|| inv(format!("missing key {key:?}")))
}

fn get_usize(v: &Value, key: &str) -> Result<usize, SnapshotError> {
    get(v, key)?
        .as_usize()
        .ok_or_else(|| inv(format!("key {key:?} is not a usize")))
}

fn get_u64(v: &Value, key: &str) -> Result<u64, SnapshotError> {
    get(v, key)?
        .as_u64()
        .ok_or_else(|| inv(format!("key {key:?} is not a u64")))
}

fn get_f64(v: &Value, key: &str) -> Result<f64, SnapshotError> {
    get(v, key)?
        .as_f64()
        .ok_or_else(|| inv(format!("key {key:?} is not a float")))
}

fn get_bool(v: &Value, key: &str) -> Result<bool, SnapshotError> {
    get(v, key)?
        .as_bool()
        .ok_or_else(|| inv(format!("key {key:?} is not a bool")))
}

fn get_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, SnapshotError> {
    get(v, key)?
        .as_str()
        .ok_or_else(|| inv(format!("key {key:?} is not a string")))
}

fn as_list<'v>(v: &'v Value, what: &str) -> Result<&'v [Value], SnapshotError> {
    v.as_list()
        .ok_or_else(|| inv(format!("{what} must be a list")))
}

/// The run identity: a hash of the canonical config and dataset sections.
/// A checkpoint only resumes against the run it was taken from.
fn fingerprint_of(config: &Value, dataset: &Value) -> String {
    let mut bytes = config.to_json().into_bytes();
    bytes.extend_from_slice(dataset.to_json().as_bytes());
    format!("{:016x}", fnv1a64(&bytes))
}

// -- identifiers ---------------------------------------------------------

fn enc_vid(v: VarId) -> Value {
    Value::List(vec![
        Value::Int(v.object.0 as i128),
        Value::Int(v.attr.0 as i128),
    ])
}

/// A variable id that must name a missing cell of `data`: the hashed
/// tables a resume fills key only on cells a run can produce.
fn dec_cell(v: &Value, data: &Dataset) -> Result<VarId, SnapshotError> {
    let var = dec_vid(v)?;
    let in_range = var.object.index() < data.n_objects() && var.attr.index() < data.n_attrs();
    if in_range && data.get(var.object, var.attr).is_none() {
        Ok(var)
    } else {
        Err(inv(format!("{var} is not a missing cell of the dataset")))
    }
}

fn dec_vid(v: &Value) -> Result<VarId, SnapshotError> {
    match as_list(v, "variable id")? {
        [o, a] => {
            let o = o
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| inv("variable object id out of range"))?;
            let a = a
                .as_u16()
                .ok_or_else(|| inv("variable attr id out of range"))?;
            Ok(VarId::new(o, a))
        }
        _ => Err(inv("variable id must be [object, attr]")),
    }
}

// -- expressions and conditions ------------------------------------------

fn op_name(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Lt => "lt",
        CmpOp::Le => "le",
        CmpOp::Gt => "gt",
        CmpOp::Ge => "ge",
        CmpOp::Eq => "eq",
        CmpOp::Ne => "ne",
    }
}

fn dec_op(s: &str) -> Result<CmpOp, SnapshotError> {
    Ok(match s {
        "lt" => CmpOp::Lt,
        "le" => CmpOp::Le,
        "gt" => CmpOp::Gt,
        "ge" => CmpOp::Ge,
        "eq" => CmpOp::Eq,
        "ne" => CmpOp::Ne,
        other => return Err(inv(format!("unknown comparison operator {other:?}"))),
    })
}

fn enc_operand(rhs: Operand) -> Value {
    match rhs {
        Operand::Const(c) => Value::obj(vec![("c", Value::Int(c as i128))]),
        Operand::Var(v) => Value::obj(vec![("v", enc_vid(v))]),
    }
}

fn dec_operand(v: &Value) -> Result<Operand, SnapshotError> {
    if let Some(c) = v.get("c") {
        let c = c
            .as_u16()
            .ok_or_else(|| inv("constant operand out of range"))?;
        Ok(Operand::Const(c))
    } else if let Some(var) = v.get("v") {
        Ok(Operand::Var(dec_vid(var)?))
    } else {
        Err(inv("operand must carry \"c\" or \"v\""))
    }
}

fn enc_expr(e: &Expr) -> Value {
    Value::obj(vec![
        ("v", enc_vid(e.var())),
        ("op", Value::Str(op_name(e.op()).into())),
        ("rhs", enc_operand(e.rhs())),
    ])
}

fn dec_expr(v: &Value) -> Result<Expr, SnapshotError> {
    Ok(Expr::new(
        dec_vid(get(v, "v")?)?,
        dec_op(get_str(v, "op")?)?,
        dec_operand(get(v, "rhs")?)?,
    ))
}

fn enc_cond(c: &Condition) -> Value {
    match c {
        Condition::True => Value::Bool(true),
        Condition::False => Value::Bool(false),
        Condition::Cnf(_) => Value::List(
            c.clauses()
                .iter()
                .map(|cl: &Clause| Value::List(cl.exprs().iter().map(enc_expr).collect()))
                .collect(),
        ),
    }
}

fn dec_cond(v: &Value) -> Result<Condition, SnapshotError> {
    match v {
        Value::Bool(true) => Ok(Condition::True),
        Value::Bool(false) => Ok(Condition::False),
        Value::List(clauses) => {
            // `from_clauses` canonicalizes; serialized conditions are
            // already canonical, so the rebuild is an identity.
            let mut raw = Vec::with_capacity(clauses.len());
            for cl in clauses {
                let exprs = as_list(cl, "clause")?;
                raw.push(
                    exprs
                        .iter()
                        .map(dec_expr)
                        .collect::<Result<Vec<Expr>, SnapshotError>>()?,
                );
            }
            Ok(Condition::from_clauses(raw))
        }
        _ => Err(inv("condition must be a bool or a clause list")),
    }
}

fn enc_ctable(ctable: &CTable) -> Value {
    Value::List(ctable.iter().map(|(_, c)| enc_cond(c)).collect())
}

fn dec_ctable(v: &Value) -> Result<CTable, SnapshotError> {
    let conds = as_list(v, "ctable")?
        .iter()
        .map(dec_cond)
        .collect::<Result<Vec<Condition>, SnapshotError>>()?;
    Ok(CTable::new(conds))
}

// -- constraint store -----------------------------------------------------

fn rel_name(r: Relation) -> &'static str {
    match r {
        Relation::Lt => "lt",
        Relation::Eq => "eq",
        Relation::Gt => "gt",
    }
}

fn dec_rel(s: &str) -> Result<Relation, SnapshotError> {
    Ok(match s {
        "lt" => Relation::Lt,
        "eq" => Relation::Eq,
        "gt" => Relation::Gt,
        other => return Err(inv(format!("unknown relation {other:?}"))),
    })
}

fn enc_store(store: &ConstraintStore) -> Value {
    Value::obj(vec![
        (
            "cards",
            Value::List(
                store
                    .attr_cards()
                    .iter()
                    .map(|&c| Value::Int(c as i128))
                    .collect(),
            ),
        ),
        (
            "masks",
            Value::List(
                store
                    .masks()
                    .map(|(v, m)| Value::List(vec![enc_vid(v), Value::Int(m as i128)]))
                    .collect(),
            ),
        ),
        (
            "facts",
            Value::List(
                store
                    .facts()
                    .map(|((l, r), rel)| {
                        Value::List(vec![
                            enc_vid(l),
                            enc_vid(r),
                            Value::Str(rel_name(rel).into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn dec_store(v: &Value, data: &Dataset) -> Result<ConstraintStore, SnapshotError> {
    let cards = as_list(get(v, "cards")?, "cards")?
        .iter()
        .map(|c| c.as_u16().ok_or_else(|| inv("cardinality out of range")))
        .collect::<Result<Vec<u16>, SnapshotError>>()?;
    let mut masks = Vec::new();
    for entry in as_list(get(v, "masks")?, "masks")? {
        match as_list(entry, "mask entry")? {
            [var, mask] => {
                let mask = mask.as_u64().ok_or_else(|| inv("mask is not a u64"))?;
                masks.push((dec_cell(var, data)?, mask));
            }
            _ => return Err(inv("mask entry must be [var, mask]")),
        }
    }
    let mut facts = Vec::new();
    for entry in as_list(get(v, "facts")?, "facts")? {
        match as_list(entry, "fact entry")? {
            [l, r, rel] => {
                let rel = rel
                    .as_str()
                    .ok_or_else(|| inv("fact relation is not a string"))?;
                facts.push(((dec_cell(l, data)?, dec_cell(r, data)?), dec_rel(rel)?));
            }
            _ => return Err(inv("fact entry must be [left, right, relation]")),
        }
    }
    Ok(ConstraintStore::from_parts(cards, masks, facts))
}

// -- distributions --------------------------------------------------------

fn enc_pmf_map<'m>(entries: impl Iterator<Item = (&'m VarId, &'m Pmf)>) -> Value {
    Value::List(
        entries
            .map(|(v, pmf)| {
                Value::List(vec![
                    enc_vid(*v),
                    Value::List(pmf.probs().iter().map(|&p| Value::Float(p)).collect()),
                ])
            })
            .collect(),
    )
}

fn dec_pmf_map(v: &Value, data: &Dataset) -> Result<BTreeMap<VarId, Pmf>, SnapshotError> {
    let mut out = BTreeMap::new();
    for entry in as_list(v, "distribution map")? {
        match as_list(entry, "distribution entry")? {
            [var, probs] => {
                let probs = as_list(probs, "pmf probabilities")?
                    .iter()
                    .map(|p| p.as_f64().ok_or_else(|| inv("pmf entry is not a float")))
                    .collect::<Result<Vec<f64>, SnapshotError>>()?;
                let total: f64 = probs.iter().sum();
                if probs.is_empty()
                    || probs.iter().any(|p| !p.is_finite() || *p < 0.0)
                    || (total - 1.0).abs() >= 1e-6
                {
                    return Err(inv("pmf probabilities do not form a distribution"));
                }
                // Exact restore: the serialized floats are bit-identical to
                // the originals, so no renormalization happens here.
                out.insert(dec_cell(var, data)?, Pmf::from_probs(probs));
            }
            _ => return Err(inv("distribution entry must be [var, probs]")),
        }
    }
    Ok(out)
}

// -- dataset --------------------------------------------------------------

fn enc_dataset(data: &Dataset) -> Value {
    let domains = data
        .domains()
        .iter()
        .map(|d| {
            Value::obj(vec![
                ("name", Value::Str(d.name().into())),
                ("card", Value::Int(d.cardinality() as i128)),
            ])
        })
        .collect();
    let rows = data
        .objects()
        .map(|o| {
            Value::List(
                data.row(o)
                    .iter()
                    .map(|cell| match cell {
                        Some(v) => Value::Int(*v as i128),
                        None => Value::Null,
                    })
                    .collect(),
            )
        })
        .collect();
    Value::obj(vec![
        ("name", Value::Str(data.name().into())),
        ("domains", Value::List(domains)),
        ("rows", Value::List(rows)),
    ])
}

fn dec_dataset(v: &Value) -> Result<Dataset, SnapshotError> {
    let name = get_str(v, "name")?;
    let mut domains = Vec::new();
    for d in as_list(get(v, "domains")?, "domains")? {
        let card = get(d, "card")?
            .as_u16()
            .ok_or_else(|| inv("domain cardinality out of range"))?;
        domains.push(
            Domain::new(get_str(d, "name")?, card)
                .map_err(|e| inv(format!("invalid domain: {e}")))?,
        );
    }
    let mut rows = Vec::new();
    for row in as_list(get(v, "rows")?, "rows")? {
        let mut cells = Vec::new();
        for cell in as_list(row, "row")? {
            cells.push(match cell {
                Value::Null => None,
                other => Some(
                    other
                        .as_u16()
                        .ok_or_else(|| inv("cell value out of range"))?,
                ),
            });
        }
        rows.push(cells);
    }
    Dataset::from_rows(name, domains, rows).map_err(|e| inv(format!("invalid dataset: {e}")))
}

// -- retry queue and probability cache ------------------------------------

fn enc_task(t: &Task) -> Value {
    Value::obj(vec![("v", enc_vid(t.var)), ("rhs", enc_operand(t.rhs))])
}

fn dec_task(v: &Value) -> Result<Task, SnapshotError> {
    Ok(Task {
        var: dec_vid(get(v, "v")?)?,
        rhs: dec_operand(get(v, "rhs")?)?,
    })
}

fn enc_pending(pending: &[PendingTask]) -> Value {
    Value::List(
        pending
            .iter()
            .map(|p| {
                Value::obj(vec![
                    ("task", enc_task(&p.task)),
                    ("attempts", uint(p.attempts)),
                    ("eligible_round", uint(p.eligible_round)),
                ])
            })
            .collect(),
    )
}

fn dec_pending(v: &Value) -> Result<Vec<PendingTask>, SnapshotError> {
    as_list(v, "pending queue")?
        .iter()
        .map(|p| {
            Ok(PendingTask {
                task: dec_task(get(p, "task")?)?,
                attempts: get_usize(p, "attempts")?,
                eligible_round: get_usize(p, "eligible_round")?,
            })
        })
        .collect()
}

fn enc_prob_cache(cache: impl Iterator<Item = (ObjectId, f64)>) -> Value {
    Value::List(
        cache
            .map(|(o, p)| Value::List(vec![Value::Int(o.0 as i128), Value::Float(p)]))
            .collect(),
    )
}

/// Kept circuits as `[object]`, or `[object, condition]` when the circuit
/// was compiled from a condition other than the object's current one.
fn enc_compiled_from<'c>(kept: impl Iterator<Item = (ObjectId, Option<&'c Condition>)>) -> Value {
    Value::List(
        kept.map(|(o, from)| {
            let mut entry = vec![Value::Int(o.0 as i128)];
            entry.extend(from.map(enc_cond));
            Value::List(entry)
        })
        .collect(),
    )
}

fn dec_compiled_from(
    v: &Value,
    ctable: &CTable,
) -> Result<Vec<(ObjectId, Option<Condition>)>, SnapshotError> {
    let mut out: Vec<(ObjectId, Option<Condition>)> = Vec::new();
    for entry in as_list(v, "compiled_from")? {
        let (o, from) = match as_list(entry, "compiled_from entry")? {
            [o] => (o, None),
            [o, cond] => (o, Some(dec_cond(cond)?)),
            _ => {
                return Err(inv(
                    "compiled_from entry must be [object] or [object, condition]",
                ))
            }
        };
        let o = o
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .filter(|&n| (n as usize) < ctable.n_objects())
            .ok_or_else(|| inv("kept circuit's object id out of range"))?;
        if out.last().is_some_and(|&(prev, _)| prev.0 >= o) {
            return Err(inv(
                "compiled_from entries must be in ascending object order",
            ));
        }
        out.push((ObjectId(o), from));
    }
    Ok(out)
}

fn dec_prob_cache(v: &Value) -> Result<BTreeMap<ObjectId, f64>, SnapshotError> {
    let mut out = BTreeMap::new();
    for entry in as_list(v, "probability cache")? {
        match as_list(entry, "cache entry")? {
            [o, p] => {
                let o = o
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| inv("cached object id out of range"))?;
                let p = p
                    .as_f64()
                    .ok_or_else(|| inv("cached probability is not a float"))?;
                out.insert(ObjectId(o), p);
            }
            _ => return Err(inv("cache entry must be [object, probability]")),
        }
    }
    Ok(out)
}

// -- platform state -------------------------------------------------------

fn enc_rng(rng: &[u64; 4]) -> Value {
    Value::List(rng.iter().map(|&w| Value::Int(w as i128)).collect())
}

fn dec_rng(v: &Value) -> Result<[u64; 4], SnapshotError> {
    match as_list(v, "rng state")? {
        [a, b, c, d] => {
            let word = |w: &Value| w.as_u64().ok_or_else(|| inv("rng word is not a u64"));
            Ok([word(a)?, word(b)?, word(c)?, word(d)?])
        }
        _ => Err(inv("rng state must be four words")),
    }
}

fn enc_crowd_stats(s: &CrowdStats) -> Value {
    Value::obj(vec![
        ("tasks_posted", uint(s.tasks_posted)),
        ("rounds", uint(s.rounds)),
        ("worker_answers", uint(s.worker_answers)),
        ("money_spent", Value::Int(s.money_spent as i128)),
    ])
}

fn dec_crowd_stats(v: &Value) -> Result<CrowdStats, SnapshotError> {
    Ok(CrowdStats {
        tasks_posted: get_usize(v, "tasks_posted")?,
        rounds: get_usize(v, "rounds")?,
        worker_answers: get_usize(v, "worker_answers")?,
        money_spent: get_u64(v, "money_spent")?,
    })
}

fn enc_platform_state(state: &PlatformState) -> Value {
    match state {
        PlatformState::Simulated {
            rng,
            stats,
            escalated,
            log,
        } => Value::obj(vec![
            ("kind", Value::Str("simulated".into())),
            ("rng", enc_rng(rng)),
            ("stats", enc_crowd_stats(stats)),
            ("escalated", uint(*escalated)),
            (
                "log",
                Value::List(
                    log.iter()
                        .map(|a| {
                            Value::obj(vec![
                                ("task", enc_task(&a.task)),
                                ("rel", Value::Str(rel_name(a.relation).into())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        PlatformState::Faulty {
            rng,
            workforce,
            overlay,
            faults,
            inner,
        } => Value::obj(vec![
            ("kind", Value::Str("faulty".into())),
            ("rng", enc_rng(rng)),
            ("workforce", Value::Float(*workforce)),
            ("overlay", enc_crowd_stats(overlay)),
            (
                "faults",
                Value::obj(vec![
                    ("expired", uint(faults.expired_injected)),
                    ("spam", uint(faults.spam_injected)),
                    ("duplicates", uint(faults.duplicates_injected)),
                    ("straggler_rounds", uint(faults.straggler_rounds)),
                ]),
            ),
            ("inner", enc_platform_state(inner)),
        ]),
    }
}

fn dec_platform_state(v: &Value) -> Result<PlatformState, SnapshotError> {
    match get_str(v, "kind")? {
        "simulated" => {
            let mut log = Vec::new();
            for a in as_list(get(v, "log")?, "answer log")? {
                log.push(TaskAnswer {
                    task: dec_task(get(a, "task")?)?,
                    relation: dec_rel(get_str(a, "rel")?)?,
                });
            }
            Ok(PlatformState::Simulated {
                rng: dec_rng(get(v, "rng")?)?,
                stats: dec_crowd_stats(get(v, "stats")?)?,
                escalated: get_usize(v, "escalated")?,
                log,
            })
        }
        "faulty" => {
            let faults = get(v, "faults")?;
            Ok(PlatformState::Faulty {
                rng: dec_rng(get(v, "rng")?)?,
                workforce: get_f64(v, "workforce")?,
                overlay: dec_crowd_stats(get(v, "overlay")?)?,
                faults: FaultStats {
                    expired_injected: get_usize(faults, "expired")?,
                    spam_injected: get_usize(faults, "spam")?,
                    duplicates_injected: get_usize(faults, "duplicates")?,
                    straggler_rounds: get_usize(faults, "straggler_rounds")?,
                },
                inner: Box::new(dec_platform_state(get(v, "inner")?)?),
            })
        }
        other => Err(inv(format!("unknown platform state kind {other:?}"))),
    }
}

// -- configuration --------------------------------------------------------

fn enc_learn(l: &LearnConfig) -> Value {
    Value::obj(vec![
        ("max_parents", uint(l.max_parents)),
        ("laplace", Value::Float(l.laplace)),
        ("max_rows_for_scoring", uint(l.max_rows_for_scoring)),
        ("max_iterations", uint(l.max_iterations)),
    ])
}

fn dec_learn(v: &Value) -> Result<LearnConfig, SnapshotError> {
    Ok(LearnConfig {
        max_parents: get_usize(v, "max_parents")?,
        laplace: get_f64(v, "laplace")?,
        max_rows_for_scoring: get_usize(v, "max_rows_for_scoring")?,
        max_iterations: get_usize(v, "max_iterations")?,
    })
}

fn enc_config(c: &BayesCrowdConfig) -> Value {
    let strategy = match c.strategy {
        TaskStrategy::Fbs => Value::obj(vec![("kind", Value::Str("fbs".into()))]),
        TaskStrategy::Ubs => Value::obj(vec![("kind", Value::Str("ubs".into()))]),
        TaskStrategy::Hhs { m } => {
            Value::obj(vec![("kind", Value::Str("hhs".into())), ("m", uint(m))])
        }
    };
    let ranking = match c.ranking {
        ObjectRanking::Entropy => Value::obj(vec![("kind", Value::Str("entropy".into()))]),
        ObjectRanking::Random { seed } => Value::obj(vec![
            ("kind", Value::Str("random".into())),
            ("seed", Value::Int(seed as i128)),
        ]),
    };
    let solver = match c.solver {
        SolverKind::Adpll => "adpll",
        SolverKind::Naive => "naive",
        SolverKind::MonteCarlo => "montecarlo",
    };
    let heuristic = match c.branch_heuristic {
        BranchHeuristic::MostFrequent => "most-frequent",
        BranchHeuristic::First => "first",
    };
    let dominators = match c.dominators {
        DominatorStrategy::FastIndex => "fast-index",
        DominatorStrategy::Baseline => "baseline",
    };
    let em = match &c.model.em {
        None => Value::Null,
        Some(em) => Value::obj(vec![
            ("iterations", uint(em.iterations)),
            ("max_missing_per_row", uint(em.max_missing_per_row)),
            ("laplace", Value::Float(em.laplace)),
        ]),
    };
    let search = match &c.model.search {
        StructureSearch::HillClimb => Value::obj(vec![("kind", Value::Str("hill-climb".into()))]),
        StructureSearch::Anneal(a) => Value::obj(vec![
            ("kind", Value::Str("anneal".into())),
            ("learn", enc_learn(&a.learn)),
            ("initial_temperature", Value::Float(a.initial_temperature)),
            ("cooling", Value::Float(a.cooling)),
            ("moves", uint(a.moves)),
            ("seed", Value::Int(a.seed as i128)),
        ]),
    };
    Value::obj(vec![
        ("budget", uint(c.budget)),
        ("latency", uint(c.latency)),
        ("alpha", Value::Float(c.alpha)),
        ("strategy", strategy),
        ("ranking", ranking),
        ("solver", Value::Str(solver.into())),
        ("branch_heuristic", Value::Str(heuristic.into())),
        ("solver_caching", Value::Bool(c.solver_caching)),
        ("dominators", Value::Str(dominators.into())),
        (
            "model",
            Value::obj(vec![
                ("learn", enc_learn(&c.model.learn)),
                ("uniform_prior", Value::Bool(c.model.uniform_prior)),
                ("em", em),
                ("search", search),
            ]),
        ),
        ("conflict_free", Value::Bool(c.conflict_free)),
        ("propagate_answers", Value::Bool(c.propagate_answers)),
        ("parallel", Value::Bool(c.parallel)),
        (
            "retry",
            Value::obj(vec![
                ("max_attempts", uint(c.retry.max_attempts)),
                ("escalate_workers", uint(c.retry.escalate_workers)),
                ("backoff_base", uint(c.retry.backoff_base)),
            ]),
        ),
        ("answer_threshold", Value::Float(c.answer_threshold)),
    ])
}

fn dec_config(v: &Value) -> Result<BayesCrowdConfig, SnapshotError> {
    let strategy_v = get(v, "strategy")?;
    let strategy = match get_str(strategy_v, "kind")? {
        "fbs" => TaskStrategy::Fbs,
        "ubs" => TaskStrategy::Ubs,
        "hhs" => TaskStrategy::Hhs {
            m: get_usize(strategy_v, "m")?,
        },
        other => return Err(inv(format!("unknown strategy {other:?}"))),
    };
    let ranking_v = get(v, "ranking")?;
    let ranking = match get_str(ranking_v, "kind")? {
        "entropy" => ObjectRanking::Entropy,
        "random" => ObjectRanking::Random {
            seed: get_u64(ranking_v, "seed")?,
        },
        other => return Err(inv(format!("unknown ranking {other:?}"))),
    };
    let solver = match get_str(v, "solver")? {
        "adpll" => SolverKind::Adpll,
        "naive" => SolverKind::Naive,
        "montecarlo" => SolverKind::MonteCarlo,
        other => return Err(inv(format!("unknown solver {other:?}"))),
    };
    let branch_heuristic = match get_str(v, "branch_heuristic")? {
        "most-frequent" => BranchHeuristic::MostFrequent,
        "first" => BranchHeuristic::First,
        other => return Err(inv(format!("unknown branch heuristic {other:?}"))),
    };
    let dominators = match get_str(v, "dominators")? {
        "fast-index" => DominatorStrategy::FastIndex,
        "baseline" => DominatorStrategy::Baseline,
        other => return Err(inv(format!("unknown dominator strategy {other:?}"))),
    };
    let model_v = get(v, "model")?;
    let em = match get(model_v, "em")? {
        Value::Null => None,
        em => Some(EmConfig {
            iterations: get_usize(em, "iterations")?,
            max_missing_per_row: get_usize(em, "max_missing_per_row")?,
            laplace: get_f64(em, "laplace")?,
        }),
    };
    let search_v = get(model_v, "search")?;
    let search = match get_str(search_v, "kind")? {
        "hill-climb" => StructureSearch::HillClimb,
        "anneal" => StructureSearch::Anneal(AnnealConfig {
            learn: dec_learn(get(search_v, "learn")?)?,
            initial_temperature: get_f64(search_v, "initial_temperature")?,
            cooling: get_f64(search_v, "cooling")?,
            moves: get_usize(search_v, "moves")?,
            seed: get_u64(search_v, "seed")?,
        }),
        other => return Err(inv(format!("unknown structure search {other:?}"))),
    };
    let retry_v = get(v, "retry")?;
    Ok(BayesCrowdConfig {
        budget: get_usize(v, "budget")?,
        latency: get_usize(v, "latency")?,
        alpha: get_f64(v, "alpha")?,
        strategy,
        ranking,
        solver,
        branch_heuristic,
        solver_caching: get_bool(v, "solver_caching")?,
        dominators,
        model: ModelConfig {
            learn: dec_learn(get(model_v, "learn")?)?,
            uniform_prior: get_bool(model_v, "uniform_prior")?,
            em,
            search,
        },
        conflict_free: get_bool(v, "conflict_free")?,
        propagate_answers: get_bool(v, "propagate_answers")?,
        parallel: get_bool(v, "parallel")?,
        retry: RetryPolicy {
            max_attempts: get_usize(retry_v, "max_attempts")?,
            escalate_workers: get_usize(retry_v, "escalate_workers")?,
            backoff_base: get_usize(retry_v, "backoff_base")?,
        },
        answer_threshold: get_f64(v, "answer_threshold")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_bayes::anneal::AnnealConfig;

    /// Every distribution is its base pmf while its mask is the full
    /// domain, and the base conditioned on its mask once narrowed —
    /// bit-for-bit.
    fn assert_dists_follow_masks(session: &Session<'_>, ctx: &str) {
        let bits = |p: &Pmf| p.probs().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (&var, base) in session.base.iter() {
            let got = session
                .dists
                .pmf(var)
                .expect("every missing cell has a pmf");
            let mask = session.store.mask(var);
            let full = (1u64 << base.card()) - 1;
            if mask == full {
                assert_eq!(bits(got), bits(base), "{ctx}: {var} untouched");
            } else if let Some(want) = base.conditioned(mask) {
                assert_eq!(bits(got), bits(&want), "{ctx}: {var} narrowed");
            }
        }
    }

    #[test]
    fn store_bytes_do_not_depend_on_insertion_order() {
        use bc_ctable::Operand;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let data = bc_data::generators::sample::paper_dataset();
        let mut store = ConstraintStore::new(&data);
        let missing = data.missing_vars();
        assert!(missing.len() >= 4);
        for (i, &l) in missing.iter().enumerate() {
            store.record(l, Operand::Const(7 - i as u16), Relation::Lt);
            for &r in &missing[i + 1..] {
                store.record(l, Operand::Var(r), Relation::Gt);
            }
        }
        let want = enc_store(&store).to_json();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..8 {
            let mut masks: Vec<_> = store.masks().collect();
            let mut facts: Vec<_> = store.facts().collect();
            masks.shuffle(&mut rng);
            facts.shuffle(&mut rng);
            let shuffled = ConstraintStore::from_parts(store.attr_cards().to_vec(), masks, facts);
            assert_eq!(enc_store(&shuffled).to_json(), want);
            let decoded = dec_store(&enc_store(&shuffled), &data).unwrap();
            assert_eq!(enc_store(&decoded).to_json(), want);
        }
    }

    #[test]
    fn a_nan_probability_fails_the_run_instead_of_panicking() {
        use bc_crowd::{GroundTruthOracle, SimulatedPlatform};
        use bc_data::generators::sample::{paper_completion, paper_dataset};
        let config = BayesCrowdConfig {
            budget: 6,
            latency: 3,
            alpha: 1.0,
            strategy: TaskStrategy::Hhs { m: 2 },
            ..Default::default()
        };
        let data = paper_dataset();
        let mut platform =
            SimulatedPlatform::new(GroundTruthOracle::new(paper_completion()), 1.0, 7);
        let mut session = Session::start(config, &data, &mut platform, None).unwrap();
        assert!(!session.ctable.open_objects().is_empty());
        session.solver = Box::new(crate::config::FixedSolver(f64::NAN));
        match session.step() {
            Err(RunError::Solver(bc_solver::SolverError::InvalidProbability(p))) => {
                assert!(p.is_nan())
            }
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a NaN probability was accepted"),
        }
    }

    #[test]
    fn a_panicking_worker_becomes_a_run_error() {
        let err = std::thread::scope(|s| {
            let handle = s.spawn(|| -> u32 { panic!("worker blew up") });
            crate::kept::join_worker(handle).unwrap_err()
        });
        match err {
            RunError::WorkerPanicked(message) => assert_eq!(message, "worker blew up"),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn only_narrowed_variables_are_reconditioned_across_resume() {
        use bc_crowd::{GroundTruthOracle, SimulatedPlatform};
        let complete = bc_data::generators::nba::nba_like(60, 5);
        let (data, _) = bc_data::missing::inject_mcar(&complete, 0.15, 9);
        for strategy in [TaskStrategy::Fbs, TaskStrategy::Hhs { m: 3 }] {
            let config = BayesCrowdConfig {
                budget: 40,
                latency: 8,
                alpha: 0.3,
                strategy,
                ..Default::default()
            };
            let platform =
                || SimulatedPlatform::new(GroundTruthOracle::new(complete.clone()), 1.0, 3);
            let mut first = platform();
            let mut session = Session::start(config, &data, &mut first, None).unwrap();
            assert_dists_follow_masks(&session, "start");
            let mut snapshot = Vec::new();
            for _ in 0..3 {
                session.step().unwrap();
                assert_dists_follow_masks(&session, "before checkpoint");
            }
            assert!(
                session.store.masks().len() > 0,
                "the crowd narrowed something"
            );
            session.checkpoint(&mut snapshot).unwrap();
            drop(session);
            let mut second = platform();
            let mut resumed = Session::resume(snapshot.as_slice(), &mut second).unwrap();
            assert_dists_follow_masks(&resumed, "resumed");
            while resumed.step().unwrap() {
                assert_dists_follow_masks(&resumed, "after resume");
            }
        }
    }

    #[test]
    fn touched_only_propagation_matches_a_full_pass_across_resume() {
        use bc_crowd::{GroundTruthOracle, SimulatedPlatform};
        use bc_obs::MetricsRecorder;
        let complete = bc_data::generators::nba::nba_like(60, 5);
        let (data, _) = bc_data::missing::inject_mcar(&complete, 0.15, 9);
        /// Steps to the end (or `rounds` steps), checking after each round
        /// that a full pass over a clone changes nothing. Returns the open
        /// conditions a full pass would have examined in the rounds that
        /// propagated.
        fn drive(session: &mut Session<'_>, rounds: usize, ctx: &str) -> u64 {
            let mut full_examined = 0;
            for _ in 0..rounds {
                let (open, posted) = (session.ctable.open_objects().len(), session.total_posted);
                let more = session.step().unwrap();
                if session.total_posted > posted {
                    full_examined += open as u64;
                }
                let mut full = session.ctable.clone();
                full.propagate(&session.store);
                assert_eq!(full, session.ctable, "{ctx}: round {}", session.round_idx);
                if !more {
                    break;
                }
            }
            full_examined
        }
        for strategy in [TaskStrategy::Fbs, TaskStrategy::Hhs { m: 3 }] {
            let config = BayesCrowdConfig {
                budget: 40,
                latency: 8,
                alpha: 0.3,
                strategy,
                ..Default::default()
            };
            let platform =
                || SimulatedPlatform::new(GroundTruthOracle::new(complete.clone()), 1.0, 3);
            let (mut first, mut rec) = (platform(), MetricsRecorder::new());
            let mut session = Session::start(config, &data, &mut first, Some(&mut rec)).unwrap();
            let mut full_examined = drive(&mut session, 3, "before checkpoint");
            let mut snapshot = Vec::new();
            session.checkpoint(&mut snapshot).unwrap();
            drop(session);
            let (mut second, mut rec_resumed) = (platform(), MetricsRecorder::new());
            let mut resumed =
                Session::resume_observed(snapshot.as_slice(), &mut second, &mut rec_resumed)
                    .unwrap();
            full_examined += drive(&mut resumed, usize::MAX, "after resume");
            drop(resumed);
            let examined =
                rec.counters().propagate_examined + rec_resumed.counters().propagate_examined;
            assert!(
                0 < examined && examined < full_examined,
                "{strategy:?}: touched-only passes examined {examined}, full passes would \
                 examine {full_examined}"
            );
        }
    }

    #[test]
    fn config_round_trips_through_the_codec() {
        let config = BayesCrowdConfig {
            budget: 42,
            latency: 7,
            alpha: 0.125,
            strategy: TaskStrategy::Hhs { m: 9 },
            ranking: ObjectRanking::Random { seed: u64::MAX },
            solver: SolverKind::MonteCarlo,
            branch_heuristic: BranchHeuristic::First,
            solver_caching: false,
            dominators: DominatorStrategy::Baseline,
            model: ModelConfig {
                learn: LearnConfig {
                    max_parents: 3,
                    laplace: 0.5,
                    max_rows_for_scoring: 123,
                    max_iterations: 17,
                },
                uniform_prior: true,
                em: Some(EmConfig {
                    iterations: 4,
                    max_missing_per_row: 2,
                    laplace: 2.0,
                }),
                search: StructureSearch::Anneal(AnnealConfig {
                    seed: 99,
                    ..Default::default()
                }),
            },
            conflict_free: false,
            propagate_answers: false,
            parallel: true,
            retry: RetryPolicy {
                max_attempts: 5,
                escalate_workers: 2,
                backoff_base: 1,
            },
            answer_threshold: 0.625,
        };
        let encoded = enc_config(&config);
        let decoded = dec_config(&encoded).expect("decodes");
        // Re-encoding the decoded config must reproduce the same tree —
        // the codec is lossless and canonical.
        assert_eq!(enc_config(&decoded).to_json(), encoded.to_json());
        assert_eq!(decoded.budget, 42);
        assert_eq!(decoded.branch_heuristic, BranchHeuristic::First);
        assert!(!decoded.solver_caching);
        assert!(matches!(
            decoded.model.search,
            StructureSearch::Anneal(AnnealConfig { seed: 99, .. })
        ));
    }

    #[test]
    fn dataset_round_trips_through_the_codec() {
        let data = bc_data::generators::sample::paper_dataset();
        let encoded = enc_dataset(&data);
        let decoded = dec_dataset(&encoded).expect("decodes");
        assert_eq!(decoded.name(), data.name());
        assert_eq!(decoded.n_objects(), data.n_objects());
        assert_eq!(decoded.n_missing(), data.n_missing());
        for o in data.objects() {
            assert_eq!(decoded.row(o), data.row(o));
        }
        assert_eq!(enc_dataset(&decoded).to_json(), encoded.to_json());
    }

    #[test]
    fn conditions_round_trip_canonically() {
        let v1 = VarId::new(3, 0);
        let v2 = VarId::new(5, 1);
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(v1, 2), Expr::var_gt(v1, v2)],
            vec![Expr::gt(v2, 1)],
        ]);
        for c in [Condition::True, Condition::False, cond] {
            let decoded = dec_cond(&enc_cond(&c)).expect("decodes");
            assert_eq!(decoded, c);
            // Canonicalization is idempotent: re-encoding is byte-stable.
            assert_eq!(enc_cond(&decoded).to_json(), enc_cond(&c).to_json());
        }
    }

    /// The kernel's rewrites need canonical conditions; the decoder must
    /// canonicalize whatever clause list a snapshot holds.
    #[test]
    fn non_canonical_clause_lists_decode_to_the_canonical_condition() {
        let (x, y, z) = (VarId::new(0, 0), VarId::new(1, 0), VarId::new(2, 1));
        let canonical = Condition::from_clauses(vec![
            vec![Expr::lt(x, 2)],
            vec![Expr::gt(y, 3), Expr::lt(z, 1)],
        ]);
        let clause = |exprs: &[Expr]| Value::List(exprs.iter().map(enc_expr).collect());
        let lists = [
            (
                "unsorted",
                vec![
                    clause(&[Expr::lt(z, 1), Expr::gt(y, 3)]),
                    clause(&[Expr::lt(x, 2)]),
                ],
            ),
            (
                "duplicated",
                vec![
                    clause(&[Expr::lt(x, 2)]),
                    clause(&[Expr::gt(y, 3), Expr::lt(z, 1)]),
                    clause(&[Expr::lt(x, 2), Expr::lt(x, 2)]),
                ],
            ),
            (
                "subsumed",
                vec![
                    clause(&[Expr::lt(x, 2), Expr::gt(y, 3)]),
                    clause(&[Expr::gt(y, 3), Expr::lt(z, 1)]),
                    clause(&[Expr::lt(x, 2)]),
                ],
            ),
        ];
        for (what, clauses) in lists {
            let decoded = dec_cond(&Value::List(clauses)).expect("decodes");
            assert_eq!(decoded, canonical, "{what}");
            assert_eq!(
                enc_cond(&decoded).to_json(),
                enc_cond(&canonical).to_json(),
                "{what}"
            );
            assert_eq!(
                decoded.substitute(y, 5),
                canonical.substitute(y, 5),
                "{what}"
            );
        }
    }

    #[test]
    fn platform_state_round_trips_nested() {
        let answer = TaskAnswer {
            task: Task {
                var: VarId::new(1, 2),
                rhs: Operand::Const(3),
            },
            relation: Relation::Gt,
        };
        let state = PlatformState::Faulty {
            rng: [1, u64::MAX, 3, 4],
            workforce: 0.75,
            overlay: CrowdStats {
                tasks_posted: 8,
                rounds: 2,
                worker_answers: 0,
                money_spent: u64::MAX,
            },
            faults: FaultStats {
                expired_injected: 1,
                spam_injected: 2,
                duplicates_injected: 3,
                straggler_rounds: 4,
            },
            inner: Box::new(PlatformState::Simulated {
                rng: [9, 8, 7, 6],
                stats: CrowdStats::default(),
                escalated: 5,
                log: vec![answer],
            }),
        };
        let decoded = dec_platform_state(&enc_platform_state(&state)).expect("decodes");
        assert_eq!(decoded, state);
    }

    #[test]
    fn pmf_maps_restore_bit_exactly() {
        let data = bc_data::generators::sample::paper_dataset();
        let missing = data.missing_vars();
        let mut map = BTreeMap::new();
        map.insert(missing[0], Pmf::from_weights(vec![1.0, 2.0, 4.0]));
        map.insert(missing[1], Pmf::uniform(7));
        let decoded = dec_pmf_map(&enc_pmf_map(map.iter()), &data).expect("decodes");
        assert_eq!(decoded.len(), 2);
        for (v, pmf) in &map {
            let got = &decoded[v];
            assert_eq!(got.probs(), pmf.probs(), "bit-exact restore for {v}");
        }
    }

    #[test]
    fn corrupt_sections_are_rejected_not_panicked() {
        for bad in [
            Value::Str("nope".into()),
            Value::List(vec![Value::Int(1)]),
            Value::obj(vec![("kind", Value::Str("martian".into()))]),
        ] {
            assert!(dec_platform_state(&bad).is_err());
            assert!(dec_config(&bad).is_err());
            assert!(dec_dataset(&bad).is_err());
        }
        // A pmf that does not sum to one is data corruption the checksum
        // cannot catch (it was written that way): the decoder must reject
        // it instead of panicking inside Pmf::from_probs.
        let bad_pmf = Value::List(vec![Value::List(vec![
            enc_vid(VarId::new(0, 0)),
            Value::List(vec![Value::Float(0.9), Value::Float(0.3)]),
        ])]);
        let data = bc_data::generators::sample::paper_dataset();
        assert!(dec_pmf_map(&bad_pmf, &data).is_err());
        // Distributions and store entries must name missing cells: an
        // observed cell or an id outside the dataset is refused.
        let missing = data.missing_vars()[0];
        for var in [VarId::new(0, 0), VarId::new(u32::MAX, 0), VarId::new(0, 99)] {
            assert_ne!(var, missing);
            let probs = Value::List(vec![Value::Float(1.0)]);
            let pmfs = Value::List(vec![Value::List(vec![enc_vid(var), probs])]);
            assert!(dec_pmf_map(&pmfs, &data).is_err(), "{var} as a pmf");
            let store = Value::obj(vec![
                ("cards", Value::List(vec![])),
                (
                    "masks",
                    Value::List(vec![Value::List(vec![enc_vid(var), Value::Int(1)])]),
                ),
                ("facts", Value::List(vec![])),
            ]);
            assert!(dec_store(&store, &data).is_err(), "{var} as a mask");
        }
    }
}
