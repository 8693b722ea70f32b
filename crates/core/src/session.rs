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

use crate::codec;
use crate::config::{BayesCrowdConfig, ANSWER_THRESHOLD};
use crate::error::RunError;
use crate::kept::ProbCache;
use crate::report::RunReport;
use crate::selection::{assemble_round, rank_objects};
use crate::strategy::UtilityScorer;
use bc_bayes::MissingValueModel;
use bc_crowd::{CrowdPlatform, Task, TaskAnswer, TaskOutcome};
use bc_ctable::{CTable, Condition, ConstraintStore, Relation};
use bc_data::{Accuracy, Dataset, ObjectId, VarId};
use bc_obs::{Event, NoopObserver, Observer, RunPhase, Span};
use bc_snapshot::SnapshotError;
use bc_solver::VarDists;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// A failed task waiting in the retry queue.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingTask {
    pub task: Task,
    /// Posting attempts so far (≥ 1; the task failed each of them).
    pub attempts: usize,
    /// First round (1-based) the task may be re-posted in, per the retry
    /// policy's backoff.
    pub eligible_round: usize,
}

/// A run's state between rounds: everything a checkpoint carries
/// ([`codec`]).
pub(crate) struct RunState {
    pub config: BayesCrowdConfig,
    pub data: Dataset,
    /// The model's pmfs, before any crowd answer: what an answered
    /// variable's mask conditions.
    pub base: VarDists,
    pub dists: VarDists,
    pub ctable: CTable,
    pub store: ConstraintStore,
    pub budget: usize,
    pub rounds_before: usize,
    pub pending: Vec<PendingTask>,
    pub tasks_expired: usize,
    pub tasks_retried: usize,
    pub rounds_stalled: usize,
    pub idle_rounds: usize,
    pub round_idx: usize,
    pub total_posted: usize,
    pub total_answered: usize,
    pub evals: u64,
    pub cache: ProbCache,
    pub finished: bool,
    pub modeling_time: Duration,
    /// Wall-clock accumulated by earlier incarnations of this run (zero for
    /// a fresh session, the checkpointed elapsed time after a resume).
    pub prior_elapsed: Duration,
}

/// Whether a failed task is still worth re-posting: propagation may have
/// decided everything its variables touch, in which case the answer would
/// be useless.
fn task_still_open(ctable: &CTable, task: &Task) -> bool {
    let mut vars: Vec<VarId> = task.vars().collect();
    vars.sort_unstable();
    !ctable.open_mentioning(&vars).is_empty()
}

impl RunState {
    /// Every open object's `Pr(φ(o))` under the current pmfs, in object
    /// order. Objects with no cached probability are solved first (see
    /// [`ProbCache::solve_batch`]), as one [`Event::ProbabilityBatch`] when
    /// there are any, and counted in `evals`. A solver error, an invalid
    /// probability included, aborts the run as [`RunError::Solver`].
    fn open_probabilities(
        &mut self,
        phase: RunPhase,
        observer: &mut dyn Observer,
    ) -> Result<Vec<(ObjectId, f64)>, RunError> {
        let open = self.ctable.open_objects();
        let stale = self.cache.stale(&open);
        if !stale.is_empty() {
            let t = Instant::now();
            let stats =
                self.cache
                    .solve_batch(self.config.parallel, &self.ctable, &stale, &self.dists)?;
            observer.event(&Event::ProbabilityBatch {
                phase,
                objects: stale.len(),
                cached: open.len() - stale.len(),
                points: stats.points,
                groups: stats.groups,
                clause_tables: stats.clause_tables,
                nanos: t.elapsed().as_nanos(),
            });
            self.evals += stale.len() as u64;
        }
        Ok(open
            .into_iter()
            .map(|o| (o, self.cache.get(o).expect("solved above")))
            .collect())
    }
}

/// The observer of an unobserved session. [`NoopObserver`] is zero-sized,
/// so the leaked box allocates nothing.
pub(crate) fn unobserved() -> &'static mut dyn Observer {
    Box::leak(Box::new(NoopObserver))
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
    state: RunState,
    platform: &'a mut dyn CrowdPlatform,
    observer: &'a mut dyn Observer,
    mu: usize,
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
        observer: &'a mut dyn Observer,
    ) -> Result<Session<'a>, RunError> {
        if data.n_objects() == 0 {
            return Err(RunError::EmptyDataset);
        }
        let started = Instant::now();
        observer.event(&Event::RunStarted {
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
        observer.event(&Event::ModelTrained {
            bic: model_stats.bic,
            edges: model_stats.edges,
            em_iters: model_stats.em_iters,
            search_iters: model_stats.search_iters,
            blanket_cells: model_stats.blanket_cells,
            ve_cells: model_stats.ve_cells,
            blanket_keys: model_stats.blanket_keys,
            nanos: model_span.elapsed_nanos(),
        });
        model_span.finish(observer);

        let ctable_span = Span::start(RunPhase::CTable);
        let (ctable, build_stats) =
            bc_ctable::build_ctable_with_stats(data, &config.ctable_config());
        observer.event(&Event::CTableBuilt {
            objects: build_stats.objects,
            open_objects: build_stats.open,
            vars: build_stats.vars,
            exprs: build_stats.exprs,
            pruned: build_stats.pruned,
            candidates: build_stats.candidates,
            bitset_words: build_stats.bitset_words,
            nanos: ctable_span.elapsed_nanos(),
        });
        ctable_span.finish(observer);
        let modeling_time = started.elapsed();
        let state = RunState {
            store: ConstraintStore::new(data),
            budget: config.budget,
            rounds_before: platform.stats().rounds,
            config,
            data: data.clone(),
            base,
            dists,
            ctable,
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
        };
        Ok(Session::new(state, platform, observer, started))
    }

    /// A session over `state`, with the per-round allowance of the state's
    /// configuration.
    fn new(
        state: RunState,
        platform: &'a mut dyn CrowdPlatform,
        observer: &'a mut dyn Observer,
        started: Instant,
    ) -> Session<'a> {
        Session {
            mu: state.config.tasks_per_round().max(1),
            state,
            platform,
            observer,
            started,
        }
    }

    /// The session's configuration.
    pub fn config(&self) -> &BayesCrowdConfig {
        &self.state.config
    }

    /// Rounds executed so far (the round counter of the last `step`).
    pub fn round(&self) -> usize {
        self.state.round_idx
    }

    /// Budget remaining.
    pub fn budget_left(&self) -> usize {
        self.state.budget
    }

    /// Symbolic expressions still undecided in the c-table.
    pub fn open_exprs(&self) -> usize {
        self.state.ctable.n_open_exprs()
    }

    /// Whether the crowdsourcing loop has terminated ([`Session::step`]
    /// will do nothing more; only [`Session::finalize`] remains).
    pub fn is_finished(&self) -> bool {
        self.state.finished
    }

    /// The c-table as of the last step — each object's current condition
    /// after all propagation so far. Together with [`Session::dists`] this
    /// is everything an external oracle needs to recompute the session's
    /// probabilities from scratch.
    pub fn ctable(&self) -> &CTable {
        &self.state.ctable
    }

    /// The current per-variable posterior distributions (the learned pmfs,
    /// truncated by every crowd answer propagated so far).
    pub fn dists(&self) -> &VarDists {
        &self.state.dists
    }

    /// The constraint store: every crowd answer propagated so far, as
    /// candidate-value masks and variable-pair facts. Propagating the
    /// session's initial c-table against it in one full pass gives
    /// [`Session::ctable`].
    pub fn store(&self) -> &ConstraintStore {
        &self.state.store
    }

    /// Every object's probability of being a skyline answer under the
    /// current posterior: `1.0` for conditions already decided true, `0.0`
    /// for false, and `Pr(φ(o))` from ADPLL otherwise.
    ///
    /// This is the oracle-checking hook: callable between any two
    /// [`Session::step`]s (or after a resume), it exposes the exact
    /// per-object numbers a [`Session::finalize`] at this instant would
    /// threshold — so a test can compare every intermediate state against
    /// an independent possible-worlds computation, not just the final
    /// [`RunReport`]. Freshly solved probabilities land in the session's
    /// round-level cache, exactly as a finalize would leave them.
    pub fn object_probabilities(&mut self) -> Result<BTreeMap<ObjectId, f64>, RunError> {
        let state = &mut self.state;
        let mut out: BTreeMap<ObjectId, f64> = state
            .open_probabilities(RunPhase::Finalize, self.observer)?
            .into_iter()
            .collect();
        out.extend(state.ctable.iter().filter_map(|(o, cond)| match cond {
            Condition::True => Some((o, 1.0)),
            Condition::False => Some((o, 0.0)),
            Condition::Cnf(_) => None,
        }));
        Ok(out)
    }

    /// Runs one crowdsourcing round (one iteration of Algorithm 4):
    /// selection, posting, and answer propagation. Returns `Ok(true)` while
    /// the loop may continue and `Ok(false)` once it has terminated (budget
    /// or latency exhausted, nothing left to ask, or every expression
    /// decided). Idempotent after termination.
    pub fn step(&mut self) -> Result<bool, RunError> {
        let s = &mut self.state;
        let (platform, observer) = (&mut *self.platform, &mut *self.observer);
        if s.finished {
            return Ok(false);
        }
        let retry = s.config.retry;

        if s.budget == 0 || !s.ctable.any_open() {
            s.finished = true;
            return Ok(false);
        }
        // Latency is measured against the platform's own round counter (a
        // straggling platform may consume several rounds per posted batch)
        // plus locally idled backoff rounds.
        if s.config.latency > 0
            && (platform.stats().rounds - s.rounds_before) + s.idle_rounds >= s.config.latency
        {
            s.finished = true;
            return Ok(false);
        }
        s.round_idx += 1;
        observer.event(&Event::RoundStarted { round: s.round_idx });
        let round_start = Instant::now();
        let limit = self.mu.min(s.budget);
        let select_span = Span::start(RunPhase::Select);

        // Re-posts come first: failed tasks whose backoff has elapsed and
        // whose answer is still useful (propagation may have decided
        // everything they touch in the meantime — those drop quietly).
        let mut batch: Vec<Task> = Vec::new();
        let mut attempts_in_batch: Vec<usize> = Vec::new();
        let mut waiting: Vec<PendingTask> = Vec::new();
        for p in s.pending.drain(..) {
            if !task_still_open(&s.ctable, &p.task) {
                continue;
            }
            if p.eligible_round <= s.round_idx && batch.len() < limit {
                batch.push(p.task);
                attempts_in_batch.push(p.attempts);
            } else {
                waiting.push(p);
            }
        }
        s.pending = waiting;
        let n_retries = batch.len();
        s.tasks_retried += n_retries;
        if n_retries > 0 && retry.escalate_workers > 0 {
            platform.escalate(retry.escalate_workers);
        }

        // Variables already spoken for: this round's re-posts and the
        // queued tasks still backing off. Fresh selection must not ask
        // about them a second time.
        let mut reserved: BTreeSet<VarId> = batch.iter().flat_map(|t| t.vars()).collect();
        reserved.extend(s.pending.iter().flat_map(|p| p.task.vars()));

        if batch.len() < limit {
            // Utilities take `Pr(φ)` from the cache: an entry survives only
            // while no answered variable touches its condition, and only
            // the answered variables' masks (hence pmfs) change, so every
            // entry is `Pr(φ)` under the current `dists`.
            let probs = s.open_probabilities(RunPhase::Select, observer)?;
            let ranked = rank_objects(&probs, s.config.ranking);
            let t = Instant::now();
            let mut scorer = UtilityScorer::new(s.cache.workspace(), &s.dists);
            let fresh_tasks = assemble_round(
                &ranked,
                &s.ctable,
                s.config.strategy,
                &mut scorer,
                limit - batch.len(),
                s.config.conflict_free,
                &reserved,
            )?;
            let tally = scorer.tally();
            observer.event(&Event::UtilityBatch {
                candidates: tally.candidates,
                solver_calls: tally.passes,
                points: tally.points,
                clause_tables: tally.clause_tables,
                nanos: t.elapsed().as_nanos(),
            });
            attempts_in_batch.resize(batch.len() + fresh_tasks.len(), 0);
            batch.extend(fresh_tasks);
        }
        select_span.finish(observer);

        if batch.is_empty() {
            observer.event(&Event::RoundFinished {
                round: s.round_idx,
                posted: 0,
                answered: 0,
                expired: 0,
                requeued: 0,
                retried: 0,
                nanos: round_start.elapsed().as_nanos(),
            });
            if s.pending.is_empty() {
                s.finished = true;
                return Ok(false);
            }
            // Everything still owed is backing off: idle one round.
            s.idle_rounds += 1;
            s.rounds_stalled += 1;
            return Ok(true);
        }

        // Algorithm 4 line 8: B ← max(B − μ, 0). The full per-round
        // allowance is charged even if conflicts left some of it unused,
        // which is what bounds the number of rounds by L. Re-posts are
        // tasks like any other and consume the same allowance.
        s.budget = s.budget.saturating_sub(limit);

        let post_span = Span::start(RunPhase::Post);
        let results = platform.post_round(&batch);
        post_span.finish(observer);
        s.total_posted += batch.len();

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
                        s.pending.push(PendingTask {
                            task: *task,
                            attempts,
                            eligible_round: s.round_idx + 1 + retry.backoff_rounds(attempts),
                        });
                    } else {
                        round_expired += 1;
                    }
                }
            }
        }
        s.tasks_expired += round_expired;
        s.total_answered += answers.len();
        if answers.is_empty() {
            s.rounds_stalled += 1;
        }
        let propagate_span = Span::start(RunPhase::Propagate);
        // Invalidate cached probabilities of conditions touching any
        // variable the round asked about: their pmfs and conditions change
        // below, and no other's do (see `ProbCache::invalidate`).
        let mut touched: Vec<VarId> = answers.iter().flat_map(|a| a.task.vars()).collect();
        touched.sort_unstable();
        touched.dedup();
        let touched_objects = s.ctable.open_mentioning(&touched);
        s.cache.invalidate(&touched_objects);
        if s.config.propagate_answers {
            let mut narrowed = BTreeSet::new();
            for a in &answers {
                narrowed.extend(s.store.record(a.task.var, a.task.rhs, a.relation));
            }
            // The store changed only on the answered variables, and the
            // built table and every earlier pass left each open condition
            // at its fixpoint; so only conditions mentioning an answered
            // variable can move.
            let prop_stats = s.ctable.propagate(&s.store, &touched, &touched_objects);
            // Re-condition only the variables whose candidate set narrowed
            // (all answered ones); every other distribution is unchanged
            // (the base pmf while the mask is the full domain). A mask with
            // no base mass leaves the pmf as it was.
            for var in narrowed {
                let pmf = s.base.pmf(var).ok();
                if let Some(pmf) = pmf.and_then(|b| b.conditioned(s.store.mask(var))) {
                    s.dists.insert(var, pmf);
                }
            }
            observer.event(&Event::Propagated {
                answers: answers.len(),
                examined: prop_stats.examined,
                visited: prop_stats.visited,
                decided: prop_stats.decided,
                nanos: propagate_span.elapsed_nanos(),
            });
        } else {
            // Ablation: an answer only settles the exact expression it was
            // derived from — no cross-condition inference. That expression
            // mentions an answered variable, so only the touched objects
            // can change.
            let answered: BTreeMap<Task, Relation> =
                answers.iter().map(|a| (a.task, a.relation)).collect();
            for &o in &touched_objects {
                let cond = s.ctable.condition(o);
                let simplified = cond.simplify(|e| {
                    answered
                        .get(&Task::from_expr(e))
                        .map(|&rel| crate::framework::expr_truth(e.op(), rel))
                });
                s.ctable.set_condition(o, simplified);
            }
        }
        propagate_span.finish(observer);
        observer.event(&Event::RoundFinished {
            round: s.round_idx,
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
        let (s, observer) = (&mut self.state, &mut *self.observer);

        // Tasks still queued (and still useful) when budget or latency ran
        // out never got their answer: graceful degradation, not an error.
        let tasks_abandoned = s
            .pending
            .iter()
            .filter(|p| task_still_open(&s.ctable, &p.task))
            .count();
        s.tasks_expired += tasks_abandoned;
        if tasks_abandoned > 0 {
            observer.event(&Event::Degraded { tasks_abandoned });
        }

        // ---- Derive the answer set -------------------------------------
        // Open conditions keep their symbolic variables; their objects are
        // judged by the probability under the current posterior, exactly as
        // in a fully-budgeted run that simply stopped earlier. Cached
        // probabilities are still valid (invalidation dropped everything a
        // crowd answer touched), so only stale conditions are re-solved.
        let finalize_span = Span::start(RunPhase::Finalize);
        let open = s.open_probabilities(RunPhase::Finalize, observer)?;
        let certain = s.ctable.certain_answers();
        let mut result = certain.clone();
        result.extend(
            open.iter()
                .filter(|&&(_, p)| p > ANSWER_THRESHOLD)
                .map(|&(o, _)| o),
        );
        result.sort_unstable();
        finalize_span.finish(observer);

        let total_time = s.prior_elapsed + self.started.elapsed();
        // Evaluation, not the query: the ground truth's skyline is computed
        // outside the finalize span and `total_time`.
        let truth = self
            .platform
            .ground_truth()
            .and_then(|complete| bc_data::skyline::skyline_sfs(complete).ok());
        let accuracy = truth.map(|t| Accuracy::of(&result, &t));
        let report = RunReport {
            result,
            certain,
            open_probabilities: open.into_iter().collect(),
            accuracy,
            crowd: self.platform.stats(),
            budget_left: s.budget,
            modeling_time: s.modeling_time,
            total_time,
            probability_evals: s.evals,
            open_exprs_left: s.ctable.n_open_exprs(),
            tasks_expired: s.tasks_expired,
            tasks_retried: s.tasks_retried,
            rounds_stalled: s.rounds_stalled,
            degraded: s.tasks_expired > 0,
        };
        observer.event(&Event::RunFinished {
            rounds: report.crowd.rounds,
            tasks_posted: report.crowd.tasks_posted,
            tasks_answered: s.total_answered,
            tasks_expired: report.tasks_expired,
            tasks_retried: report.tasks_retried,
            probability_evals: report.probability_evals,
            nanos: total_time.as_nanos(),
        });

        // A platform that swallowed every single task is indistinguishable
        // from no crowd at all: surface it as an error with the degraded
        // report attached (the trace above is already complete).
        if s.total_posted > 0 && s.total_answered == 0 && report.open_exprs_left > 0 {
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
        let platform = self.platform.save_state().ok_or_else(|| {
            SnapshotError::Invalid(
                "platform does not support checkpointing (save_state returned None)".into(),
            )
        })?;
        let elapsed = self.state.prior_elapsed + self.started.elapsed();
        let bytes = codec::write_checkpoint(out, &self.state, elapsed, &platform)?;
        self.observer.event(&Event::CheckpointWritten {
            round: self.state.round_idx,
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
        Session::resume_observed(reader, platform, unobserved())
    }

    /// [`Session::resume`] with an observer; emits [`Event::Resumed`] and
    /// streams all later events to it.
    pub fn resume_observed(
        reader: impl Read,
        platform: &'a mut dyn CrowdPlatform,
        observer: &'a mut dyn Observer,
    ) -> Result<Session<'a>, RunError> {
        let t = Instant::now();
        let (state, platform_state) = codec::read_checkpoint(reader)?;
        platform.load_state(&platform_state).map_err(|e| {
            SnapshotError::Invalid(format!("platform cannot restore this checkpoint: {e}"))
        })?;
        observer.event(&Event::Resumed {
            round: state.round_idx,
            budget_left: state.budget,
            open_exprs: state.ctable.n_open_exprs(),
            nanos: t.elapsed().as_nanos(),
        });
        Ok(Session::new(state, platform, observer, Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::TaskStrategy;
    use bc_bayes::Pmf;

    /// Every distribution is its base pmf while its mask is the full
    /// domain, and the base conditioned on its mask once narrowed —
    /// bit-for-bit.
    fn assert_dists_follow_masks(session: &Session<'_>, ctx: &str) {
        let bits = |p: &Pmf| p.probs().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (&var, base) in session.state.base.iter() {
            let got = session
                .state
                .dists
                .pmf(var)
                .expect("every missing cell has a pmf");
            let mask = session.state.store.mask(var);
            let full = (1u64 << base.card()) - 1;
            if mask == full {
                assert_eq!(bits(got), bits(base), "{ctx}: {var} untouched");
            } else if let Some(want) = base.conditioned(mask) {
                assert_eq!(bits(got), bits(&want), "{ctx}: {var} narrowed");
            }
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
            let mut session = Session::start(config, &data, &mut first, unobserved()).unwrap();
            assert_dists_follow_masks(&session, "start");
            let mut snapshot = Vec::new();
            for _ in 0..3 {
                session.step().unwrap();
                assert_dists_follow_masks(&session, "before checkpoint");
            }
            assert!(
                session.state.store.masks().len() > 0,
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
    fn touched_only_propagation_reaches_the_fixpoint_across_resume() {
        use bc_crowd::{GroundTruthOracle, SimulatedPlatform};
        use bc_ctable::Expr;
        use bc_obs::MetricsRecorder;
        let complete = bc_data::generators::nba::nba_like(60, 5);
        let (data, _) = bc_data::missing::inject_mcar(&complete, 0.15, 9);
        /// `cond` propagated from scratch against `store`, the whole
        /// condition at a time: `simplify`, then `substitute` every pinned
        /// variable, until nothing changes.
        fn fixpoint(cond: &Condition, store: &ConstraintStore) -> Condition {
            let mut current = cond.clone();
            loop {
                let mut next = current.simplify(|e| store.decide(e));
                let pinned: BTreeSet<_> = (next.exprs().flat_map(Expr::vars))
                    .filter_map(|v| store.pinned_value(v).map(|x| (v, x)))
                    .collect();
                for (v, x) in pinned {
                    next = next.substitute(v, x);
                }
                if next == current {
                    return next;
                }
                current = next;
            }
        }
        /// Steps to the end (or `rounds` steps), checking after each round
        /// that the c-table is `initial` propagated from scratch against
        /// the session's store. Returns the open conditions a whole-table
        /// pass would have examined in the rounds that propagated.
        fn drive(session: &mut Session<'_>, initial: &CTable, rounds: usize, ctx: &str) -> u64 {
            let mut full_examined = 0;
            for _ in 0..rounds {
                let (open, posted) = (
                    session.state.ctable.open_objects().len(),
                    session.state.total_posted,
                );
                let more = session.step().unwrap();
                if session.state.total_posted > posted {
                    full_examined += open as u64;
                }
                for (o, cond) in initial.iter() {
                    assert_eq!(
                        *session.state.ctable.condition(o),
                        fixpoint(cond, &session.state.store),
                        "{ctx}: round {}, {o}",
                        session.state.round_idx
                    );
                }
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
            let mut session = Session::start(config, &data, &mut first, &mut rec).unwrap();
            let initial = session.state.ctable.clone();
            let mut full_examined = drive(&mut session, &initial, 3, "before checkpoint");
            let mut snapshot = Vec::new();
            session.checkpoint(&mut snapshot).unwrap();
            drop(session);
            let (mut second, mut rec_resumed) = (platform(), MetricsRecorder::new());
            let mut resumed =
                Session::resume_observed(snapshot.as_slice(), &mut second, &mut rec_resumed)
                    .unwrap();
            full_examined += drive(&mut resumed, &initial, usize::MAX, "after resume");
            drop(resumed);
            let examined =
                rec.counters().propagate_examined + rec_resumed.counters().propagate_examined;
            assert!(
                0 < examined && examined < full_examined,
                "{strategy:?}: touched-only passes examined {examined}, whole-table passes \
                 would examine {full_examined}"
            );
        }
    }
}
