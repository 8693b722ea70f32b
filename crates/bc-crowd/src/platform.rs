//! The crowd-platform abstraction and its simulated implementation: batch
//! posting, worker assignment, voting, and cost/latency accounting.

use crate::cost::CostModel;
use crate::oracle::GroundTruthOracle;
use crate::pool::WorkerPool;
use crate::state::{PlatformState, PlatformStateError};
use crate::task::{Task, TaskAnswer, TaskOutcome, TaskResult};
use crate::vote::majority_vote;
use crate::worker::Worker;
use bc_ctable::Relation;
use bc_data::Dataset;
use rand::SeedableRng;

/// Monetary-cost and latency accounting, as the paper measures them: cost =
/// number of posted tasks, latency = number of posting rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrowdStats {
    /// Total tasks posted.
    pub tasks_posted: usize,
    /// Total rounds (task-selection iterations). Platforms that model
    /// stragglers may charge more than one round per posted batch.
    pub rounds: usize,
    /// Individual worker answers collected.
    pub worker_answers: usize,
    /// Money spent under the platform's [`CostModel`] (each worker answer
    /// of a task is paid its price).
    pub money_spent: u64,
}

/// A crowdsourcing market the framework can post task batches to.
///
/// The contract mirrors a real platform, not the ideal one: a posted task
/// is *not* guaranteed an answer. Each round returns one [`TaskResult`] per
/// task — answered, expired, or inconsistent — and it is the caller's job
/// (see the framework's retry policy) to decide what failed tasks are worth.
///
/// Implementations must keep [`CrowdPlatform::stats`] consistent with what
/// actually happened: every posted task counts toward `tasks_posted` (even
/// if it expires), every non-empty batch consumes at least one round, and
/// every collected worker answer is both counted and paid.
pub trait CrowdPlatform {
    /// Posts one batch (= one round/iteration) of tasks and returns one
    /// result per task, in posting order. An empty batch does not count as
    /// a round.
    fn post_round(&mut self, tasks: &[Task]) -> Vec<TaskResult>;

    /// Recruits `extra` additional workers per task for all subsequent
    /// rounds — the retry policy's escalation hook. Platforms without
    /// adjustable staffing may ignore it (the default does).
    fn escalate(&mut self, extra: usize) {
        let _ = extra;
    }

    /// Accumulated cost/latency statistics.
    fn stats(&self) -> CrowdStats;

    /// The hidden complete dataset, when the platform knows it. Used only
    /// to score a run against ground truth; real or mock platforms return
    /// `None` and reports simply carry no accuracy.
    fn ground_truth(&self) -> Option<&Dataset> {
        None
    }

    /// Captures the platform's mutable state for a durable checkpoint, or
    /// `None` when the platform has nothing it can promise to restore (the
    /// default). Construction-time configuration is *not* part of the
    /// state; see [`crate::PlatformState`].
    fn save_state(&self) -> Option<PlatformState> {
        None
    }

    /// Restores mutable state previously captured by
    /// [`CrowdPlatform::save_state`] onto a freshly constructed platform of
    /// the same shape and configuration. The default refuses.
    fn load_state(&mut self, state: &PlatformState) -> Result<(), PlatformStateError> {
        let _ = state;
        Err(PlatformStateError::Unsupported)
    }
}

/// A simulated crowdsourcing market.
///
/// Each posted task is answered by `workers_per_task` independent workers of
/// the configured accuracy (plus any escalated ones) and resolved by
/// majority voting; a vote without a strict plurality is reported as
/// [`TaskOutcome::Inconsistent`].
#[derive(Debug)]
pub struct SimulatedPlatform {
    oracle: GroundTruthOracle,
    staffing: Staffing,
    workers_per_task: usize,
    escalated: usize,
    cost_model: CostModel,
    rng: rand::rngs::StdRng,
    stats: CrowdStats,
    log: Vec<TaskAnswer>,
}

/// Who answers the tasks: one accuracy for everyone, or a heterogeneous
/// pool with random assignment.
#[derive(Clone, Debug)]
enum Staffing {
    Homogeneous(Worker),
    Pool(WorkerPool),
}

impl SimulatedPlatform {
    /// A platform with the paper's default setup: 3 workers per task.
    pub fn new(oracle: GroundTruthOracle, worker_accuracy: f64, seed: u64) -> SimulatedPlatform {
        SimulatedPlatform::with_workers(oracle, worker_accuracy, 3, seed)
    }

    /// A platform with an explicit per-task worker count.
    ///
    /// # Panics
    ///
    /// Panics if `workers_per_task` is zero or the accuracy is not a
    /// probability.
    pub fn with_workers(
        oracle: GroundTruthOracle,
        worker_accuracy: f64,
        workers_per_task: usize,
        seed: u64,
    ) -> SimulatedPlatform {
        assert!(workers_per_task > 0, "at least one worker per task");
        SimulatedPlatform {
            oracle,
            staffing: Staffing::Homogeneous(Worker::new(worker_accuracy)),
            workers_per_task,
            escalated: 0,
            cost_model: CostModel::default(),
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            stats: CrowdStats::default(),
            log: Vec::new(),
        }
    }

    /// Replaces the cost model (chainable at construction time).
    pub fn with_cost_model(mut self, cost_model: CostModel) -> SimulatedPlatform {
        self.cost_model = cost_model;
        self
    }

    /// A platform staffed by a heterogeneous [`WorkerPool`]; each task is
    /// answered by `workers_per_task` randomly assigned pool members.
    ///
    /// # Panics
    ///
    /// Panics if `workers_per_task` is zero.
    pub fn with_pool(
        oracle: GroundTruthOracle,
        pool: WorkerPool,
        workers_per_task: usize,
        seed: u64,
    ) -> SimulatedPlatform {
        assert!(workers_per_task > 0, "at least one worker per task");
        SimulatedPlatform {
            oracle,
            staffing: Staffing::Pool(pool),
            workers_per_task,
            escalated: 0,
            cost_model: CostModel::default(),
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            stats: CrowdStats::default(),
            log: Vec::new(),
        }
    }

    /// The hidden complete dataset behind the oracle.
    pub fn oracle(&self) -> &GroundTruthOracle {
        &self.oracle
    }

    /// The worker answers for one task, at the current staffing level
    /// (base plus escalation). This is the single point where answers come
    /// into existence, so it is also the single point of accounting: every
    /// collected answer increments `worker_answers` and is paid the task's
    /// price.
    fn answers_for(&mut self, task: &Task) -> Vec<Relation> {
        let truth = self.oracle.truth(task);
        let k = self.workers_per_task + self.escalated;
        self.stats.worker_answers += k;
        self.stats.money_spent += self.cost_model.price(task) * k as u64;
        match &self.staffing {
            Staffing::Homogeneous(worker) => (0..k)
                .map(|_| worker.answer(truth, &mut self.rng))
                .collect(),
            Staffing::Pool(pool) => pool.answer(truth, k, &mut self.rng),
        }
    }

    /// Accumulated cost/latency statistics.
    pub fn stats(&self) -> CrowdStats {
        self.stats
    }

    /// Every task answered so far, in posting order.
    pub fn log(&self) -> &[TaskAnswer] {
        &self.log
    }
}

impl CrowdPlatform for SimulatedPlatform {
    fn post_round(&mut self, tasks: &[Task]) -> Vec<TaskResult> {
        if tasks.is_empty() {
            return Vec::new();
        }
        self.stats.rounds += 1;
        self.stats.tasks_posted += tasks.len();
        let mut out = Vec::with_capacity(tasks.len());
        for task in tasks {
            let answers = self.answers_for(task);
            let outcome = match majority_vote(&answers) {
                Some(relation) => {
                    self.log.push(TaskAnswer {
                        task: *task,
                        relation,
                    });
                    TaskOutcome::Answered(relation)
                }
                None => TaskOutcome::Inconsistent,
            };
            out.push(TaskResult {
                task: *task,
                outcome,
            });
        }
        out
    }

    fn escalate(&mut self, extra: usize) {
        self.escalated += extra;
    }

    fn stats(&self) -> CrowdStats {
        self.stats
    }

    fn ground_truth(&self) -> Option<&Dataset> {
        Some(self.oracle.complete())
    }

    fn save_state(&self) -> Option<PlatformState> {
        Some(PlatformState::Simulated {
            rng: self.rng.state(),
            stats: self.stats,
            escalated: self.escalated,
            log: self.log.clone(),
        })
    }

    fn load_state(&mut self, state: &PlatformState) -> Result<(), PlatformStateError> {
        match state {
            PlatformState::Simulated {
                rng,
                stats,
                escalated,
                log,
            } => {
                self.rng = rand::rngs::StdRng::from_state(*rng);
                self.stats = *stats;
                self.escalated = *escalated;
                self.log = log.clone();
                Ok(())
            }
            _ => Err(PlatformStateError::Mismatch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_ctable::Operand;
    use bc_data::generators::sample::paper_completion;
    use bc_data::VarId;

    fn platform(accuracy: f64) -> SimulatedPlatform {
        SimulatedPlatform::new(GroundTruthOracle::new(paper_completion()), accuracy, 9)
    }

    fn task(o: u32, a: u16, c: u16) -> Task {
        Task {
            var: VarId::new(o, a),
            rhs: Operand::Const(c),
        }
    }

    #[test]
    fn perfect_workers_return_the_truth() {
        let mut p = platform(1.0);
        let results = p.post_round(&[task(4, 3, 4), task(4, 2, 3)]);
        assert_eq!(results.len(), 2);
        // Hidden 2 vs 4, and 3 vs 3.
        assert_eq!(results[0].outcome, TaskOutcome::Answered(Relation::Lt));
        assert_eq!(results[1].outcome, TaskOutcome::Answered(Relation::Eq));
        assert_eq!(results[0].answer().unwrap().relation, Relation::Lt);
    }

    #[test]
    fn accounting_counts_tasks_rounds_and_answers() {
        let mut p = platform(1.0);
        p.post_round(&[task(4, 3, 4)]);
        p.post_round(&[task(4, 2, 3), task(1, 1, 3)]);
        p.post_round(&[]);
        let s = p.stats();
        assert_eq!(s.tasks_posted, 3);
        assert_eq!(s.rounds, 2, "empty batches are not rounds");
        assert_eq!(s.worker_answers, 9);
        assert_eq!(p.log().len(), 3);
    }

    #[test]
    fn majority_voting_rescues_moderate_noise() {
        // With accuracy 0.8 and 5 workers, the voted answer is right much
        // more often than a single worker.
        let mut p =
            SimulatedPlatform::with_workers(GroundTruthOracle::new(paper_completion()), 0.8, 5, 13);
        let mut correct = 0;
        for _ in 0..400 {
            let r = p.post_round(&[task(4, 3, 4)]);
            if r[0].outcome == TaskOutcome::Answered(Relation::Lt) {
                correct += 1;
            }
        }
        let rate = correct as f64 / 400.0;
        assert!(rate > 0.9, "voted accuracy should beat 0.8, got {rate}");
    }

    #[test]
    fn every_collected_answer_is_both_counted_and_paid() {
        // Escalated workers hit the same accounting as the initial
        // staffing: under the unit cost model, money and answer counts
        // stay identical.
        let mut p = platform(0.5);
        for round in 0..50 {
            if round == 25 {
                p.escalate(2);
            }
            p.post_round(&[task(4, 3, 4), task(4, 2, 3)]);
        }
        let s = p.stats();
        assert_eq!(s.worker_answers, 50 * 2 * 3 + 25 * 2 * 2);
        assert_eq!(
            s.money_spent, s.worker_answers as u64,
            "unit cost model: every answer paid exactly once"
        );
    }

    #[test]
    fn money_accounting_follows_the_cost_model() {
        let mut p = SimulatedPlatform::new(GroundTruthOracle::new(paper_completion()), 1.0, 9)
            .with_cost_model(crate::cost::CostModel::ByDifficulty {
                var_const: 2,
                var_var: 7,
            });
        let vv = Task {
            var: VarId::new(4, 1),
            rhs: Operand::Var(VarId::new(1, 1)),
        };
        p.post_round(&[task(4, 3, 4), vv]);
        // 3 workers × (2 + 7).
        assert_eq!(p.stats().money_spent, 27);
    }

    #[test]
    fn pool_staffing_answers_tasks() {
        let pool = WorkerPool::new(&[1.0, 1.0, 1.0]);
        let mut p =
            SimulatedPlatform::with_pool(GroundTruthOracle::new(paper_completion()), pool, 3, 4);
        let results = p.post_round(&[task(4, 3, 4)]);
        assert_eq!(results[0].outcome, TaskOutcome::Answered(Relation::Lt));
        assert_eq!(p.stats().worker_answers, 3);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| {
            let mut p =
                SimulatedPlatform::new(GroundTruthOracle::new(paper_completion()), 0.5, seed);
            (0..20)
                .map(|_| p.post_round(&[task(4, 1, 5)])[0].outcome)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn unresolvable_votes_are_reported_as_inconsistent() {
        // Accuracy 0 with 4 workers: answers are uniform over the two wrong
        // relations, so votes frequently split 2-2. Splits without a strict
        // plurality must come back Inconsistent, and they must not enter the
        // answer log.
        let mut p =
            SimulatedPlatform::with_workers(GroundTruthOracle::new(paper_completion()), 0.0, 4, 9);
        let mut saw_inconsistent = false;
        let mut answered = 0usize;
        for _ in 0..60 {
            let r = p.post_round(&[task(4, 3, 4)]);
            match r[0].outcome {
                TaskOutcome::Inconsistent => saw_inconsistent = true,
                TaskOutcome::Answered(_) => answered += 1,
                TaskOutcome::Expired => panic!("the fault-free platform never expires tasks"),
            }
        }
        assert!(saw_inconsistent, "unanimity-free votes must surface");
        assert_eq!(p.log().len(), answered, "only answers are logged");
    }

    #[test]
    fn escalation_raises_staffing_for_later_rounds() {
        let mut p = platform(1.0);
        p.post_round(&[task(4, 3, 4)]);
        assert_eq!(p.stats().worker_answers, 3);
        p.escalate(2);
        p.post_round(&[task(4, 3, 4)]);
        assert_eq!(p.stats().worker_answers, 3 + 5, "3 base + 2 escalated");
    }

    #[test]
    fn ground_truth_exposes_the_oracle_dataset() {
        let p = platform(1.0);
        assert_eq!(p.ground_truth(), Some(&paper_completion()));
    }

    #[test]
    fn saved_state_continues_identically_on_a_fresh_platform() {
        // Noisy workers so the RNG stream actually matters: a platform
        // restored mid-run must answer future rounds exactly like the
        // original would have.
        let mut original = platform(0.7);
        original.post_round(&[task(4, 3, 4), task(4, 1, 2)]);
        let state = original.save_state().expect("simulated state saves");

        let mut restored = platform(0.7);
        restored.load_state(&state).unwrap();
        assert_eq!(restored.stats(), original.stats());
        assert_eq!(restored.log(), original.log());

        let batch = [task(4, 3, 3), task(4, 1, 1), task(4, 0, 2)];
        for _ in 0..5 {
            assert_eq!(original.post_round(&batch), restored.post_round(&batch));
        }
        assert_eq!(restored.stats(), original.stats());
    }

    #[test]
    fn load_state_rejects_a_foreign_shape() {
        use crate::state::{PlatformState, PlatformStateError};
        let mut p = platform(1.0);
        let foreign = PlatformState::Faulty {
            rng: [0; 4],
            workforce: 1.0,
            overlay: CrowdStats::default(),
            faults: crate::fault::FaultStats::default(),
            inner: Box::new(PlatformState::Simulated {
                rng: [0; 4],
                stats: CrowdStats::default(),
                escalated: 0,
                log: Vec::new(),
            }),
        };
        assert_eq!(p.load_state(&foreign), Err(PlatformStateError::Mismatch));
    }
}
