//! Failure injection: adversarial and degenerate inputs must never panic or
//! violate the budget/latency contracts.

use bayescrowd::{BayesCrowd, BayesCrowdConfig, TaskStrategy};
use bc_crowd::{GroundTruthOracle, SimulatedPlatform};
use bc_data::domain::uniform_domains;
use bc_data::{AttrId, Dataset, ObjectId};

fn config(strategy: TaskStrategy) -> BayesCrowdConfig {
    BayesCrowdConfig {
        budget: 30,
        latency: 5,
        alpha: 1.0,
        strategy,
        ..Default::default()
    }
}

fn complete_random(n: usize, d: usize, card: u16, seed: u64) -> Dataset {
    bc_data::generators::classic::independent(n, d, card, seed)
}

/// Workers that are always wrong (accuracy 0) can contradict themselves
/// across rounds; the run must terminate cleanly with the budget respected.
#[test]
fn always_wrong_workers_do_not_break_the_run() {
    let complete = complete_random(40, 3, 6, 1);
    let (incomplete, _) = bc_data::missing::inject_mcar(&complete, 0.3, 2);
    for strategy in [TaskStrategy::Fbs, TaskStrategy::Hhs { m: 3 }] {
        let oracle = GroundTruthOracle::new(complete.clone());
        let mut platform = SimulatedPlatform::new(oracle, 0.0, 3);
        let report = BayesCrowd::new(config(strategy)).run(&incomplete, &mut platform);
        assert!(report.crowd.tasks_posted <= 30);
        assert!(report.crowd.rounds <= 5);
        // The result is garbage, but it is a well-formed result.
        for o in &report.result {
            assert!(o.index() < incomplete.n_objects());
        }
    }
}

/// Coin-flip workers (accuracy 1/3 ≈ random over three choices).
#[test]
fn random_workers_terminate() {
    let complete = complete_random(30, 3, 6, 4);
    let (incomplete, _) = bc_data::missing::inject_mcar(&complete, 0.4, 5);
    let oracle = GroundTruthOracle::new(complete);
    let mut platform = SimulatedPlatform::new(oracle, 1.0 / 3.0, 6);
    let report = BayesCrowd::new(config(TaskStrategy::Ubs)).run(&incomplete, &mut platform);
    assert!(report.crowd.tasks_posted <= 30);
}

/// A dataset where everything is missing: every pmf is a prior, every
/// object's condition involves only variables.
#[test]
fn fully_missing_dataset() {
    let n = 8;
    let d = 2;
    let rows = vec![vec![None; d]; n];
    let incomplete = Dataset::from_rows("void", uniform_domains(d, 4).unwrap(), rows).unwrap();
    let complete = complete_random(n, d, 4, 7);
    let oracle = GroundTruthOracle::new(complete.clone());
    let mut platform = SimulatedPlatform::new(oracle, 1.0, 8);
    let cfg = BayesCrowdConfig {
        budget: 200,
        latency: 20,
        ..config(TaskStrategy::Fbs)
    };
    let report = BayesCrowd::new(cfg).run(&incomplete, &mut platform);
    // With enough budget and perfect workers the skyline may still not be
    // fully recoverable through [Var op Var] questions alone when ties
    // exist, but the run must terminate and answers must be sane.
    assert!(report.crowd.rounds <= 20);
    for o in &report.certain {
        assert!(o.index() < n);
    }
}

/// A single object is trivially the whole skyline, with no crowd needed.
#[test]
fn single_object_dataset() {
    let incomplete = Dataset::from_rows(
        "one",
        uniform_domains(3, 4).unwrap(),
        vec![vec![Some(1), None, Some(3)]],
    )
    .unwrap();
    let complete =
        Dataset::from_complete_rows("one", uniform_domains(3, 4).unwrap(), vec![vec![1, 2, 3]])
            .unwrap();
    let oracle = GroundTruthOracle::new(complete);
    let mut platform = SimulatedPlatform::new(oracle, 1.0, 9);
    let report = BayesCrowd::new(config(TaskStrategy::Fbs)).run(&incomplete, &mut platform);
    assert_eq!(report.result, vec![ObjectId(0)]);
    assert_eq!(report.crowd.tasks_posted, 0);
    assert_eq!(report.accuracy.unwrap().f1, 1.0);
}

/// Duplicated objects (full ties) everywhere: the paper's CNF treats a
/// fully observed tie as non-dominating, so all duplicates survive; the run
/// must not loop or panic on the degenerate structure.
#[test]
fn all_identical_objects() {
    let n = 6;
    let rows = vec![vec![Some(2), Some(2)]; n];
    let incomplete = Dataset::from_rows("dup", uniform_domains(2, 4).unwrap(), rows).unwrap();
    let complete =
        Dataset::from_complete_rows("dup", uniform_domains(2, 4).unwrap(), vec![vec![2, 2]; n])
            .unwrap();
    let oracle = GroundTruthOracle::new(complete);
    let mut platform = SimulatedPlatform::new(oracle, 1.0, 10);
    let report =
        BayesCrowd::new(config(TaskStrategy::Hhs { m: 2 })).run(&incomplete, &mut platform);
    assert_eq!(report.result.len(), n, "ties never dominate");
    assert_eq!(report.crowd.tasks_posted, 0);
}

/// Contradictory constraint masks (wrong Eq answers emptying a variable's
/// candidate set) must leave the engine running on its remaining knowledge.
#[test]
fn contradictory_answers_leave_a_consistent_engine() {
    // Accuracy 0 guarantees wrong answers; with repeated questions about the
    // same variables across rounds, masks can empty out.
    let complete = complete_random(20, 2, 4, 11);
    let (incomplete, _) = bc_data::missing::inject_mcar(&complete, 0.5, 12);
    let oracle = GroundTruthOracle::new(complete);
    let mut platform = SimulatedPlatform::new(oracle, 0.0, 13);
    let cfg = BayesCrowdConfig {
        budget: 100,
        latency: 25,
        ..config(TaskStrategy::Fbs)
    };
    let report = BayesCrowd::new(cfg).run(&incomplete, &mut platform);
    assert!(report.crowd.tasks_posted <= 100);
    // Probabilities reported for still-open objects stay within [0, 1].
    for p in report.open_probabilities.values() {
        assert!((0.0..=1.0).contains(p), "probability {p} out of range");
    }
}

/// CrowdSky with an empty crowd-attribute set and zero-size rounds is
/// rejected or degenerates gracefully.
#[test]
fn crowdsky_degenerate_inputs() {
    use crowdsky::{CrowdSky, CrowdSkyConfig};
    let complete = complete_random(10, 3, 6, 14);
    let oracle = GroundTruthOracle::new(complete.clone());
    let mut platform = SimulatedPlatform::new(oracle, 1.0, 15);
    // Complete data: no crowd attributes at all.
    let report = CrowdSky::new(CrowdSkyConfig { round_size: 1 }).run(&complete, &mut platform);
    assert_eq!(report.crowd.tasks_posted, 0);
    assert_eq!(report.accuracy.unwrap().f1, 1.0);
}

/// Mixed observed/missing attribute required by CrowdSky is validated.
#[test]
#[should_panic(expected = "fully observed or fully missing")]
fn crowdsky_rejects_mcar_data() {
    use crowdsky::{CrowdSky, CrowdSkyConfig};
    let complete = complete_random(10, 3, 6, 16);
    let mut incomplete = complete.clone();
    incomplete.set(ObjectId(0), AttrId(0), None).unwrap();
    let oracle = GroundTruthOracle::new(complete);
    let mut platform = SimulatedPlatform::new(oracle, 1.0, 17);
    let _ = CrowdSky::new(CrowdSkyConfig::default()).run(&incomplete, &mut platform);
}

// ---------------------------------------------------------------------------
// Fault matrix: FaultyPlatform + RetryPolicy against the framework's
// budget/latency contracts and graceful-degradation guarantees.
// ---------------------------------------------------------------------------

use bayescrowd::{RetryPolicy, RunReport};
use bc_crowd::{
    CrowdPlatform, CrowdStats, FaultConfig, FaultyPlatform, SpammerKind, Task, TaskOutcome,
    TaskResult,
};
use bc_ctable::{Operand, Relation};

const MATRIX_STRATEGIES: [TaskStrategy; 3] = [
    TaskStrategy::Fbs,
    TaskStrategy::Ubs,
    TaskStrategy::Hhs { m: 3 },
];

fn faulty_workload() -> (Dataset, Dataset) {
    let complete = complete_random(60, 3, 8, 21);
    let (incomplete, _) = bc_data::missing::inject_mcar(&complete, 0.25, 22);
    (complete, incomplete)
}

fn run_with_faults(
    strategy: TaskStrategy,
    faults: FaultConfig,
    retry: RetryPolicy,
    budget: usize,
    latency: usize,
) -> RunReport {
    let (complete, incomplete) = faulty_workload();
    let cfg = BayesCrowdConfig {
        budget,
        latency,
        alpha: 1.0,
        strategy,
        retry,
        ..Default::default()
    };
    let inner = SimulatedPlatform::new(GroundTruthOracle::new(complete), 1.0, 23);
    let mut platform = FaultyPlatform::new(inner, faults, 24);
    BayesCrowd::new(cfg).run(&incomplete, &mut platform)
}

fn assert_contracts(report: &RunReport, budget: usize, latency: usize, label: &str) {
    assert!(
        report.crowd.tasks_posted <= budget,
        "{label}: {} tasks posted over budget {budget}",
        report.crowd.tasks_posted
    );
    assert!(
        report.crowd.rounds <= latency,
        "{label}: {} rounds over latency {latency}",
        report.crowd.rounds
    );
    for p in report.open_probabilities.values() {
        assert!((0.0..=1.0).contains(p), "{label}: probability {p}");
    }
}

/// Acceptance: a seeded 30%-expiry run with retries enabled terminates
/// within B and L, reports its degradation honestly, and lands within 0.15
/// F1 of the fault-free run on the same platform seed.
#[test]
fn thirty_percent_expiry_with_retries_stays_close_to_fault_free() {
    let (budget, latency) = (60, 10);
    for strategy in MATRIX_STRATEGIES {
        let clean = run_with_faults(
            strategy,
            FaultConfig::default(),
            RetryPolicy::default(),
            budget,
            latency,
        );
        assert!(!clean.degraded, "no faults, nothing to give up on");
        assert_eq!(clean.tasks_expired, 0);

        let faulty = run_with_faults(
            strategy,
            FaultConfig {
                expiry_prob: 0.3,
                ..FaultConfig::default()
            },
            RetryPolicy::default(),
            budget,
            latency,
        );
        assert_contracts(&faulty, budget, latency, "expiry-30");
        assert!(
            faulty.tasks_retried > 0,
            "30% expiry must trigger re-posts: {}",
            faulty.summary()
        );
        let f1_clean = clean.accuracy.unwrap().f1;
        let f1_faulty = faulty.accuracy.unwrap().f1;
        assert!(
            (f1_clean - f1_faulty).abs() <= 0.15,
            "{}: faulty f1 {f1_faulty:.3} strayed from clean {f1_clean:.3}",
            strategy.name()
        );
    }
}

/// A faulty campaign's report and work counters, as one line: the answer
/// sets, the crowd's accounting, the degradation counts, the open
/// probabilities (hashed to the bit) and every `bc_obs::Counters` field.
fn faulty_campaign_digest(strategy: TaskStrategy, retry: RetryPolicy) -> String {
    let complete = complete_random(150, 4, 8, 31);
    let (incomplete, _) = bc_data::missing::inject_mcar(&complete, 0.3, 32);
    let cfg = BayesCrowdConfig {
        budget: 40,
        latency: 4,
        alpha: 1.0,
        strategy,
        retry,
        ..Default::default()
    };
    let inner = SimulatedPlatform::new(GroundTruthOracle::new(complete), 1.0, 23);
    let faults = FaultConfig {
        expiry_prob: 0.3,
        attrition: 0.1,
        ..FaultConfig::default()
    };
    let mut platform = FaultyPlatform::new(inner, faults, 24);
    let mut metrics = bc_obs::MetricsRecorder::new();
    let report = match BayesCrowd::new(cfg).try_run(&incomplete, &mut platform, &mut metrics) {
        Ok(r) => r,
        Err(bayescrowd::RunError::PlatformExhausted { report }) => *report,
        Err(e) => panic!("unexpected run error: {e}"),
    };
    // FNV-1a over each open object and its probability's bits.
    let mut probs: u64 = 0xcbf2_9ce4_8422_2325;
    for (o, p) in &report.open_probabilities {
        for word in [u64::from(o.0), p.to_bits()] {
            probs = (probs ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!(
        "result {:?} certain {:?} {:?} budget_left {} evals {} open_exprs {} expired {} \
         retried {} stalled {} degraded {} probs {probs:016x} | {:?}",
        report.result,
        report.certain,
        report.crowd,
        report.budget_left,
        report.probability_evals,
        report.open_exprs_left,
        report.tasks_expired,
        report.tasks_retried,
        report.rounds_stalled,
        report.degraded,
        metrics.counters()
    )
}

/// Campaigns with expiries, attrition and retries, pinned exactly: the
/// re-post check (is a failed task's condition still open?) and the end of
/// the loop (is any condition open?) must give the same reports and
/// counters however they find the open conditions.
#[test]
fn faulty_campaigns_with_retries_are_pinned() {
    let retry_twice = RetryPolicy {
        max_attempts: 3,
        escalate_workers: 0,
        backoff_base: 1,
    };
    let want = [
        "result [o19, o23, o34, o36, o49, o82, o93, o149] certain [] CrowdStats { tasks_posted: 40, rounds: 4, worker_answers: 72, money_spent: 72 } budget_left 0 evals 588 open_exprs 12628 expired 8 retried 8 stalled 0 degraded true probs 9ebedbe5e2c1fa07 | Counters { rounds: 4, posted: 40, answered: 24, expired: 2, requeued: 14, retried: 8, probability_evals: 588, solver_calls: 588, solver_branches: 54947, solver_cache_hits: 2, solver_cache_misses: 25815, solver_component_splits: 1575, answers_propagated: 24, conditions_decided: 0, propagate_examined: 470, propagate_visited: 2758, tasks_abandoned: 6, checkpoints_written: 0, utility_evals: 0, utility_solver_calls: 0, utility_decisions: 0, model_blanket_cells: 180, model_ve_cells: 0, model_blanket_keys: 4 }",
        "result [o19, o23, o34, o36, o49, o93, o125, o149] certain [] CrowdStats { tasks_posted: 40, rounds: 4, worker_answers: 72, money_spent: 72 } budget_left 0 evals 586 open_exprs 12293 expired 9 retried 7 stalled 0 degraded true probs eb8e2e7a9f728bed | Counters { rounds: 4, posted: 40, answered: 24, expired: 0, requeued: 16, retried: 7, probability_evals: 586, solver_calls: 586, solver_branches: 55829, solver_cache_hits: 4, solver_cache_misses: 25485, solver_component_splits: 1537, answers_propagated: 24, conditions_decided: 0, propagate_examined: 468, propagate_visited: 2750, tasks_abandoned: 9, checkpoints_written: 0, utility_evals: 181, utility_solver_calls: 33, utility_decisions: 2285, model_blanket_cells: 180, model_ve_cells: 0, model_blanket_keys: 4 }",
    ];
    let got = [
        faulty_campaign_digest(TaskStrategy::Fbs, RetryPolicy::default()),
        faulty_campaign_digest(TaskStrategy::Hhs { m: 3 }, retry_twice),
    ];
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got, want);
    }
}

/// Total workforce attrition after the first round: everything later
/// expires, retries can't help, and the run must degrade instead of hanging.
#[test]
fn total_attrition_mid_run_degrades_gracefully() {
    let (budget, latency) = (60, 10);
    for strategy in MATRIX_STRATEGIES {
        let report = run_with_faults(
            strategy,
            FaultConfig {
                attrition: 1.0,
                ..FaultConfig::default()
            },
            RetryPolicy::default(),
            budget,
            latency,
        );
        assert_contracts(&report, budget, latency, "attrition-total");
        assert!(
            report.degraded,
            "{}: a dead workforce must degrade the run: {}",
            strategy.name(),
            report.summary()
        );
        assert!(report.tasks_expired > 0, "{}", report.summary());
        // Certain answers derived before the collapse are still reported.
        for o in &report.result {
            assert!(o.index() < 60);
        }
    }
}

/// Adversarial spammers who always invert the truth: answers are worse than
/// useless, but the run still honors its contracts and returns a
/// well-formed (if wrong) answer set.
#[test]
fn adversarial_spammers_never_break_the_contracts() {
    let (budget, latency) = (60, 10);
    for strategy in MATRIX_STRATEGIES {
        let report = run_with_faults(
            strategy,
            FaultConfig {
                spammer_rate: 1.0,
                spammer_kind: SpammerKind::Adversarial,
                ..FaultConfig::default()
            },
            RetryPolicy::default(),
            budget,
            latency,
        );
        assert_contracts(&report, budget, latency, "adversarial");
        for o in &report.result {
            assert!(o.index() < 60);
        }
    }
}

/// The full storm at once — expiry, attrition, spam, stragglers, and
/// duplicates, with escalating backed-off retries — must terminate cleanly.
#[test]
fn combined_fault_storm_terminates_within_contracts() {
    let (budget, latency) = (60, 10);
    let report = run_with_faults(
        TaskStrategy::Hhs { m: 3 },
        FaultConfig {
            expiry_prob: 0.25,
            attrition: 0.1,
            spammer_rate: 0.2,
            spammer_kind: SpammerKind::Fixed(Relation::Gt),
            straggler_prob: 0.3,
            straggler_penalty: 1,
            duplicate_prob: 0.15,
        },
        RetryPolicy {
            max_attempts: 3,
            escalate_workers: 2,
            backoff_base: 1,
        },
        budget,
        latency,
    );
    assert!(report.crowd.tasks_posted <= budget);
    // Stragglers may overshoot the final round's latency charge by at most
    // one penalty; the loop never *starts* a round beyond L.
    assert!(
        report.crowd.rounds <= latency + 1,
        "{} rounds with straggler penalty 1 over latency {latency}",
        report.crowd.rounds
    );
}

/// No-retry policy: failed tasks are abandoned immediately and counted.
#[test]
fn retries_disabled_counts_failures_as_expired() {
    let (budget, latency) = (60, 10);
    let report = run_with_faults(
        TaskStrategy::Fbs,
        FaultConfig {
            expiry_prob: 0.5,
            ..FaultConfig::default()
        },
        RetryPolicy::none(),
        budget,
        latency,
    );
    assert_contracts(&report, budget, latency, "no-retry");
    assert_eq!(report.tasks_retried, 0, "retries are disabled");
    assert!(report.degraded);
    assert!(report.tasks_expired > 0);
}

// ---------------------------------------------------------------------------
// A test-local platform: proves BayesCrowd::run depends only on the
// CrowdPlatform trait, not on SimulatedPlatform.
// ---------------------------------------------------------------------------

/// Answers every task truthfully from a captured dataset, except that every
/// `fail_every`-th task expires. No rand, no bc-crowd simulator machinery.
struct ScriptedPlatform {
    truth: Dataset,
    fail_every: usize,
    posted: usize,
    stats: CrowdStats,
}

impl ScriptedPlatform {
    fn new(truth: Dataset, fail_every: usize) -> ScriptedPlatform {
        ScriptedPlatform {
            truth,
            fail_every,
            posted: 0,
            stats: CrowdStats::default(),
        }
    }
}

impl CrowdPlatform for ScriptedPlatform {
    fn post_round(&mut self, tasks: &[Task]) -> Vec<TaskResult> {
        if tasks.is_empty() {
            return Vec::new();
        }
        self.stats.rounds += 1;
        self.stats.tasks_posted += tasks.len();
        tasks
            .iter()
            .map(|t| {
                self.posted += 1;
                let outcome = if self.fail_every > 0 && self.posted.is_multiple_of(self.fail_every)
                {
                    TaskOutcome::Expired
                } else {
                    self.stats.worker_answers += 1;
                    self.stats.money_spent += 1;
                    let l = self.truth.get(t.var.object, t.var.attr).unwrap();
                    let r = match t.rhs {
                        Operand::Const(c) => c,
                        Operand::Var(v) => self.truth.get(v.object, v.attr).unwrap(),
                    };
                    TaskOutcome::Answered(Relation::between(l, r))
                };
                TaskResult { task: *t, outcome }
            })
            .collect()
    }

    fn stats(&self) -> CrowdStats {
        self.stats
    }

    fn ground_truth(&self) -> Option<&Dataset> {
        Some(&self.truth)
    }
}

/// The engine runs against a platform it has never heard of, retries its
/// scripted failures, and still solves the query.
#[test]
fn engine_runs_against_a_foreign_platform_implementation() {
    let (complete, incomplete) = faulty_workload();
    let cfg = BayesCrowdConfig {
        budget: 80,
        latency: 16,
        alpha: 1.0,
        strategy: TaskStrategy::Hhs { m: 3 },
        retry: RetryPolicy::default(),
        ..Default::default()
    };
    let mut platform = ScriptedPlatform::new(complete, 5);
    let report = BayesCrowd::new(cfg).run(&incomplete, &mut platform);
    assert!(report.crowd.tasks_posted <= 80);
    assert!(
        report.tasks_retried > 0,
        "every 5th task expires, so retries must fire: {}",
        report.summary()
    );
    assert!(
        report.accuracy.unwrap().f1 >= 0.85,
        "truthful answers + retries should nearly solve it: {}",
        report.summary()
    );
}
