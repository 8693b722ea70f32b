//! The BayesCrowd framework (Algorithm 1 + Algorithm 4).
//!
//! [`BayesCrowd::run`] and [`BayesCrowd::try_run`] are thin loops over the
//! resumable [`Session`] API (see [`crate::session`]): they start a
//! session, [`step`](Session::step) it until the crowdsourcing loop
//! terminates, and [`finalize`](Session::finalize) it into a report.
//! Callers that want to checkpoint mid-run use [`BayesCrowd::session`]
//! directly.

use crate::config::BayesCrowdConfig;
use crate::error::RunError;
use crate::report::RunReport;
use crate::session::{unobserved, Session};
use bc_crowd::{CrowdPlatform, CrowdStats, Task, TaskResult};
use bc_ctable::{CTable, CmpOp, Relation};
use bc_data::{Dataset, ObjectId};
use bc_obs::Observer;

/// The crowd-assisted skyline query engine.
#[derive(Clone, Debug)]
pub struct BayesCrowd {
    config: BayesCrowdConfig,
}

impl BayesCrowd {
    /// An engine with the given configuration.
    pub fn new(config: BayesCrowdConfig) -> BayesCrowd {
        BayesCrowd { config }
    }

    /// The configuration.
    pub fn config(&self) -> &BayesCrowdConfig {
        &self.config
    }

    /// Runs the full query (Algorithm 1): modeling phase, then the iterative
    /// crowdsourcing phase against `platform`, and returns the answer set
    /// with all measurements. Accuracy is computed against the skyline of
    /// the platform's ground truth, when it exposes one.
    ///
    /// The platform is any [`CrowdPlatform`] — tasks may come back expired
    /// or inconsistent, in which case the configured
    /// [`RetryPolicy`](bc_crowd::RetryPolicy) re-queues them under the same
    /// budget `B` and latency `L`. When both run out with tasks still
    /// unanswered the run *degrades* instead of failing: the c-table keeps
    /// its symbolic variables, answer probabilities come from the current
    /// posterior, and the report's `degraded`/`tasks_expired` fields say
    /// what was given up.
    ///
    /// This is the infallible convenience wrapper: it observes nothing
    /// (every event goes to a [`bc_obs::NoopObserver`]), skips configuration
    /// validation (degenerate configs like `budget: 0` run to a trivial
    /// report), recovers the degraded report from a
    /// [`RunError::PlatformExhausted`], and **panics** on the errors
    /// [`BayesCrowd::try_run`] would return (empty dataset, unrecoverable
    /// solver failure). Use `try_run` when those must be handled.
    pub fn run(&self, data: &Dataset, platform: &mut dyn CrowdPlatform) -> RunReport {
        match self.run_loop(data, platform, unobserved()) {
            Ok(report) => report,
            Err(RunError::PlatformExhausted { report }) => *report,
            Err(e) => panic!("BayesCrowd::run failed: {e} (use try_run to handle errors)"),
        }
    }

    /// The fallible, observable run: like [`BayesCrowd::run`], but
    ///
    /// * the configuration is validated first
    ///   ([`RunError::Config`](RunError)),
    /// * an empty dataset and unrecoverable solver failures become typed
    ///   errors instead of panics,
    /// * a platform that answered nothing at all surfaces as
    ///   [`RunError::PlatformExhausted`] (with the degraded report
    ///   attached), and
    /// * every phase of the run streams structured [`Event`](bc_obs::Event)s
    ///   to `observer` — pass `&mut NoopObserver` for none, a
    ///   [`bc_obs::JsonLinesSink`] for a trace file, or a
    ///   [`bc_obs::MetricsRecorder`] for in-memory aggregation.
    pub fn try_run(
        &self,
        data: &Dataset,
        platform: &mut dyn CrowdPlatform,
        observer: &mut dyn Observer,
    ) -> Result<RunReport, RunError> {
        self.config.validate()?;
        self.run_loop(data, platform, observer)
    }

    /// An unobserved resumable session over `data` and `platform`: the
    /// modeling phase runs here, the crowdsourcing rounds are driven by the
    /// caller via [`Session::step`] with a [`Session::checkpoint`] wherever
    /// durability is wanted. The configuration is validated first.
    pub fn session<'a>(
        &self,
        data: &Dataset,
        platform: &'a mut dyn CrowdPlatform,
    ) -> Result<Session<'a>, RunError> {
        self.config.validate()?;
        Session::start(self.config.clone(), data, platform, unobserved())
    }

    /// [`BayesCrowd::session`] with an observer: the session streams the
    /// same structured events a [`BayesCrowd::try_run`] would.
    pub fn session_observed<'a>(
        &self,
        data: &Dataset,
        platform: &'a mut dyn CrowdPlatform,
        observer: &'a mut dyn Observer,
    ) -> Result<Session<'a>, RunError> {
        self.config.validate()?;
        Session::start(self.config.clone(), data, platform, observer)
    }

    fn run_loop<'a>(
        &self,
        data: &Dataset,
        platform: &'a mut dyn CrowdPlatform,
        observer: &'a mut dyn Observer,
    ) -> Result<RunReport, RunError> {
        let mut session = Session::start(self.config.clone(), data, platform, observer)?;
        while session.step()? {}
        session.finalize()
    }
}

/// Truth of an expression `var op rhs` given the answered relation of
/// `var` to `rhs`.
pub(crate) fn expr_truth(op: CmpOp, rel: Relation) -> bool {
    match op {
        CmpOp::Lt => rel == Relation::Lt,
        CmpOp::Le => rel != Relation::Gt,
        CmpOp::Gt => rel == Relation::Gt,
        CmpOp::Ge => rel != Relation::Lt,
        CmpOp::Eq => rel == Relation::Eq,
        CmpOp::Ne => rel != Relation::Eq,
    }
}

/// Convenience used by tests and examples: the answer set a machine-only
/// pass would return (no crowdsourcing at all) — certain answers plus
/// high-probability open objects — and the c-table they come from.
///
/// This is a budget-0 [`Session`] finalized at once: the same modeling
/// phase, and probabilities from ADPLL, each checked; a solver error is
/// [`RunError::Solver`], never a silent 0.
pub fn machine_only_answers(
    data: &Dataset,
    config: &BayesCrowdConfig,
) -> Result<(Vec<ObjectId>, CTable), RunError> {
    let config = BayesCrowdConfig {
        budget: 0,
        ..config.clone()
    };
    let mut no_crowd = NoCrowd;
    let session = Session::start(config, data, &mut no_crowd, unobserved())?;
    let ctable = session.ctable().clone();
    Ok((session.finalize()?.result, ctable))
}

/// The platform of a machine-only pass: a budget-0 session posts nothing.
struct NoCrowd;

impl CrowdPlatform for NoCrowd {
    fn post_round(&mut self, _: &[Task]) -> Vec<TaskResult> {
        unreachable!("a budget-0 session posts no task")
    }

    fn stats(&self) -> CrowdStats {
        CrowdStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::TaskStrategy;
    use bc_crowd::{CrowdPlatform, GroundTruthOracle, SimulatedPlatform, Task, TaskOutcome};
    use bc_data::generators::sample::{paper_completion, paper_dataset};
    use bc_obs::{Event, NoopObserver, RunPhase};

    fn sample_config(strategy: TaskStrategy) -> BayesCrowdConfig {
        BayesCrowdConfig {
            budget: 6,
            latency: 3,
            alpha: 1.0,
            strategy,
            ..Default::default()
        }
    }

    fn run_sample(strategy: TaskStrategy, accuracy: f64, seed: u64) -> RunReport {
        let data = paper_dataset();
        let oracle = GroundTruthOracle::new(paper_completion());
        let mut platform = SimulatedPlatform::new(oracle, accuracy, seed);
        BayesCrowd::new(sample_config(strategy)).run(&data, &mut platform)
    }

    #[test]
    fn paper_example_4_setting_respects_budget_and_latency() {
        // Budget 6, latency 3 → 2 tasks per round, HHS with m = 2, perfect
        // workers (the paper's Example 4 setting). Which tasks get asked
        // depends on tie-breaks, so the guaranteed properties are the
        // budget/latency bounds and a high-quality answer.
        let report = run_sample(TaskStrategy::Hhs { m: 2 }, 1.0, 7);
        assert!(report.crowd.tasks_posted <= 6);
        assert!(report.crowd.rounds <= 3);
        assert!(report.accuracy.unwrap().f1 >= 0.8, "{}", report.summary());
        // The two machine-certain answers are always present.
        assert!(report.result.contains(&ObjectId(1)));
        assert!(report.result.contains(&ObjectId(2)));
    }

    #[test]
    fn ample_budget_resolves_the_sample_exactly() {
        let data = paper_dataset();
        let oracle = GroundTruthOracle::new(paper_completion());
        let mut platform = SimulatedPlatform::new(oracle, 1.0, 7);
        let config = BayesCrowdConfig {
            budget: 20,
            latency: 10,
            ..sample_config(TaskStrategy::Hhs { m: 2 })
        };
        let report = BayesCrowd::new(config).run(&data, &mut platform);
        assert_eq!(
            report.result,
            vec![ObjectId(0), ObjectId(1), ObjectId(2), ObjectId(4)]
        );
        assert_eq!(report.accuracy.unwrap().f1, 1.0);
        assert_eq!(report.open_exprs_left, 0, "{}", report.summary());
    }

    #[test]
    fn all_strategies_solve_the_sample() {
        for strategy in [
            TaskStrategy::Fbs,
            TaskStrategy::Ubs,
            TaskStrategy::Hhs { m: 2 },
        ] {
            let data = paper_dataset();
            let oracle = GroundTruthOracle::new(paper_completion());
            let mut platform = SimulatedPlatform::new(oracle, 1.0, 11);
            let config = BayesCrowdConfig {
                budget: 20,
                latency: 10,
                ..sample_config(strategy)
            };
            let report = BayesCrowd::new(config).run(&data, &mut platform);
            assert_eq!(
                report.accuracy.unwrap().f1,
                1.0,
                "{} failed: {}",
                strategy.name(),
                report.summary()
            );
        }
    }

    #[test]
    fn zero_budget_posts_nothing() {
        let data = paper_dataset();
        let oracle = GroundTruthOracle::new(paper_completion());
        let mut platform = SimulatedPlatform::new(oracle, 1.0, 3);
        let config = BayesCrowdConfig {
            budget: 0,
            ..sample_config(TaskStrategy::Fbs)
        };
        let report = BayesCrowd::new(config).run(&data, &mut platform);
        assert_eq!(report.crowd.tasks_posted, 0);
        assert_eq!(report.crowd.rounds, 0);
        // o2/o3 are certain regardless.
        assert!(report.certain.contains(&ObjectId(1)));
        assert!(report.certain.contains(&ObjectId(2)));
    }

    #[test]
    fn budget_is_respected() {
        let report = run_sample(TaskStrategy::Fbs, 1.0, 5);
        assert!(report.crowd.tasks_posted + report.budget_left <= 6);
    }

    #[test]
    fn latency_bounds_round_size() {
        // Budget 6, latency 2 → at most 3 tasks per round.
        let data = paper_dataset();
        let oracle = GroundTruthOracle::new(paper_completion());
        let mut platform = SimulatedPlatform::new(oracle, 1.0, 5);
        let config = BayesCrowdConfig {
            budget: 6,
            latency: 2,
            ..sample_config(TaskStrategy::Fbs)
        };
        let report = BayesCrowd::new(config).run(&data, &mut platform);
        assert!(report.crowd.rounds <= 3, "{}", report.summary());
    }

    #[test]
    fn noisy_workers_still_usually_work_on_the_sample() {
        // With accuracy 0.9, majority voting, and an ample budget the sample
        // usually resolves; across seeds the average F1 must stay high.
        let mut total = 0.0;
        for seed in 0..20 {
            let data = paper_dataset();
            let oracle = GroundTruthOracle::new(paper_completion());
            let mut platform = SimulatedPlatform::new(oracle, 0.9, seed);
            let config = BayesCrowdConfig {
                budget: 20,
                latency: 10,
                ..sample_config(TaskStrategy::Hhs { m: 2 })
            };
            total += BayesCrowd::new(config)
                .run(&data, &mut platform)
                .accuracy
                .unwrap()
                .f1;
        }
        assert!(total / 20.0 > 0.85, "avg f1 = {}", total / 20.0);
    }

    #[test]
    fn machine_only_pass_returns_probable_answers() {
        let data = paper_dataset();
        let (answers, ctable) =
            machine_only_answers(&data, &sample_config(TaskStrategy::Fbs)).unwrap();
        // o2, o3 certain; o1 and o5 have probability > 0.5 under uniform-ish
        // priors (φ(o1) ≈ 0.9+, φ(o5) ≈ 0.8).
        assert!(answers.contains(&ObjectId(1)));
        assert!(answers.contains(&ObjectId(2)));
        assert_eq!(ctable.open_objects().len(), 3);
    }

    #[test]
    fn expr_truth_table() {
        use CmpOp::*;
        assert!(expr_truth(Lt, Relation::Lt));
        assert!(!expr_truth(Lt, Relation::Eq));
        assert!(expr_truth(Le, Relation::Eq));
        assert!(expr_truth(Gt, Relation::Gt));
        assert!(!expr_truth(Gt, Relation::Eq));
        assert!(expr_truth(Ge, Relation::Eq));
        assert!(expr_truth(Eq, Relation::Eq));
        assert!(expr_truth(Ne, Relation::Gt));
    }

    #[test]
    fn propagation_ablation_resolves_less_per_budget() {
        // Statistically, cross-condition inference (constraint propagation)
        // resolves more expressions for the same budget than deciding only
        // the asked expression. On any single instance task selection may
        // diverge and luck can win, so the claim is tested in aggregate on a
        // non-trivial workload.
        let complete = bc_data::generators::classic::correlated(80, 4, 8, 0.7, 31);
        let (data, _) = bc_data::missing::inject_mcar(&complete, 0.2, 32);
        let run = |propagate: bool, seed: u64| {
            let oracle = GroundTruthOracle::new(complete.clone());
            let mut platform = SimulatedPlatform::new(oracle, 1.0, seed);
            let config = BayesCrowdConfig {
                budget: 20,
                latency: 5,
                alpha: 1.0,
                propagate_answers: propagate,
                strategy: TaskStrategy::Fbs,
                ..Default::default()
            };
            BayesCrowd::new(config).run(&data, &mut platform)
        };
        let mut with_total = 0usize;
        let mut without_total = 0usize;
        for seed in 0..6 {
            with_total += run(true, seed).open_exprs_left;
            without_total += run(false, seed).open_exprs_left;
        }
        assert!(
            with_total <= without_total,
            "propagation should resolve at least as much: {with_total} vs {without_total}"
        );
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let data = paper_dataset();
        let mk = |parallel: bool| {
            let oracle = GroundTruthOracle::new(paper_completion());
            let mut platform = SimulatedPlatform::new(oracle, 1.0, 9);
            let config = BayesCrowdConfig {
                parallel,
                ..sample_config(TaskStrategy::Fbs)
            };
            BayesCrowd::new(config).run(&data, &mut platform)
        };
        let a = mk(false);
        let b = mk(true);
        assert_eq!(a.result, b.result);
        assert_eq!(a.crowd.tasks_posted, b.crowd.tasks_posted);
        // Chunking must not change how often conditions are solved.
        assert_eq!(a.probability_evals, b.probability_evals);
    }

    /// A platform that accepts every task and answers none of them.
    struct BlackHolePlatform {
        stats: bc_crowd::CrowdStats,
    }

    impl BlackHolePlatform {
        fn new() -> BlackHolePlatform {
            BlackHolePlatform {
                stats: bc_crowd::CrowdStats::default(),
            }
        }
    }

    impl CrowdPlatform for BlackHolePlatform {
        fn post_round(&mut self, tasks: &[Task]) -> Vec<bc_crowd::TaskResult> {
            self.stats.tasks_posted += tasks.len();
            self.stats.rounds += 1;
            tasks
                .iter()
                .map(|&task| bc_crowd::TaskResult {
                    task,
                    outcome: TaskOutcome::Expired,
                })
                .collect()
        }

        fn stats(&self) -> bc_crowd::CrowdStats {
            self.stats
        }
    }

    #[test]
    fn finalize_reuses_cached_probabilities() {
        // When no crowd answer arrives, no variable distribution changes, so
        // every condition probability computed during task selection is
        // still valid at finalize: each open object must be solved exactly
        // once across the whole run, and the finalize phase must not emit a
        // probability batch at all.
        let data = paper_dataset();
        let mut platform = BlackHolePlatform::new();
        let mut metrics = bc_obs::MetricsRecorder::new();
        let err = BayesCrowd::new(sample_config(TaskStrategy::Fbs))
            .try_run(&data, &mut platform, &mut metrics)
            .unwrap_err();
        let report = match err {
            RunError::PlatformExhausted { report } => *report,
            other => panic!("expected PlatformExhausted, got {other}"),
        };
        let n_open = report.open_probabilities.len();
        assert!(n_open > 0);
        assert_eq!(report.probability_evals, n_open as u64);
        let finalize_batches = metrics
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::ProbabilityBatch {
                        phase: RunPhase::Finalize,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(finalize_batches, 0, "finalize re-solved a warm cache");
    }

    #[test]
    fn run_recovers_the_report_when_the_platform_is_exhausted() {
        // The infallible wrapper must not panic on PlatformExhausted — the
        // degraded machine-only report is a usable answer.
        let data = paper_dataset();
        let mut platform = BlackHolePlatform::new();
        let report = BayesCrowd::new(sample_config(TaskStrategy::Fbs)).run(&data, &mut platform);
        assert!(report.crowd.tasks_posted > 0);
        assert!(report.degraded);
        assert!(report.certain.contains(&ObjectId(1)));
    }

    #[test]
    fn try_run_rejects_an_empty_dataset() {
        let domain = bc_data::Domain::new("a", 4).unwrap();
        let data = Dataset::from_rows("empty", vec![domain], vec![]).unwrap();
        let oracle = GroundTruthOracle::new(paper_completion());
        let mut platform = SimulatedPlatform::new(oracle, 1.0, 1);
        let err = BayesCrowd::new(sample_config(TaskStrategy::Fbs))
            .try_run(&data, &mut platform, &mut NoopObserver)
            .unwrap_err();
        assert!(matches!(err, RunError::EmptyDataset), "{err}");
    }

    #[test]
    fn try_run_rejects_an_invalid_config() {
        // Struct-literal construction deliberately skips validation (the
        // zero-budget ablation above depends on it); try_run re-checks.
        let data = paper_dataset();
        let oracle = GroundTruthOracle::new(paper_completion());
        let mut platform = SimulatedPlatform::new(oracle, 1.0, 1);
        let config = BayesCrowdConfig {
            budget: 0,
            ..sample_config(TaskStrategy::Fbs)
        };
        let err = BayesCrowd::new(config)
            .try_run(&data, &mut platform, &mut NoopObserver)
            .unwrap_err();
        assert!(
            matches!(
                err,
                RunError::Config(crate::config::ConfigError::ZeroBudget)
            ),
            "{err}"
        );
    }

    #[test]
    fn try_run_report_matches_run() {
        let data = paper_dataset();
        let mk_platform = || {
            let oracle = GroundTruthOracle::new(paper_completion());
            SimulatedPlatform::new(oracle, 1.0, 7)
        };
        let config = sample_config(TaskStrategy::Hhs { m: 2 });
        let via_run = BayesCrowd::new(config.clone()).run(&data, &mut mk_platform());
        let via_try = BayesCrowd::new(config)
            .try_run(&data, &mut mk_platform(), &mut NoopObserver)
            .unwrap();
        assert_eq!(via_run.result, via_try.result);
        assert_eq!(via_run.probability_evals, via_try.probability_evals);
        assert_eq!(via_run.crowd.tasks_posted, via_try.crowd.tasks_posted);
    }

    #[test]
    fn stepping_a_session_matches_run() {
        // Driving the loop manually through the Session API is exactly the
        // run() loop: same report, same posted tasks, same evals.
        let data = paper_dataset();
        let config = sample_config(TaskStrategy::Hhs { m: 2 });
        let mk_platform = || {
            let oracle = GroundTruthOracle::new(paper_completion());
            SimulatedPlatform::new(oracle, 1.0, 7)
        };
        let via_run = BayesCrowd::new(config.clone()).run(&data, &mut mk_platform());
        let mut platform = mk_platform();
        let mut session = BayesCrowd::new(config)
            .session(&data, &mut platform)
            .unwrap();
        let mut steps = 0;
        while session.step().unwrap() {
            steps += 1;
            assert!(session.round() >= steps);
        }
        assert!(session.is_finished());
        let via_session = session.finalize().unwrap();
        assert!(steps > 0);
        assert_eq!(via_run.result, via_session.result);
        assert_eq!(via_run.probability_evals, via_session.probability_evals);
        assert_eq!(via_run.crowd.tasks_posted, via_session.crowd.tasks_posted);
        assert_eq!(via_run.budget_left, via_session.budget_left);
    }
}
