//! End-to-end runs through the platform variants: heterogeneous worker
//! pools with recruitment, and variable-difficulty cost accounting.

use bayescrowd::{BayesCrowd, BayesCrowdConfig, TaskStrategy};
use bc_crowd::{CostModel, GroundTruthOracle, SimulatedPlatform, WorkerPool};
use bc_data::generators::classic::correlated;
use bc_data::missing::inject_mcar;

fn setup(seed: u64) -> (bc_data::Dataset, bc_data::Dataset) {
    let complete = correlated(120, 4, 8, 0.7, seed);
    let (incomplete, _) = inject_mcar(&complete, 0.2, seed + 1);
    (complete, incomplete)
}

fn config() -> BayesCrowdConfig {
    BayesCrowdConfig {
        budget: 40,
        latency: 5,
        alpha: 0.5,
        strategy: TaskStrategy::Hhs { m: 5 },
        ..Default::default()
    }
}

#[test]
fn pool_backed_platform_runs_the_full_query() {
    let (complete, incomplete) = setup(70);
    let pool = WorkerPool::uniform_spread(30, 0.85, 1.0, 4);
    let oracle = GroundTruthOracle::new(complete);
    let mut platform = SimulatedPlatform::with_pool(oracle, pool, 3, 5);
    let report = BayesCrowd::new(config()).run(&incomplete, &mut platform);
    assert!(report.crowd.tasks_posted <= 40);
    assert!(report.accuracy.unwrap().f1 > 0.6, "{}", report.summary());
}

#[test]
fn recruitment_improves_noisy_pools_on_average() {
    // A pool with many poor workers: recruiting ≥0.9 should not hurt and
    // usually helps. Averaged over seeds to damp run-to-run noise.
    let mut raw_total = 0.0;
    let mut recruited_total = 0.0;
    for seed in 0..6 {
        let (complete, incomplete) = setup(100 + seed);
        let pool = WorkerPool::new(&[0.45, 0.5, 0.55, 0.95, 0.97, 0.99]);

        let oracle = GroundTruthOracle::new(complete.clone());
        let mut platform = SimulatedPlatform::with_pool(oracle, pool.clone(), 3, seed);
        raw_total += BayesCrowd::new(config())
            .run(&incomplete, &mut platform)
            .accuracy
            .unwrap()
            .f1;

        let elite = pool.recruit(0.9).expect("three qualify");
        let oracle = GroundTruthOracle::new(complete);
        let mut platform = SimulatedPlatform::with_pool(oracle, elite, 3, seed);
        recruited_total += BayesCrowd::new(config())
            .run(&incomplete, &mut platform)
            .accuracy
            .unwrap()
            .f1;
    }
    assert!(
        recruited_total >= raw_total - 0.05,
        "recruited {recruited_total} vs raw {raw_total}"
    );
}

#[test]
fn money_accounting_distinguishes_task_kinds() {
    let (complete, incomplete) = setup(200);
    let oracle = GroundTruthOracle::new(complete);
    let mut platform =
        SimulatedPlatform::new(oracle, 1.0, 7).with_cost_model(CostModel::ByDifficulty {
            var_const: 1,
            var_var: 3,
        });
    let report = BayesCrowd::new(config()).run(&incomplete, &mut platform);
    let stats = report.crowd;
    // Each task is answered by 3 workers; per-answer price is 1 or 3, so
    // the spend lies between 3·tasks and 9·tasks, with equality only when
    // all tasks are of one kind.
    assert!(stats.money_spent >= 3 * stats.tasks_posted as u64);
    assert!(stats.money_spent <= 9 * stats.tasks_posted as u64);

    // Under the default unit model the spend equals the answer count.
    let (complete, incomplete) = setup(201);
    let oracle = GroundTruthOracle::new(complete);
    let mut unit = SimulatedPlatform::new(oracle, 1.0, 7);
    let report = BayesCrowd::new(config()).run(&incomplete, &mut unit);
    assert_eq!(report.crowd.money_spent, report.crowd.worker_answers as u64);
}

/// Paper-scale smoke test (NBA 10k × 11): modeling phase + machine-only
/// answers. Run with `cargo test -- --ignored` (takes tens of seconds in
/// release, minutes in debug).
#[test]
#[ignore = "paper-scale; run explicitly with --ignored"]
fn paper_scale_modeling_smoke() {
    use bayescrowd::framework::machine_only_answers;
    let complete = bc_data::generators::nba::nba_like(10_000, 9);
    let (incomplete, _) = inject_mcar(&complete, 0.1, 10);
    let cfg = BayesCrowdConfig {
        alpha: 0.003,
        ..BayesCrowdConfig::nba_defaults()
    };
    let (answers, ctable) = machine_only_answers(&incomplete, &cfg).expect("machine-only pass");
    let truth = bc_data::skyline::skyline_sfs(&complete).unwrap();
    let acc = bc_data::Accuracy::of(&answers, &truth);
    assert!(acc.f1 > 0.5, "paper-scale machine-only F1 = {}", acc.f1);
    assert!(ctable.n_objects() == 10_000);
}
