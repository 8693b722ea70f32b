//! Campaign work counters, pinned exactly. Full sequential campaigns on the
//! seeded tables `bc_oracle::kernel` pins its solver counters on, under the
//! three task strategies: every `Counters` field (factor tables, utility
//! scoring, propagation, model) and every count of the c-table build must
//! stay the same, so a change that does more (or different) algorithmic
//! work fails here on any hardware.

use bayescrowd::prelude::*;
use bc_bayes::synthetic::adult_like;
use bc_crowd::{GroundTruthOracle, SimulatedPlatform};
use bc_data::generators::nba::nba_like;
use bc_data::missing::inject_mcar;
use bc_data::Dataset;
use rand::SeedableRng;

/// The seeded tables: NBA-like 400 objects (`m = 15`) and Synthetic 800
/// objects (`m = 50`), 10% of the cells missing, for seeds 1 and 2. Each
/// comes with its complete table, which the simulated crowd answers from.
fn seeded_tables() -> Vec<(String, usize, Dataset, Dataset)> {
    let mut out = Vec::new();
    for seed in [1u64, 2] {
        let nba = nba_like(400, seed);
        let (data, _) = inject_mcar(&nba, 0.1, seed);
        out.push((format!("nba {seed}"), 15, nba, data));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let synthetic = adult_like()
            .sample_dataset("synthetic", 800, &mut rng)
            .expect("the network samples");
        let (data, _) = inject_mcar(&synthetic, 0.1, seed);
        out.push((format!("synthetic {seed}"), 50, synthetic, data));
    }
    out
}

/// One recorded campaign: the run's counters plus every count of the
/// c-table build: open objects, distinct variables, expressions, α-pruned
/// objects, dominator-set candidates and bitset words.
fn campaign(config: BayesCrowdConfig, complete: &Dataset, data: &Dataset) -> String {
    let mut platform = SimulatedPlatform::new(GroundTruthOracle::new(complete.clone()), 0.95, 7);
    let mut metrics = MetricsRecorder::new();
    match BayesCrowd::new(config).try_run(data, &mut platform, &mut metrics) {
        Ok(_) | Err(RunError::PlatformExhausted { .. }) => {}
        Err(e) => panic!("unexpected run error: {e}"),
    }
    let built = metrics
        .events()
        .iter()
        .find_map(|e| match e {
            Event::CTableBuilt {
                open_objects,
                vars,
                exprs,
                pruned,
                candidates,
                bitset_words,
                ..
            } => Some(format!(
                "open_objects {open_objects} vars {vars} exprs {exprs} pruned {pruned} \
                 candidates {candidates} bitset_words {bitset_words}"
            )),
            _ => None,
        })
        .expect("every run builds a c-table");
    format!("{:?} {built}", metrics.counters())
}

#[test]
fn campaign_work_counters_are_pinned() {
    let want = [
        "nba 1 fbs: Counters { rounds: 10, posted: 82, answered: 82, expired: 0, requeued: 0, retried: 0, probability_evals: 175, solver_calls: 175, solver_branches: 1025, solver_cache_hits: 92, solver_cache_misses: 323, solver_component_splits: 181, answers_propagated: 82, conditions_decided: 73, propagate_examined: 175, propagate_visited: 430, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 0, utility_solver_calls: 0, utility_decisions: 0, model_blanket_cells: 440, model_ve_cells: 0, model_blanket_keys: 11 } open_objects 73 vars 103 exprs 546 pruned 299 candidates 14411 bitset_words 30520",
        "nba 1 ubs: Counters { rounds: 5, posted: 50, answered: 50, expired: 0, requeued: 0, retried: 0, probability_evals: 152, solver_calls: 152, solver_branches: 1119, solver_cache_hits: 215, solver_cache_misses: 299, solver_component_splits: 158, answers_propagated: 50, conditions_decided: 25, propagate_examined: 104, propagate_visited: 166, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 330, utility_solver_calls: 50, utility_decisions: 549, model_blanket_cells: 440, model_ve_cells: 0, model_blanket_keys: 11 } open_objects 73 vars 103 exprs 546 pruned 299 candidates 14411 bitset_words 30520",
        "nba 1 hhs: Counters { rounds: 8, posted: 72, answered: 72, expired: 0, requeued: 0, retried: 0, probability_evals: 181, solver_calls: 181, solver_branches: 1148, solver_cache_hits: 216, solver_cache_misses: 329, solver_component_splits: 187, answers_propagated: 72, conditions_decided: 73, propagate_examined: 181, propagate_visited: 312, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 400, utility_solver_calls: 72, utility_decisions: 594, model_blanket_cells: 440, model_ve_cells: 0, model_blanket_keys: 11 } open_objects 73 vars 103 exprs 546 pruned 299 candidates 14411 bitset_words 30520",
        "synthetic 1 fbs: Counters { rounds: 10, posted: 100, answered: 100, expired: 0, requeued: 0, retried: 0, probability_evals: 709, solver_calls: 709, solver_branches: 7232, solver_cache_hits: 638, solver_cache_misses: 2229, solver_component_splits: 803, answers_propagated: 100, conditions_decided: 103, propagate_examined: 629, propagate_visited: 950, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 0, utility_solver_calls: 0, utility_decisions: 0, model_blanket_cells: 720, model_ve_cells: 0, model_blanket_keys: 9 } open_objects 183 vars 253 exprs 1587 pruned 526 candidates 35655 bitset_words 94640",
        "synthetic 1 ubs: Counters { rounds: 5, posted: 50, answered: 50, expired: 0, requeued: 0, retried: 0, probability_evals: 447, solver_calls: 447, solver_branches: 6427, solver_cache_hits: 412, solver_cache_misses: 1415, solver_component_splits: 500, answers_propagated: 50, conditions_decided: 69, propagate_examined: 333, propagate_visited: 480, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 461, utility_solver_calls: 50, utility_decisions: 1491, model_blanket_cells: 720, model_ve_cells: 0, model_blanket_keys: 9 } open_objects 183 vars 253 exprs 1587 pruned 526 candidates 35655 bitset_words 94640",
        "synthetic 1 hhs: Counters { rounds: 10, posted: 100, answered: 100, expired: 0, requeued: 0, retried: 0, probability_evals: 534, solver_calls: 534, solver_branches: 7452, solver_cache_hits: 716, solver_cache_misses: 1673, solver_component_splits: 607, answers_propagated: 100, conditions_decided: 122, propagate_examined: 473, propagate_visited: 696, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 737, utility_solver_calls: 100, utility_decisions: 1982, model_blanket_cells: 720, model_ve_cells: 0, model_blanket_keys: 9 } open_objects 183 vars 253 exprs 1587 pruned 526 candidates 35655 bitset_words 94640",
        "nba 2 fbs: Counters { rounds: 10, posted: 94, answered: 94, expired: 0, requeued: 0, retried: 0, probability_evals: 172, solver_calls: 172, solver_branches: 2780, solver_cache_hits: 89, solver_cache_misses: 381, solver_component_splits: 181, answers_propagated: 94, conditions_decided: 43, propagate_examined: 170, propagate_visited: 268, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 0, utility_solver_calls: 0, utility_decisions: 0, model_blanket_cells: 440, model_ve_cells: 0, model_blanket_keys: 11 } open_objects 45 vars 100 exprs 349 pruned 299 candidates 16659 bitset_words 30520",
        "nba 2 ubs: Counters { rounds: 5, posted: 50, answered: 50, expired: 0, requeued: 0, retried: 0, probability_evals: 107, solver_calls: 107, solver_branches: 2611, solver_cache_hits: 77, solver_cache_misses: 247, solver_component_splits: 115, answers_propagated: 50, conditions_decided: 29, propagate_examined: 91, propagate_visited: 162, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 337, utility_solver_calls: 50, utility_decisions: 845, model_blanket_cells: 440, model_ve_cells: 0, model_blanket_keys: 11 } open_objects 45 vars 100 exprs 349 pruned 299 candidates 16659 bitset_words 30520",
        "nba 2 hhs: Counters { rounds: 10, posted: 76, answered: 76, expired: 0, requeued: 0, retried: 0, probability_evals: 121, solver_calls: 121, solver_branches: 2663, solver_cache_hits: 81, solver_cache_misses: 264, solver_component_splits: 129, answers_propagated: 76, conditions_decided: 44, propagate_examined: 120, propagate_visited: 216, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 435, utility_solver_calls: 76, utility_decisions: 943, model_blanket_cells: 440, model_ve_cells: 0, model_blanket_keys: 11 } open_objects 45 vars 100 exprs 349 pruned 299 candidates 16659 bitset_words 30520",
        "synthetic 2 fbs: Counters { rounds: 10, posted: 100, answered: 100, expired: 0, requeued: 0, retried: 0, probability_evals: 513, solver_calls: 513, solver_branches: 4568, solver_cache_hits: 481, solver_cache_misses: 1732, solver_component_splits: 609, answers_propagated: 100, conditions_decided: 74, propagate_examined: 458, propagate_visited: 740, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 0, utility_solver_calls: 0, utility_decisions: 0, model_blanket_cells: 720, model_ve_cells: 0, model_blanket_keys: 9 } open_objects 129 vars 206 exprs 1110 pruned 575 candidates 39562 bitset_words 94640",
        "synthetic 2 ubs: Counters { rounds: 5, posted: 50, answered: 50, expired: 0, requeued: 0, retried: 0, probability_evals: 306, solver_calls: 306, solver_branches: 2707, solver_cache_hits: 333, solver_cache_misses: 1036, solver_component_splits: 359, answers_propagated: 50, conditions_decided: 48, propagate_examined: 225, propagate_visited: 378, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 305, utility_solver_calls: 50, utility_decisions: 398, model_blanket_cells: 720, model_ve_cells: 0, model_blanket_keys: 9 } open_objects 129 vars 206 exprs 1110 pruned 575 candidates 39562 bitset_words 94640",
        "synthetic 2 hhs: Counters { rounds: 10, posted: 100, answered: 100, expired: 0, requeued: 0, retried: 0, probability_evals: 389, solver_calls: 389, solver_branches: 3342, solver_cache_hits: 546, solver_cache_misses: 1275, solver_component_splits: 457, answers_propagated: 100, conditions_decided: 91, propagate_examined: 351, propagate_visited: 604, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 585, utility_solver_calls: 100, utility_decisions: 812, model_blanket_cells: 720, model_ve_cells: 0, model_blanket_keys: 9 } open_objects 129 vars 206 exprs 1110 pruned 575 candidates 39562 bitset_words 94640",
    ];
    let mut got = Vec::new();
    for (name, m, complete, data) in seeded_tables() {
        for (strategy_name, strategy, budget, latency) in [
            ("fbs", TaskStrategy::Fbs, 100, 10),
            ("ubs", TaskStrategy::Ubs, 50, 5),
            ("hhs", TaskStrategy::Hhs { m }, 100, 10),
        ] {
            let config = BayesCrowdConfig {
                budget,
                latency,
                alpha: 0.01,
                strategy,
                parallel: false,
                ..Default::default()
            };
            got.push(format!(
                "{name} {strategy_name}: {}",
                campaign(config, &complete, &data)
            ));
        }
    }
    assert_eq!(got, want);
}
