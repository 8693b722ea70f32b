//! Campaign work counters, pinned exactly. Full sequential campaigns on the
//! seeded tables `bc_oracle::kernel` pins its solver counters on, under the
//! three task strategies: every `Counters` field (solver search, utility
//! scoring, kept circuits, propagation, model) and the c-table's
//! dominator-set work must stay the same, so a change that does more (or
//! different) algorithmic work fails here on any hardware.

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

/// One recorded campaign: the run's counters plus the c-table's
/// dominator-set candidates and bitset words.
fn campaign(config: BayesCrowdConfig, complete: &Dataset, data: &Dataset) -> String {
    let mut platform = SimulatedPlatform::new(GroundTruthOracle::new(complete.clone()), 0.95, 7);
    let mut metrics = MetricsRecorder::new();
    match BayesCrowd::new(config).try_run(data, &mut platform, &mut metrics) {
        Ok(_) | Err(RunError::PlatformExhausted { .. }) => {}
        Err(e) => panic!("unexpected run error: {e}"),
    }
    let (candidates, bitset_words) = metrics
        .events()
        .iter()
        .find_map(|e| match e {
            Event::CTableBuilt {
                candidates,
                bitset_words,
                ..
            } => Some((*candidates, *bitset_words)),
            _ => None,
        })
        .expect("every run builds a c-table");
    format!(
        "{:?} candidates {candidates} bitset_words {bitset_words}",
        metrics.counters()
    )
}

#[test]
fn campaign_work_counters_are_pinned() {
    let want = [
        "nba 1 fbs: Counters { rounds: 10, posted: 82, answered: 82, expired: 0, requeued: 0, retried: 0, probability_evals: 186, solver_calls: 74, circuit_compiles: 74, circuit_recompiles: 1, circuit_evals: 112, solver_branches: 930, solver_cache_hits: 48, solver_cache_misses: 93, solver_direct_components: 1590, solver_component_splits: 588, solver_max_depth: 2, answers_propagated: 82, conditions_decided: 73, propagate_examined: 187, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 0, utility_solver_calls: 0, utility_decisions: 0, utility_compiles: 0, utility_circuit_nodes: 0, utility_reused: 0, model_blanket_cells: 440, model_ve_cells: 0, model_blanket_keys: 11 } candidates 14411 bitset_words 30520",
        "nba 1 ubs: Counters { rounds: 5, posted: 50, answered: 50, expired: 0, requeued: 0, retried: 0, probability_evals: 163, solver_calls: 75, circuit_compiles: 75, circuit_recompiles: 2, circuit_evals: 88, solver_branches: 940, solver_cache_hits: 48, solver_cache_misses: 94, solver_direct_components: 1592, solver_component_splits: 588, solver_max_depth: 2, answers_propagated: 50, conditions_decided: 25, propagate_examined: 138, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 330, utility_solver_calls: 0, utility_decisions: 0, utility_compiles: 0, utility_circuit_nodes: 0, utility_reused: 50, model_blanket_cells: 440, model_ve_cells: 0, model_blanket_keys: 11 } candidates 14411 bitset_words 30520",
        "nba 1 hhs: Counters { rounds: 8, posted: 72, answered: 72, expired: 0, requeued: 0, retried: 0, probability_evals: 193, solver_calls: 75, circuit_compiles: 75, circuit_recompiles: 2, circuit_evals: 118, solver_branches: 940, solver_cache_hits: 48, solver_cache_misses: 94, solver_direct_components: 1592, solver_component_splits: 588, solver_max_depth: 2, answers_propagated: 72, conditions_decided: 73, propagate_examined: 215, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 400, utility_solver_calls: 0, utility_decisions: 0, utility_compiles: 0, utility_circuit_nodes: 0, utility_reused: 72, model_blanket_cells: 440, model_ve_cells: 0, model_blanket_keys: 11 } candidates 14411 bitset_words 30520",
        "synthetic 1 fbs: Counters { rounds: 10, posted: 100, answered: 100, expired: 0, requeued: 0, retried: 0, probability_evals: 803, solver_calls: 191, circuit_compiles: 191, circuit_recompiles: 8, circuit_evals: 612, solver_branches: 2272, solver_cache_hits: 100, solver_cache_misses: 284, solver_direct_components: 2840, solver_component_splits: 878, solver_max_depth: 3, answers_propagated: 100, conditions_decided: 103, propagate_examined: 693, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 0, utility_solver_calls: 0, utility_decisions: 0, utility_compiles: 0, utility_circuit_nodes: 0, utility_reused: 0, model_blanket_cells: 720, model_ve_cells: 0, model_blanket_keys: 9 } candidates 35655 bitset_words 94640",
        "synthetic 1 ubs: Counters { rounds: 5, posted: 50, answered: 50, expired: 0, requeued: 0, retried: 0, probability_evals: 466, solver_calls: 184, circuit_compiles: 184, circuit_recompiles: 1, circuit_evals: 282, solver_branches: 2264, solver_cache_hits: 97, solver_cache_misses: 283, solver_direct_components: 2889, solver_component_splits: 899, solver_max_depth: 3, answers_propagated: 50, conditions_decided: 69, propagate_examined: 394, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 461, utility_solver_calls: 0, utility_decisions: 0, utility_compiles: 0, utility_circuit_nodes: 0, utility_reused: 50, model_blanket_cells: 720, model_ve_cells: 0, model_blanket_keys: 9 } candidates 35655 bitset_words 94640",
        "synthetic 1 hhs: Counters { rounds: 10, posted: 100, answered: 100, expired: 0, requeued: 0, retried: 0, probability_evals: 605, solver_calls: 184, circuit_compiles: 184, circuit_recompiles: 1, circuit_evals: 421, solver_branches: 2264, solver_cache_hits: 97, solver_cache_misses: 283, solver_direct_components: 2889, solver_component_splits: 899, solver_max_depth: 3, answers_propagated: 100, conditions_decided: 122, propagate_examined: 534, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 737, utility_solver_calls: 0, utility_decisions: 0, utility_compiles: 0, utility_circuit_nodes: 0, utility_reused: 100, model_blanket_cells: 720, model_ve_cells: 0, model_blanket_keys: 9 } candidates 35655 bitset_words 94640",
        "nba 2 fbs: Counters { rounds: 10, posted: 94, answered: 94, expired: 0, requeued: 0, retried: 0, probability_evals: 188, solver_calls: 48, circuit_compiles: 48, circuit_recompiles: 3, circuit_evals: 140, solver_branches: 1780, solver_cache_hits: 158, solver_cache_misses: 178, solver_direct_components: 2605, solver_component_splits: 843, solver_max_depth: 4, answers_propagated: 94, conditions_decided: 43, propagate_examined: 193, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 0, utility_solver_calls: 0, utility_decisions: 0, utility_compiles: 0, utility_circuit_nodes: 0, utility_reused: 0, model_blanket_cells: 440, model_ve_cells: 0, model_blanket_keys: 11 } candidates 16659 bitset_words 30520",
        "nba 2 ubs: Counters { rounds: 5, posted: 50, answered: 50, expired: 0, requeued: 0, retried: 0, probability_evals: 111, solver_calls: 45, circuit_compiles: 45, circuit_recompiles: 0, circuit_evals: 66, solver_branches: 1760, solver_cache_hits: 158, solver_cache_misses: 176, solver_direct_components: 2602, solver_component_splits: 843, solver_max_depth: 4, answers_propagated: 50, conditions_decided: 29, propagate_examined: 116, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 337, utility_solver_calls: 0, utility_decisions: 0, utility_compiles: 0, utility_circuit_nodes: 0, utility_reused: 50, model_blanket_cells: 440, model_ve_cells: 0, model_blanket_keys: 11 } candidates 16659 bitset_words 30520",
        "nba 2 hhs: Counters { rounds: 10, posted: 76, answered: 76, expired: 0, requeued: 0, retried: 0, probability_evals: 125, solver_calls: 46, circuit_compiles: 46, circuit_recompiles: 1, circuit_evals: 79, solver_branches: 1760, solver_cache_hits: 158, solver_cache_misses: 176, solver_direct_components: 2603, solver_component_splits: 843, solver_max_depth: 4, answers_propagated: 76, conditions_decided: 44, propagate_examined: 145, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 435, utility_solver_calls: 0, utility_decisions: 0, utility_compiles: 0, utility_circuit_nodes: 0, utility_reused: 76, model_blanket_cells: 440, model_ve_cells: 0, model_blanket_keys: 11 } candidates 16659 bitset_words 30520",
        "synthetic 2 fbs: Counters { rounds: 10, posted: 100, answered: 100, expired: 0, requeued: 0, retried: 0, probability_evals: 567, solver_calls: 137, circuit_compiles: 137, circuit_recompiles: 8, circuit_evals: 430, solver_branches: 1408, solver_cache_hits: 51, solver_cache_misses: 176, solver_direct_components: 1513, solver_component_splits: 515, solver_max_depth: 3, answers_propagated: 100, conditions_decided: 74, propagate_examined: 499, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 0, utility_solver_calls: 0, utility_decisions: 0, utility_compiles: 0, utility_circuit_nodes: 0, utility_reused: 0, model_blanket_cells: 720, model_ve_cells: 0, model_blanket_keys: 9 } candidates 39562 bitset_words 94640",
        "synthetic 2 ubs: Counters { rounds: 5, posted: 50, answered: 50, expired: 0, requeued: 0, retried: 0, probability_evals: 329, solver_calls: 130, circuit_compiles: 130, circuit_recompiles: 1, circuit_evals: 199, solver_branches: 1360, solver_cache_hits: 43, solver_cache_misses: 170, solver_direct_components: 1484, solver_component_splits: 505, solver_max_depth: 3, answers_propagated: 50, conditions_decided: 48, propagate_examined: 285, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 305, utility_solver_calls: 0, utility_decisions: 0, utility_compiles: 0, utility_circuit_nodes: 0, utility_reused: 50, model_blanket_cells: 720, model_ve_cells: 0, model_blanket_keys: 9 } candidates 39562 bitset_words 94640",
        "synthetic 2 hhs: Counters { rounds: 10, posted: 100, answered: 100, expired: 0, requeued: 0, retried: 0, probability_evals: 434, solver_calls: 130, circuit_compiles: 130, circuit_recompiles: 1, circuit_evals: 304, solver_branches: 1360, solver_cache_hits: 43, solver_cache_misses: 170, solver_direct_components: 1484, solver_component_splits: 505, solver_max_depth: 3, answers_propagated: 100, conditions_decided: 91, propagate_examined: 411, tasks_abandoned: 0, checkpoints_written: 0, utility_evals: 585, utility_solver_calls: 0, utility_decisions: 0, utility_compiles: 0, utility_circuit_nodes: 0, utility_reused: 100, model_blanket_cells: 720, model_ve_cells: 0, model_blanket_keys: 9 } candidates 39562 bitset_words 94640",
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
