//! Head-to-head with the CrowdSky baseline (the paper's Section 7.3).
//!
//! Uses the CrowdSky-compatible setting — two attributes entirely missing,
//! the rest complete — and compares tasks, rounds, machine time, and F1
//! between CrowdSky and BayesCrowd-HHS at the same 20-tasks-per-round rate.
//!
//! ```text
//! cargo run --release --example crowdsky_comparison
//! ```

use bayescrowd::{BayesCrowd, BayesCrowdConfig, TaskStrategy};
use bc_crowd::{GroundTruthOracle, SimulatedPlatform};
use bc_data::generators::nba::nba_like;
use bc_data::missing::mask_attributes;
use bc_data::AttrId;
use crowdsky::{CrowdSky, CrowdSkyConfig};

fn main() {
    let n = 500;
    let complete = nba_like(n, 77);
    let d = complete.n_attrs() as u16;
    let incomplete = mask_attributes(&complete, &[AttrId(d - 2), AttrId(d - 1)]);
    println!(
        "workload: {} records, {} observed + 2 crowd attributes",
        n,
        d - 2
    );

    // CrowdSky: collect every needed pairwise preference.
    let oracle = GroundTruthOracle::new(complete.clone());
    let mut platform = SimulatedPlatform::new(oracle, 1.0, 3);
    let cs = CrowdSky::new(CrowdSkyConfig { round_size: 20 }).run(&incomplete, &mut platform);
    println!(
        "\nCrowdSky:   {:>6} tasks {:>5} rounds {:>9.1} ms  F1 = {:.3} ({} layers, {} pairs)",
        cs.crowd.tasks_posted,
        cs.crowd.rounds,
        cs.total_time.as_secs_f64() * 1e3,
        cs.accuracy.map(|a| a.f1).unwrap_or(f64::NAN),
        cs.n_layers,
        cs.n_pairs
    );

    // BayesCrowd: infer across conditions, ask only what matters.
    let budget = 100_000;
    let config = BayesCrowdConfig {
        budget,
        latency: budget / 20, // 20 tasks per round, effectively unbounded budget
        alpha: 0.06,
        strategy: TaskStrategy::Hhs { m: 15 },
        parallel: true,
        ..BayesCrowdConfig::nba_defaults()
    };
    config
        .validate()
        .expect("the comparison configuration is valid");
    let oracle = GroundTruthOracle::new(complete.clone());
    let mut platform = SimulatedPlatform::new(oracle, 1.0, 3);
    let bc = BayesCrowd::new(config).run(&incomplete, &mut platform);
    println!(
        "BayesCrowd: {:>6} tasks {:>5} rounds {:>9.1} ms  F1 = {:.3}",
        bc.crowd.tasks_posted,
        bc.crowd.rounds,
        bc.total_time.as_secs_f64() * 1e3,
        bc.accuracy.map(|a| a.f1).unwrap_or(f64::NAN)
    );

    let task_ratio = cs.crowd.tasks_posted as f64 / bc.crowd.tasks_posted.max(1) as f64;
    let round_ratio = cs.crowd.rounds as f64 / bc.crowd.rounds.max(1) as f64;
    println!("\nBayesCrowd needs {task_ratio:.1}× fewer tasks and {round_ratio:.1}× fewer rounds.");
}
