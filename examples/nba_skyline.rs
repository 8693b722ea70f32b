//! Strategy comparison on the NBA-like workload.
//!
//! Runs the three task-selection strategies (FBS, UBS, HHS) with the
//! paper's NBA defaults on an NBA-like dataset and prints the trade-off the
//! paper reports: FBS fastest, UBS most accurate, HHS in between.
//!
//! ```text
//! cargo run --release --example nba_skyline
//! ```

use bayescrowd::{BayesCrowd, BayesCrowdConfig, TaskStrategy};
use bc_crowd::{GroundTruthOracle, SimulatedPlatform};
use bc_data::generators::nba::nba_like;
use bc_data::missing::inject_mcar;

fn main() {
    let n = 1_000;
    let complete = nba_like(n, 99);
    let (incomplete, _) = inject_mcar(&complete, 0.1, 100);
    println!(
        "NBA-like dataset: {} player seasons × {} statistics, missing rate {:.0}%",
        n,
        complete.n_attrs(),
        incomplete.missing_rate() * 100.0
    );

    println!(
        "\n{:<6} {:>9} {:>7} {:>7} {:>10} {:>7}",
        "strat", "time(ms)", "tasks", "rounds", "answers", "F1"
    );
    for (name, strategy) in [
        ("FBS", TaskStrategy::Fbs),
        ("UBS", TaskStrategy::Ubs),
        ("HHS", TaskStrategy::Hhs { m: 15 }),
    ] {
        let config = BayesCrowdConfig {
            alpha: 0.02,
            strategy,
            parallel: true,
            ..BayesCrowdConfig::nba_defaults()
        };
        config.validate().expect("the NBA preset is valid");
        let oracle = GroundTruthOracle::new(complete.clone());
        let mut platform = SimulatedPlatform::new(oracle, 1.0, 5);
        let report = BayesCrowd::new(config).run(&incomplete, &mut platform);
        println!(
            "{:<6} {:>9.1} {:>7} {:>7} {:>10} {:>7.3}",
            name,
            report.total_time.as_secs_f64() * 1e3,
            report.crowd.tasks_posted,
            report.crowd.rounds,
            report.result.len(),
            report.accuracy.map(|a| a.f1).unwrap_or(f64::NAN)
        );
    }
}
