//! Movie-recommendation scenario from the paper's introduction.
//!
//! A catalogue of movies is rated by a panel of audiences, but most viewers
//! have only seen some of the movies, so the rating matrix is incomplete.
//! The skyline (movies no other movie beats on every rating) drives the
//! recommendation page. We compare a machine-only answer against
//! BayesCrowd with a modest crowdsourcing budget.
//!
//! ```text
//! cargo run --release --example movie_recommendation
//! ```

use bayescrowd::framework::machine_only_answers;
use bayescrowd::{BayesCrowd, BayesCrowdConfig, TaskStrategy};
use bc_crowd::{GroundTruthOracle, SimulatedPlatform};
use bc_data::generators::classic::correlated;
use bc_data::missing::inject_mcar;
use bc_data::{skyline::skyline_sfs, Accuracy};

fn main() {
    // 400 movies, 6 audience groups, ratings 0..9; tastes correlate (good
    // movies are broadly liked) — exactly when the Bayesian network helps.
    let complete = correlated(400, 6, 10, 0.6, 2024);
    let (incomplete, hidden) = inject_mcar(&complete, 0.15, 7);
    println!(
        "catalogue: {} movies × {} audiences, {} ratings missing ({:.0}%)",
        complete.n_objects(),
        complete.n_attrs(),
        hidden.len(),
        incomplete.missing_rate() * 100.0
    );
    let truth = skyline_sfs(&complete).expect("complete data");
    println!("true skyline size: {}", truth.len());

    let config = BayesCrowdConfig {
        budget: 60,
        latency: 6,
        alpha: 0.2,
        strategy: TaskStrategy::Hhs { m: 10 },
        ..Default::default()
    };
    config
        .validate()
        .expect("the example configuration is valid");

    // Machine-only: no crowd at all, answer from the learned distributions.
    let (machine, _) =
        machine_only_answers(&incomplete, &config).expect("the machine-only pass solves");
    let macc = Accuracy::of(&machine, &truth);
    println!(
        "\nmachine only:   {} answers, F1 = {:.3} (precision {:.3}, recall {:.3})",
        machine.len(),
        macc.f1,
        macc.precision,
        macc.recall
    );

    // BayesCrowd: ask the crowd the most informative questions.
    let oracle = GroundTruthOracle::new(complete.clone());
    let mut platform = SimulatedPlatform::new(oracle, 0.95, 11);
    let report = BayesCrowd::new(config).run(&incomplete, &mut platform);
    let acc = report.accuracy.expect("ground truth available");
    println!(
        "with the crowd: {} answers, F1 = {:.3} (precision {:.3}, recall {:.3})",
        report.result.len(),
        acc.f1,
        acc.precision,
        acc.recall
    );
    println!(
        "crowd cost: {} tasks over {} rounds ({} worker answers at 95% accuracy)",
        report.crowd.tasks_posted, report.crowd.rounds, report.crowd.worker_answers
    );
    assert!(
        acc.f1 >= macc.f1 - 0.05,
        "crowdsourcing should not hurt accuracy"
    );

    println!("\nsample questions the crowd answered:");
    for ta in platform.log().iter().take(5) {
        println!("  {} → {:?}", ta.task.question(), ta.relation);
    }
}
