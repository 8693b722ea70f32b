//! Factor tables in a live session: after every round, every open
//! condition has the tables' shape, and each open object's probability —
//! some cached from an earlier round, summed under pmfs and conditions
//! that answers have since changed elsewhere — agrees with a plain ADPLL
//! solve of its current condition within `1e-12`. The parallel batch
//! gives the same bits and the same trace as the sequential one.

use bayescrowd::prelude::*;
use bayescrowd::BayesCrowd;
use bc_bayes::synthetic::adult_like;
use bc_crowd::{GroundTruthOracle, SimulatedPlatform};
use bc_data::missing::inject_mcar;
use bc_data::{Dataset, ObjectId};
use bc_solver::{AdpllSolver, Solver};
use rand::SeedableRng;

/// An 800-object table sampled from the Adult-like network with 10% of its
/// cells missing; returns the complete table and the incomplete one.
fn synthetic_table(seed: u64) -> (Dataset, Dataset) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let complete = adult_like()
        .sample_dataset("synthetic", 800, &mut rng)
        .expect("the network samples");
    let (incomplete, _) = inject_mcar(&complete, 0.1, seed ^ 0x5eed);
    (complete, incomplete)
}

fn config(strategy: TaskStrategy, budget: usize) -> BayesCrowdConfig {
    BayesCrowdConfig {
        budget,
        latency: 10,
        alpha: 0.01,
        strategy,
        ..Default::default()
    }
}

/// Steps a session to the end; after every round, checks that every open
/// condition has the tables' shape, and compares every open probability
/// with a from-scratch ADPLL solve of the current condition under the
/// current pmfs. Workers err now and then, so some answers contradict
/// earlier ones. Returns how many probabilities were compared.
fn check_every_round(
    config: BayesCrowdConfig,
    complete: &Dataset,
    data: &Dataset,
    accuracy: f64,
) -> usize {
    let mut platform =
        SimulatedPlatform::new(GroundTruthOracle::new(complete.clone()), accuracy, 3);
    let mut session = BayesCrowd::new(config)
        .session(data, &mut platform)
        .expect("session starts");
    let solver = AdpllSolver::new();
    let mut checked = 0;
    loop {
        let probs = session.object_probabilities().expect("probabilities");
        for (o, cond) in session.ctable().iter() {
            if cond.is_decided() {
                continue;
            }
            let shaped = bc_solver::factored::probability(o, cond, session.dists());
            assert!(
                shaped.is_ok(),
                "round {}: φ({o}) = {cond} is not factored: {shaped:?}",
                session.round()
            );
            let fresh = solver.probability(cond, session.dists()).unwrap();
            let kept = probs[&o];
            assert!(
                (kept - fresh).abs() <= 1e-12,
                "round {}: Pr({o}) = {kept} kept, {fresh} solved",
                session.round()
            );
            checked += 1;
        }
        if !session.step().expect("step") {
            break;
        }
    }
    checked
}

#[test]
fn open_probabilities_match_a_fresh_solve_after_every_round() {
    let (complete, data) = synthetic_table(23);
    for (strategy, budget) in [(TaskStrategy::Hhs { m: 50 }, 100), (TaskStrategy::Fbs, 400)] {
        for accuracy in [1.0, 0.8] {
            let checked = check_every_round(config(strategy, budget), &complete, &data, accuracy);
            assert!(checked > 100, "{}: only {checked} checks", strategy.name());
        }
    }
    // Without propagation an answer settles only its own expression.
    let unpropagated = BayesCrowdConfig {
        propagate_answers: false,
        ..config(TaskStrategy::Hhs { m: 50 }, 100)
    };
    let checked = check_every_round(unpropagated, &complete, &data, 0.8);
    assert!(checked > 100, "without propagation: only {checked} checks");
}

#[test]
fn parallel_batches_give_the_sequential_bits() {
    let (complete, data) = synthetic_table(29);
    for strategy in [TaskStrategy::Hhs { m: 50 }, TaskStrategy::Fbs] {
        let run = |parallel: bool| {
            let mut platform =
                SimulatedPlatform::new(GroundTruthOracle::new(complete.clone()), 0.9, 4);
            let config = BayesCrowdConfig {
                parallel,
                ..config(strategy, 200)
            };
            let mut metrics = MetricsRecorder::new();
            let report = BayesCrowd::new(config)
                .try_run(&data, &mut platform, &mut metrics)
                .expect("run succeeds");
            let first = metrics.events().iter().find_map(|e| match e {
                Event::ProbabilityBatch { objects, .. } => Some(*objects),
                _ => None,
            });
            assert!(
                first > Some(64),
                "first batch of {first:?} is too small to split"
            );
            (report, metrics.redacted_events())
        };
        let ((a, a_events), (b, b_events)) = (run(false), run(true));
        assert_eq!(a.result, b.result);
        assert_eq!(a.crowd, b.crowd);
        assert_eq!(a.probability_evals, b.probability_evals);
        let bits = |r: &RunReport| -> Vec<(ObjectId, u64)> {
            r.open_probabilities
                .iter()
                .map(|(&o, p)| (o, p.to_bits()))
                .collect()
        };
        assert_eq!(bits(&a), bits(&b), "{}", strategy.name());
        // Every build counts its own tables, so a batch's counters do not
        // depend on which workspace, the session's or a worker's, built
        // them.
        assert_eq!(a_events, b_events, "{}", strategy.name());
    }
}
