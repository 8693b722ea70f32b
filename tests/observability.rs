//! End-to-end contracts of the observability layer: traces are
//! deterministic, JSON-lines sinks parse back, and every counter in the
//! event stream reconciles with the final [`RunReport`].

use bayescrowd::prelude::*;
use bc_crowd::{FaultConfig, FaultyPlatform, GroundTruthOracle, SimulatedPlatform};
use bc_data::generators::sample::{paper_completion, paper_dataset};
use proptest::prelude::*;

fn sample_config() -> BayesCrowdConfig {
    BayesCrowdConfig {
        budget: 20,
        latency: 10,
        alpha: 1.0,
        strategy: TaskStrategy::Hhs { m: 2 },
        ..Default::default()
    }
}

/// Runs the paper sample against a simulated crowd, recording every event.
/// PlatformExhausted still carries a full report, so both outcomes fold
/// into the same shape.
fn run_recorded(accuracy: f64, seed: u64) -> (RunReport, MetricsRecorder) {
    let data = paper_dataset();
    let oracle = GroundTruthOracle::new(paper_completion());
    let mut platform = SimulatedPlatform::new(oracle, accuracy, seed);
    let mut metrics = MetricsRecorder::new();
    let report = match BayesCrowd::new(sample_config()).try_run(&data, &mut platform, &mut metrics)
    {
        Ok(r) => r,
        Err(RunError::PlatformExhausted { report }) => *report,
        Err(e) => panic!("unexpected run error: {e}"),
    };
    (report, metrics)
}

/// The event sequence of a seeded run is deterministic once timing fields
/// are redacted: the trace is a golden artifact, not a best-effort log.
#[test]
fn golden_trace_is_deterministic_modulo_timing() {
    let (_, a) = run_recorded(1.0, 42);
    let (_, b) = run_recorded(1.0, 42);
    assert_eq!(a.redacted_events(), b.redacted_events());
    assert!(!a.events().is_empty());
}

/// A report with its wall-clock durations zeroed, printed: equal strings
/// mean equal reports, every probability to the bit.
fn untimed(report: &RunReport) -> String {
    let mut report = report.clone();
    report.modeling_time = std::time::Duration::ZERO;
    report.total_time = std::time::Duration::ZERO;
    format!("{report:?}")
}

/// A session stepped to the end and finalized is the run `try_run` and
/// `run` drive: the same events, the same report, and between the last
/// step and the finalize, `object_probabilities` reads exactly the
/// probabilities the report gives.
#[test]
fn a_stepped_session_matches_try_run() {
    let data = paper_dataset();
    let platform = || SimulatedPlatform::new(GroundTruthOracle::new(paper_completion()), 1.0, 42);
    let mut saw_open = false;
    for budget in [4, 20] {
        let engine = BayesCrowd::new(BayesCrowdConfig {
            budget,
            ..sample_config()
        });
        let (mut p, mut run_events) = (platform(), MetricsRecorder::new());
        let ran = engine.try_run(&data, &mut p, &mut run_events).unwrap();
        let (mut p, mut step_events) = (platform(), MetricsRecorder::new());
        let mut session = engine
            .session_observed(&data, &mut p, &mut step_events)
            .unwrap();
        while session.step().unwrap() {}
        let stepped = session.finalize().unwrap();
        assert_eq!(
            run_events.redacted_events(),
            step_events.redacted_events(),
            "budget {budget}: events"
        );
        assert_eq!(untimed(&ran), untimed(&stepped), "budget {budget}: report");

        let mut p = platform();
        let plain = engine.run(&data, &mut p);
        let mut p = platform();
        let mut session = engine.session(&data, &mut p).unwrap();
        while session.step().unwrap() {}
        let probs = session.object_probabilities().unwrap();
        let unobserved = session.finalize().unwrap();
        assert_eq!(untimed(&plain), untimed(&unobserved), "budget {budget}");
        assert_eq!(probs.len(), data.n_objects(), "budget {budget}");
        for (o, p) in probs {
            let want = match unobserved.open_probabilities.get(&o) {
                Some(&open) => open,
                None if unobserved.certain.contains(&o) => 1.0,
                None => 0.0,
            };
            assert_eq!(p.to_bits(), want.to_bits(), "budget {budget}: {o}");
        }
        saw_open |= !unobserved.open_probabilities.is_empty();
    }
    assert!(saw_open, "no run ended with an open object");
}

/// Structural invariants of any trace: RunStarted first, RunFinished last,
/// and every RoundStarted paired with exactly one RoundFinished for the
/// same round number, in order.
#[test]
fn trace_is_well_formed() {
    let (_, metrics) = run_recorded(1.0, 7);
    let events = metrics.events();
    assert!(matches!(events.first(), Some(Event::RunStarted { .. })));
    assert!(matches!(events.last(), Some(Event::RunFinished { .. })));
    let mut open_round: Option<usize> = None;
    let mut finished = Vec::new();
    for e in events {
        match e {
            Event::RoundStarted { round } => {
                assert_eq!(open_round, None, "round {round} started inside a round");
                open_round = Some(*round);
            }
            Event::RoundFinished { round, .. } => {
                assert_eq!(open_round, Some(*round), "round {round} finished unopened");
                open_round = None;
                finished.push(*round);
            }
            _ => {}
        }
    }
    assert_eq!(open_round, None, "a round was never finished");
    let expected: Vec<usize> = (1..=finished.len()).collect();
    assert_eq!(finished, expected, "rounds must finish in order, no gaps");
}

/// Writes a seeded end-to-end trace through the JSON-lines sink, parses it
/// back, and reconciles its counters against the final report.
#[test]
fn json_lines_trace_reconciles_with_the_report() {
    let path = std::env::temp_dir().join(format!("bc-obs-trace-{}.jsonl", std::process::id()));
    let data = paper_dataset();
    let oracle = GroundTruthOracle::new(paper_completion());
    let mut platform = SimulatedPlatform::new(oracle, 1.0, 42);
    let mut sink = JsonLinesSink::create(&path).expect("temp file is writable");
    let report = BayesCrowd::new(sample_config())
        .try_run(&data, &mut platform, &mut sink)
        .expect("the sample run succeeds");
    let written = sink.events_written();
    assert!(sink.io_error().is_none());
    drop(sink);

    let text = std::fs::read_to_string(&path).expect("trace file exists");
    let _ = std::fs::remove_file(&path);
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let (seq, event) =
            Event::from_json_line(line).unwrap_or_else(|| panic!("unparseable line {i}: {line}"));
        assert_eq!(seq, i as u64, "sequence numbers are dense and ordered");
        events.push(event);
    }
    assert_eq!(events.len() as u64, written);

    // Replay the parsed trace through a recorder: the aggregates must match
    // the report the run itself returned.
    let mut replay = MetricsRecorder::new();
    for e in &events {
        replay.event(e);
    }
    let c = replay.counters();
    assert_eq!(c.posted as usize, report.crowd.tasks_posted);
    assert_eq!(c.expired as usize, report.tasks_expired);
    assert_eq!(c.retried as usize, report.tasks_retried);
    assert_eq!(c.probability_evals, report.probability_evals);
    match events.last() {
        Some(&Event::RunFinished {
            rounds,
            tasks_posted,
            tasks_expired,
            tasks_retried,
            probability_evals,
            ..
        }) => {
            assert_eq!(rounds, report.crowd.rounds);
            assert_eq!(tasks_posted, report.crowd.tasks_posted);
            assert_eq!(tasks_expired, report.tasks_expired);
            assert_eq!(tasks_retried, report.tasks_retried);
            assert_eq!(probability_evals, report.probability_evals);
        }
        other => panic!("trace must end in RunFinished, got {other:?}"),
    }
}

/// An HHS run on NBA-like data large enough that selection time is
/// dominated by solver work, observed by a recorder and a profiler at once.
fn profiled_hhs_run() -> (MetricsRecorder, ProfileReport) {
    let complete = bc_data::generators::nba::nba_like(150, 3);
    let (incomplete, _) = bc_data::missing::inject_mcar(&complete, 0.1, 4);
    let mut platform = SimulatedPlatform::new(GroundTruthOracle::new(complete), 1.0, 5);
    let config = BayesCrowdConfig {
        budget: 40,
        latency: 8,
        alpha: 0.2,
        strategy: TaskStrategy::Hhs { m: 5 },
        ..Default::default()
    };
    let mut metrics = MetricsRecorder::new();
    let mut profiler = RunProfiler::new();
    match BayesCrowd::new(config).try_run(
        &incomplete,
        &mut platform,
        &mut Tee::new(&mut metrics, &mut profiler),
    ) {
        Ok(_) | Err(RunError::PlatformExhausted { .. }) => {}
        Err(e) => panic!("unexpected run error: {e}"),
    }
    (metrics, profiler.report())
}

/// Selection time is attributed: on an HHS run the probability batches
/// (`round/select/solve`) and the utility batches (`round/select/utility`)
/// together cover at least 90% of `round/select`, leaving only object
/// ranking and bookkeeping unnamed.
#[test]
fn select_children_account_for_select_time_on_hhs() {
    let (metrics, profile) = profiled_hhs_run();
    assert!(metrics.counters().utility_evals > 0, "HHS scored nothing");
    let select = profile.node("round/select").expect("rounds ran");
    let names: Vec<&str> = select.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, ["solve", "utility"]);
    let children: u128 = select.children.iter().map(|c| c.nanos).sum();
    assert!(
        children * 10 >= select.nanos * 9,
        "children cover {children} of {} select nanos",
        select.nanos
    );
}

/// Utility work is counted apart from probability batches, one
/// `UtilityBatch` per selecting round. Each scored object with an open
/// candidate costs one build of its tables and one outside pass over
/// them, and no scored candidate costs more than one pass.
#[test]
fn utility_counters_reconcile_with_utility_batches() {
    let (metrics, profile) = profiled_hhs_run();
    let c = metrics.counters();
    let (mut batches, mut calls, mut points, mut built) = (0u64, 0u64, 0u64, 0u64);
    for e in metrics.events() {
        if let Event::UtilityBatch {
            solver_calls,
            points: n,
            clause_tables,
            ..
        } = *e
        {
            batches += 1;
            // Every pass visits at least one point, over tables of at
            // least one clause.
            assert!(n >= solver_calls, "{n} points");
            assert!(
                clause_tables >= solver_calls,
                "{clause_tables} tables built"
            );
            calls += solver_calls;
            points += n;
            built += clause_tables;
        }
    }
    assert_eq!(batches, c.rounds, "one utility batch per selecting round");
    assert_eq!(c.utility_solver_calls, calls);
    assert_eq!(c.utility_decisions, points);
    assert!(
        calls > 0 && built > 0,
        "HHS scored no object off its tables"
    );
    assert!(c.utility_solver_calls <= c.utility_evals);
    let utility = profile.node("round/select/utility").unwrap();
    assert_eq!(utility.count, c.utility_solver_calls);
    let points = profile.node("round/select/utility/points").unwrap();
    assert_eq!(points.count, c.utility_decisions);
}

/// Every condition a probability batch sums gets its tables built, at
/// least one clause table each; the first batch finds nothing cached, and
/// later rounds find the probabilities no answer touched. The counters
/// and the select phase's `solve` node add the batches up.
#[test]
fn probability_batches_count_objects_cached_and_tables_built() {
    let (metrics, profile) = profiled_hhs_run();
    let c = metrics.counters();
    let (mut objects, mut cached, mut built) = (0u64, 0u64, 0u64);
    let mut select_objects = 0u64;
    let mut first = true;
    for e in metrics.events() {
        if let Event::ProbabilityBatch {
            phase,
            objects: n,
            cached: k,
            clause_tables,
            ..
        } = *e
        {
            assert!(clause_tables >= n as u64, "{clause_tables} tables for {n}");
            if first {
                assert_eq!(k, 0, "the first batch finds nothing cached");
                first = false;
            }
            objects += n as u64;
            cached += k as u64;
            built += clause_tables;
            if phase == RunPhase::Select {
                select_objects += n as u64;
            }
        }
    }
    assert_eq!(c.probability_evals, objects);
    assert_eq!(c.solver_calls, objects);
    assert_eq!(c.solver_cache_hits, cached);
    assert_eq!(c.solver_cache_misses, built);
    assert!(cached > 0, "no probability was kept across a round");
    let solve = profile.node("round/select/solve").unwrap();
    let points = profile.node("round/select/solve/points").unwrap();
    assert!(points.count > 0 && points.count <= c.solver_branches);
    assert_eq!(solve.count, select_objects);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under arbitrary fault injection, every round's counters reconcile
    /// (`posted = answered + expired + requeued`) and the trace totals
    /// match the report — including the tasks abandoned at shutdown.
    #[test]
    fn round_counters_reconcile_under_faults(
        seed in 0u64..1000,
        expiry in 0.0f64..1.0,
        attrition in 0.0f64..0.5,
        duplicate in 0.0f64..0.5,
    ) {
        let data = paper_dataset();
        let oracle = GroundTruthOracle::new(paper_completion());
        let sim = SimulatedPlatform::new(oracle, 1.0, seed);
        let faults = FaultConfig {
            expiry_prob: expiry,
            attrition,
            duplicate_prob: duplicate,
            ..FaultConfig::default()
        };
        let mut platform = FaultyPlatform::new(sim, faults, seed ^ 0x5eed);
        let mut metrics = MetricsRecorder::new();
        let report = match BayesCrowd::new(sample_config())
            .try_run(&data, &mut platform, &mut metrics)
        {
            Ok(r) => r,
            Err(RunError::PlatformExhausted { report }) => *report,
            Err(e) => panic!("unexpected run error: {e}"),
        };

        let mut abandoned = 0usize;
        for e in metrics.events() {
            match *e {
                Event::RoundFinished { round, posted, answered, expired, requeued, .. } => {
                    prop_assert_eq!(
                        posted,
                        answered + expired + requeued,
                        "round {} does not reconcile",
                        round
                    );
                }
                Event::Degraded { tasks_abandoned } => abandoned += tasks_abandoned,
                _ => {}
            }
        }
        let c = metrics.counters();
        prop_assert_eq!(c.posted as usize, report.crowd.tasks_posted);
        prop_assert_eq!(c.expired as usize + abandoned, report.tasks_expired);
        prop_assert_eq!(c.retried as usize, report.tasks_retried);
        prop_assert_eq!(c.probability_evals, report.probability_evals);
    }
}
