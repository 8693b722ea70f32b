//! Kill-at-round-k checkpoint/resume determinism.
//!
//! The contract of [`Session::checkpoint`] / [`Session::resume`]: killing a
//! run after any round `k` and resuming from the checkpoint written there
//! must finish with a [`RunReport`] identical field-by-field (wall-clock
//! durations aside) to the uninterrupted run — same answer set, same
//! probabilities, same crowd accounting, same retry/fault bookkeeping.
//! Exercised under both the well-behaved [`SimulatedPlatform`] and the
//! fault-injecting [`FaultyPlatform`], whose RNG streams ride along in the
//! snapshot.

use bayescrowd::prelude::*;
use bayescrowd::{BayesCrowd, Session};
use bc_bayes::synthetic::adult_like;
use bc_crowd::{CrowdPlatform, FaultConfig, FaultyPlatform, GroundTruthOracle, SimulatedPlatform};
use bc_data::generators::nba::nba_like;
use bc_data::generators::sample::{paper_completion, paper_dataset};
use bc_data::missing::inject_mcar;
use bc_data::{Dataset, VarId};
use bc_snapshot::{fnv1a64, Snapshot, SnapshotError, Value};
use bc_solver::SolverError;
use proptest::prelude::*;
use rand::SeedableRng;

fn sample_config() -> BayesCrowdConfig {
    BayesCrowdConfig {
        budget: 20,
        latency: 10,
        alpha: 1.0,
        strategy: TaskStrategy::Hhs { m: 2 },
        ..Default::default()
    }
}

fn unwrap_report(r: Result<RunReport, RunError>) -> RunReport {
    match r {
        Ok(report) => report,
        // A fault storm that swallows every task still yields a report; the
        // resumed run must degrade identically.
        Err(RunError::PlatformExhausted { report }) => *report,
        Err(e) => panic!("run failed: {e}"),
    }
}

/// Runs a session to completion, writing a checkpoint after every round
/// (including one before any crowd work). Returns the final report and the
/// serialized checkpoints.
fn run_collecting_checkpoints(
    engine: &BayesCrowd,
    data: &Dataset,
    platform: &mut dyn CrowdPlatform,
) -> (RunReport, Vec<Vec<u8>>) {
    let mut session = engine.session(data, platform).expect("session starts");
    let mut snaps = Vec::new();
    let mut buf = Vec::new();
    session.checkpoint(&mut buf).expect("checkpoint");
    snaps.push(buf);
    while session.step().expect("step") {
        let mut buf = Vec::new();
        session.checkpoint(&mut buf).expect("checkpoint");
        snaps.push(buf);
    }
    (unwrap_report(session.finalize()), snaps)
}

/// Everything in the report except the wall-clock durations, which are the
/// one part of a run a crash genuinely changes.
fn assert_reports_match(clean: &RunReport, resumed: &RunReport, ctx: &str) {
    assert_eq!(clean.result, resumed.result, "{ctx}: result");
    assert_eq!(clean.certain, resumed.certain, "{ctx}: certain");
    assert_eq!(
        clean.open_probabilities, resumed.open_probabilities,
        "{ctx}: open_probabilities"
    );
    assert_eq!(clean.accuracy, resumed.accuracy, "{ctx}: accuracy");
    assert_eq!(clean.crowd, resumed.crowd, "{ctx}: crowd stats");
    assert_eq!(clean.budget_left, resumed.budget_left, "{ctx}: budget_left");
    assert_eq!(
        clean.probability_evals, resumed.probability_evals,
        "{ctx}: probability_evals"
    );
    assert_eq!(
        clean.open_exprs_left, resumed.open_exprs_left,
        "{ctx}: open_exprs_left"
    );
    assert_eq!(
        clean.tasks_expired, resumed.tasks_expired,
        "{ctx}: tasks_expired"
    );
    assert_eq!(
        clean.tasks_retried, resumed.tasks_retried,
        "{ctx}: tasks_retried"
    );
    assert_eq!(
        clean.rounds_stalled, resumed.rounds_stalled,
        "{ctx}: rounds_stalled"
    );
    assert_eq!(clean.degraded, resumed.degraded, "{ctx}: degraded");
}

/// "Kills" the run at every possible round k by discarding the live session
/// and resuming from the k-th checkpoint against a freshly constructed
/// platform, then checks the finished report against the clean one.
fn assert_all_resume_points_match(
    config: BayesCrowdConfig,
    data: &Dataset,
    mk_platform: impl Fn() -> Box<dyn CrowdPlatform>,
    ctx: &str,
) {
    let engine = BayesCrowd::new(config);
    let mut platform = mk_platform();
    let (clean, snaps) = run_collecting_checkpoints(&engine, data, platform.as_mut());
    assert!(snaps.len() >= 2, "{ctx}: run finished without any rounds");
    for (k, snap) in snaps.iter().enumerate() {
        let mut platform = mk_platform();
        let mut session =
            Session::resume(&snap[..], platform.as_mut()).expect("checkpoint resumes");
        while session.step().expect("resumed step") {}
        let resumed = unwrap_report(session.finalize());
        assert_reports_match(&clean, &resumed, &format!("{ctx}, resumed at round {k}"));
    }
}

#[test]
fn simulated_platform_resumes_identically_at_every_round() {
    let data = paper_dataset();
    for seed in [3, 7, 19] {
        let mk = move || -> Box<dyn CrowdPlatform> {
            let oracle = GroundTruthOracle::new(paper_completion());
            Box::new(SimulatedPlatform::new(oracle, 0.9, seed))
        };
        assert_all_resume_points_match(
            sample_config(),
            &data,
            mk,
            &format!("simulated seed {seed}"),
        );
    }
}

#[test]
fn faulty_platform_resumes_identically_at_every_round() {
    let data = paper_dataset();
    let faults = FaultConfig {
        expiry_prob: 0.25,
        spammer_rate: 0.2,
        straggler_prob: 0.2,
        duplicate_prob: 0.1,
        ..Default::default()
    };
    for seed in [1, 11] {
        let mk = move || -> Box<dyn CrowdPlatform> {
            let oracle = GroundTruthOracle::new(paper_completion());
            let sim = SimulatedPlatform::new(oracle, 0.85, seed);
            Box::new(FaultyPlatform::new(sim, faults, seed ^ 0x5eed))
        };
        let config = BayesCrowdConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                escalate_workers: 1,
                backoff_base: 1,
            },
            ..sample_config()
        };
        assert_all_resume_points_match(config, &data, mk, &format!("faulty seed {seed}"));
    }
}

/// A seeded 800-object table sampled from the Adult-like network, with 10%
/// of its cells missing: big enough that conditions have several factor
/// groups and get var-var answers. Returns the complete table and the
/// incomplete one.
fn synthetic_table(seed: u64) -> (Dataset, Dataset) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let complete = adult_like()
        .sample_dataset("synthetic", 800, &mut rng)
        .expect("the network samples");
    let (incomplete, _) = inject_mcar(&complete, 0.1, seed ^ 0x5eed);
    (complete, incomplete)
}

/// Factor tables at scale, under HHS (`m = 50`) and FBS: the clean run
/// keeps probabilities across rounds and re-sums the ones answers touch,
/// and a kill and resume at every round still reproduces it exactly.
/// Resumed sessions restore the cached probabilities with their bits and
/// build tables from the c-table and pmfs the checkpoint stores.
#[test]
fn synthetic_tables_resume_identically_at_every_round() {
    let (complete, data) = synthetic_table(11);
    for (strategy, budget) in [(TaskStrategy::Hhs { m: 50 }, 100), (TaskStrategy::Fbs, 400)] {
        let config = BayesCrowdConfig {
            budget,
            latency: 10,
            alpha: 0.01,
            strategy,
            ..Default::default()
        };
        let mk = || -> Box<dyn CrowdPlatform> {
            let oracle = GroundTruthOracle::new(complete.clone());
            Box::new(SimulatedPlatform::new(oracle, 1.0, 5))
        };
        let ctx = format!("synthetic {}", strategy.name());
        let mut metrics = MetricsRecorder::new();
        let mut platform = mk();
        unwrap_report(BayesCrowd::new(config.clone()).try_run(
            &data,
            platform.as_mut(),
            &mut metrics,
        ));
        let c = metrics.counters();
        assert!(c.solver_cache_hits > 0, "{ctx}: no probability kept");
        let first = metrics.events().iter().find_map(|e| match e {
            Event::ProbabilityBatch { objects, .. } => Some(*objects as u64),
            _ => None,
        });
        assert!(
            first.is_some_and(|n| c.probability_evals > n),
            "{ctx}: no probability re-summed after an answer"
        );
        assert_all_resume_points_match(config, &data, mk, &ctx);
    }
    // Erring workers too: some of their answers contradict earlier ones.
    let config = BayesCrowdConfig {
        budget: 400,
        latency: 10,
        alpha: 0.01,
        strategy: TaskStrategy::Fbs,
        ..Default::default()
    };
    let mk = || -> Box<dyn CrowdPlatform> {
        let oracle = GroundTruthOracle::new(complete.clone());
        Box::new(SimulatedPlatform::new(oracle, 0.7, 9))
    };
    assert_all_resume_points_match(config, &data, mk, "synthetic FBS, erring workers");
}

/// FNV-1a of each checkpoint with its two wall-clock fields
/// (`progress.modeling_nanos`, `progress.elapsed_nanos`) zeroed and the
/// document re-sealed: every other byte of a seeded run is deterministic.
fn timeless_checkpoint_hashes(snaps: &[Vec<u8>]) -> Vec<u64> {
    snaps
        .iter()
        .map(|bytes| {
            let snap = Snapshot::parse(&bytes[..]).expect("checkpoint parses");
            let sections = snap
                .sections()
                .iter()
                .map(|(name, data)| {
                    let mut data = data.clone();
                    if let ("progress", Value::Map(entries)) = (name.as_str(), &mut data) {
                        for (key, v) in entries {
                            if key == "modeling_nanos" || key == "elapsed_nanos" {
                                *v = Value::Int(0);
                            }
                        }
                    }
                    (name.clone(), data)
                })
                .collect();
            let mut out = Vec::new();
            Snapshot::new(snap.fingerprint().to_string(), sections)
                .write_to(&mut out)
                .expect("re-seals");
            fnv1a64(&out)
        })
        .collect()
}

/// The exact bytes of every checkpoint of five seeded runs, timing aside:
/// the 800-object synthetic table under HHS and FBS, a fault-injecting run
/// with retries and expiries (non-empty `pending` and `faults`), and the
/// erring-worker FBS run, some of whose answers contradict earlier ones.
#[test]
fn checkpoint_bytes_are_pinned() {
    let (complete, data) = synthetic_table(11);
    let synthetic = |strategy, budget, accuracy, seed| {
        let config = BayesCrowdConfig {
            budget,
            latency: 10,
            alpha: 0.01,
            strategy,
            ..Default::default()
        };
        let oracle = GroundTruthOracle::new(complete.clone());
        let mut platform = SimulatedPlatform::new(oracle, accuracy, seed);
        run_collecting_checkpoints(&BayesCrowd::new(config), &data, &mut platform).1
    };
    let faulty = {
        let faults = FaultConfig {
            expiry_prob: 0.25,
            spammer_rate: 0.2,
            straggler_prob: 0.2,
            duplicate_prob: 0.1,
            ..Default::default()
        };
        let oracle = GroundTruthOracle::new(paper_completion());
        let sim = SimulatedPlatform::new(oracle, 0.85, 11);
        let mut platform = FaultyPlatform::new(sim, faults, 11 ^ 0x5eed);
        let config = BayesCrowdConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                escalate_workers: 1,
                backoff_base: 1,
            },
            ..sample_config()
        };
        let engine = BayesCrowd::new(config);
        run_collecting_checkpoints(&engine, &paper_dataset(), &mut platform).1
    };
    let runs = [
        (
            "synthetic HHS",
            synthetic(TaskStrategy::Hhs { m: 50 }, 100, 1.0, 5),
        ),
        ("synthetic FBS", synthetic(TaskStrategy::Fbs, 400, 1.0, 5)),
        (
            "synthetic FBS, erring",
            synthetic(TaskStrategy::Fbs, 400, 0.7, 9),
        ),
        ("faulty", faulty),
    ];
    let faulty_snaps = &runs[3].1;
    let queued = faulty_snaps.iter().any(|bytes| {
        let snap = Snapshot::parse(&bytes[..]).unwrap();
        let pending = snap.section("pending").unwrap().as_list().unwrap();
        let faults = snap.section("platform").unwrap().get("faults").unwrap();
        !pending.is_empty() && faults.field::<u64>("expired").unwrap() > 0
    });
    assert!(
        queued,
        "the faulty run never queued a retry after an expiry"
    );
    let got: Vec<(&str, Vec<u64>)> = runs
        .iter()
        .map(|(name, snaps)| (*name, timeless_checkpoint_hashes(snaps)))
        .collect();
    let want: [(&str, &[u64]); 4] = [
        (
            "synthetic HHS",
            &[
                0xcf003ef3559e3691,
                0xae175e9ac85c47fa,
                0x7843d709c5145b90,
                0xa17aa9d04e0e03ad,
                0xb999677bbf9c80a,
                0xa0084ce3f1039a57,
                0x5ccfee328242bfee,
                0x6a583245ef0151aa,
                0xf69354329cbcfff6,
                0xbedfd8d51dfcd147,
                0xb34eca0ee545488f,
            ],
        ),
        (
            "synthetic FBS",
            &[
                0x5a291cfc5a9c656b,
                0x4c2822ad8d13e128,
                0xc5876b2944396d66,
                0xbe08b524bc4a2a8a,
                0x27e2091340150051,
                0x9d67714a21119ebb,
                0x4bb2bb0205dc60a4,
                0x770be431c437302a,
                0xb73cecf4cfa37cef,
            ],
        ),
        (
            "synthetic FBS, erring",
            &[
                0xe6bd4c43e3c7c383,
                0xffac14b125bed782,
                0xccb4654697fb88a0,
                0x977782e381ddf8b1,
                0x57be966a3cc793e4,
                0x984dbbb409a5a24c,
                0x3b75b25f31da8d9e,
                0x77cd2908457db86e,
                0x9719566c163f5331,
                0x33fe33e651995774,
                0xb874d176f400b9bc,
            ],
        ),
        (
            "faulty",
            &[
                0x77ea797b1d1f8527,
                0x4c7f6eb67c90f424,
                0x8a5e81993cf13222,
                0xb327e55dfdd28f35,
                0xd54b26e51eb6da00,
            ],
        ),
    ];
    for ((name, got), (_, want)) in got.iter().zip(want) {
        assert_eq!(got, want, "{name}: {got:#x?}");
    }
}

/// Re-frames `snap`'s sections as a checksummed document with header
/// version `version`.
fn reframe(snap: &Snapshot, version: u32) -> Vec<u8> {
    let header = Value::obj(vec![
        ("format", Value::Str(bc_snapshot::FORMAT_NAME.into())),
        ("version", Value::Int(version as i128)),
        ("fingerprint", Value::Str(snap.fingerprint().into())),
    ]);
    let mut body = header.to_json() + "\n";
    let mut n = 0;
    for (name, data) in snap.sections() {
        let line = Value::obj(vec![
            ("section", Value::Str(name.clone())),
            ("data", data.clone()),
        ]);
        body += &(line.to_json() + "\n");
        n += 1;
    }
    let footer = Value::obj(vec![
        ("sections", Value::Int(n)),
        (
            "checksum",
            Value::Str(format!("{:016x}", fnv1a64(body.as_bytes()))),
        ),
    ]);
    (body + &footer.to_json() + "\n").into_bytes()
}

/// A checkpoint of an older format version is a typed snapshot error,
/// never a resumed session: versions 1 and 2 cached probabilities summed
/// in ADPLL's order, so a run resumed from them would match neither the
/// run that wrote them nor one of this version. A newer version is
/// refused too; the current one, re-framed, resumes.
#[test]
fn older_checkpoint_versions_are_typed_errors() {
    let data = paper_dataset();
    let mk = || SimulatedPlatform::new(GroundTruthOracle::new(paper_completion()), 1.0, 7);
    let mut platform = mk();
    let (_, snaps) =
        run_collecting_checkpoints(&BayesCrowd::new(sample_config()), &data, &mut platform);
    let snap = Snapshot::parse(&snaps[1][..]).expect("checkpoint parses");
    let current = bc_snapshot::FORMAT_VERSION;
    assert_eq!(current, 3);
    for version in [1, 2, current + 1] {
        let bytes = reframe(&snap, version);
        let mut platform = mk();
        match Session::resume(&bytes[..], &mut platform) {
            Err(RunError::Snapshot(e)) => assert!(
                matches!(*e, SnapshotError::UnsupportedVersion(v) if v == version),
                "version {version}: {e}"
            ),
            Err(e) => panic!("version {version}: wrong error: {e}"),
            Ok(_) => panic!("a version-{version} checkpoint resumed"),
        }
    }
    let mut platform = mk();
    let same = reframe(&snap, current);
    assert!(Session::resume(&same[..], &mut platform).is_ok());
}

/// A checkpoint whose c-table gives one object a dominator variable in two
/// clauses — a condition Get-CTable and propagation never produce, and
/// outside the factor tables' shape — still resumes, and its first step
/// fails with [`SolverError::NotFactored`] naming that variable, not a
/// panic and not a probability from another solver.
#[test]
fn a_condition_outside_the_table_shape_fails_the_first_step() {
    let complete = nba_like(60, 5);
    let (incomplete, _) = inject_mcar(&complete, 0.15, 5);
    let mk = || SimulatedPlatform::new(GroundTruthOracle::new(complete.clone()), 1.0, 7);
    let config = BayesCrowdConfig {
        strategy: TaskStrategy::Fbs,
        ..sample_config()
    };
    let mut platform = mk();
    let (_, snaps) =
        run_collecting_checkpoints(&BayesCrowd::new(config), &incomplete, &mut platform);
    let snap = Snapshot::parse(&snaps[0][..]).expect("checkpoint parses");
    assert_eq!(
        snap.section("prob_cache")
            .unwrap()
            .as_list()
            .map(|l| l.len()),
        Some(0),
        "the first checkpoint caches no probability"
    );
    // The first open condition with a clause on a dominator's cell: that
    // clause's expression, negated, becomes a clause of its own.
    let mut conditions = snap.section("ctable").unwrap().as_list().unwrap().to_vec();
    let mut broken = None;
    for (o, cond) in conditions.iter_mut().enumerate() {
        let Value::List(clauses) = cond else { continue };
        let dominated = clauses.iter().flat_map(|c| c.as_list().unwrap()).find(|e| {
            let v = e.get("v").unwrap().as_list().unwrap();
            v[0] != Value::Int(o as i128)
        });
        if let Some(e) = dominated.cloned() {
            let Value::Map(mut fields) = e else {
                unreachable!()
            };
            let v: (u32, u16) = fields[0].1.read("variable id").unwrap();
            let op = fields[1].1.as_str().unwrap();
            let negated = match op {
                "lt" => "ge",
                "ge" => "lt",
                "gt" => "le",
                "le" => "gt",
                "eq" => "ne",
                _ => "eq",
            };
            fields[1].1 = Value::Str(negated.into());
            clauses.push(Value::List(vec![Value::Map(fields)]));
            broken = Some(VarId::new(v.0, v.1));
            break;
        }
    }
    let w = broken.expect("some condition has a dominator's cell");
    let bytes = resealed(&snap, "ctable", Value::List(conditions));
    let mut platform = mk();
    let mut session = Session::resume(&bytes[..], &mut platform).expect("the checkpoint resumes");
    match session.step() {
        Err(RunError::Solver(SolverError::NotFactored(v))) => assert_eq!(v, w),
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("a condition outside the shape was scored"),
    }
}

/// `snap` written out again, checksummed, with section `name` replaced by
/// `data`.
fn resealed(snap: &Snapshot, name: &str, data: Value) -> Vec<u8> {
    let sections = snap
        .sections()
        .iter()
        .map(|(n, d)| (n.clone(), if n == name { data.clone() } else { d.clone() }))
        .collect();
    let mut bytes = Vec::new();
    Snapshot::new(snap.fingerprint().to_string(), sections)
        .write_to(&mut bytes)
        .unwrap();
    bytes
}

/// A `prob_cache` section that names an object outside the table, lists
/// objects out of order, or caches a value that is not a probability is a
/// typed snapshot error. Resumed, the first step would index out of the
/// table, or rank and report a non-probability.
#[test]
fn a_corrupt_prob_cache_section_is_a_typed_error() {
    let complete = nba_like(60, 5);
    let (incomplete, _) = inject_mcar(&complete, 0.15, 5);
    let mk = || SimulatedPlatform::new(GroundTruthOracle::new(complete.clone()), 1.0, 7);
    for strategy in [TaskStrategy::Fbs, TaskStrategy::Hhs { m: 2 }] {
        let config = BayesCrowdConfig {
            strategy,
            ..sample_config()
        };
        let mut platform = mk();
        let (_, snaps) =
            run_collecting_checkpoints(&BayesCrowd::new(config), &incomplete, &mut platform);
        let snap = Snapshot::parse(&snaps[1][..]).expect("checkpoint parses");
        let Value::List(cached) = snap.section("prob_cache").expect("has a cache") else {
            panic!("prob_cache is a list");
        };
        assert!(cached.len() > 1, "{strategy:?}: {} cached", cached.len());
        let with_values = |p: f64| {
            let entries = cached.iter().map(|entry| match entry {
                Value::List(pair) => Value::List(vec![pair[0].clone(), Value::Float(p)]),
                other => panic!("entry {other:?}"),
            });
            Value::List(entries.collect())
        };
        let mut out_of_range = cached.clone();
        out_of_range.push(Value::List(vec![Value::Int(999_999), Value::Float(0.5)]));
        let mut reversed = cached.clone();
        reversed.reverse();
        for bad in [
            Value::List(out_of_range),
            Value::List(reversed),
            with_values(f64::NAN),
            with_values(1.5),
        ] {
            let bytes = resealed(&snap, "prob_cache", bad.clone());
            let mut platform = mk();
            match Session::resume(&bytes[..], &mut platform) {
                Err(RunError::Snapshot(e)) => {
                    assert!(matches!(*e, SnapshotError::Invalid(_)), "{bad:?}: {e}")
                }
                Err(e) => panic!("{bad:?}: wrong error: {e}"),
                Ok(_) => panic!("{strategy:?}: a corrupt prob_cache section resumed: {bad:?}"),
            }
        }
    }
}

#[test]
fn resumed_trace_reconciles_with_the_clean_run() {
    // The resumed run's event stream must pick up where the checkpoint left
    // off: a Resumed event carrying the checkpointed round, then exactly
    // the remaining rounds, ending in a RunFinished identical (timing
    // aside) to the clean run's.
    let data = paper_dataset();
    let mk = || {
        let oracle = GroundTruthOracle::new(paper_completion());
        SimulatedPlatform::new(oracle, 1.0, 7)
    };
    let engine = BayesCrowd::new(sample_config());

    let mut platform = mk();
    let mut clean_metrics = MetricsRecorder::new();
    let mut session = engine
        .session_observed(&data, &mut platform, &mut clean_metrics)
        .unwrap();
    let mut snaps = Vec::new();
    while session.step().unwrap() {
        let mut buf = Vec::new();
        session.checkpoint(&mut buf).unwrap();
        snaps.push(buf);
    }
    let clean = unwrap_report(session.finalize());
    let clean_finish = clean_metrics
        .events()
        .iter()
        .rev()
        .find(|e| matches!(e, Event::RunFinished { .. }))
        .expect("clean run emits RunFinished")
        .redact_timing();

    let k = snaps.len() / 2;
    let mut platform = mk();
    let mut resumed_metrics = MetricsRecorder::new();
    let mut session =
        Session::resume_observed(&snaps[k][..], &mut platform, &mut resumed_metrics).unwrap();
    while session.step().unwrap() {}
    let resumed = unwrap_report(session.finalize());
    assert_reports_match(&clean, &resumed, "trace reconcile");

    let events = resumed_metrics.events();
    assert!(
        matches!(events.first(), Some(Event::Resumed { round, .. }) if *round == k + 1),
        "first resumed event must be Resumed at round {}: {:?}",
        k + 1,
        events.first()
    );
    let resumed_finish = events
        .iter()
        .rev()
        .find(|e| matches!(e, Event::RunFinished { .. }))
        .expect("resumed run emits RunFinished")
        .redact_timing();
    assert_eq!(clean_finish, resumed_finish, "RunFinished events diverge");
    // The resumed trace replays only the tail: every RoundStarted it emits
    // is a round after the checkpoint.
    for e in events {
        if let Event::RoundStarted { round } = e {
            assert!(*round > k + 1, "resumed run replayed round {round}");
        }
    }
}

#[test]
fn checkpoints_reserialize_byte_identically() {
    // Golden round-trip: parse → re-serialize reproduces the document byte
    // for byte, so a checkpoint can be rewritten (e.g. copied through the
    // parser for validation) without invalidating its checksum.
    let data = paper_dataset();
    let oracle = GroundTruthOracle::new(paper_completion());
    let mut platform = SimulatedPlatform::new(oracle, 1.0, 7);
    let engine = BayesCrowd::new(sample_config());
    let (_, snaps) = run_collecting_checkpoints(&engine, &data, &mut platform);
    for (k, bytes) in snaps.iter().enumerate() {
        let snap = Snapshot::parse(&bytes[..]).expect("checkpoint parses");
        let mut rewritten = Vec::new();
        snap.write_to(&mut rewritten).expect("re-serializes");
        assert_eq!(
            bytes, &rewritten,
            "checkpoint {k} did not round-trip byte-identically"
        );
    }
}

#[test]
fn truncated_checkpoints_are_rejected() {
    let data = paper_dataset();
    let oracle = GroundTruthOracle::new(paper_completion());
    let mut platform = SimulatedPlatform::new(oracle, 1.0, 7);
    let engine = BayesCrowd::new(sample_config());
    let (_, snaps) = run_collecting_checkpoints(&engine, &data, &mut platform);
    let full = &snaps[snaps.len() - 1];
    // Cut mid-document (a torn write): resume must refuse, not half-load.
    let torn = &full[..full.len() * 2 / 3];
    let oracle = GroundTruthOracle::new(paper_completion());
    let mut fresh = SimulatedPlatform::new(oracle, 1.0, 7);
    assert!(Session::resume(torn, &mut fresh).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random worker accuracy, fault rates, and seeds: resuming from the
    /// middle checkpoint always reproduces the uninterrupted report.
    #[test]
    fn random_faulty_runs_resume_identically(
        seed in 0u64..1000,
        accuracy in 0.5f64..1.0,
        expiry in 0.0f64..0.4,
        spam in 0.0f64..0.3,
    ) {
        let data = paper_dataset();
        let faults = FaultConfig {
            expiry_prob: expiry,
            spammer_rate: spam,
            ..Default::default()
        };
        let mk = move || -> Box<dyn CrowdPlatform> {
            let oracle = GroundTruthOracle::new(paper_completion());
            let sim = SimulatedPlatform::new(oracle, accuracy, seed);
            Box::new(FaultyPlatform::new(sim, faults, seed.wrapping_mul(31)))
        };
        let engine = BayesCrowd::new(sample_config());
        let mut platform = mk();
        let (clean, snaps) = run_collecting_checkpoints(&engine, &data, platform.as_mut());
        let k = snaps.len() / 2;
        let mut platform = mk();
        let mut session = Session::resume(&snaps[k][..], platform.as_mut()).expect("resumes");
        while session.step().expect("step") {}
        let resumed = unwrap_report(session.finalize());
        assert_reports_match(&clean, &resumed, &format!("proptest seed {seed}, k {k}"));
    }
}
