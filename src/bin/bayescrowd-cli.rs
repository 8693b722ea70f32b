//! Command-line front end for crowd-assisted skyline queries.
//!
//! ```text
//! # Machine-only pass over an incomplete CSV (see bc_data::csv for the
//! # format): prints certain answers and per-object probabilities.
//! bayescrowd-cli machine --data movies.csv
//!
//! # Full simulated crowdsourcing run (the hidden complete CSV plays the
//! # crowd): prints the answer set, cost, and accuracy.
//! bayescrowd-cli simulate --data movies.csv --complete movies_full.csv \
//!     --budget 50 --latency 5 --alpha 0.01 --strategy hhs --m 15 \
//!     --worker-accuracy 0.95 --seed 42
//!
//! # The same run against a misbehaving crowd: 20% of tasks expire, 5% of
//! # the workforce quits each round, and failed tasks get 3 attempts.
//! bayescrowd-cli simulate --data movies.csv --complete movies_full.csv \
//!     --expiry 0.2 --attrition 0.05 --max-attempts 3
//!
//! # Observability: write a JSON-lines event trace, print per-phase
//! # timings plus counters, and dump the hierarchical span profile.
//! bayescrowd-cli simulate --data movies.csv --complete movies_full.csv \
//!     --trace run.jsonl --metrics --profile profile.json
//!
//! # Durable runs: checkpoint after every round, then resume a killed run
//! # from the newest checkpoint. The resumed run finishes with the same
//! # deterministic report the uninterrupted one would have produced.
//! bayescrowd-cli simulate --data movies.csv --complete movies_full.csv \
//!     --checkpoint-dir ckpt --report-out clean.txt
//! bayescrowd-cli simulate --data movies.csv --complete movies_full.csv \
//!     --resume ckpt/round-0003.bcsnap --report-out resumed.txt
//! ```

use bayescrowd::framework::machine_only_answers;
use bayescrowd::prelude::*;
use bc_crowd::{CrowdPlatform, FaultConfig, FaultyPlatform, GroundTruthOracle, SimulatedPlatform};
use bc_data::csv::parse_csv;
use bc_data::Dataset;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::exit;

struct Args {
    mode: String,
    data: Option<String>,
    complete: Option<String>,
    budget: usize,
    latency: usize,
    alpha: f64,
    strategy: String,
    m: usize,
    worker_accuracy: f64,
    seed: u64,
    expiry: f64,
    attrition: f64,
    spammer_rate: f64,
    max_attempts: usize,
    escalate_workers: usize,
    backoff: usize,
    trace: Option<String>,
    metrics: bool,
    profile: Option<String>,
    checkpoint_dir: Option<String>,
    resume: Option<String>,
    kill_after_round: Option<usize>,
    report_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bayescrowd-cli <machine|simulate> --data FILE.csv \
         [--complete FILE.csv] [--budget N] [--latency N] [--alpha F] \
         [--strategy fbs|ubs|hhs] [--m N] [--worker-accuracy F] [--seed N] \
         [--expiry F] [--attrition F] [--spammer-rate F] \
         [--max-attempts N] [--escalate-workers N] [--backoff N] \
         [--trace FILE.jsonl] [--metrics] [--profile FILE.json] \
         [--checkpoint-dir DIR] \
         [--resume FILE.bcsnap] [--kill-after-round N] [--report-out FILE]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        mode: String::new(),
        data: None,
        complete: None,
        budget: 50,
        latency: 5,
        alpha: 0.01,
        strategy: "hhs".into(),
        m: 15,
        worker_accuracy: 1.0,
        seed: 42,
        expiry: 0.0,
        attrition: 0.0,
        spammer_rate: 0.0,
        max_attempts: 2,
        escalate_workers: 0,
        backoff: 0,
        trace: None,
        metrics: false,
        profile: None,
        checkpoint_dir: None,
        resume: None,
        kill_after_round: None,
        report_out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let a = argv[i].as_str();
        let value = |args_i: &mut usize| -> String {
            *args_i += 1;
            argv.get(*args_i).cloned().unwrap_or_else(|| usage())
        };
        match a {
            "machine" | "simulate" => args.mode = a.to_string(),
            "--data" => args.data = Some(value(&mut i)),
            "--complete" => args.complete = Some(value(&mut i)),
            "--budget" => args.budget = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--latency" => args.latency = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--alpha" => args.alpha = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--strategy" => args.strategy = value(&mut i),
            "--m" => args.m = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--worker-accuracy" => {
                args.worker_accuracy = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--seed" => args.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--expiry" => args.expiry = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--attrition" => args.attrition = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--spammer-rate" => {
                args.spammer_rate = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--max-attempts" => {
                args.max_attempts = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--escalate-workers" => {
                args.escalate_workers = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--backoff" => args.backoff = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = Some(value(&mut i)),
            "--metrics" => args.metrics = true,
            "--profile" => args.profile = Some(value(&mut i)),
            "--checkpoint-dir" => args.checkpoint_dir = Some(value(&mut i)),
            "--resume" => args.resume = Some(value(&mut i)),
            "--kill-after-round" => {
                args.kill_after_round = Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--report-out" => args.report_out = Some(value(&mut i)),
            _ => usage(),
        }
        i += 1;
    }
    if args.mode.is_empty() || args.data.is_none() {
        usage();
    }
    args
}

/// Runs the crowdsourcing loop through the resumable [`Session`] API:
/// fresh or resumed from `--resume`, checkpointing into `--checkpoint-dir`
/// after every round (write to a temp file, then rename, so a crash never
/// leaves a torn checkpoint under the final name), and aborting the
/// process after round `--kill-after-round` to simulate a crash.
fn drive_session(
    engine: &BayesCrowd,
    data: &Dataset,
    platform: &mut dyn CrowdPlatform,
    observer: &mut dyn Observer,
    args: &Args,
) -> Result<RunReport, RunError> {
    let mut session = match args.resume.as_deref() {
        Some(path) => {
            let file = File::open(path).unwrap_or_else(|e| {
                eprintln!("cannot open checkpoint {path}: {e}");
                exit(1);
            });
            Session::resume_observed(BufReader::new(file), platform, observer)?
        }
        None => engine.session_observed(data, platform, observer)?,
    };
    loop {
        let more = session.step()?;
        if let Some(dir) = args.checkpoint_dir.as_deref() {
            write_checkpoint(&mut session, dir)?;
            if more && args.kill_after_round == Some(session.round()) {
                eprintln!(
                    "--kill-after-round: aborting after round {} (checkpoint written)",
                    session.round()
                );
                std::process::abort();
            }
        }
        if !more {
            break;
        }
    }
    session.finalize()
}

fn write_checkpoint(session: &mut Session<'_>, dir: &str) -> Result<(), RunError> {
    let io = |e: std::io::Error| RunError::from(bc_snapshot::SnapshotError::Io(e));
    std::fs::create_dir_all(dir).map_err(io)?;
    let tmp = format!("{dir}/checkpoint.tmp");
    let mut out = BufWriter::new(File::create(&tmp).map_err(io)?);
    session.checkpoint(&mut out)?;
    out.flush().map_err(io)?;
    drop(out);
    let path = format!("{dir}/round-{:04}.bcsnap", session.round());
    std::fs::rename(&tmp, &path).map_err(io)?;
    eprintln!("checkpoint: {path}");
    Ok(())
}

/// The deterministic half of the report — everything except wall-clock
/// durations — one field per line, floats in full `{:?}` precision. Two
/// runs of the same seeded campaign (interrupted or not) must produce
/// byte-identical files, which is what the CI resume job diffs.
fn write_report(report: &RunReport, path: &str) {
    let mut text = String::new();
    let ids = |objs: &[bc_data::ObjectId]| {
        objs.iter()
            .map(|o| o.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    text.push_str(&format!("result: {}\n", ids(&report.result)));
    text.push_str(&format!("certain: {}\n", ids(&report.certain)));
    for (o, p) in &report.open_probabilities {
        text.push_str(&format!("open: {o}={p:?}\n"));
    }
    text.push_str(&format!(
        "crowd: posted={} rounds={} answers={} money={}\n",
        report.crowd.tasks_posted,
        report.crowd.rounds,
        report.crowd.worker_answers,
        report.crowd.money_spent
    ));
    text.push_str(&format!(
        "budget_left={} evals={} open_exprs_left={} expired={} retried={} stalled={} degraded={}\n",
        report.budget_left,
        report.probability_evals,
        report.open_exprs_left,
        report.tasks_expired,
        report.tasks_retried,
        report.rounds_stalled,
        report.degraded
    ));
    if let Some(acc) = report.accuracy {
        text.push_str(&format!(
            "accuracy: precision={:?} recall={:?} f1={:?}\n",
            acc.precision, acc.recall, acc.f1
        ));
    }
    std::fs::write(path, text).unwrap_or_else(|e| {
        eprintln!("cannot write report file {path}: {e}");
        exit(1);
    });
}

fn load(path: &str) -> Dataset {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    parse_csv(path, &text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        exit(1);
    })
}

fn main() {
    let args = parse_args();
    let data = load(args.data.as_deref().expect("checked in parse_args"));
    eprintln!(
        "loaded {}: {} objects × {} attributes, missing rate {:.1}%",
        data.name(),
        data.n_objects(),
        data.n_attrs(),
        data.missing_rate() * 100.0
    );

    let strategy = match args.strategy.as_str() {
        "fbs" => TaskStrategy::Fbs,
        "ubs" => TaskStrategy::Ubs,
        "hhs" => TaskStrategy::Hhs { m: args.m },
        _ => usage(),
    };
    let config = BayesCrowdConfig {
        budget: args.budget,
        latency: args.latency,
        alpha: args.alpha,
        strategy,
        parallel: true,
        retry: RetryPolicy {
            max_attempts: args.max_attempts.max(1),
            escalate_workers: args.escalate_workers,
            backoff_base: args.backoff,
        },
        ..Default::default()
    };
    if let Err(e) = config.validate() {
        eprintln!("invalid configuration: {e}");
        exit(2);
    }

    match args.mode.as_str() {
        "machine" => {
            let (answers, ctable) = machine_only_answers(&data, &config).unwrap_or_else(|e| {
                eprintln!("machine-only pass failed: {e}");
                exit(1);
            });
            println!("answers ({} objects):", answers.len());
            for o in &answers {
                println!("  {o}");
            }
            println!("c-table: {}", bc_ctable::CTableStats::of(&ctable));
        }
        "simulate" => {
            let Some(complete_path) = args.complete.as_deref() else {
                eprintln!("simulate mode needs --complete FILE.csv (the hidden truth)");
                exit(2);
            };
            let complete = load(complete_path);
            let oracle = GroundTruthOracle::new(complete);
            let sim = SimulatedPlatform::new(oracle, args.worker_accuracy, args.seed);
            for (flag, p) in [
                ("--expiry", args.expiry),
                ("--attrition", args.attrition),
                ("--spammer-rate", args.spammer_rate),
            ] {
                if !(0.0..=1.0).contains(&p) {
                    eprintln!("{flag} must be a probability in [0, 1], got {p}");
                    exit(2);
                }
            }
            let faults = FaultConfig {
                expiry_prob: args.expiry,
                attrition: args.attrition,
                spammer_rate: args.spammer_rate,
                ..FaultConfig::default()
            };
            let engine = BayesCrowd::new(config);
            let mut metrics = MetricsRecorder::new();
            let mut sink = args.trace.as_deref().map(|path| {
                JsonLinesSink::create(path).unwrap_or_else(|e| {
                    eprintln!("cannot create trace file {path}: {e}");
                    exit(1);
                })
            });
            // Only wrap when faults were requested, so fault-free runs stay
            // bit-identical to earlier versions under the same seed.
            let mut platform: Box<dyn CrowdPlatform> = if faults == FaultConfig::default() {
                Box::new(sim)
            } else {
                Box::new(FaultyPlatform::new(sim, faults, args.seed ^ 0x5eed))
            };
            // One observer: the trace, the metrics and the profile, each a
            // `NoopObserver` unless requested.
            let mut profiler = RunProfiler::new();
            let (mut no_trace, mut no_metrics, mut no_profile) =
                (NoopObserver, NoopObserver, NoopObserver);
            let trace: &mut dyn Observer = match &mut sink {
                Some(s) => s,
                None => &mut no_trace,
            };
            let metered: &mut dyn Observer = if args.metrics {
                &mut metrics
            } else {
                &mut no_metrics
            };
            let profiled: &mut dyn Observer = if args.profile.is_some() {
                &mut profiler
            } else {
                &mut no_profile
            };
            let mut recorders = Tee::new(metered, profiled);
            let mut observer = Tee::new(trace, &mut recorders);
            let outcome = drive_session(&engine, &data, platform.as_mut(), &mut observer, &args);
            let report = match outcome {
                Ok(report) => report,
                Err(RunError::PlatformExhausted { report }) => {
                    eprintln!("warning: the crowd answered nothing — machine-only answers below");
                    *report
                }
                Err(e) => {
                    eprintln!("run failed: {e}");
                    exit(1);
                }
            };
            if let Some(s) = sink {
                eprintln!("trace: {} events written", s.events_written());
                if let Some(e) = s.io_error() {
                    eprintln!("warning: trace writer hit an I/O error: {e}");
                }
            }
            if args.metrics {
                println!("{}", metrics.summary());
            }
            if let Some(path) = args.profile.as_deref() {
                let mut json = profiler.report().to_json();
                json.push('\n');
                std::fs::write(path, json).unwrap_or_else(|e| {
                    eprintln!("cannot write profile file {path}: {e}");
                    exit(1);
                });
                eprintln!("profile: {path}");
            }
            if let Some(path) = args.report_out.as_deref() {
                write_report(&report, path);
            }
            println!("answers ({} objects):", report.result.len());
            for o in &report.result {
                println!("  {o}");
            }
            println!("{}", report.summary());
            if report.degraded {
                println!(
                    "degraded: gave up on {} task(s) after {} retries and {} stalled round(s)",
                    report.tasks_expired, report.tasks_retried, report.rounds_stalled
                );
            }
            if let Some(acc) = report.accuracy {
                println!(
                    "precision {:.3}  recall {:.3}  F1 {:.3}",
                    acc.precision, acc.recall, acc.f1
                );
            }
        }
        _ => usage(),
    }
}
