//! Benchmark of BayesCrowd's shipped query path: Bayesian-network model,
//! Get-CTable, ADPLL-backed task selection, crowd rounds, constraint
//! propagation, answer set.
//!
//! ```text
//! skybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run generates its workload's pool of inputs from the seed (set-up,
//! repeated and timed), then runs complete crowd campaigns over the pool,
//! in order, against a simulated perfect crowd until `--seconds` have
//! passed, always finishing at least one pass. Every answer set is
//! checked. Times are scaled to a reference machine speed (see
//! [`speed`]). The last line of stdout is one JSON object: end-to-end
//! metrics with `--trace 0`; with `--trace 1` the same campaigns run with
//! an event recorder attached and per-layer metrics are reported instead.

mod speed;
mod workloads;

use bayescrowd::{BayesCrowd, RunReport};
use bc_crowd::SimulatedPlatform;
use bc_data::ObjectId;
use bc_obs::{Event, MetricsRecorder, RunPhase};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Instance, Workload};

/// Times the set-up is repeated; its median is `setup_s`.
const SETUP_REPEATS: usize = 5;

/// Workers answer perfectly, so every certain answer must be a true
/// skyline object — a check that needs no probabilities.
const WORKER_ACCURACY: f64 = 1.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let workload = workloads::all()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name}"))?;
    let number = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if flags.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds, --trace".into());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
    })
}

/// What one campaign produced, timed from the benchmark's side of each
/// call into the library.
struct Campaign {
    report: RunReport,
    /// `session` → `finalize`.
    total: Duration,
    /// Opening the session: BN training and Get-CTable.
    modeling: Duration,
    /// Each `step` that ran a crowd round.
    rounds: Vec<Duration>,
}

fn run_campaign(
    engine: &BayesCrowd,
    inst: &Instance,
    recorder: Option<&mut MetricsRecorder>,
) -> Result<Campaign, String> {
    let mut platform =
        SimulatedPlatform::new(inst.oracle.clone(), WORKER_ACCURACY, inst.crowd_seed);
    let start = Instant::now();
    let mut session = match recorder {
        Some(rec) => engine.session_observed(&inst.incomplete, &mut platform, rec),
        None => engine.session(&inst.incomplete, &mut platform),
    }
    .map_err(|e| format!("session failed: {e}"))?;
    let modeling = start.elapsed();
    let mut rounds = Vec::new();
    loop {
        let before = session.round();
        let t = Instant::now();
        let more = session.step().map_err(|e| format!("step failed: {e}"))?;
        if session.round() > before {
            rounds.push(t.elapsed());
        }
        if !more {
            break;
        }
    }
    let report = session
        .finalize()
        .map_err(|e| format!("finalize failed: {e}"))?;
    Ok(Campaign {
        report: std::hint::black_box(report),
        total: start.elapsed(),
        modeling,
        rounds,
    })
}

/// F1 of `result` against the true skyline, computed here rather than
/// trusted from the report.
fn f1(result: &[ObjectId], inst: &Instance) -> f64 {
    let tp = result.iter().filter(|o| inst.truth.contains(o)).count() as f64;
    let precision = if result.is_empty() {
        1.0
    } else {
        tp / result.len() as f64
    };
    let recall = if inst.truth.is_empty() {
        1.0
    } else {
        tp / inst.truth.len() as f64
    };
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

/// Checks one report against what any correct run must satisfy.
fn check(report: &RunReport, inst: &Instance, workload: &Workload) -> Result<(), String> {
    let n = inst.incomplete.n_objects() as u32;
    if !report.result.windows(2).all(|w| w[0] < w[1]) {
        return Err("answer set is not sorted and duplicate-free".into());
    }
    if report.result.last().is_some_and(|o| o.0 >= n) {
        return Err("answer set names an object outside the dataset".into());
    }
    for o in &report.certain {
        if report.result.binary_search(o).is_err() {
            return Err(format!("certain answer {o:?} missing from the answer set"));
        }
        if !inst.truth.contains(o) {
            return Err(format!("certain answer {o:?} is not in the true skyline"));
        }
    }
    for (o, p) in &report.open_probabilities {
        if !(0.0..=1.0).contains(p) {
            return Err(format!("probability {p} of {o:?} is outside [0, 1]"));
        }
    }
    let cfg = &workload.config;
    if report.crowd.tasks_posted > cfg.budget || report.crowd.rounds > cfg.latency {
        return Err(format!(
            "{} tasks in {} rounds exceed budget {} / latency {}",
            report.crowd.tasks_posted, report.crowd.rounds, cfg.budget, cfg.latency
        ));
    }
    let reported = report.accuracy.map(|a| a.f1);
    let own = f1(&report.result, inst);
    if reported.is_none_or(|r| (r - own).abs() > 1e-9) {
        return Err(format!(
            "reported F1 {reported:?} differs from recomputed {own}"
        ));
    }
    Ok(())
}

/// The deterministic part of a report: campaigns on the same input must
/// agree on it exactly.
type Fingerprint = (Vec<ObjectId>, usize, u64);

fn fingerprint(report: &RunReport) -> Fingerprint {
    (
        report.result.clone(),
        report.crowd.tasks_posted,
        report.probability_evals,
    )
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Named values of one campaign.
type Values = Vec<(&'static str, f64)>;

/// Unscaled per-layer times (ms) and work counts of one traced campaign,
/// read from the library's own event stream.
fn layer_sample(rec: &MetricsRecorder) -> (Values, Values) {
    let phase = |p: RunPhase| rec.phase_nanos(p) as f64 / 1e6;
    let select_solve = rec
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::ProbabilityBatch {
                phase: RunPhase::Select,
                nanos,
                ..
            } => Some(*nanos as f64 / 1e6),
            _ => None,
        })
        .sum::<f64>();
    let times = vec![
        ("model_ms", phase(RunPhase::Model)),
        ("ctable_ms", phase(RunPhase::CTable)),
        ("select_ms", phase(RunPhase::Select)),
        ("select_solve_ms", select_solve),
        (
            "select_rank_utility_ms",
            phase(RunPhase::Select) - select_solve,
        ),
        ("post_ms", phase(RunPhase::Post)),
        ("propagate_ms", phase(RunPhase::Propagate)),
        ("finalize_ms", phase(RunPhase::Finalize)),
        ("unattributed_ms", rec.unattributed_nanos() as f64 / 1e6),
    ];
    let k = rec.counters();
    let mut counts = vec![
        ("rounds", k.rounds as f64),
        ("tasks_posted", k.posted as f64),
        ("probability_evals", k.probability_evals as f64),
        ("solver_calls", k.solver_calls as f64),
        ("solver_decisions", k.solver_branches as f64),
        ("solver_cache_hits", k.solver_cache_hits as f64),
        ("solver_cache_misses", k.solver_cache_misses as f64),
        ("solver_component_splits", k.solver_component_splits as f64),
        ("conditions_decided", k.conditions_decided as f64),
    ];
    for e in rec.events() {
        if let Event::CTableBuilt {
            open_objects,
            candidates,
            ..
        } = e
        {
            counts.push(("open_objects", *open_objects as f64));
            counts.push(("dominator_candidates", *candidates as f64));
        }
    }
    (times, counts)
}

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let workload = &args.workload;

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut pool = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        pool = std::hint::black_box(workload.instances(args.seed)?);
        let took = t.elapsed().as_secs_f64();
        setup_s.push(took * speed::REFERENCE_MS / speed::calibrate());
    }

    let engine = BayesCrowd::new(workload.config.clone());
    let mut seen: Vec<Option<Fingerprint>> = vec![None; pool.len()];
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut campaign_ms = Vec::new();
    let mut unscaled_campaign_ms = Vec::new();
    let mut calibration_ms = Vec::new();
    let mut modeling_ms = Vec::new();
    let mut round_ms = Vec::new();
    let mut f1s = Vec::new();
    let mut layer_times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut layer_counts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut i = 0;
    while i < pool.len() || Instant::now() < deadline {
        let idx = i % pool.len();
        let first_pass = i < pool.len();
        i += 1;
        let inst = &pool[idx];
        attempted += 1;
        let mut rec = args.trace.then(MetricsRecorder::new);
        let outcome = run_campaign(&engine, inst, rec.as_mut()).and_then(|c| {
            check(&c.report, inst, workload)?;
            let fp = fingerprint(&c.report);
            match &seen[idx] {
                Some(prev) if *prev != fp => {
                    return Err("a repeated campaign on the same input gave another answer".into())
                }
                Some(_) => {}
                None => seen[idx] = Some(fp),
            }
            Ok(c)
        });
        let c = match outcome {
            Ok(c) => c,
            Err(e) => {
                failed += 1;
                if errors.len() < 5 {
                    errors.push(format!("input {idx}: {e}"));
                }
                continue;
            }
        };
        let cal = speed::calibrate();
        let scale = speed::REFERENCE_MS / cal;
        calibration_ms.push(cal);
        unscaled_campaign_ms.push(ms(c.total));
        campaign_ms.push(ms(c.total) * scale);
        modeling_ms.push(ms(c.modeling) * scale);
        round_ms.extend(c.rounds.iter().map(|d| ms(*d) * scale));
        if first_pass {
            f1s.push(f1(&c.report.result, inst));
        }
        if let Some(rec) = &rec {
            let (times, counts) = layer_sample(rec);
            for (name, v) in times {
                layer_times.entry(name).or_default().push(v * scale);
            }
            if first_pass {
                for (name, v) in counts {
                    layer_counts.entry(name).or_default().push(v);
                }
            }
        }
    }

    if round_ms.is_empty() {
        return Err("no campaign ran a crowd round: the workload does not reach the crowd".into());
    }
    let mut metrics: Vec<Metric> = Vec::new();
    if args.trace {
        // Campaign time with the recorder attached: its difference to
        // `campaign_ms` of an untraced run is the tracing overhead.
        metrics.push(("traced_campaign_ms", median(&mut campaign_ms), "ms"));
        // The tail depends on which few inputs are hardest, so it moves
        // too much from seed to seed to gate on; it is reported here only.
        campaign_ms.sort_by(f64::total_cmp);
        let p90 = campaign_ms[(campaign_ms.len() * 9).div_ceil(10) - 1];
        metrics.push(("traced_campaign_p90_ms", p90, "ms"));
        metrics.push((
            "unscaled_campaign_ms",
            median(&mut unscaled_campaign_ms),
            "ms",
        ));
        metrics.push(("calibration_ms", median(&mut calibration_ms), "ms"));
        for (name, mut v) in layer_times {
            metrics.push((name, median(&mut v), "ms"));
        }
        // Work counts repeat exactly for a seed, so they are averaged over
        // the first pass, where every input ran once.
        for (name, v) in layer_counts {
            metrics.push((name, mean(&v), "count"));
        }
    } else {
        metrics.push(("campaign_ms", median(&mut campaign_ms), "ms"));
        metrics.push(("modeling_ms", median(&mut modeling_ms), "ms"));
        metrics.push(("round_ms", median(&mut round_ms), "ms"));
        metrics.push(("f1", mean(&f1s), "ratio"));
        metrics.push(("setup_s", median(&mut setup_s), "s"));
    }
    Ok(Outcome {
        attempted,
        failed,
        errors,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("skybench: {e}");
            eprintln!("usage: skybench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("skybench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &out.errors {
        eprintln!("skybench: {e}");
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    for (k, (name, value, unit)) in out.metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}
