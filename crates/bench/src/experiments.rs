//! One function per figure/table of the paper's evaluation (Section 7).
//!
//! Every function returns the series the corresponding plot shows, as
//! [`Row`]s; the `figures` binary prints them and can dump JSON. Absolute
//! numbers will differ from the paper (different hardware, language, and —
//! for the datasets — a synthetic stand-in), but the *shapes* the paper
//! argues from are asserted in `tests/` and documented in `EXPERIMENTS.md`.

use crate::rows::Row;
use crate::workloads::{Scale, Workload};
use bayescrowd::{BayesCrowd, BayesCrowdConfig, RunReport, TaskStrategy};
use bc_bayes::{MissingValueModel, ModelConfig};
use bc_crowd::{GroundTruthOracle, SimulatedPlatform};
use bc_ctable::{build_ctable, CTableConfig, Condition, DominatorStrategy};
use bc_solver::{
    AdpllSolver, ApproxCountSolver, BranchHeuristic, MonteCarloSolver, NaiveSolver, Solver,
    VarDists,
};
use crowdsky::{CrowdSky, CrowdSkyConfig};
use std::time::Instant;

const MISSING_RATES: [f64; 4] = [0.05, 0.1, 0.15, 0.2];

/// Paper-default configuration for a named workload.
pub fn default_config(workload: &str, scale: &Scale) -> BayesCrowdConfig {
    let mut cfg = if workload.starts_with("NBA") {
        BayesCrowdConfig {
            budget: scale.nba_budget,
            alpha: scale.nba_alpha,
            ..BayesCrowdConfig::nba_defaults()
        }
    } else {
        BayesCrowdConfig {
            budget: scale.syn_budget,
            latency: 10,
            alpha: scale.syn_alpha,
            strategy: TaskStrategy::Hhs { m: 50 },
            ..BayesCrowdConfig::default()
        }
    };
    cfg.parallel = true;
    cfg
}

/// The three strategy variants the paper compares, with its per-dataset `m`.
pub fn strategies(workload: &str) -> Vec<(&'static str, TaskStrategy)> {
    let m = if workload.starts_with("NBA") { 15 } else { 50 };
    vec![
        ("FBS", TaskStrategy::Fbs),
        ("UBS", TaskStrategy::Ubs),
        ("HHS", TaskStrategy::Hhs { m }),
    ]
}

/// Runs BayesCrowd on a workload with a fresh platform.
pub fn run_bayescrowd(
    w: &Workload,
    config: &BayesCrowdConfig,
    worker_accuracy: f64,
    seed: u64,
) -> RunReport {
    let oracle = GroundTruthOracle::new(w.complete.clone());
    let mut platform = SimulatedPlatform::new(oracle, worker_accuracy, seed);
    BayesCrowd::new(config.clone()).run(&w.incomplete, &mut platform)
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn report_metrics(r: &RunReport) -> Vec<(&'static str, f64)> {
    vec![
        ("time_ms", ms(r.total_time)),
        ("f1", r.accuracy.map(|a| a.f1).unwrap_or(f64::NAN)),
        ("tasks", r.crowd.tasks_posted as f64),
        ("rounds", r.crowd.rounds as f64),
    ]
}

/// Figure 2: c-table construction time, Get-CTable vs Baseline, vs missing
/// rate, on both datasets.
pub fn fig2(scale: &Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, n, alpha) in [
        ("NBA", scale.nba_n, scale.nba_alpha),
        ("Synthetic", scale.syn_n, scale.syn_alpha),
    ] {
        for rate in MISSING_RATES {
            let w = if name == "NBA" {
                Workload::nba(n, rate, 42)
            } else {
                Workload::synthetic(n, rate, 42)
            };
            for (algo, strategy) in [
                ("Get-CTable", DominatorStrategy::FastIndex),
                ("Baseline", DominatorStrategy::Baseline),
            ] {
                let cfg = CTableConfig { alpha, strategy };
                let t = Instant::now();
                let ct = build_ctable(&w.incomplete, &cfg);
                let elapsed = ms(t.elapsed());
                rows.push(Row::new(
                    "fig2",
                    format!("{name}/{algo}"),
                    "missing_rate",
                    rate,
                    &[
                        ("time_ms", elapsed),
                        ("open_objects", ct.open_objects().len() as f64),
                    ],
                ));
                eprintln!("fig2 {name}/{algo} rate={rate}: {elapsed:.1} ms");
            }
        }
    }
    rows
}

/// Figure 3: total probability-computation time over the initial c-table's
/// open conditions, ADPLL vs Naive (plus the Monte-Carlo stand-in for
/// ApproxCount), vs missing rate. Two ADPLL ablations ride along:
/// first-variable instead of most-frequent-variable branching, and no
/// component cache; first-variable branching runs at the lowest missing
/// rate only.
pub fn fig3(scale: &Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, n, alpha) in [
        ("NBA", scale.nba_n, scale.nba_alpha),
        ("Synthetic", scale.syn_n, scale.syn_alpha),
    ] {
        for rate in MISSING_RATES {
            let (open, dists) = fig3_conditions(name, n, alpha, rate);
            for (sname, solver) in fig3_solvers(rate) {
                let t = Instant::now();
                let mut skipped = 0usize;
                for cond in &open {
                    if solver.probability(cond, &dists).is_err() {
                        skipped += 1;
                    }
                }
                let elapsed = ms(t.elapsed());
                rows.push(Row::new(
                    "fig3",
                    format!("{name}/{sname}"),
                    "missing_rate",
                    rate,
                    &[
                        ("time_ms", elapsed),
                        ("conditions", open.len() as f64),
                        ("skipped", skipped as f64),
                    ],
                ));
                eprintln!(
                    "fig3 {name}/{sname} rate={rate}: {elapsed:.1} ms ({} conds, {skipped} skipped)",
                    open.len()
                );
            }
        }
    }
    rows
}

/// Figure 3's input at one missing rate: the open conditions of the
/// initial c-table and the learned pmfs.
fn fig3_conditions(dataset: &str, n: usize, alpha: f64, rate: f64) -> (Vec<Condition>, VarDists) {
    let w = if dataset == "NBA" {
        Workload::nba(n, rate, 43)
    } else {
        Workload::synthetic(n, rate, 43)
    };
    let ct = build_ctable(
        &w.incomplete,
        &CTableConfig {
            alpha,
            strategy: DominatorStrategy::FastIndex,
        },
    );
    let model = MissingValueModel::learn(&w.incomplete, &ModelConfig::default());
    let dists: VarDists = model.pmfs().iter().map(|(k, v)| (*k, v.clone())).collect();
    let open = ct
        .open_objects()
        .into_iter()
        .map(|o| ct.condition(o).clone())
        .collect();
    (open, dists)
}

/// Figure 3's solvers at missing rate `rate`, by series name: ADPLL, its
/// two ablations, the capped naive enumeration and the two approximate
/// counters. First-variable branching runs at the lowest rate only: past
/// it a cell's cost explodes, and ADPLL has no decision cap to stop it. At
/// the default scale (release build, 2-vCPU VM) NBA took 3.6 s at rate
/// 0.15 against ADPLL's 12 ms, and did not finish rate 0.2 in 6 minutes.
fn fig3_solvers(rate: f64) -> Vec<(&'static str, Box<dyn Solver>)> {
    let mut solvers: Vec<(&'static str, Box<dyn Solver>)> = vec![
        ("ADPLL", Box::new(AdpllSolver::new())),
        (
            "ADPLL-first",
            Box::new(AdpllSolver::with_heuristic(BranchHeuristic::First)),
        ),
        (
            "ADPLL-nocache",
            Box::new(AdpllSolver::new().with_caching(false)),
        ),
        ("Naive", Box::new(NaiveSolver::with_limit(20_000_000))),
        ("ApproxCount", Box::new(ApproxCountSolver::new(1_000, 7))),
        ("MonteCarlo", Box::new(MonteCarloSolver::new(2_000, 7))),
    ];
    if rate != MISSING_RATES[0] {
        solvers.retain(|(name, _)| *name != "ADPLL-first");
    }
    solvers
}

/// Figure 4: comparison with CrowdSky on the masked-NBA workload across
/// cardinalities — (a) execution time, (b) #tasks, (c) #rounds.
pub fn fig4(scale: &Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    let full = Workload::nba_masked(*scale.fig4_cards.last().unwrap_or(&1_000), 44);
    for &n in &scale.fig4_cards {
        let w = full.truncated(n);

        // CrowdSky, 20 tasks per round.
        let oracle = GroundTruthOracle::new(w.complete.clone());
        let mut platform = SimulatedPlatform::new(oracle, 1.0, 45);
        let cs = CrowdSky::new(CrowdSkyConfig { round_size: 20 }).run(&w.incomplete, &mut platform);
        rows.push(Row::new(
            "fig4",
            "CrowdSky",
            "cardinality",
            n as f64,
            &[
                ("time_ms", ms(cs.total_time)),
                ("tasks", cs.crowd.tasks_posted as f64),
                ("rounds", cs.crowd.rounds as f64),
                ("f1", cs.accuracy.map(|a| a.f1).unwrap_or(f64::NAN)),
            ],
        ));
        eprintln!(
            "fig4 CrowdSky n={n}: {:.1} ms, {} tasks, {} rounds",
            ms(cs.total_time),
            cs.crowd.tasks_posted,
            cs.crowd.rounds
        );

        // BayesCrowd without budget constraint, 20 tasks per round.
        for (sname, strategy) in strategies("NBA") {
            let budget = 1_000_000;
            let config = BayesCrowdConfig {
                budget,
                latency: budget / 20,
                strategy,
                alpha: scale.nba_alpha,
                parallel: true,
                ..BayesCrowdConfig::nba_defaults()
            };
            let r = run_bayescrowd(&w, &config, 1.0, 46);
            rows.push(Row::new(
                "fig4",
                format!("BayesCrowd-{sname}"),
                "cardinality",
                n as f64,
                &[
                    ("time_ms", ms(r.total_time)),
                    ("tasks", r.crowd.tasks_posted as f64),
                    ("rounds", r.crowd.rounds as f64),
                    ("f1", r.accuracy.map(|a| a.f1).unwrap_or(f64::NAN)),
                ],
            ));
            eprintln!(
                "fig4 BayesCrowd-{sname} n={n}: {:.1} ms, {} tasks, {} rounds",
                ms(r.total_time),
                r.crowd.tasks_posted,
                r.crowd.rounds
            );
        }
    }
    rows
}

/// Shared sweep driver for Figures 5–11: runs the three strategies on a
/// workload while one configuration knob varies.
fn sweep(
    experiment: &str,
    w: &Workload,
    scale: &Scale,
    x_name: &str,
    xs: &[f64],
    worker_accuracy: f64,
    mut tweak: impl FnMut(&mut BayesCrowdConfig, f64),
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &x in xs {
        for (sname, strategy) in strategies(&w.name) {
            let mut config = default_config(&w.name, scale);
            config.strategy = strategy;
            tweak(&mut config, x);
            let r = run_bayescrowd(w, &config, worker_accuracy, 47);
            rows.push(Row::new(
                experiment,
                format!("{}/BayesCrowd-{sname}", w.name),
                x_name,
                x,
                &report_metrics(&r),
            ));
            eprintln!(
                "{experiment} {}/{sname} {x_name}={x}: {}",
                w.name,
                r.summary()
            );
        }
    }
    rows
}

/// Figure 5: effect of the budget `B` (time and F1).
pub fn fig5(scale: &Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    let nba = Workload::nba(scale.nba_n, 0.1, 48);
    let budgets: Vec<f64> = [0.25, 0.5, 1.0, 2.0, 4.0]
        .iter()
        .map(|f| (f * scale.nba_budget as f64).round())
        .collect();
    rows.extend(sweep(
        "fig5",
        &nba,
        scale,
        "budget",
        &budgets,
        1.0,
        |c, x| {
            c.budget = x as usize;
        },
    ));
    let syn = Workload::synthetic(scale.syn_n, 0.1, 48);
    let budgets: Vec<f64> = [0.25, 0.5, 1.0, 2.0]
        .iter()
        .map(|f| (f * scale.syn_budget as f64).round())
        .collect();
    rows.extend(sweep(
        "fig5",
        &syn,
        scale,
        "budget",
        &budgets,
        1.0,
        |c, x| {
            c.budget = x as usize;
        },
    ));
    rows
}

/// Figure 6: effect of the missing rate (time and F1).
pub fn fig6(scale: &Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for rate in MISSING_RATES {
        let nba = Workload::nba(scale.nba_n, rate, 49);
        rows.extend(sweep(
            "fig6",
            &nba,
            scale,
            "missing_rate",
            &[rate],
            1.0,
            |_, _| {},
        ));
        let syn = Workload::synthetic(scale.syn_n, rate, 49);
        rows.extend(sweep(
            "fig6",
            &syn,
            scale,
            "missing_rate",
            &[rate],
            1.0,
            |_, _| {},
        ));
    }
    rows
}

/// Figure 7: effect of HHS's lookahead parameter `m` (FBS and UBS shown as
/// flat references).
pub fn fig7(scale: &Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, w) in [
        ("NBA", Workload::nba(scale.nba_n, 0.1, 50)),
        ("Synthetic", Workload::synthetic(scale.syn_n, 0.1, 50)),
    ] {
        for m in [1usize, 5, 15, 30, 60] {
            let mut config = default_config(name, scale);
            config.strategy = TaskStrategy::Hhs { m };
            let r = run_bayescrowd(&w, &config, 1.0, 51);
            rows.push(Row::new(
                "fig7",
                format!("{name}/BayesCrowd-HHS"),
                "m",
                m as f64,
                &report_metrics(&r),
            ));
            eprintln!("fig7 {name}/HHS m={m}: {}", r.summary());
        }
        for (sname, strategy) in [("FBS", TaskStrategy::Fbs), ("UBS", TaskStrategy::Ubs)] {
            let mut config = default_config(name, scale);
            config.strategy = strategy;
            let r = run_bayescrowd(&w, &config, 1.0, 51);
            rows.push(Row::new(
                "fig7",
                format!("{name}/BayesCrowd-{sname}"),
                "m",
                0.0,
                &report_metrics(&r),
            ));
            eprintln!("fig7 {name}/{sname}: {}", r.summary());
        }
    }
    rows
}

/// Figure 8: effect of the pruning threshold `α` (time and F1).
pub fn fig8(scale: &Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    let nba = Workload::nba(scale.nba_n, 0.1, 52);
    rows.extend(sweep(
        "fig8",
        &nba,
        scale,
        "alpha",
        &[0.001, 0.003, 0.005, 0.01],
        1.0,
        |c, x| c.alpha = x,
    ));
    let syn = Workload::synthetic(scale.syn_n, 0.1, 52);
    rows.extend(sweep(
        "fig8",
        &syn,
        scale,
        "alpha",
        &[0.001, 0.003, 0.005, 0.01],
        1.0,
        |c, x| c.alpha = x,
    ));
    rows
}

/// Figure 9: effect of worker accuracy (time and F1).
pub fn fig9(scale: &Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for acc in [0.7, 0.8, 0.9, 1.0] {
        let nba = Workload::nba(scale.nba_n, 0.1, 53);
        rows.extend(sweep(
            "fig9",
            &nba,
            scale,
            "worker_accuracy",
            &[acc],
            acc,
            |_, _| {},
        ));
        let syn = Workload::synthetic(scale.syn_n, 0.1, 53);
        rows.extend(sweep(
            "fig9",
            &syn,
            scale,
            "worker_accuracy",
            &[acc],
            acc,
            |_, _| {},
        ));
    }
    rows
}

/// Figure 10: effect of the latency constraint `L` (Synthetic only, as in
/// the paper).
pub fn fig10(scale: &Scale) -> Vec<Row> {
    let syn = Workload::synthetic(scale.syn_n, 0.1, 54);
    sweep(
        "fig10",
        &syn,
        scale,
        "latency",
        &[2.0, 5.0, 10.0, 20.0],
        1.0,
        |c, x| c.latency = x as usize,
    )
}

/// Figure 11: effect of the dataset cardinality (Synthetic).
pub fn fig11(scale: &Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    let max_n = *scale.fig11_cards.last().unwrap_or(&1_000);
    let full = Workload::synthetic(max_n, 0.1, 55);
    for &n in &scale.fig11_cards {
        let w = full.truncated(n);
        rows.extend(sweep(
            "fig11",
            &w,
            scale,
            "cardinality",
            &[n as f64],
            1.0,
            |_, _| {},
        ));
    }
    rows
}

/// Table 6: the live-AMT practicality study, simulated with high-accuracy
/// (0.95) workers on the NBA defaults.
pub fn table6(scale: &Scale) -> Vec<Row> {
    let w = Workload::nba(scale.nba_n, 0.1, 56);
    let mut rows = Vec::new();
    for (sname, strategy) in strategies("NBA") {
        let mut config = default_config("NBA", scale);
        config.strategy = strategy;
        // Average over a few simulated AMT sessions.
        let mut f1 = 0.0;
        let runs = 3;
        for seed in 0..runs {
            let r = run_bayescrowd(&w, &config, 0.95, 57 + seed);
            f1 += r.accuracy.map(|a| a.f1).unwrap_or(0.0);
        }
        f1 /= runs as f64;
        rows.push(Row::new(
            "table6",
            format!("BayesCrowd-{sname}"),
            "worker_accuracy",
            0.95,
            &[("f1", f1)],
        ));
        eprintln!("table6 {sname}: f1={f1:.3}");
    }
    rows
}

/// Extension experiment A (beyond the paper): quality of the learned
/// missing-value distributions — Bayesian network on listwise-complete
/// rows, EM over all rows, and the uniform prior — measured directly as
/// the mean log-likelihood (bits) of the *hidden true value* under each
/// model's pmf. Higher is better; uniform scores exactly −log₂(card).
pub fn ext_model(scale: &Scale) -> Vec<Row> {
    use bc_bayes::em::EmConfig;
    use bc_bayes::{MissingValueModel, ModelConfig};
    let mut rows = Vec::new();
    for rate in [0.1, 0.2, 0.3] {
        let n = scale.nba_n;
        let w = Workload::nba(n, rate, 60);
        let variants: Vec<(&str, ModelConfig)> = vec![
            ("listwise", ModelConfig::default()),
            (
                "em",
                ModelConfig {
                    em: Some(EmConfig::default()),
                    ..Default::default()
                },
            ),
            (
                "uniform",
                ModelConfig {
                    uniform_prior: true,
                    ..Default::default()
                },
            ),
        ];
        for (name, model_cfg) in variants {
            let t = Instant::now();
            let model = MissingValueModel::learn(&w.incomplete, &model_cfg);
            let mut ll = 0.0;
            let mut count = 0usize;
            for (var, pmf) in model.pmfs() {
                let truth = w
                    .complete
                    .get(var.object, var.attr)
                    .expect("oracle data is complete");
                ll += pmf.p(truth).max(1e-12).log2();
                count += 1;
            }
            ll /= count.max(1) as f64;
            rows.push(Row::new(
                "ext_model",
                format!("NBA/{name}"),
                "missing_rate",
                rate,
                &[("mean_log2_likelihood", ll), ("time_ms", ms(t.elapsed()))],
            ));
            eprintln!("ext_model {name} rate={rate}: mean log2-lik {ll:.3}");
        }
    }
    rows
}

/// Extension experiment B: entropy-guided object selection vs random —
/// the value of the paper's step (i).
pub fn ext_ranking(scale: &Scale) -> Vec<Row> {
    use bayescrowd::ObjectRanking;
    let mut rows = Vec::new();
    let w = Workload::synthetic(scale.syn_n, 0.1, 61);
    for (name, ranking) in [
        ("entropy", ObjectRanking::Entropy),
        ("random", ObjectRanking::Random { seed: 9 }),
    ] {
        let mut f1 = 0.0;
        let runs = 3;
        for seed in 0..runs {
            let config = BayesCrowdConfig {
                ranking,
                ..default_config("Synthetic", scale)
            };
            let r = run_bayescrowd(&w, &config, 1.0, 62 + seed);
            f1 += r.accuracy.map(|a| a.f1).unwrap_or(0.0);
        }
        f1 /= runs as f64;
        rows.push(Row::new(
            "ext_ranking",
            format!("Synthetic/{name}"),
            "budget",
            scale.syn_budget as f64,
            &[("f1", f1)],
        ));
        eprintln!("ext_ranking {name}: f1={f1:.3}");
    }
    rows
}

/// Extension experiment C: the three crowd approaches head to head on the
/// same MCAR workload — BayesCrowd (comparison tasks, inference),
/// CrowdImpute (one unary task per missing cell, no inference), and, where
/// its observed/crowd split applies, CrowdSky — across worker accuracies.
pub fn ext_baselines(scale: &Scale) -> Vec<Row> {
    use crowdimpute::{CrowdImpute, CrowdImputeConfig};
    let mut rows = Vec::new();
    let n = scale.nba_n;
    let w = Workload::nba(n, 0.1, 63);
    for acc in [0.7, 0.85, 1.0] {
        // CrowdImpute: every missing cell is a unary task.
        let ci = CrowdImpute::new(CrowdImputeConfig {
            worker_accuracy: acc,
            seed: 64,
            ..Default::default()
        })
        .run(&w.incomplete, &GroundTruthOracle::new(w.complete.clone()));
        rows.push(Row::new(
            "ext_baselines",
            "CrowdImpute",
            "worker_accuracy",
            acc,
            &[
                ("f1", ci.accuracy.map(|a| a.f1).unwrap_or(f64::NAN)),
                ("tasks", ci.tasks_posted as f64),
                ("rounds", ci.rounds as f64),
                ("time_ms", ms(ci.total_time)),
            ],
        ));
        eprintln!(
            "ext_baselines CrowdImpute acc={acc}: f1={:.3} tasks={}",
            ci.accuracy.map(|a| a.f1).unwrap_or(f64::NAN),
            ci.tasks_posted
        );

        // CrowdImpute at BayesCrowd's budget: only `nba_budget` unary
        // questions, machine-mode imputation for the rest — the
        // equal-spend comparison.
        let ci_b = CrowdImpute::new(CrowdImputeConfig {
            budget: Some(scale.nba_budget),
            worker_accuracy: acc,
            seed: 64,
            ..Default::default()
        })
        .run(&w.incomplete, &GroundTruthOracle::new(w.complete.clone()));
        rows.push(Row::new(
            "ext_baselines",
            "CrowdImpute-matched-budget",
            "worker_accuracy",
            acc,
            &[
                ("f1", ci_b.accuracy.map(|a| a.f1).unwrap_or(f64::NAN)),
                ("tasks", ci_b.tasks_posted as f64),
                ("rounds", ci_b.rounds as f64),
                ("time_ms", ms(ci_b.total_time)),
            ],
        ));
        eprintln!(
            "ext_baselines CrowdImpute-matched acc={acc}: f1={:.3} tasks={}",
            ci_b.accuracy.map(|a| a.f1).unwrap_or(f64::NAN),
            ci_b.tasks_posted
        );

        // BayesCrowd at the same *task count* as its own default budget —
        // a fraction of CrowdImpute's.
        let config = default_config("NBA", scale);
        let r = run_bayescrowd(&w, &config, acc, 65);
        rows.push(Row::new(
            "ext_baselines",
            "BayesCrowd-HHS",
            "worker_accuracy",
            acc,
            &report_metrics(&r),
        ));
        eprintln!(
            "ext_baselines BayesCrowd acc={acc}: f1={:.3} tasks={}",
            r.accuracy.map(|a| a.f1).unwrap_or(f64::NAN),
            r.crowd.tasks_posted
        );
    }
    rows
}

/// Extension experiment D: robustness under platform faults. Sweeps the
/// task-expiry probability on a faulty platform (with mild attrition) and
/// compares the default retry policy against fire-and-forget posting —
/// the F1 each salvages and the degradation counters the run reports.
pub fn ext_faults(scale: &Scale) -> Vec<Row> {
    use bayescrowd::RetryPolicy;
    use bc_crowd::{FaultConfig, FaultyPlatform};
    let mut rows = Vec::new();
    let w = Workload::nba(scale.nba_n, 0.1, 66);
    for expiry in [0.0, 0.15, 0.3, 0.45] {
        for (name, retry) in [
            ("retry", RetryPolicy::default()),
            ("no-retry", RetryPolicy::none()),
        ] {
            let config = BayesCrowdConfig {
                retry,
                ..default_config("NBA", scale)
            };
            let faults = FaultConfig {
                expiry_prob: expiry,
                attrition: 0.02,
                ..FaultConfig::default()
            };
            let oracle = GroundTruthOracle::new(w.complete.clone());
            let mut platform =
                FaultyPlatform::new(SimulatedPlatform::new(oracle, 1.0, 67), faults, 68);
            let r = BayesCrowd::new(config).run(&w.incomplete, &mut platform);
            let mut metrics = report_metrics(&r);
            metrics.push(("tasks_expired", r.tasks_expired as f64));
            metrics.push(("tasks_retried", r.tasks_retried as f64));
            metrics.push(("degraded", r.degraded as u8 as f64));
            rows.push(Row::new(
                "ext_faults",
                format!("NBA/{name}"),
                "expiry_prob",
                expiry,
                &metrics,
            ));
            eprintln!("ext_faults {name} expiry={expiry}: {}", r.summary());
        }
    }
    rows
}

/// Extension experiment E: where a run's wall-clock goes — per-phase
/// timings from the observability layer, vs missing rate, per workload,
/// and the run time no phase span covers (`unattributed_ms`).
///
/// Each row's `peak_rss_mb` is [`bc_obs::peak_rss_bytes`] read after its
/// run: the process's high-water mark (`VmHWM`) so far, not the run's own.
/// It covers every earlier run of the process too, so only the first row,
/// or a process that runs one row, measures a single run. `NaN` off Linux.
pub fn ext_phases(scale: &Scale) -> Vec<Row> {
    use bayescrowd::prelude::{MetricsRecorder, RunPhase};
    let mut rows = Vec::new();
    for rate in [0.1, 0.2] {
        for (name, w) in [
            ("NBA", Workload::nba(scale.nba_n, rate, 60)),
            ("Synthetic", Workload::synthetic(scale.syn_n, rate, 60)),
        ] {
            let config = default_config(name, scale);
            let oracle = GroundTruthOracle::new(w.complete.clone());
            let mut platform = SimulatedPlatform::new(oracle, 1.0, 17);
            let mut metrics = MetricsRecorder::new();
            let report = BayesCrowd::new(config)
                .try_run(&w.incomplete, &mut platform, &mut metrics)
                .expect("the paper-default run succeeds");
            let mut cells: Vec<(&str, f64)> = RunPhase::ALL
                .iter()
                .map(|p| (p.name(), metrics.phase_nanos(*p) as f64 / 1e6))
                .collect();
            let unattributed = metrics.unattributed_nanos() as f64 / 1e6;
            cells.push(("total_ms", ms(report.total_time)));
            cells.push(("unattributed_ms", unattributed));
            cells.push(("evals", report.probability_evals as f64));
            let peak_rss = bc_obs::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / 1e6);
            cells.push(("peak_rss_mb", peak_rss));
            rows.push(Row::new(
                "ext_phases",
                format!("{name}/phase_ms"),
                "missing_rate",
                rate,
                &cells,
            ));
            let split: Vec<String> = RunPhase::ALL
                .iter()
                .map(|p| format!("{}={:.1}ms", p.name(), metrics.phase_nanos(*p) as f64 / 1e6))
                .collect();
            eprintln!(
                "ext_phases {name} rate={rate}: {} unattributed={unattributed:.1}ms peak_rss={peak_rss:.1}MB",
                split.join(" ")
            );
        }
    }
    rows
}

/// Extension experiment F: the framework's design choices, ablated one at
/// a time on the NBA defaults — Bayesian-network conditionals vs uniform
/// priors, conflict-free batching, crowd-answer propagation, and
/// entropy-guided object ranking vs random.
pub fn ext_ablation(scale: &Scale) -> Vec<Row> {
    use bayescrowd::ObjectRanking;
    let w = Workload::nba(scale.nba_n, 0.1, 69);
    let base = default_config("NBA", scale);
    let variants = [
        ("default", base.clone()),
        (
            "uniform_prior",
            BayesCrowdConfig {
                model: ModelConfig {
                    uniform_prior: true,
                    ..ModelConfig::default()
                },
                ..base.clone()
            },
        ),
        (
            "no_conflict_avoidance",
            BayesCrowdConfig {
                conflict_free: false,
                ..base.clone()
            },
        ),
        (
            "no_propagation",
            BayesCrowdConfig {
                propagate_answers: false,
                ..base.clone()
            },
        ),
        (
            "random_ranking",
            BayesCrowdConfig {
                ranking: ObjectRanking::Random { seed: 1 },
                ..base
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, config) in variants {
        let r = run_bayescrowd(&w, &config, 1.0, 70);
        rows.push(Row::new(
            "ext_ablation",
            format!("NBA/{name}"),
            "budget",
            scale.nba_budget as f64,
            &report_metrics(&r),
        ));
        eprintln!("ext_ablation {name}: {}", r.summary());
    }
    rows
}

/// Runs the paper-default NBA workload once with a JSON-lines trace sink
/// attached, writing every event to `path`. Returns the event count.
pub fn write_trace(scale: &Scale, path: &str) -> std::io::Result<u64> {
    use bayescrowd::prelude::JsonLinesSink;
    let w = Workload::nba(scale.nba_n, 0.1, 60);
    let config = default_config("NBA", scale);
    let oracle = GroundTruthOracle::new(w.complete.clone());
    let mut platform = SimulatedPlatform::new(oracle, 1.0, 42);
    let mut sink = JsonLinesSink::create(path)?;
    if let Err(e) = BayesCrowd::new(config).try_run(&w.incomplete, &mut platform, &mut sink) {
        eprintln!("traced run failed: {e}");
    }
    let n = sink.events_written();
    if let Some(e) = sink.io_error() {
        eprintln!("trace writer hit an I/O error: {e}");
    }
    Ok(n)
}

/// Runs every experiment.
pub fn all(scale: &Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    rows.extend(fig2(scale));
    rows.extend(fig3(scale));
    rows.extend(fig4(scale));
    rows.extend(fig5(scale));
    rows.extend(fig6(scale));
    rows.extend(fig7(scale));
    rows.extend(fig8(scale));
    rows.extend(fig9(scale));
    rows.extend(fig10(scale));
    rows.extend(fig11(scale));
    rows.extend(table6(scale));
    rows.extend(ext_model(scale));
    rows.extend(ext_ranking(scale));
    rows.extend(ext_baselines(scale));
    rows.extend(ext_faults(scale));
    rows.extend(ext_phases(scale));
    rows.extend(ext_ablation(scale));
    rows
}

/// The experiment a `figures` command-line name stands for, `all`
/// included; `None` for an unknown name.
pub fn by_name(name: &str) -> Option<fn(&Scale) -> Vec<Row>> {
    Some(match name {
        "all" => all,
        "fig2" => fig2,
        "fig3" => fig3,
        "fig4" => fig4,
        "fig5" => fig5,
        "fig6" => fig6,
        "fig7" => fig7,
        "fig8" => fig8,
        "fig9" => fig9,
        "fig10" => fig10,
        "fig11" => fig11,
        "table6" => table6,
        "ext_model" => ext_model,
        "ext_ranking" => ext_ranking,
        "ext_baselines" => ext_baselines,
        "ext_faults" => ext_faults,
        "ext_phases" => ext_phases,
        "ext_ablation" => ext_ablation,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            nba_n: 150,
            syn_n: 200,
            fig4_cards: vec![60, 120],
            fig11_cards: vec![100, 200],
            nba_budget: 20,
            syn_budget: 30,
            nba_alpha: 0.15,
            syn_alpha: 0.15,
        }
    }

    #[test]
    fn fig2_produces_both_series_for_both_datasets() {
        let rows = fig2(&tiny_scale());
        assert_eq!(rows.len(), 2 * 4 * 2);
        assert!(rows.iter().any(|r| r.series == "NBA/Get-CTable"));
        assert!(rows.iter().any(|r| r.series == "Synthetic/Baseline"));
        for r in &rows {
            assert!(r.metrics["time_ms"] >= 0.0);
        }
    }

    /// The full sweep runs the capped naive solver, minutes in a debug
    /// build; the ablations' exactness is checked on its first cells.
    #[test]
    fn fig3_adpll_ablations_match_adpll() {
        let scale = tiny_scale();
        let names =
            |rate| -> Vec<&str> { fig3_solvers(rate).iter().map(|(name, _)| *name).collect() };
        let all = [
            "ADPLL",
            "ADPLL-first",
            "ADPLL-nocache",
            "Naive",
            "ApproxCount",
            "MonteCarlo",
        ];
        assert_eq!(names(MISSING_RATES[0]), all);
        for &rate in &MISSING_RATES[1..] {
            assert_eq!(names(rate), [&all[..1], &all[2..]].concat());
        }
        let solvers = fig3_solvers(MISSING_RATES[0]);
        for (dataset, n, alpha) in [
            ("NBA", scale.nba_n, scale.nba_alpha),
            ("Synthetic", scale.syn_n, scale.syn_alpha),
        ] {
            let (open, dists) = fig3_conditions(dataset, n, alpha, MISSING_RATES[0]);
            assert!(!open.is_empty(), "{dataset}");
            for cond in &open {
                let want = solvers[0].1.probability(cond, &dists).unwrap();
                for (name, solver) in &solvers[1..3] {
                    let got = solver.probability(cond, &dists).unwrap();
                    assert!(
                        (got - want).abs() <= 1e-12,
                        "{dataset}/{name}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn ext_ablation_runs_every_framework_variant() {
        let scale = tiny_scale();
        let rows = ext_ablation(&scale);
        let series: Vec<&str> = rows.iter().map(|r| r.series.as_str()).collect();
        assert_eq!(
            series,
            [
                "NBA/default",
                "NBA/uniform_prior",
                "NBA/no_conflict_avoidance",
                "NBA/no_propagation",
                "NBA/random_ranking",
            ]
        );
        for r in &rows {
            for metric in ["time_ms", "tasks", "rounds", "f1"] {
                assert!(r.metrics.contains_key(metric), "{}: {metric}", r.series);
            }
            assert!(
                r.metrics["tasks"] <= scale.nba_budget as f64,
                "{}",
                r.series
            );
        }
    }

    #[test]
    fn ext_phases_rows_carry_peak_rss_and_unattributed_time() {
        let rows = ext_phases(&tiny_scale());
        assert_eq!(rows.len(), 4);
        for r in &rows {
            let total = r.metrics["total_ms"];
            assert!(total > 0.0);
            let unattributed = r.metrics["unattributed_ms"];
            assert!(
                (0.0..=total).contains(&unattributed),
                "{}: unattributed {unattributed} of {total} ms",
                r.series
            );
            let rss = r.metrics["peak_rss_mb"];
            if cfg!(target_os = "linux") {
                assert!(rss > 0.0, "{}: peak RSS {rss}", r.series);
            } else {
                assert!(rss.is_nan());
            }
        }
    }

    #[test]
    fn fig4_covers_all_engines() {
        let rows = fig4(&tiny_scale());
        let series: std::collections::BTreeSet<&str> =
            rows.iter().map(|r| r.series.as_str()).collect();
        assert!(series.contains("CrowdSky"));
        assert!(series.contains("BayesCrowd-FBS"));
        assert!(series.contains("BayesCrowd-UBS"));
        assert!(series.contains("BayesCrowd-HHS"));
        // CrowdSky asks more tasks than every BayesCrowd variant at every
        // cardinality — the paper's headline claim.
        for &n in &tiny_scale().fig4_cards {
            let cs = rows
                .iter()
                .find(|r| r.series == "CrowdSky" && r.x == n as f64)
                .unwrap();
            for s in ["BayesCrowd-FBS", "BayesCrowd-UBS", "BayesCrowd-HHS"] {
                let bc = rows
                    .iter()
                    .find(|r| r.series == s && r.x == n as f64)
                    .unwrap();
                assert!(
                    cs.metrics["tasks"] > bc.metrics["tasks"],
                    "{s} at n={n}: CrowdSky {} vs {}",
                    cs.metrics["tasks"],
                    bc.metrics["tasks"]
                );
            }
        }
    }

    #[test]
    fn table6_reports_high_f1_for_all_strategies() {
        let rows = table6(&tiny_scale());
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                r.metrics["f1"] > 0.8,
                "{}: f1 = {}",
                r.series,
                r.metrics["f1"]
            );
        }
    }
}
