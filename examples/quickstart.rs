//! Quickstart: the paper's running example, end to end.
//!
//! Reproduces Tables 1, 3, 4 and the Example 4 crowdsourcing run on the
//! five-movie sample dataset, printing every intermediate artifact.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use bayescrowd::prelude::*;
use bc_crowd::{GroundTruthOracle, SimulatedPlatform};
use bc_ctable::dominators::DominatorIndex;
use bc_ctable::{build_ctable, CTableConfig, DominatorStrategy};
use bc_data::generators::sample::{paper_completion, paper_dataset};

fn main() {
    // ---- Table 1: the sample dataset -----------------------------------
    let data = paper_dataset();
    println!(
        "Table 1 — the sample dataset ({} movies, {} audiences):",
        data.n_objects(),
        data.n_attrs()
    );
    let names = [
        "Schindler's List",
        "Se7en",
        "The Godfather",
        "The Lion King",
        "Star Wars",
    ];
    for o in data.objects() {
        let cells: Vec<String> = data
            .row(o)
            .iter()
            .map(|c| match c {
                Some(v) => v.to_string(),
                None => "?".into(),
            })
            .collect();
        println!("  {o}  {:<18} {}", names[o.index()], cells.join(" "));
    }

    // ---- Table 4: dominator sets ----------------------------------------
    println!("\nTable 4 — dominator sets:");
    let index = DominatorIndex::build(&data);
    for o in data.objects() {
        let dom: Vec<String> = index
            .dominator_set(&data, o)
            .iter()
            .map(|i| format!("o{i}"))
            .collect();
        println!("  D({o}) = {{{}}}", dom.join(", "));
    }

    // ---- Table 3: the c-table -------------------------------------------
    println!("\nTable 3 — the c-table:");
    let ctable = build_ctable(
        &data,
        &CTableConfig {
            alpha: 1.0,
            strategy: DominatorStrategy::FastIndex,
        },
    );
    for (o, cond) in ctable.iter() {
        println!("  φ({o}) = {cond}");
    }

    // ---- The crowdsourcing phase (Example 4, with an ample budget) -------
    println!("\nCrowdsourcing with budget 20, latency 10, HHS(m = 2):");
    let oracle = GroundTruthOracle::new(paper_completion());
    let mut platform = SimulatedPlatform::new(oracle, 1.0, 42);
    let config = BayesCrowdConfig {
        budget: 20,
        latency: 10,
        alpha: 1.0,
        strategy: TaskStrategy::Hhs { m: 2 },
        ..Default::default()
    };
    // Record the run's structured events alongside the report.
    let mut metrics = MetricsRecorder::new();
    let report = BayesCrowd::new(config)
        .try_run(&data, &mut platform, &mut metrics)
        .expect("the sample run succeeds");

    for (i, ta) in platform.log().iter().enumerate() {
        println!(
            "  task {}: {}  →  {:?}",
            i + 1,
            ta.task.question(),
            ta.relation
        );
    }
    println!("\nResult set R = {:?}", report.result);
    println!("{}", report.summary());
    let acc = report.accuracy.expect("oracle provides ground truth");
    println!(
        "precision = {:.3}, recall = {:.3}, F1 = {:.3}",
        acc.precision, acc.recall, acc.f1
    );

    // ---- What the observability layer saw --------------------------------
    println!("\nRun metrics:\n{}", metrics.summary());
}
