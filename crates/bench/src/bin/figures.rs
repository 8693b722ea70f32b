//! Command-line entry point regenerating the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p bc-bench --bin figures -- all
//! cargo run --release -p bc-bench --bin figures -- fig4 fig5 --json out.json
//! cargo run --release -p bc-bench --bin figures -- all --scale paper
//! ```

use bc_bench::experiments;
use bc_bench::{print_rows, rows_to_json_pretty, Row, Scale};

const USAGE: &str = "usage: figures [all | fig2 | fig3 | fig4 | fig5 | fig6 | fig7 | fig8 | fig9 | fig10 | fig11 | table6 | ext_model | ext_ranking | ext_baselines | ext_faults | ext_phases | ext_ablation]... [--scale small|paper] [--json PATH] [--trace PATH]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiments_requested: Vec<String> = Vec::new();
    let mut scale = Scale::small();
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("small") => scale = Scale::small(),
                    Some("paper") => scale = Scale::paper(),
                    _ => usage(),
                }
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--trace" => {
                i += 1;
                trace_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            other if other.starts_with("--") => usage(),
            other => experiments_requested.push(other.to_string()),
        }
        i += 1;
    }
    // `--trace` alone is a valid invocation (one traced run, no tables).
    if experiments_requested.is_empty() && trace_path.is_none() {
        experiments_requested.push("all".into());
    }

    // Resolve every name before running anything: a typo after a
    // minutes-long experiment must not cost the run.
    let runs: Vec<_> = experiments_requested
        .iter()
        .map(|name| {
            experiments::by_name(name).unwrap_or_else(|| {
                eprintln!("unknown experiment {name:?}");
                usage()
            })
        })
        .collect();
    let rows: Vec<Row> = runs.into_iter().flat_map(|run| run(&scale)).collect();

    print_rows(&rows);

    if let Some(path) = json_path {
        let json = rows_to_json_pretty(&rows);
        std::fs::write(&path, json).expect("writing the JSON dump");
        eprintln!("wrote {path}");
    }
    if let Some(path) = trace_path {
        let n = experiments::write_trace(&scale, &path).expect("writing the trace");
        eprintln!("wrote {n} trace events to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_in_the_usage_line_resolves() {
        let names = &USAGE[USAGE.find('[').unwrap() + 1..USAGE.find(']').unwrap()];
        let names: Vec<&str> = names.split('|').map(str::trim).collect();
        assert_eq!(names.len(), 18);
        for name in names {
            assert!(experiments::by_name(name).is_some(), "{name}");
        }
        assert!(experiments::by_name("typo").is_none());
        assert!(experiments::by_name("fig1").is_none());
    }
}
