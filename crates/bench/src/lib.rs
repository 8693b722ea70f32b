#![warn(missing_docs)]
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (Section 7).
//!
//! * [`workloads`] — the two experimental datasets (NBA-like and the
//!   Adult-BN Synthetic) at configurable scale, with MCAR or
//!   attribute-masking missing-value injection,
//! * [`rows`] — a tiny result-table model with text and JSON output,
//! * [`experiments`] — one function per paper figure/table (`fig2` …
//!   `fig11`, `table6`), each returning the series the paper plots, plus
//!   the `ext_*` extensions (the design ablations among them) and
//!   [`experiments::by_name`], which resolves a command-line name, and
//! * the `figures` binary — the command-line entry point
//!   (`cargo run --release -p bc-bench --bin figures -- all`).
//!
//! Wall-clock regressions of the shipped query path are measured by the
//! separate `skybench` package; the exact work counters of seeded
//! campaigns are pinned by the root package's `tests/work_counters.rs`.

pub mod experiments;
pub mod rows;
pub mod workloads;

pub use rows::{print_rows, rows_to_json_pretty, Row};
pub use workloads::{Scale, Workload};
