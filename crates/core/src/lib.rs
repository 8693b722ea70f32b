#![warn(missing_docs)]
//! **BayesCrowd** — answering skyline queries over incomplete data with
//! crowdsourcing.
//!
//! This is the paper's primary contribution: a two-phase framework
//! (Algorithm 1) that
//!
//! 1. **models** the query — trains a Bayesian network over the attributes,
//!    learns a conditional value distribution for every missing cell, and
//!    builds the c-table assigning each object the condition under which it
//!    is a skyline answer (Algorithm 2); then
//! 2. **crowdsources** — iteratively selects conflict-free batches of
//!    triple-choice tasks under a budget `B` and a latency constraint `L`
//!    (Algorithm 4), posts them, folds the answers back into the c-table
//!    via constraint propagation, and finally reports every object whose
//!    condition is true or holds with probability above ½.
//!
//! Task selection inside a batch follows one of three strategies
//! ([`TaskStrategy`]): **FBS** (most frequent expression), **UBS** (highest
//! marginal utility, Definition 6), or **HHS** (frequency-ordered utility
//! search with an `m`-lookahead stop — the paper's recommended balance).
//!
//! The run loop talks to any [`bc_crowd::CrowdPlatform`] — including a
//! fault-injecting one ([`bc_crowd::FaultyPlatform`]) whose tasks can
//! expire or come back inconsistent. Failed tasks are re-queued under the
//! configured [`RetryPolicy`], still within `B` and `L`; when both run out
//! first, the run degrades gracefully (see [`RunReport::degraded`]).
//!
//! ```
//! use bayescrowd::{BayesCrowd, BayesCrowdConfig, TaskStrategy};
//! use bc_crowd::{GroundTruthOracle, SimulatedPlatform};
//! use bc_data::generators::sample::{paper_completion, paper_dataset};
//!
//! let data = paper_dataset();
//! let oracle = GroundTruthOracle::new(paper_completion());
//! let mut platform = SimulatedPlatform::new(oracle, 1.0, 42);
//!
//! let config = BayesCrowdConfig {
//!     budget: 20,
//!     latency: 10,
//!     alpha: 1.0,
//!     strategy: TaskStrategy::Hhs { m: 2 },
//!     ..Default::default()
//! };
//! let report = BayesCrowd::new(config).run(&data, &mut platform);
//! assert_eq!(report.accuracy.unwrap().f1, 1.0);
//! ```
//!
//! The validated way in is the fallible entry point
//! [`BayesCrowd::try_run`]: it checks the configuration first
//! ([`BayesCrowdConfig::validate`]) and takes any [`bc_obs::Observer`] so
//! the run can be traced or metered:
//!
//! ```
//! use bayescrowd::prelude::*;
//! use bc_crowd::{GroundTruthOracle, SimulatedPlatform};
//! use bc_data::generators::sample::{paper_completion, paper_dataset};
//!
//! let data = paper_dataset();
//! let oracle = GroundTruthOracle::new(paper_completion());
//! let mut platform = SimulatedPlatform::new(oracle, 1.0, 42);
//!
//! let config = BayesCrowdConfig {
//!     budget: 20,
//!     latency: 10,
//!     alpha: 1.0,
//!     strategy: TaskStrategy::Hhs { m: 2 },
//!     ..Default::default()
//! };
//! let mut metrics = MetricsRecorder::new();
//! let report = BayesCrowd::new(config)
//!     .try_run(&data, &mut platform, &mut metrics)
//!     .expect("run succeeds");
//! assert_eq!(report.accuracy.unwrap().f1, 1.0);
//! assert_eq!(metrics.counters().probability_evals, report.probability_evals);
//! ```
//!
//! For long-running crowd campaigns, [`BayesCrowd::session`] exposes the
//! same loop one round at a time as a resumable [`Session`]:
//! [`Session::step`] runs one round, [`Session::checkpoint`] serializes the
//! full mid-run state to any `Write` as a checksummed `bc-snapshot`
//! document, and [`Session::resume`] revives it after a crash with a
//! deterministic continuation — the resumed run's report is identical
//! (wall-clock durations aside) to the uninterrupted one.

mod codec;
pub mod config;
pub mod error;
pub mod framework;
mod kept;
pub mod report;
mod selection;
pub mod session;
mod strategy;

pub use bc_crowd::RetryPolicy;
pub use config::{BayesCrowdConfig, ConfigError};
pub use error::RunError;
pub use framework::BayesCrowd;
pub use report::RunReport;
pub use selection::ObjectRanking;
pub use session::Session;
pub use strategy::TaskStrategy;

/// One-stop imports for driving a run: the framework, its validated
/// configuration surface, the typed errors, and the observability types
/// accepted by [`BayesCrowd::try_run`].
pub mod prelude {
    pub use crate::config::{BayesCrowdConfig, ConfigError};
    pub use crate::error::RunError;
    pub use crate::framework::BayesCrowd;
    pub use crate::report::RunReport;
    pub use crate::selection::ObjectRanking;
    pub use crate::session::Session;
    pub use crate::strategy::TaskStrategy;
    pub use bc_crowd::RetryPolicy;
    pub use bc_obs::{
        Event, JsonLinesSink, MetricsRecorder, NoopObserver, Observer, ProfileReport, RunPhase,
        RunProfiler, Tee,
    };
}
