#![warn(missing_docs)]
//! Simulated crowdsourcing platform.
//!
//! Stands in for Amazon Mechanical Turk in the paper's experiments. A crowd
//! *task* is a triple-choice question — "is the (hidden) value larger than,
//! smaller than, or equal to the other operand?" — derived from one c-table
//! expression. Tasks are posted **in batches** (one batch per round; the
//! number of rounds is the paper's latency measure), each task is assigned
//! to several workers whose per-answer accuracy is configurable, and the
//! returned answers are combined by majority voting, exactly as in
//! Section 7's setup (3 workers per task, accuracy 1.0 by default).
//!
//! Beyond the fault-free simulator, the crate models a *realistic* market:
//! the [`CrowdPlatform`] trait reports per-task partial results
//! ([`TaskOutcome`]: answered, expired, or inconsistent), [`FaultyPlatform`]
//! decorates any platform with seeded fault injection (expiry, attrition,
//! spammers, stragglers, duplicates), and [`RetryPolicy`] describes how the
//! framework re-queues failed tasks under its budget and latency caps.

pub mod cost;
pub mod fault;
pub mod oracle;
pub mod platform;
pub mod pool;
pub mod retry;
pub mod state;
pub mod task;
pub mod unary;
pub mod vote;
pub mod worker;

pub use cost::CostModel;
pub use fault::{FaultConfig, FaultStats, FaultyPlatform, SpammerKind};
pub use oracle::GroundTruthOracle;
pub use platform::{CrowdPlatform, CrowdStats, SimulatedPlatform};
pub use pool::WorkerPool;
pub use retry::RetryPolicy;
pub use state::{PlatformState, PlatformStateError};
pub use task::{Task, TaskAnswer, TaskOutcome, TaskResult};
pub use unary::UnaryTask;
pub use vote::majority_vote;
pub use worker::Worker;
