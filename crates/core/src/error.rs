//! Typed failures of [`BayesCrowd::try_run`](crate::BayesCrowd::try_run).

use crate::config::ConfigError;
use crate::report::RunReport;
use bc_snapshot::SnapshotError;
use bc_solver::SolverError;
use std::fmt;

/// Why a run could not produce a (healthy) report.
#[derive(Clone, Debug)]
pub enum RunError {
    /// The dataset has no objects — there is no skyline to compute.
    EmptyDataset,
    /// The configuration failed validation (see [`ConfigError`]).
    Config(ConfigError),
    /// A probability computation failed even after falling back to ADPLL
    /// (e.g. a condition variable with no learned distribution).
    Solver(SolverError),
    /// The platform swallowed every task: tasks were posted, none were ever
    /// answered, and the query is still undecided. The degraded report —
    /// machine-only answers under the prior — is attached so callers can
    /// still use it deliberately.
    PlatformExhausted {
        /// The report of the degraded, crowd-less run.
        report: Box<RunReport>,
    },
    /// Writing or restoring a checkpoint failed (I/O, corruption, or a
    /// snapshot that does not belong to this run).
    Snapshot(SnapshotErrorShared),
    /// A worker thread of the parallel probability batch panicked; carries
    /// the panic message.
    WorkerPanicked(String),
}

/// [`SnapshotError`] wrapped for `RunError`, which is `Clone` while
/// `std::io::Error` is not — shared ownership keeps the full error chain.
pub type SnapshotErrorShared = std::sync::Arc<SnapshotError>;

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::EmptyDataset => write!(f, "dataset has no objects"),
            RunError::Config(e) => write!(f, "invalid configuration: {e}"),
            RunError::Solver(e) => write!(f, "probability computation failed: {e}"),
            RunError::PlatformExhausted { report } => write!(
                f,
                "crowd platform answered none of the {} posted tasks ({} expressions undecided)",
                report.crowd.tasks_posted, report.open_exprs_left
            ),
            RunError::Snapshot(e) => write!(f, "checkpoint failed: {e}"),
            RunError::WorkerPanicked(m) => write!(f, "probability worker panicked: {m}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Config(e) => Some(e),
            RunError::Solver(e) => Some(e),
            RunError::Snapshot(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> RunError {
        RunError::Config(e)
    }
}

impl From<SolverError> for RunError {
    fn from(e: SolverError) -> RunError {
        RunError::Solver(e)
    }
}

impl From<SnapshotError> for RunError {
    fn from(e: SnapshotError) -> RunError {
        RunError::Snapshot(std::sync::Arc::new(e))
    }
}
