#![warn(missing_docs)]
//! Incomplete-data substrate for the BayesCrowd reproduction.
//!
//! This crate provides the dataset model shared by every other crate in the
//! workspace:
//!
//! * [`Dataset`] — a table of objects over discrete attribute [`Domain`]s in
//!   which individual cells may be *missing* (the paper's `Var(o, a)`
//!   variables),
//! * missing-value injection ([`missing`]) for the MCAR experiments and the
//!   all-missing-attribute CrowdSky setting,
//! * complete-data skyline computation ([`skyline`]) used as ground truth,
//! * query-accuracy metrics ([`metrics`]),
//! * workload generators ([`generators`]) standing in for the paper's NBA and
//!   classic synthetic datasets, and
//! * the shared fast hasher ([`hash`]) of every `VarId`-keyed map.
//!
//! Attribute values are small integers (`0..cardinality`, larger is better),
//! matching the paper's preprocessing step that discretizes continuous
//! domains before anything else runs.

pub mod csv;
pub mod dataset;
pub mod domain;
pub mod error;
pub mod generators;
pub mod hash;
pub mod ids;
pub mod metrics;
pub mod missing;
pub mod preference;
pub mod skyline;

pub use dataset::Dataset;
pub use domain::{Domain, Value, MAX_CARDINALITY};
pub use error::DataError;
pub use hash::{FxHasher, FxMap};
pub use ids::{AttrId, ObjectId, VarId};
pub use metrics::Accuracy;
pub use preference::{normalize_directions, Direction};
