#![warn(missing_docs)]
//! Durable snapshots of BayesCrowd run state.
//!
//! A crowd run spans hours or days of human latency, and every answered
//! task is money already spent — a process restart must not discard paid
//! answers or retrained state. This crate is the persistence container for
//! that state: a **versioned, checksummed JSON-lines document**, with no
//! dependencies. Its [`Value`] tree, writer and parser are also the one
//! JSON codec the rest of the workspace uses (`bc-obs` trace lines and
//! profiles, `bc-bench` figure rows).
//!
//! The crate is deliberately generic: it knows nothing about datasets,
//! c-tables, or platforms. Domain state is encoded into the [`Value`] tree
//! by the framework's checkpoint codec and stored here as named
//! *sections*; decoders read it back through typed reads
//! ([`Value::field`], [`Value::read`], [`Value::list_of`]) that answer a
//! missing or mis-shaped entry with [`SnapshotError::Invalid`].
//!
//! # Document layout
//!
//! ```text
//! {"format":"bc-snapshot","version":1,"fingerprint":"<fnv1a64 hex>"}
//! {"section":"config","data":{...}}
//! {"section":"dataset","data":{...}}
//! ...
//! {"sections":9,"checksum":"<fnv1a64 hex>"}
//! ```
//!
//! * The **header** names the format, its version, and a fingerprint of the
//!   run identity (dataset + configuration) used to reject a checkpoint
//!   against the wrong run.
//! * Each **section** line carries one named [`Value`] payload.
//! * The **footer** closes the document with the section count and an
//!   FNV-1a 64 checksum of every preceding byte. A crash mid-write leaves
//!   the footer missing or stale, so torn checkpoints are detected instead
//!   of resumed from.
//!
//! Serialization is canonical: map entries keep their insertion order,
//! floats print in shortest round-trip form, and integers are kept apart
//! from floats — so `serialize → parse → re-serialize` is byte-identical
//! (pinned by test).

mod doc;
mod error;
mod read;
mod value;

pub use doc::{fnv1a64, Snapshot, SnapshotWriter, FORMAT_NAME, FORMAT_VERSION};
pub use error::SnapshotError;
pub use read::FromValue;
pub use value::{Value, MAX_DEPTH};
