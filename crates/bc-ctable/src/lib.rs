#![warn(missing_docs)]
//! The c-table substrate of BayesCrowd.
//!
//! Implements the conditional-table representation of Imieliński & Lipski
//! as the paper uses it: every object `o` of an incomplete dataset gets a
//! propositional condition `φ(o)` (in CNF over inequality [`Expr`]essions)
//! that holds exactly when `o` is a skyline answer.
//!
//! * [`expr`] / [`condition`] — the formula language and its simplification
//!   algebra, whose canonical-form steps live in [`kernel`], shared with
//!   the solver's clause arena,
//! * [`dominators`] — Definition 5's dominator sets, via the paper's fast
//!   sorted-bitset index or the pairwise baseline (Figure 2's comparison),
//! * [`builder`] — Algorithm 2 (`Get-CTable`) with the `α` pruning
//!   threshold,
//! * [`ctable`] — the table plus answer propagation, and
//! * [`constraint`] — the store of crowd-answer knowledge (candidate-value
//!   masks and variable-pair facts) that drives cross-condition inference.

pub mod bitset;
pub mod builder;
pub mod condition;
pub mod constraint;
pub mod ctable;
pub mod dominators;
pub mod expr;
pub mod kernel;
pub mod stats;

pub use builder::{
    build_ctable, build_ctable_with_stats, CTableBuildStats, CTableConfig, DominatorStrategy,
};
pub use condition::{Clause, Condition};
pub use constraint::{ConstraintStore, Relation};
pub use ctable::{CTable, PropagateStats};
pub use expr::{CmpOp, Expr, ExprOrBool, Operand};
pub use stats::CTableStats;
