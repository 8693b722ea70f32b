#![warn(missing_docs)]
//! Differential correctness oracle for BayesCrowd.
//!
//! The system's answer quality rests on one claim: ADPLL model counting
//! over c-table conditions equals the true skyline-membership probability
//! under the learned per-cell distributions (the paper's Theorems). This
//! crate checks that claim end to end, on instances small enough to verify
//! exhaustively:
//!
//! * [`worlds`] — the **possible-worlds oracle**: enumerates every
//!   completion of a small incomplete dataset, weights each world by the
//!   per-cell pmfs ([`bc_bayes::joint`]), and computes exact per-object
//!   skyline and condition probabilities *without* touching the solver
//!   pipeline,
//! * [`gen`] — deterministic random instance generation (seed in,
//!   instance out),
//! * [`diff`] — the **differential harness**: runs one instance through
//!   ADPLL, naive enumeration, weighted ApproxCount, and Monte Carlo, and
//!   reports the first divergence from the oracle with a greedily minimized
//!   instance,
//! * [`replay`] — serializes instances and divergences as checksummed
//!   [`bc_snapshot`] documents, so a fuzz failure replays bit-identically
//!   on another machine, and manages the committed seed corpus,
//! * [`corpus`] — the handcrafted regression instances folded in from the
//!   recorded `*.proptest-regressions` cases, plus the generator seeds of
//!   the committed random corpus,
//! * [`kernel`] — the condition kernel checked against a from-scratch
//!   reference: every incremental rewrite equals full normalization, and
//!   ADPLL's counters on the corpus are pinned,
//! * [`metamorphic`] — run-level invariants: constraint propagation
//!   preserves model counts, preference-direction reflection preserves
//!   skyline probabilities, certain answers grow monotonically, and
//!   checkpoint/resume preserves oracle-checked probabilities at any round,
//! * [`utility`] — the marginal utility `G(o, e)` of every open object's
//!   every expression, recomputed from possible-worlds joint probabilities.
//!
//! The `oracle-fuzz` binary wires it all into CI: it replays the committed
//! corpus, then a fixed-seed stream of fresh instances, and on the first
//! divergence writes a minimized `.bcsnap` repro artifact and exits
//! nonzero.

pub mod corpus;
pub mod diff;
pub mod gen;
pub mod kernel;
pub mod metamorphic;
pub mod replay;
pub mod utility;
pub mod worlds;

pub use corpus::{regression_instances, GENERATED_SEEDS};
pub use diff::{check_instance, minimize_divergence, DiffConfig, Divergence, InstanceSummary};
pub use gen::{random_instance, GenConfig, Instance};
pub use replay::{load_corpus, load_instance, save_divergence, save_instance};
pub use utility::{utility_matches_worlds, UtilityCoverage};
pub use worlds::{OracleError, PossibleWorlds, WorldReport};

/// Whether two probabilities agree within `eps` — the one comparison rule
/// shared by the test suite and the differential harness, replacing the
/// ad-hoc `(a - b).abs() < ...` scattered through the tests. NaN never
/// agrees with anything (an `abs() < eps` comparison would silently pass a
/// NaN pair through a `!(..)`-style rewrite; this helper pins the
/// semantics).
pub fn prob_close(a: f64, b: f64, eps: f64) -> bool {
    a.is_finite() && b.is_finite() && (a - b).abs() <= eps
}

/// Panics unless `prob_close(a, b, eps)`, with a message carrying both
/// values, their difference, and the tolerance. Extra format arguments are
/// appended as context:
///
/// ```should_panic
/// bc_oracle::assert_prob_close!(0.5, 0.25, 1e-9, "object {}", 3);
/// ```
#[macro_export]
macro_rules! assert_prob_close {
    ($a:expr, $b:expr, $eps:expr) => {
        $crate::assert_prob_close!($a, $b, $eps, "probabilities differ")
    };
    ($a:expr, $b:expr, $eps:expr, $($ctx:tt)+) => {{
        let (a, b, eps): (f64, f64, f64) = ($a, $b, $eps);
        assert!(
            $crate::prob_close(a, b, eps),
            "{}: {} vs {} (|Δ| = {:e} > eps {:e})",
            format_args!($($ctx)+),
            a,
            b,
            (a - b).abs(),
            eps,
        );
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prob_close_semantics() {
        assert!(crate::prob_close(0.5, 0.5 + 1e-12, 1e-9));
        assert!(!crate::prob_close(0.5, 0.6, 1e-9));
        assert!(!crate::prob_close(f64::NAN, f64::NAN, 1.0));
        assert!(!crate::prob_close(0.0, f64::INFINITY, f64::INFINITY));
    }

    #[test]
    fn assert_macro_passes_and_formats() {
        assert_prob_close!(0.25, 0.25, 0.0);
        assert_prob_close!(0.25, 0.2500001, 1e-3, "object {}", 7);
        let err = std::panic::catch_unwind(|| assert_prob_close!(0.1, 0.9, 1e-9)).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("0.1 vs 0.9"), "{msg}");
    }
}
