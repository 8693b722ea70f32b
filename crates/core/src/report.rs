//! Run reports: the query answer plus the cost/latency/accuracy measurements
//! the paper's evaluation section plots.

use bc_crowd::CrowdStats;
use bc_data::{Accuracy, ObjectId};
use std::collections::BTreeMap;
use std::time::Duration;

/// Everything a BayesCrowd run produces.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The returned answer set `R`: objects with a true condition or with
    /// probability above the answer threshold.
    pub result: Vec<ObjectId>,
    /// The subset of `result` whose conditions are certainly true.
    pub certain: Vec<ObjectId>,
    /// Final probabilities of the objects still undecided at termination.
    pub open_probabilities: BTreeMap<ObjectId, f64>,
    /// F1/precision/recall against the complete-data skyline, when ground
    /// truth was available.
    pub accuracy: Option<Accuracy>,
    /// Monetary cost and latency (tasks posted, rounds, worker answers).
    pub crowd: CrowdStats,
    /// Budget left unspent at termination.
    pub budget_left: usize,
    /// Wall-clock time of the modeling phase (BN training + c-table build).
    pub modeling_time: Duration,
    /// Wall-clock time of the algorithm (excluding, per the paper, the time
    /// workers spend answering — which the simulator makes instantaneous —
    /// and the scoring of [`RunReport::accuracy`]).
    pub total_time: Duration,
    /// Number of condition-probability evaluations performed.
    pub probability_evals: u64,
    /// Expressions still unresolved in the c-table at termination (zero
    /// means the query was fully decided, crowd answers permitting).
    pub open_exprs_left: usize,
    /// Tasks abandoned without a usable answer: they failed their final
    /// retry attempt, or were still queued when budget/latency ran out.
    pub tasks_expired: usize,
    /// Re-posts of previously failed tasks (each counts once per re-post).
    pub tasks_retried: usize,
    /// Rounds that produced no usable answer — every task in the batch
    /// failed, or the round idled waiting out a retry backoff.
    pub rounds_stalled: usize,
    /// Whether the run had to give up on at least one task: the c-table
    /// keeps its symbolic variables for those expressions and the answer
    /// set falls back to the current posterior probabilities.
    pub degraded: bool,
}

impl RunReport {
    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "answers={} certain={} tasks={} rounds={} time={:.1?} f1={}",
            self.result.len(),
            self.certain.len(),
            self.crowd.tasks_posted,
            self.crowd.rounds,
            self.total_time,
            self.accuracy
                .map(|a| format!("{:.3}", a.f1))
                .unwrap_or_else(|| "n/a".into()),
        );
        if self.degraded {
            s.push_str(&format!(
                " DEGRADED expired={} retried={} stalled={}",
                self.tasks_expired, self.tasks_retried, self.rounds_stalled
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_contains_the_key_numbers() {
        let r = RunReport {
            result: vec![ObjectId(0), ObjectId(2)],
            certain: vec![ObjectId(0)],
            open_probabilities: BTreeMap::new(),
            accuracy: Some(Accuracy {
                precision: 1.0,
                recall: 0.5,
                f1: 2.0 / 3.0,
            }),
            crowd: CrowdStats {
                tasks_posted: 7,
                rounds: 3,
                worker_answers: 21,
                money_spent: 21,
            },
            budget_left: 1,
            modeling_time: Duration::from_millis(5),
            total_time: Duration::from_millis(9),
            probability_evals: 42,
            open_exprs_left: 0,
            tasks_expired: 0,
            tasks_retried: 0,
            rounds_stalled: 0,
            degraded: false,
        };
        let s = r.summary();
        assert!(s.contains("answers=2"));
        assert!(s.contains("tasks=7"));
        assert!(s.contains("rounds=3"));
        assert!(s.contains("f1=0.667"));
        assert!(!s.contains("DEGRADED"), "healthy runs stay quiet");
    }

    #[test]
    fn degraded_summary_reports_the_failure_counters() {
        let r = RunReport {
            result: vec![ObjectId(0)],
            certain: vec![],
            open_probabilities: BTreeMap::new(),
            accuracy: None,
            crowd: CrowdStats::default(),
            budget_left: 0,
            modeling_time: Duration::ZERO,
            total_time: Duration::ZERO,
            probability_evals: 0,
            open_exprs_left: 4,
            tasks_expired: 3,
            tasks_retried: 5,
            rounds_stalled: 2,
            degraded: true,
        };
        let s = r.summary();
        assert!(s.contains("DEGRADED"));
        assert!(s.contains("expired=3"));
        assert!(s.contains("retried=5"));
        assert!(s.contains("stalled=2"));
        assert!(s.contains("f1=n/a"));
    }
}
