//! In-memory aggregation of a run's event stream.
//!
//! [`MetricsRecorder`] is the sink tests and the bench harness assert on:
//! it keeps the raw event list, per-phase wall-clock totals (reconciled
//! against the run total via [`MetricsRecorder::unattributed_nanos`]),
//! scalar counters, and an exact-count [`Histogram`] of per-round task
//! counts.

use crate::event::{Event, RunPhase};
use crate::sink::Observer;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An exact-count histogram of `u64` samples with quantile extraction.
///
/// Stores one counter per distinct value. The sample spaces we record
/// (round sizes, trial timings) have few distinct
/// values, so exact storage is cheaper than sketching and makes
/// [`Histogram::quantile`] exact rather than bucket-approximate. A
/// coarse log₂ view is still available via [`Histogram::buckets`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    values: BTreeMap<u64, u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        *self.values.entry(value).or_insert(0) += 1;
        if self.count == 0 || value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        self.count += 1;
        self.sum += value;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile: the smallest recorded value `v` such that at
    /// least `⌈q·n⌉` samples are `≤ v`. Exact, because every sample is
    /// kept. Returns 0 when empty; `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (&value, &n) in &self.values {
            seen += n;
            if seen >= rank {
                return value;
            }
        }
        self.max
    }

    /// Median (nearest-rank).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (nearest-rank).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (nearest-rank).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Occupancy per log₂ bucket, lowest first: bucket `i` holds samples
    /// in `[2^(i-1), 2^i)`, bucket 0 holds zeros. Derived on demand from
    /// the exact counts.
    pub fn buckets(&self) -> Vec<u64> {
        let mut buckets: Vec<u64> = Vec::new();
        for (&value, &n) in &self.values {
            let bucket = if value == 0 {
                0
            } else {
                (64 - value.leading_zeros()) as usize
            };
            if buckets.len() <= bucket {
                buckets.resize(bucket + 1, 0);
            }
            buckets[bucket] += n;
        }
        buckets
    }
}

impl std::fmt::Display for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} min={} mean={:.1} p50={} p90={} p99={} max={}",
            self.count,
            self.min,
            self.mean(),
            self.p50(),
            self.p90(),
            self.p99(),
            self.max
        )
    }
}

/// Scalar counters aggregated over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Crowdsourcing rounds observed (`RoundFinished` events).
    pub rounds: u64,
    /// Tasks posted, summed over rounds.
    pub posted: u64,
    /// Tasks answered, summed over rounds.
    pub answered: u64,
    /// Tasks abandoned for good, summed over rounds.
    pub expired: u64,
    /// Failed tasks re-queued for another attempt, summed over rounds.
    pub requeued: u64,
    /// Re-posts of previously failed tasks, summed over rounds.
    pub retried: u64,
    /// Conditions whose `Pr(φ)` probability batches summed.
    pub probability_evals: u64,
    /// Objects whose factor tables probability batches built: one per
    /// summed condition (`objects`), so equal to `probability_evals`.
    pub solver_calls: u64,
    /// Points of the own cells' joint supports the batches' passes
    /// visited (`points`).
    pub solver_branches: u64,
    /// Open conditions whose `Pr(φ)` a batch found cached (`cached`).
    pub solver_cache_hits: u64,
    /// Clause tables the batches built (`clause_tables`).
    pub solver_cache_misses: u64,
    /// Factor groups the batches' passes multiplied (`groups`).
    pub solver_component_splits: u64,
    /// Crowd answers folded into the constraint store.
    pub answers_propagated: u64,
    /// Conditions decided by propagation.
    pub conditions_decided: u64,
    /// Open conditions re-simplified by propagation passes: every open
    /// condition on a run's first pass, then only those mentioning an
    /// answered variable. From `Propagated` events.
    pub propagate_examined: u64,
    /// Expressions propagation passes handed to the constraint store to
    /// decide (`visited`).
    pub propagate_visited: u64,
    /// Tasks abandoned at finalization (from `Degraded`).
    pub tasks_abandoned: u64,
    /// Durable checkpoints written.
    pub checkpoints_written: u64,
    /// Candidate expressions scored by marginal utility. From
    /// `UtilityBatch` events, like the two counters below; the `solver_*`
    /// counters above cover probability batches only.
    pub utility_evals: u64,
    /// Outside passes behind those scores: one per object with an open
    /// candidate.
    pub utility_solver_calls: u64,
    /// Joint-support points those passes visited.
    pub utility_decisions: u64,
    /// Missing cells whose conditional came from the Markov-blanket closed
    /// form. From `ModelTrained` events, like the two counters below.
    pub model_blanket_cells: u64,
    /// Missing cells whose conditional needed variable elimination.
    pub model_ve_cells: u64,
    /// Distinct `(attribute, blanket values)` closed-form evaluations.
    pub model_blanket_keys: u64,
}

/// The process's peak resident set size in bytes: `VmHWM` from
/// `/proc/self/status`. `None` where that file or field does not exist
/// (off Linux).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    vm_hwm_bytes(&status)
}

/// The `VmHWM:   1234 kB` line of a `/proc/<pid>/status` text, in bytes.
fn vm_hwm_bytes(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb * 1024)
}

/// An [`Observer`] that aggregates the event stream in memory.
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    events: Vec<Event>,
    phase_nanos: BTreeMap<RunPhase, u128>,
    total_nanos: u128,
    counters: Counters,
    tasks_per_round: Histogram,
}

impl MetricsRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every event seen, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The event stream with timing fields zeroed — two same-seed runs
    /// produce identical redacted streams.
    pub fn redacted_events(&self) -> Vec<Event> {
        self.events.iter().map(Event::redact_timing).collect()
    }

    /// Aggregated scalar counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Total wall-clock nanoseconds attributed to `phase` (summed across
    /// rounds for the per-round phases).
    pub fn phase_nanos(&self, phase: RunPhase) -> u128 {
        self.phase_nanos.get(&phase).copied().unwrap_or(0)
    }

    /// Total run wall-clock time from `RunFinished` (0 until the run
    /// finishes).
    pub fn total_nanos(&self) -> u128 {
        self.total_nanos
    }

    /// Wall-clock nanoseconds covered by phase spans, summed over all
    /// phases.
    pub fn attributed_nanos(&self) -> u128 {
        self.phase_nanos.values().sum()
    }

    /// Run time *not* covered by any phase span: bookkeeping between
    /// spans, round-loop control flow, report assembly. Reconciles the
    /// per-phase totals with the `RunFinished` wall time, so
    /// `attributed_nanos() + unattributed_nanos() == total_nanos()` holds
    /// once the run finishes (0 before then, and if clock skew ever made
    /// the spans overshoot the total the difference saturates to 0 rather
    /// than underflowing).
    pub fn unattributed_nanos(&self) -> u128 {
        self.total_nanos.saturating_sub(self.attributed_nanos())
    }

    /// A compact human-readable digest (phase timings, counters,
    /// histograms), suitable for `--metrics` output.
    pub fn summary(&self) -> String {
        let c = &self.counters;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "rounds {}  posted {}  answered {}  expired {}  retried {}",
            c.rounds, c.posted, c.answered, c.expired, c.retried
        );
        let _ = writeln!(
            s,
            "probability evals {}  cached {} (points {}, groups {})",
            c.probability_evals, c.solver_cache_hits, c.solver_branches, c.solver_component_splits
        );
        let _ = writeln!(s, "clause tables: {} built", c.solver_cache_misses);
        let _ = writeln!(
            s,
            "model conditionals: {} blanket cells ({} distinct), {} by elimination",
            c.model_blanket_cells, c.model_blanket_keys, c.model_ve_cells
        );
        let _ = writeln!(
            s,
            "utility evals {}  utility passes {} (points {})",
            c.utility_evals, c.utility_solver_calls, c.utility_decisions
        );
        let _ = writeln!(
            s,
            "propagated {} answers ({} conditions examined, {} expressions visited), \
             {} conditions decided",
            c.answers_propagated, c.propagate_examined, c.propagate_visited, c.conditions_decided
        );
        match peak_rss_bytes() {
            Some(bytes) => {
                let _ = writeln!(s, "peak RSS {:.1} MB", bytes as f64 / 1e6);
            }
            None => {
                let _ = writeln!(s, "peak RSS n/a");
            }
        }
        let _ = writeln!(s, "tasks/round: {}", self.tasks_per_round);
        let _ = write!(s, "phase timings:");
        for phase in RunPhase::ALL {
            let nanos = self.phase_nanos(phase);
            let _ = write!(s, " {}={:.3}ms", phase, nanos as f64 / 1e6);
        }
        let _ = write!(
            s,
            " unattributed={:.3}ms",
            self.unattributed_nanos() as f64 / 1e6
        );
        s
    }

    /// Histogram of tasks posted per round.
    pub fn tasks_per_round(&self) -> &Histogram {
        &self.tasks_per_round
    }
}

impl Observer for MetricsRecorder {
    fn event(&mut self, event: &Event) {
        match event {
            Event::SpanFinished { phase, nanos } => {
                *self.phase_nanos.entry(*phase).or_insert(0) += nanos;
            }
            Event::ProbabilityBatch {
                objects,
                cached,
                points,
                groups,
                clause_tables,
                ..
            } => {
                self.counters.probability_evals += *objects as u64;
                self.counters.solver_calls += *objects as u64;
                self.counters.solver_branches += points;
                self.counters.solver_cache_hits += *cached as u64;
                self.counters.solver_component_splits += groups;
                self.counters.solver_cache_misses += clause_tables;
            }
            Event::ModelTrained {
                blanket_cells,
                ve_cells,
                blanket_keys,
                ..
            } => {
                self.counters.model_blanket_cells += *blanket_cells as u64;
                self.counters.model_ve_cells += *ve_cells as u64;
                self.counters.model_blanket_keys += *blanket_keys as u64;
            }
            Event::UtilityBatch {
                candidates,
                solver_calls,
                points,
                ..
            } => {
                self.counters.utility_evals += candidates;
                self.counters.utility_solver_calls += solver_calls;
                self.counters.utility_decisions += points;
            }
            Event::Propagated {
                answers,
                examined,
                visited,
                decided,
                ..
            } => {
                self.counters.answers_propagated += *answers as u64;
                self.counters.propagate_examined += *examined as u64;
                self.counters.propagate_visited += *visited as u64;
                self.counters.conditions_decided += *decided as u64;
            }
            Event::RoundFinished {
                posted,
                answered,
                expired,
                requeued,
                retried,
                ..
            } => {
                self.counters.rounds += 1;
                self.counters.posted += *posted as u64;
                self.counters.answered += *answered as u64;
                self.counters.expired += *expired as u64;
                self.counters.requeued += *requeued as u64;
                self.counters.retried += *retried as u64;
                self.tasks_per_round.record(*posted as u64);
            }
            Event::RunFinished { nanos, .. } => {
                self.total_nanos = *nanos;
            }
            Event::Degraded { tasks_abandoned } => {
                self.counters.tasks_abandoned += *tasks_abandoned as u64;
            }
            Event::CheckpointWritten { .. } => {
                self.counters.checkpoints_written += 1;
            }
            _ => {}
        }
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 8] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 18);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 8);
        assert!((h.mean() - 3.0).abs() < 1e-12);
        // buckets: [0], [1], [2..4), [4..8), [8..16)
        assert_eq!(h.buckets(), &[1, 1, 2, 1, 1]);
    }

    #[test]
    fn histogram_quantiles_exact_on_known_distribution() {
        // 1..=100 each once: nearest-rank quantiles are exact.
        let mut h = Histogram::default();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.p50(), 50);
        assert_eq!(h.p90(), 90);
        assert_eq!(h.p99(), 99);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 100);
        // Quantiles must be actual samples, insertion order must not
        // matter, and duplicates must weight the rank.
        let mut skewed = Histogram::default();
        for v in [1000, 10, 10, 10, 10, 10, 10, 10, 10, 10] {
            skewed.record(v);
        }
        assert_eq!(skewed.p50(), 10);
        assert_eq!(skewed.p90(), 10);
        assert_eq!(skewed.p99(), 1000);
        assert_eq!(skewed.max(), 1000);
    }

    #[test]
    fn histogram_empty_edge_case() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn peak_rss_comes_from_vm_hwm() {
        let status = "Name:\tcat\nVmPeak:\t  9000 kB\nVmHWM:\t   1234 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(vm_hwm_bytes(status), Some(1234 * 1024));
        assert_eq!(vm_hwm_bytes("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(vm_hwm_bytes("VmHWM:\t lots\n"), None);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().is_some_and(|b| b > 0));
            assert!(MetricsRecorder::new().summary().contains("peak RSS "));
        }
    }

    #[test]
    fn recorder_aggregates_counters_and_spans() {
        let mut rec = MetricsRecorder::new();
        rec.event(&Event::RoundStarted { round: 1 });
        rec.event(&Event::ProbabilityBatch {
            phase: RunPhase::Select,
            objects: 4,
            cached: 3,
            points: 10,
            groups: 2,
            clause_tables: 7,
            nanos: 100,
        });
        rec.event(&Event::ProbabilityBatch {
            phase: RunPhase::Select,
            objects: 3,
            cached: 0,
            points: 0,
            groups: 0,
            clause_tables: 0,
            nanos: 10,
        });
        rec.event(&Event::ModelTrained {
            bic: -1.0,
            edges: 0,
            em_iters: 0,
            search_iters: 0,
            blanket_cells: 9,
            ve_cells: 2,
            blanket_keys: 3,
            nanos: 10,
        });
        rec.event(&Event::UtilityBatch {
            candidates: 6,
            solver_calls: 5,
            points: 12,
            clause_tables: 2,
            nanos: 40,
        });
        rec.event(&Event::Propagated {
            answers: 2,
            examined: 6,
            visited: 9,
            decided: 1,
            nanos: 50,
        });
        rec.event(&Event::RoundFinished {
            round: 1,
            posted: 2,
            answered: 2,
            expired: 0,
            requeued: 0,
            retried: 0,
            nanos: 200,
        });
        rec.event(&Event::SpanFinished {
            phase: RunPhase::Select,
            nanos: 120,
        });
        rec.event(&Event::SpanFinished {
            phase: RunPhase::Select,
            nanos: 30,
        });
        let c = rec.counters();
        assert_eq!(c.rounds, 1);
        assert_eq!(c.posted, 2);
        assert_eq!(c.probability_evals, 7);
        assert_eq!(c.solver_branches, 10);
        assert_eq!(c.solver_cache_hits, 3);
        assert_eq!(c.solver_cache_misses, 7);
        assert_eq!(c.solver_component_splits, 2);
        assert_eq!(c.answers_propagated, 2);
        assert_eq!(c.propagate_examined, 6);
        assert_eq!(c.propagate_visited, 9);
        assert_eq!(c.utility_evals, 6);
        assert_eq!(c.utility_solver_calls, 5);
        assert_eq!(c.utility_decisions, 12);
        assert_eq!(
            (
                c.model_blanket_cells,
                c.model_ve_cells,
                c.model_blanket_keys
            ),
            (9, 2, 3)
        );
        // Utility work stays out of the probability-batch counters.
        assert_eq!(c.solver_calls, 7);
        assert_eq!(rec.phase_nanos(RunPhase::Select), 150);
        assert_eq!(rec.phase_nanos(RunPhase::Post), 0);
        assert_eq!(rec.tasks_per_round().count(), 1);
        assert_eq!(rec.events().len(), 9);
        assert!(rec.summary().contains("posted 2"));
    }

    #[test]
    fn unattributed_time_reconciles_with_run_total() {
        let mut rec = MetricsRecorder::new();
        rec.event(&Event::SpanFinished {
            phase: RunPhase::Model,
            nanos: 400,
        });
        rec.event(&Event::SpanFinished {
            phase: RunPhase::Select,
            nanos: 250,
        });
        // Before RunFinished there is no total to reconcile against.
        assert_eq!(rec.total_nanos(), 0);
        assert_eq!(rec.unattributed_nanos(), 0);
        rec.event(&Event::RunFinished {
            rounds: 1,
            tasks_posted: 0,
            tasks_answered: 0,
            tasks_expired: 0,
            tasks_retried: 0,
            probability_evals: 0,
            nanos: 1000,
        });
        assert_eq!(rec.attributed_nanos(), 650);
        assert_eq!(rec.unattributed_nanos(), 350);
        // The invariant the spans must satisfy: no run time is silently
        // dropped between phase spans.
        assert_eq!(
            rec.attributed_nanos() + rec.unattributed_nanos(),
            rec.total_nanos()
        );
        assert!(rec.summary().contains("unattributed=0.000ms"));
    }

    #[test]
    fn redacted_events_zero_timing() {
        let mut rec = MetricsRecorder::new();
        rec.event(&Event::SpanFinished {
            phase: RunPhase::Model,
            nanos: 999,
        });
        match rec.redacted_events()[0] {
            Event::SpanFinished { nanos, .. } => assert_eq!(nanos, 0),
            _ => unreachable!(),
        }
    }
}
