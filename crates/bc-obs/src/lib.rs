//! Observability for BayesCrowd runs: structured events, sinks, metrics.
//!
//! A run emits a stream of [`Event`]s — phase spans, per-round task
//! accounting, solver effort — through the [`Observer`] trait. Built-in
//! sinks:
//!
//! - [`NoopObserver`]: free; the default behind `BayesCrowd::run`.
//! - [`JsonLinesSink`]: streams the trace as JSON lines for offline
//!   analysis; [`Event::from_json_line`] parses it back.
//! - [`MetricsRecorder`]: in-memory aggregation (per-phase timing,
//!   counters, histograms) for tests and the bench harness.
//! - [`RunProfiler`]: folds the stream into a hierarchical
//!   [`ProfileReport`] span tree (`round/select/solve/adpll`, …).
//! - [`Tee`]: fan one stream out to two sinks.
//!
//! ```
//! use bc_obs::{Event, JsonLinesSink, MetricsRecorder, Observer, Tee};
//!
//! let mut trace = JsonLinesSink::new(Vec::new());
//! let mut metrics = MetricsRecorder::new();
//! let mut obs = Tee::new(&mut trace, &mut metrics);
//! obs.event(&Event::RoundStarted { round: 1 });
//! assert_eq!(metrics.events().len(), 1);
//! ```

#![warn(missing_docs)]

mod event;
mod metrics;
mod profile;
mod sink;

pub use event::{Event, RunPhase};
pub use metrics::{peak_rss_bytes, Counters, Histogram, MetricsRecorder};
pub use profile::{ProfileReport, Profiler, ReportNode, RunProfiler};
pub use sink::{JsonLinesSink, NoopObserver, Observer, Tee};

use std::time::Instant;

/// A started phase span; finish with [`Span::finish`] to get the elapsed
/// monotonic nanoseconds (the caller decides which event to put them in).
#[derive(Debug)]
pub struct Span {
    phase: RunPhase,
    start: Instant,
}

impl Span {
    /// Starts timing `phase` now.
    pub fn start(phase: RunPhase) -> Self {
        Span {
            phase,
            start: Instant::now(),
        }
    }

    /// The phase being timed.
    pub fn phase(&self) -> RunPhase {
        self.phase
    }

    /// Nanoseconds elapsed so far without consuming the span.
    pub fn elapsed_nanos(&self) -> u128 {
        self.start.elapsed().as_nanos()
    }

    /// Ends the span, emitting [`Event::SpanFinished`] to `observer`, and
    /// returns the elapsed nanoseconds.
    pub fn finish(self, observer: &mut dyn Observer) -> u128 {
        let nanos = self.elapsed_nanos();
        observer.event(&Event::SpanFinished {
            phase: self.phase,
            nanos,
        });
        nanos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_emits_its_phase() {
        let mut rec = MetricsRecorder::new();
        let span = Span::start(RunPhase::CTable);
        assert_eq!(span.phase(), RunPhase::CTable);
        span.finish(&mut rec);
        match rec.events() {
            [Event::SpanFinished { phase, .. }] => assert_eq!(*phase, RunPhase::CTable),
            other => panic!("unexpected events: {other:?}"),
        }
    }
}
