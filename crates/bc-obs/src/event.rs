//! The structured event taxonomy of a BayesCrowd run.
//!
//! Every event is a flat record of counters plus (where meaningful) a
//! monotonic duration in nanoseconds. Events serialize to single-line JSON
//! objects ([`Event::to_json_line`]) and parse back
//! ([`Event::from_json_line`]), so a JSON-lines trace written by one
//! process can be reconciled against the final run report by another.

use bc_snapshot::{FromValue, Value};
use std::fmt;

/// The instrumented phases of a run, in execution order.
///
/// `Model` and `CTable` happen once up front; `Select`, `Post`, and
/// `Propagate` repeat every crowdsourcing round; `Finalize` happens once at
/// the end (deriving the answer set and scoring it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RunPhase {
    /// Bayesian-network training and per-variable distribution derivation.
    Model,
    /// C-table construction (Algorithm 2).
    CTable,
    /// Per-round probability refresh, object ranking, and task assembly.
    Select,
    /// Posting the batch to the crowd platform and collecting outcomes.
    Post,
    /// Folding answers back: cache invalidation, constraint propagation,
    /// distribution re-conditioning.
    Propagate,
    /// Deriving the final answer set from the terminal c-table state, and
    /// scoring it against the platform's ground truth when the platform has
    /// one (the complete-data skyline and its accuracy).
    Finalize,
}

impl RunPhase {
    /// All phases, in execution order.
    pub const ALL: [RunPhase; 6] = [
        RunPhase::Model,
        RunPhase::CTable,
        RunPhase::Select,
        RunPhase::Post,
        RunPhase::Propagate,
        RunPhase::Finalize,
    ];

    /// Stable lowercase name used in traces.
    pub fn name(self) -> &'static str {
        match self {
            RunPhase::Model => "model",
            RunPhase::CTable => "ctable",
            RunPhase::Select => "select",
            RunPhase::Post => "post",
            RunPhase::Propagate => "propagate",
            RunPhase::Finalize => "finalize",
        }
    }

    /// Inverse of [`RunPhase::name`].
    pub fn from_name(name: &str) -> Option<RunPhase> {
        RunPhase::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl fmt::Display for RunPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured event of a BayesCrowd run.
///
/// All `nanos` fields are monotonic (`std::time::Instant`) durations and
/// are the only non-deterministic parts of a seeded run's trace; see
/// [`Event::redact_timing`].
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// The run began; sizes of the input and the cost constraints.
    RunStarted {
        /// Objects in the dataset.
        objects: usize,
        /// Attributes per object.
        attrs: usize,
        /// Missing cells (c-table variables before pruning).
        missing_vars: usize,
        /// Task budget `B`.
        budget: usize,
        /// Latency constraint `L` (rounds).
        latency: usize,
    },
    /// The Bayesian network was trained.
    ModelTrained {
        /// Total BIC score of the learned structure on the complete rows
        /// (`0.0` for the uniform-prior ablation or with no complete rows).
        bic: f64,
        /// Edges in the learned DAG.
        edges: usize,
        /// EM sweeps performed (`0` when EM was disabled).
        em_iters: usize,
        /// Structure-search moves applied (hill-climb improving moves or
        /// accepted annealing moves).
        search_iters: usize,
        /// Missing cells whose conditional came from the Markov-blanket
        /// closed form.
        blanket_cells: usize,
        /// Missing cells whose conditional needed variable elimination.
        ve_cells: usize,
        /// Distinct `(attribute, blanket values)` closed-form evaluations.
        blanket_keys: usize,
        /// Training wall-clock time.
        nanos: u128,
    },
    /// The c-table was built.
    CTableBuilt {
        /// Objects (= conditions) in the table.
        objects: usize,
        /// Objects whose condition is still undecided.
        open_objects: usize,
        /// Distinct variables appearing in open conditions.
        vars: usize,
        /// Expressions across open conditions.
        exprs: usize,
        /// Objects discarded outright by α-pruning.
        pruned: usize,
        /// Sum of dominator-set sizes over all objects (`Σ |D(o)|`).
        candidates: u64,
        /// Bitset words combined while deriving dominator sets (zero for
        /// the pairwise baseline).
        bitset_words: u64,
        /// Construction wall-clock time.
        nanos: u128,
    },
    /// A crowdsourcing round began.
    RoundStarted {
        /// 1-based round index (framework rounds, not platform rounds:
        /// straggling platforms may charge extra latency per batch).
        round: usize,
    },
    /// A batch of condition probabilities was summed off factor tables,
    /// with the effort of building the tables and of the passes.
    ProbabilityBatch {
        /// Which phase requested the batch.
        phase: RunPhase,
        /// Conditions whose `Pr(φ)` was summed (cached conditions are not
        /// re-summed and do not appear here).
        objects: usize,
        /// Open conditions whose `Pr(φ)` the batch found cached.
        cached: usize,
        /// Points of the own cells' joint supports the passes visited.
        points: u64,
        /// Factor groups the passes multiplied: distinct own-cell sets
        /// among each condition's clauses.
        groups: u64,
        /// Clause tables built.
        clause_tables: u64,
        /// Batch wall-clock time.
        nanos: u128,
    },
    /// One round's task assembly: the marginal-utility evaluations
    /// (Definition 6) UBS/HHS ran to pick each object's expression. Emitted
    /// once per round that selects fresh tasks; under FBS nothing is scored
    /// and only `nanos` is non-zero.
    UtilityBatch {
        /// Candidate expressions scored.
        candidates: u64,
        /// Outside passes over factor tables: one per object with a
        /// candidate whose `Pr(e)` lies strictly inside `(0, 1)`.
        solver_calls: u64,
        /// Points of the own cells' joint supports those passes visited.
        points: u64,
        /// Clause tables built for those passes.
        clause_tables: u64,
        /// Task-assembly wall-clock time (scoring plus candidate ordering).
        nanos: u128,
    },
    /// Crowd answers were propagated through the constraint store.
    Propagated {
        /// Answers folded in.
        answers: usize,
        /// Open conditions re-simplified: those mentioning an answered
        /// variable.
        examined: usize,
        /// Expressions handed to the constraint store to decide: those
        /// mentioning an answered variable.
        visited: usize,
        /// Conditions that became decided.
        decided: usize,
        /// Propagation wall-clock time.
        nanos: u128,
    },
    /// A crowdsourcing round finished. Per round,
    /// `posted == answered + expired + requeued` — every posted task is
    /// accounted for exactly once.
    RoundFinished {
        /// 1-based round index.
        round: usize,
        /// Tasks posted this round (including re-posts).
        posted: usize,
        /// Tasks that came back answered.
        answered: usize,
        /// Tasks abandoned for good this round (final attempt failed).
        expired: usize,
        /// Failed tasks re-queued for a later attempt.
        requeued: usize,
        /// Re-posts of previously failed tasks included in `posted`.
        retried: usize,
        /// Round wall-clock time (select + post + propagate).
        nanos: u128,
    },
    /// A phase span closed.
    SpanFinished {
        /// The phase that just finished.
        phase: RunPhase,
        /// Span wall-clock time.
        nanos: u128,
    },
    /// The run gave up on at least one task; the answer set falls back to
    /// posterior probabilities for the affected conditions.
    Degraded {
        /// Tasks still queued (and still useful) when budget or latency ran
        /// out — abandoned at finalization, on top of per-round expiries.
        tasks_abandoned: usize,
    },
    /// A durable checkpoint of the full run state was written.
    CheckpointWritten {
        /// 1-based round index the checkpoint covers (0 before any round).
        round: usize,
        /// Serialized size of the snapshot document.
        bytes: usize,
        /// Serialization wall-clock time.
        nanos: u128,
    },
    /// A run was restored from a checkpoint and is about to continue.
    Resumed {
        /// 1-based round index the run continues after.
        round: usize,
        /// Budget remaining at the checkpoint.
        budget_left: usize,
        /// Open c-table expressions at the checkpoint.
        open_exprs: usize,
        /// Wall-clock time from reading the checkpoint to a ready session.
        nanos: u128,
    },
    /// The run finished; totals mirror the final `RunReport`.
    RunFinished {
        /// Platform-visible rounds consumed.
        rounds: usize,
        /// Total tasks posted.
        tasks_posted: usize,
        /// Total tasks answered.
        tasks_answered: usize,
        /// Total tasks abandoned without a usable answer.
        tasks_expired: usize,
        /// Total re-posts.
        tasks_retried: usize,
        /// Condition-probability evaluations performed.
        probability_evals: u64,
        /// Total run wall-clock time.
        nanos: u128,
    },
}

impl Event {
    /// A copy with every `nanos` field zeroed — the deterministic part of a
    /// seeded run's trace (golden-trace tests compare these).
    pub fn redact_timing(&self) -> Event {
        let mut e = self.clone();
        match &mut e {
            Event::ModelTrained { nanos, .. }
            | Event::CTableBuilt { nanos, .. }
            | Event::ProbabilityBatch { nanos, .. }
            | Event::UtilityBatch { nanos, .. }
            | Event::Propagated { nanos, .. }
            | Event::RoundFinished { nanos, .. }
            | Event::SpanFinished { nanos, .. }
            | Event::CheckpointWritten { nanos, .. }
            | Event::Resumed { nanos, .. }
            | Event::RunFinished { nanos, .. } => *nanos = 0,
            Event::RunStarted { .. } | Event::RoundStarted { .. } | Event::Degraded { .. } => {}
        }
        e
    }
}

/// Generates [`Event::kind`], [`Event::to_json_line`] and
/// [`Event::from_json_line`] from the wire table below. Encoding matches
/// each variant without `..`, and decoding builds it field by field, so a
/// field missing from the table does not compile.
macro_rules! wire_format {
    ($($kind:ident { $($field:ident),* })*) => {
        impl Event {
            /// Stable event-kind name used in traces.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$kind { .. } => stringify!($kind),)*
                }
            }

            /// Serializes the event as one JSON object on one line, prefixed
            /// with a sequence number:
            /// `{"seq": 3, "event": "RoundStarted", "round": 1}`. A `nanos`
            /// above `i128::MAX` is written as `i128::MAX` (saturating; no
            /// run gets near it), and a non-finite `bic` as `0.0`.
            pub fn to_json_line(&self, seq: u64) -> String {
                let kind = Value::Str(self.kind().into());
                let mut fields = vec![("seq", seq.encode()), ("event", kind)];
                match self {
                    $(Event::$kind { $($field),* } => {
                        $(fields.push((stringify!($field), $field.encode()));)*
                    })*
                }
                Value::obj(fields).to_json_spaced()
            }

            /// Parses one line written by [`Event::to_json_line`], returning
            /// the sequence number and the event. Returns `None` if the line
            /// is not JSON ([`Value::parse`]), lacks a field of its event
            /// kind or holds a key that is not one, or holds an integer
            /// field that is not plain digits within the field's range.
            pub fn from_json_line(line: &str) -> Option<(u64, Event)> {
                let v = Value::parse(line).ok()?;
                let seq = Field::decode(v.get("seq")?)?;
                let (event, fields) = match v.get("event")?.as_str()? {
                    $(stringify!($kind) => (
                        Event::$kind {
                            $($field: Field::decode(v.get(stringify!($field))?)?,)*
                        },
                        [$(stringify!($field)),*].len(),
                    ),)*
                    _ => return None,
                };
                // `seq` and `event`, then exactly the kind's fields.
                (v.as_map()?.len() == 2 + fields).then_some((seq, event))
            }
        }
    };
}

// The trace format: every event kind with its fields in wire order. A
// field's JSON key is its name.
wire_format! {
    RunStarted { objects, attrs, missing_vars, budget, latency }
    ModelTrained {
        bic, edges, em_iters, search_iters, blanket_cells, ve_cells, blanket_keys, nanos
    }
    CTableBuilt { objects, open_objects, vars, exprs, pruned, candidates, bitset_words, nanos }
    RoundStarted { round }
    ProbabilityBatch { phase, objects, cached, points, groups, clause_tables, nanos }
    UtilityBatch { candidates, solver_calls, points, clause_tables, nanos }
    Propagated { answers, examined, visited, decided, nanos }
    RoundFinished { round, posted, answered, expired, requeued, retried, nanos }
    SpanFinished { phase, nanos }
    Degraded { tasks_abandoned }
    CheckpointWritten { round, bytes, nanos }
    Resumed { round, budget_left, open_exprs, nanos }
    RunFinished {
        rounds, tasks_posted, tasks_answered, tasks_expired, tasks_retried, probability_evals, nanos
    }
}

/// How one event field is written to, and read back from, its trace value.
trait Field: Sized {
    fn encode(&self) -> Value;
    fn decode(v: &Value) -> Option<Self>;
}

/// An integer field as a `Value`. `u128` nanos above `i128::MAX` (about
/// 5·10^21 years) saturate there rather than wrap.
pub(crate) fn int<T: TryInto<i128>>(n: T) -> Value {
    Value::Int(n.try_into().unwrap_or(i128::MAX))
}

/// Unsigned counters: read from a plain digit string only — a sign, a
/// fraction, an exponent or a value out of the type's range is `None`.
macro_rules! unsigned_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn encode(&self) -> Value {
                int(*self)
            }
            fn decode(v: &Value) -> Option<Self> {
                FromValue::from_value(v)
            }
        }
    )*};
}
unsigned_field!(usize, u64, u128);

/// Finite only: JSON has no NaN/Inf, so a non-finite value is written as
/// `0.0` and traces stay parseable regardless.
impl Field for f64 {
    fn encode(&self) -> Value {
        Value::Float(if self.is_finite() { *self } else { 0.0 })
    }
    fn decode(v: &Value) -> Option<Self> {
        v.as_f64().filter(|f| f.is_finite())
    }
}

/// By [`RunPhase::name`].
impl Field for RunPhase {
    fn encode(&self) -> Value {
        Value::Str(self.name().into())
    }
    fn decode(v: &Value) -> Option<Self> {
        RunPhase::from_name(v.as_str()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RunStarted {
                objects: 5,
                attrs: 5,
                missing_vars: 5,
                budget: 6,
                latency: 3,
            },
            Event::ModelTrained {
                bic: -12.5,
                edges: 2,
                em_iters: 0,
                search_iters: 3,
                blanket_cells: 4,
                ve_cells: 1,
                blanket_keys: 3,
                nanos: 1234,
            },
            Event::CTableBuilt {
                objects: 5,
                open_objects: 3,
                vars: 4,
                exprs: 13,
                pruned: 0,
                candidates: 7,
                bitset_words: 25,
                nanos: 99,
            },
            Event::RoundStarted { round: 1 },
            Event::ProbabilityBatch {
                phase: RunPhase::Select,
                objects: 3,
                cached: 2,
                points: 17,
                groups: 4,
                clause_tables: 5,
                nanos: 777,
            },
            Event::UtilityBatch {
                candidates: 9,
                solver_calls: 8,
                points: 41,
                clause_tables: 12,
                nanos: 6_543,
            },
            Event::Propagated {
                answers: 2,
                examined: 5,
                visited: 14,
                decided: 1,
                nanos: 55,
            },
            Event::RoundFinished {
                round: 1,
                posted: 2,
                answered: 2,
                expired: 0,
                requeued: 0,
                retried: 0,
                nanos: 888,
            },
            Event::SpanFinished {
                phase: RunPhase::Post,
                nanos: 11,
            },
            Event::Degraded { tasks_abandoned: 1 },
            Event::CheckpointWritten {
                round: 2,
                bytes: 20_480,
                nanos: 321,
            },
            Event::Resumed {
                round: 2,
                budget_left: 4,
                open_exprs: 7,
                nanos: 4_096,
            },
            Event::RunFinished {
                rounds: 3,
                tasks_posted: 6,
                tasks_answered: 5,
                tasks_expired: 1,
                tasks_retried: 0,
                probability_evals: 9,
                nanos: 4242,
            },
        ]
    }

    #[test]
    fn every_event_round_trips_through_json() {
        for (i, e) in sample_events().into_iter().enumerate() {
            let line = e.to_json_line(i as u64);
            let (seq, back) =
                Event::from_json_line(&line).unwrap_or_else(|| panic!("unparseable line: {line}"));
            assert_eq!(seq, i as u64);
            assert_eq!(back, e, "round-trip mismatch for {line}");
        }
    }

    #[test]
    fn integer_fields_parse_from_their_digits_only() {
        let ok = r#"{"seq": 3, "event": "RoundStarted", "round": 2}"#;
        assert_eq!(
            Event::from_json_line(ok),
            Some((3, Event::RoundStarted { round: 2 }))
        );
        for bad in [
            r#"{"seq": -5, "event": "RoundStarted", "round": 2}"#,
            r#"{"seq": 3, "event": "RoundStarted", "round": 1.9}"#,
            r#"{"seq": 1e300, "event": "RoundStarted", "round": 2}"#,
            r#"{"seq": 3, "event": "RoundStarted", "round": 2 trailing junk}"#,
            r#"{"seq": 3, "event": "RoundStarted", "round": 2,}"#,
            r#"{"seq": 3, "event": "RoundStarted", "round": +2}"#,
            r#"{"seq": 18446744073709551616, "event": "RoundStarted", "round": 2}"#,
        ] {
            assert_eq!(Event::from_json_line(bad), None, "{bad}");
        }
    }

    #[test]
    fn redaction_zeroes_only_timing() {
        let e = Event::RoundFinished {
            round: 2,
            posted: 3,
            answered: 1,
            expired: 1,
            requeued: 1,
            retried: 0,
            nanos: 123,
        };
        match e.redact_timing() {
            Event::RoundFinished {
                round,
                posted,
                nanos,
                ..
            } => {
                assert_eq!((round, posted, nanos), (2, 3, 0));
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // Events without timing are untouched.
        let s = Event::RoundStarted { round: 7 };
        assert_eq!(s.redact_timing(), s);
        let u = Event::UtilityBatch {
            candidates: 3,
            solver_calls: 2,
            points: 7,
            clause_tables: 1,
            nanos: 99,
        };
        assert_eq!(
            u.redact_timing(),
            Event::UtilityBatch {
                candidates: 3,
                solver_calls: 2,
                points: 7,
                clause_tables: 1,
                nanos: 0,
            }
        );
    }

    #[test]
    fn model_trained_carries_the_conditional_counts() {
        let e = Event::ModelTrained {
            bic: -3.0,
            edges: 1,
            em_iters: 0,
            search_iters: 2,
            blanket_cells: 198,
            ve_cells: 4,
            blanket_keys: 37,
            nanos: 9,
        };
        let line = e.to_json_line(7);
        for field in [
            "\"blanket_cells\": 198",
            "\"ve_cells\": 4",
            "\"blanket_keys\": 37",
        ] {
            assert!(line.contains(field), "{line}");
        }
        assert_eq!(Event::from_json_line(&line), Some((7, e)));
        // A line without the counts is rejected, not defaulted.
        let old = line.replace(", \"blanket_keys\": 37", "");
        assert!(Event::from_json_line(&old).is_none());
    }

    #[test]
    fn propagated_carries_the_examined_and_visited_counts() {
        let e = Event::Propagated {
            answers: 3,
            examined: 41,
            visited: 97,
            decided: 2,
            nanos: 9,
        };
        let line = e.to_json_line(4);
        for field in ["\"examined\": 41", "\"visited\": 97"] {
            assert!(line.contains(field), "{line}");
            assert_eq!(Event::from_json_line(&line), Some((4, e.clone())));
            // A line without the count is rejected, not defaulted.
            let old = line.replace(&format!(", {field}"), "");
            assert!(Event::from_json_line(&old).is_none(), "{old}");
        }
    }

    #[test]
    fn batches_carry_the_table_counts() {
        let events = [
            Event::UtilityBatch {
                candidates: 12,
                solver_calls: 4,
                points: 90,
                clause_tables: 6,
                nanos: 17,
            },
            Event::ProbabilityBatch {
                phase: RunPhase::Finalize,
                objects: 9,
                cached: 2,
                points: 60,
                groups: 3,
                clause_tables: 6,
                nanos: 21,
            },
        ];
        let fields: [&[&str]; 2] = [
            &[", \"points\": 90", ", \"clause_tables\": 6"],
            &[
                ", \"cached\": 2",
                ", \"points\": 60",
                ", \"groups\": 3",
                ", \"clause_tables\": 6",
            ],
        ];
        for (e, fields) in events.into_iter().zip(fields) {
            let line = e.to_json_line(6);
            for field in fields {
                assert!(line.contains(field), "{line}");
            }
            assert_eq!(Event::from_json_line(&line), Some((6, e)));
            // A line without any of the counts is rejected, not defaulted.
            for field in fields {
                let old = line.replace(field, "");
                assert!(Event::from_json_line(&old).is_none(), "{old}");
            }
        }
    }

    #[test]
    fn lines_of_retired_formats_are_rejected() {
        for old in [
            r#"{"seq": 4, "event": "ProbabilityBatch", "phase": "select", "objects": 3, "solver_calls": 3, "compiles": 1, "evaluations": 1, "branches": 17, "cache_hits": 2, "direct_components": 4, "component_splits": 1, "cache_misses": 5, "max_depth": 3, "nanos": 777}"#,
            r#"{"seq": 5, "event": "UtilityBatch", "candidates": 9, "solver_calls": 8, "compiles": 3, "circuit_nodes": 212, "reused": 2, "decisions": 41, "cache_hits": 5, "nanos": 6543}"#,
            r#"{"seq": 4, "event": "ProbabilityBatch", "phase": "select", "objects": 3, "solver_calls": 3, "compiles": 1, "evaluations": 1, "branches": 17, "cache_hits": 2, "fallbacks": 0, "nanos": 777}"#,
            r#"{"seq": 5, "event": "SolverSearch", "phase": "select", "decisions": 17, "direct_components": 4, "component_splits": 1, "cache_hits": 2, "cache_misses": 5, "max_depth": 3}"#,
            r#"{"seq": 6, "event": "UtilityBatch", "candidates": 9, "solver_calls": 8, "compiles": 3, "circuit_nodes": 212, "reused": 2, "decisions": 41, "cache_hits": 5, "fallbacks": 0, "nanos": 6543}"#,
            r#"{"seq": 4, "event": "ProbabilityBatch", "phase": "select", "objects": 3, "solver_calls": 3, "branches": 17, "cache_hits": 2, "component_splits": 1, "cache_misses": 5, "nanos": 777}"#,
            r#"{"seq": 5, "event": "UtilityBatch", "candidates": 9, "solver_calls": 8, "decisions": 41, "cache_hits": 5, "nanos": 6543}"#,
            r#"{"seq": 6, "event": "Propagated", "answers": 2, "examined": 5, "decided": 1, "depth": 2, "nanos": 55}"#,
            r#"{"seq": 6, "event": "Propagated", "answers": 2, "examined": 5, "visited": 14, "decided": 1, "depth": 2, "nanos": 55}"#,
        ] {
            assert_eq!(Event::from_json_line(old), None, "{old}");
        }
        // A key of no field is rejected, as is a repeated one.
        let line = Event::RoundStarted { round: 1 }.to_json_line(3);
        assert!(Event::from_json_line(&line).is_some());
        for extra in [r#", "fallbacks": 0}"#, r#", "round": 1}"#] {
            let bad = line.replace('}', extra);
            assert_eq!(Event::from_json_line(&bad), None, "{bad}");
        }
    }

    #[test]
    fn resumed_carries_its_time() {
        let e = Event::Resumed {
            round: 3,
            budget_left: 10,
            open_exprs: 44,
            nanos: 5_000,
        };
        let line = e.to_json_line(2);
        assert_eq!(Event::from_json_line(&line), Some((2, e.clone())));
        assert_eq!(
            e.redact_timing(),
            Event::Resumed {
                round: 3,
                budget_left: 10,
                open_exprs: 44,
                nanos: 0,
            }
        );
        // A line without the time is rejected, not defaulted.
        let old = line.replace(", \"nanos\": 5000", "");
        assert!(Event::from_json_line(&old).is_none(), "{old}");
    }

    #[test]
    fn phase_names_round_trip() {
        for p in RunPhase::ALL {
            assert_eq!(RunPhase::from_name(p.name()), Some(p));
        }
        assert_eq!(RunPhase::from_name("bogus"), None);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Event::from_json_line("not json").is_none());
        assert!(Event::from_json_line("{\"seq\": 1}").is_none());
        assert!(
            Event::from_json_line("{\"seq\": 1, \"event\": \"RoundStarted\"}").is_none(),
            "missing fields must not parse"
        );
        assert!(Event::from_json_line("{\"seq\": 1, \"event\": \"Nope\", \"x\": 2}").is_none());
    }

    #[test]
    fn non_finite_floats_stay_parseable() {
        let e = Event::ModelTrained {
            bic: f64::NAN,
            edges: 0,
            em_iters: 0,
            search_iters: 0,
            blanket_cells: 0,
            ve_cells: 0,
            blanket_keys: 0,
            nanos: 0,
        };
        let line = e.to_json_line(0);
        assert!(line.contains("\"bic\": 0.0"), "{line}");
        assert!(Event::from_json_line(&line).is_some());
    }

    #[test]
    fn nanos_beyond_i128_saturate_instead_of_wrapping() {
        let e = Event::SpanFinished {
            phase: RunPhase::Model,
            nanos: u128::MAX,
        };
        let line = e.to_json_line(0);
        assert!(
            line.ends_with(&format!("\"nanos\": {}}}", i128::MAX)),
            "{line}"
        );
    }

    #[test]
    fn json_lines_exact_bytes_for_every_kind() {
        let want = [
            r#"{"seq": 0, "event": "RunStarted", "objects": 5, "attrs": 5, "missing_vars": 5, "budget": 6, "latency": 3}"#,
            r#"{"seq": 1, "event": "ModelTrained", "bic": -12.5, "edges": 2, "em_iters": 0, "search_iters": 3, "blanket_cells": 4, "ve_cells": 1, "blanket_keys": 3, "nanos": 1234}"#,
            r#"{"seq": 2, "event": "CTableBuilt", "objects": 5, "open_objects": 3, "vars": 4, "exprs": 13, "pruned": 0, "candidates": 7, "bitset_words": 25, "nanos": 99}"#,
            r#"{"seq": 3, "event": "RoundStarted", "round": 1}"#,
            r#"{"seq": 4, "event": "ProbabilityBatch", "phase": "select", "objects": 3, "cached": 2, "points": 17, "groups": 4, "clause_tables": 5, "nanos": 777}"#,
            r#"{"seq": 5, "event": "UtilityBatch", "candidates": 9, "solver_calls": 8, "points": 41, "clause_tables": 12, "nanos": 6543}"#,
            r#"{"seq": 6, "event": "Propagated", "answers": 2, "examined": 5, "visited": 14, "decided": 1, "nanos": 55}"#,
            r#"{"seq": 7, "event": "RoundFinished", "round": 1, "posted": 2, "answered": 2, "expired": 0, "requeued": 0, "retried": 0, "nanos": 888}"#,
            r#"{"seq": 8, "event": "SpanFinished", "phase": "post", "nanos": 11}"#,
            r#"{"seq": 9, "event": "Degraded", "tasks_abandoned": 1}"#,
            r#"{"seq": 10, "event": "CheckpointWritten", "round": 2, "bytes": 20480, "nanos": 321}"#,
            r#"{"seq": 11, "event": "Resumed", "round": 2, "budget_left": 4, "open_exprs": 7, "nanos": 4096}"#,
            r#"{"seq": 12, "event": "RunFinished", "rounds": 3, "tasks_posted": 6, "tasks_answered": 5, "tasks_expired": 1, "tasks_retried": 0, "probability_evals": 9, "nanos": 4242}"#,
        ];
        let events = sample_events();
        assert_eq!(events.len(), want.len());
        for (i, (e, want)) in events.iter().zip(want).enumerate() {
            assert_eq!(e.to_json_line(i as u64), want);
        }
    }
}
