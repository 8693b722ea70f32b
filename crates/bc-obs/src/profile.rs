//! Hierarchical profiling: path-addressed accumulation into a
//! serializable [`ProfileReport`] tree.
//!
//! [`Profiler::record`] accrues externally measured nanoseconds into an
//! absolute `/`-separated path such as `round/select/solve`, creating
//! intermediate nodes as needed. This is how [`RunProfiler`] folds an
//! event stream into the canonical span taxonomy without timing anything
//! twice: every `nanos` it files was already measured at the emission
//! site.
//!
//! The resulting [`ProfileReport`] renders as an indented text tree and
//! as canonical single-line JSON (fixed key order, bc-snapshot's spaced
//! layout) whose parse → write round-trip is byte-identical.

use crate::event::{int, Event, RunPhase};
use crate::sink::Observer;
use bc_snapshot::{SnapshotError, Value};
use std::fmt::Write as _;

#[derive(Debug)]
struct Node {
    name: String,
    count: u64,
    nanos: u128,
    children: Vec<usize>,
}

/// An arena-backed tree of named spans accumulating call counts and
/// wall-clock nanoseconds.
///
/// Children keep first-creation order, so two runs that produce the same
/// sequence of span names produce structurally identical reports.
#[derive(Debug)]
pub struct Profiler {
    nodes: Vec<Node>,
}

impl Profiler {
    /// A profiler whose root span is named `root`.
    pub fn new(root: &str) -> Self {
        Profiler {
            nodes: vec![Node {
                name: root.to_string(),
                count: 0,
                nanos: 0,
                children: Vec::new(),
            }],
        }
    }

    fn child(&mut self, parent: usize, name: &str) -> usize {
        if let Some(&idx) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name: name.to_string(),
            count: 0,
            nanos: 0,
            children: Vec::new(),
        });
        self.nodes[parent].children.push(idx);
        idx
    }

    /// Accrues `nanos` and one call into the absolute `/`-separated
    /// `path`, creating intermediate nodes as needed. The empty path
    /// addresses the root.
    pub fn record(&mut self, path: &str, nanos: u128) {
        self.record_with(path, nanos, 1);
    }

    /// Like [`Profiler::record`] but accruing an explicit `count` —
    /// useful for count-only telemetry such as search-tree decisions,
    /// where `nanos` is 0 because the time lives in an ancestor span.
    pub fn record_with(&mut self, path: &str, nanos: u128, count: u64) {
        let mut cur = 0;
        if !path.is_empty() {
            for seg in path.split('/') {
                cur = self.child(cur, seg);
            }
        }
        self.nodes[cur].count += count;
        self.nodes[cur].nanos += nanos;
    }

    /// Snapshots the accumulated tree.
    pub fn report(&self) -> ProfileReport {
        fn build(nodes: &[Node], idx: usize) -> ReportNode {
            ReportNode {
                name: nodes[idx].name.clone(),
                count: nodes[idx].count,
                nanos: nodes[idx].nanos,
                children: nodes[idx]
                    .children
                    .iter()
                    .map(|&c| build(nodes, c))
                    .collect(),
            }
        }
        ProfileReport {
            root: build(&self.nodes, 0),
        }
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new("run")
    }
}

/// One span in a [`ProfileReport`] tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReportNode {
    /// Span name (one path segment).
    pub name: String,
    /// Times the span was closed, or an event-defined count for
    /// count-only telemetry nodes.
    pub count: u64,
    /// Wall-clock nanoseconds accrued.
    pub nanos: u128,
    /// Child spans in first-creation order.
    pub children: Vec<ReportNode>,
}

impl ReportNode {
    fn to_value(&self) -> Value {
        Value::obj(vec![
            ("name", Value::Str(self.name.clone())),
            ("count", int(self.count)),
            ("nanos", int(self.nanos)),
            (
                "children",
                Value::List(self.children.iter().map(ReportNode::to_value).collect()),
            ),
        ])
    }

    /// The node of a map with exactly the keys `name`, `count`, `nanos`
    /// and `children`, in that order.
    fn from_value(v: &Value) -> Result<ReportNode, SnapshotError> {
        let map = v.as_map().unwrap_or_default();
        let keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["name", "count", "nanos", "children"] {
            return Err(SnapshotError::Invalid(format!(
                "span keys {keys:?} are not name, count, nanos, children"
            )));
        }
        Ok(ReportNode {
            name: v.field::<&str>("name")?.to_string(),
            count: v.field("count")?,
            nanos: v.field("nanos")?,
            children: v
                .field::<&Value>("children")?
                .list_of("span children", ReportNode::from_value)?,
        })
    }

    fn write_text(&self, out: &mut String, depth: usize) {
        let _ = writeln!(
            out,
            "{:indent$}{} {:.3}ms ×{}",
            "",
            self.name,
            self.nanos as f64 / 1e6,
            self.count,
            indent = depth * 2
        );
        for child in &self.children {
            child.write_text(out, depth + 1);
        }
    }
}

/// A snapshot of a [`Profiler`] tree: renderable as text, serializable
/// as canonical single-line JSON whose parse → write round-trip is
/// byte-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileReport {
    root: ReportNode,
}

impl ProfileReport {
    /// The root span.
    pub fn root(&self) -> &ReportNode {
        &self.root
    }

    /// Looks up a span by `/`-separated path below the root; the empty
    /// path returns the root itself.
    pub fn node(&self, path: &str) -> Option<&ReportNode> {
        let mut cur = &self.root;
        if path.is_empty() {
            return Some(cur);
        }
        for seg in path.split('/') {
            cur = cur.children.iter().find(|c| c.name == seg)?;
        }
        Some(cur)
    }

    /// An indented text rendering, one span per line with milliseconds
    /// and call count.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        self.root.write_text(&mut out, 0);
        out
    }

    /// Canonical single-line JSON: fixed key order
    /// (`name`, `count`, `nanos`, `children`), `", "` separators, no
    /// trailing newline. [`ProfileReport::from_json`] of this output
    /// re-serializes to the identical bytes. A `nanos` above `i128::MAX`
    /// is written as `i128::MAX` (saturating; no run gets near it).
    pub fn to_json(&self) -> String {
        self.root.to_value().to_json_spaced()
    }

    /// Parses the JSON produced by [`ProfileReport::to_json`]: any JSON
    /// whitespace, but every span's keys exactly `name`, `count`, `nanos`,
    /// `children`, in that order. Nesting deeper than
    /// [`bc_snapshot::MAX_DEPTH`] is an error.
    pub fn from_json(input: &str) -> Result<ProfileReport, String> {
        let root = ReportNode::from_value(&Value::parse(input)?).map_err(|e| match e {
            SnapshotError::Invalid(reason) => reason,
            other => other.to_string(),
        })?;
        Ok(ProfileReport { root })
    }
}

/// Maps a run phase onto its canonical profile path.
fn phase_path(phase: RunPhase) -> &'static str {
    match phase {
        RunPhase::Model => "model",
        RunPhase::CTable => "ctable",
        RunPhase::Select => "round/select",
        RunPhase::Post => "round/post",
        RunPhase::Propagate => "round/propagate",
        RunPhase::Finalize => "finalize",
    }
}

fn solve_path(phase: RunPhase) -> String {
    format!("{}/solve", phase_path(phase))
}

/// An [`Observer`] that folds the event stream into the canonical span
/// taxonomy:
///
/// ```text
/// run
/// ├── model            (SpanFinished)
/// │   └── train        (ModelTrained; em/search iteration counts below)
/// ├── ctable           (SpanFinished)
/// │   └── build        (CTableBuilt)
/// ├── round            (RoundFinished; count = rounds)
/// │   ├── select       (SpanFinished, summed over rounds)
/// │   │   ├── solve    (ProbabilityBatch; count = objects whose
/// │   │   │   │         `Pr(φ)` was summed)
/// │   │   │   └── points  (count = joint-support points, nanos 0)
/// │   │   └── utility  (UtilityBatch; count = outside passes)
/// │   │       └── points  (count = joint-support points, nanos 0)
/// │   ├── post
/// │   └── propagate
/// │       └── fixpoint (Propagated)
/// └── finalize
///     └── solve        (and its points child)
/// ```
///
/// Every `nanos` filed here was measured at the emission site, so the
/// profiler never times anything itself and adds no clock reads to the
/// run.
#[derive(Debug, Default)]
pub struct RunProfiler {
    profiler: Profiler,
}

impl RunProfiler {
    /// An empty run profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots the accumulated span tree.
    pub fn report(&self) -> ProfileReport {
        self.profiler.report()
    }
}

impl Observer for RunProfiler {
    fn event(&mut self, event: &Event) {
        match event {
            Event::SpanFinished { phase, nanos } => {
                self.profiler.record(phase_path(*phase), *nanos);
            }
            Event::ModelTrained {
                em_iters,
                search_iters,
                nanos,
                ..
            } => {
                self.profiler.record("model/train", *nanos);
                self.profiler
                    .record_with("model/train/em", 0, *em_iters as u64);
                self.profiler
                    .record_with("model/train/search", 0, *search_iters as u64);
            }
            Event::CTableBuilt { nanos, .. } => {
                self.profiler.record("ctable/build", *nanos);
            }
            Event::ProbabilityBatch {
                phase,
                objects,
                points,
                nanos,
                ..
            } => {
                let path = solve_path(*phase);
                self.profiler.record_with(&path, *nanos, *objects as u64);
                self.profiler
                    .record_with(&format!("{path}/points"), 0, *points);
            }
            Event::UtilityBatch {
                solver_calls,
                points,
                nanos,
                ..
            } => {
                self.profiler
                    .record_with("round/select/utility", *nanos, *solver_calls);
                self.profiler
                    .record_with("round/select/utility/points", 0, *points);
            }
            Event::Propagated { nanos, .. } => {
                self.profiler.record("round/propagate/fixpoint", *nanos);
            }
            Event::RoundFinished { nanos, .. } => {
                self.profiler.record("round", *nanos);
            }
            Event::RunFinished { nanos, .. } => {
                self.profiler.record("", *nanos);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_builds_paths_and_keeps_creation_order() {
        let mut p = Profiler::default();
        p.record("round/select", 100);
        p.record("round/post", 40);
        p.record("round/select", 60);
        p.record("round", 250);
        let r = p.report();
        assert_eq!(r.root().name, "run");
        let round = r.node("round").unwrap();
        assert_eq!(round.nanos, 250);
        assert_eq!(round.count, 1);
        let names: Vec<&str> = round.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["select", "post"]);
        assert_eq!(r.node("round/select").unwrap().nanos, 160);
        assert_eq!(r.node("round/select").unwrap().count, 2);
        assert_eq!(r.node("round/missing"), None);
        assert_eq!(r.node("").unwrap().name, "run");
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let mut p = Profiler::default();
        p.record("model", 1_000_000);
        p.record_with("model/train/em", 0, 7);
        p.record("round/select", 42);
        p.record("", 2_000_000);
        let report = p.report();
        let json = report.to_json();
        let reparsed = ProfileReport::from_json(&json).expect("canonical JSON parses");
        assert_eq!(reparsed, report);
        assert_eq!(reparsed.to_json(), json);
    }

    #[test]
    fn json_exact_bytes_for_small_tree() {
        let mut p = Profiler::new("run");
        p.record("a", 5);
        let json = p.report().to_json();
        assert_eq!(
            json,
            "{\"name\": \"run\", \"count\": 0, \"nanos\": 0, \"children\": \
             [{\"name\": \"a\", \"count\": 1, \"nanos\": 5, \"children\": []}]}"
        );
    }

    #[test]
    fn json_escapes_special_names() {
        let mut p = Profiler::new("a\"b\\c\nd");
        p.record("x\ty", 1);
        let json = p.report().to_json();
        let reparsed = ProfileReport::from_json(&json).unwrap();
        assert_eq!(reparsed.root().name, "a\"b\\c\nd");
        assert_eq!(reparsed.to_json(), json);
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"name\": \"x\"}",
            "{\"count\": 1, \"name\": \"x\", \"nanos\": 0, \"children\": []}",
            "{\"name\": \"x\", \"count\": -1, \"nanos\": 0, \"children\": []}",
            "{\"name\": \"x\", \"count\": 1, \"nanos\": 0, \"children\": []} trailing",
        ] {
            assert!(ProfileReport::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let open = "{\"name\": \"x\", \"count\": 0, \"nanos\": 0, \"children\": [";
        let deep = open.repeat(100_000) + &"]}".repeat(100_000);
        assert!(ProfileReport::from_json(&deep).is_err());
    }

    #[test]
    fn run_profiler_maps_events_onto_taxonomy() {
        let mut rp = RunProfiler::new();
        rp.event(&Event::ModelTrained {
            bic: -1.0,
            edges: 2,
            em_iters: 4,
            search_iters: 3,
            blanket_cells: 5,
            ve_cells: 1,
            blanket_keys: 2,
            nanos: 500,
        });
        rp.event(&Event::SpanFinished {
            phase: RunPhase::Model,
            nanos: 600,
        });
        rp.event(&Event::ProbabilityBatch {
            phase: RunPhase::Select,
            objects: 3,
            cached: 1,
            points: 9,
            groups: 1,
            clause_tables: 4,
            nanos: 200,
        });
        rp.event(&Event::UtilityBatch {
            candidates: 4,
            solver_calls: 3,
            points: 11,
            clause_tables: 5,
            nanos: 300,
        });
        rp.event(&Event::RoundFinished {
            round: 1,
            posted: 2,
            answered: 2,
            expired: 0,
            requeued: 0,
            retried: 0,
            nanos: 900,
        });
        rp.event(&Event::RunFinished {
            rounds: 1,
            tasks_posted: 2,
            tasks_answered: 2,
            tasks_expired: 0,
            tasks_retried: 0,
            probability_evals: 3,
            nanos: 2000,
        });
        let r = rp.report();
        assert_eq!(r.root().nanos, 2000);
        assert_eq!(r.node("model").unwrap().nanos, 600);
        assert_eq!(r.node("model/train").unwrap().nanos, 500);
        assert_eq!(r.node("model/train/em").unwrap().count, 4);
        assert_eq!(r.node("model/train/search").unwrap().count, 3);
        assert_eq!(r.node("round").unwrap().nanos, 900);
        let solve = r.node("round/select/solve").unwrap();
        assert_eq!(solve.nanos, 200);
        assert_eq!(solve.count, 3);
        let points = r.node("round/select/solve/points").unwrap();
        assert_eq!((points.nanos, points.count), (0, 9));
        let names: Vec<&str> = solve.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["points"]);
        let utility = r.node("round/select/utility").unwrap();
        assert_eq!((utility.nanos, utility.count), (300, 3));
        assert_eq!(r.node("round/select/utility/points").unwrap().count, 11);
        let text = r.render_text();
        assert!(text.contains("points"), "text: {text}");
    }
}
