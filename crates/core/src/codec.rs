//! The checkpoint format: how a session's state maps onto one
//! `bc-snapshot` document, in both directions.
//!
//! Every section, key and wire name of a checkpoint is spelled here and
//! nowhere else: [`Session`](crate::Session) hands a [`RunState`] to
//! [`write_checkpoint`] and gets one back from [`read_checkpoint`]. The
//! shapes are part of the on-disk format (DESIGN.md, "Wire format");
//! changing any of them requires bumping `bc_snapshot::FORMAT_VERSION`.
//!
//! The codec is one module rather than an encoder beside each type: the
//! types it encodes live in six crates, and spreading the format over them
//! would make the crates that define them depend on `bc-snapshot` for a
//! format only a session writes.

use crate::config::{BayesCrowdConfig, ANSWER_THRESHOLD};
use crate::kept::ProbCache;
use crate::selection::ObjectRanking;
use crate::session::{PendingTask, RunState};
use crate::strategy::TaskStrategy;
use bc_bayes::anneal::AnnealConfig;
use bc_bayes::em::EmConfig;
use bc_bayes::learn::LearnConfig;
use bc_bayes::{ModelConfig, Pmf, StructureSearch};
use bc_crowd::{CrowdStats, FaultStats, PlatformState, RetryPolicy, Task, TaskAnswer};
use bc_ctable::Relation;
use bc_ctable::{CTable, CmpOp, Condition, ConstraintStore, Expr, Operand};
use bc_data::{Dataset, Domain, ObjectId, VarId};
use bc_snapshot::{fnv1a64, Snapshot, SnapshotError, SnapshotWriter, Value, FORMAT_VERSION};
use bc_solver::{checked_probability, VarDists};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::mem::discriminant;
use std::time::Duration;

/// Writes `state`, the run's `elapsed` wall-clock and the platform's own
/// state as one checkpoint document. Returns the bytes written.
pub(crate) fn write_checkpoint(
    out: impl Write,
    state: &RunState,
    elapsed: Duration,
    platform: &PlatformState,
) -> Result<usize, SnapshotError> {
    let config = enc_config(&state.config);
    let dataset = enc_dataset(&state.data);
    let mut w = SnapshotWriter::new(out, &fingerprint_of(&config, &dataset))?;
    w.section("config", config)?;
    w.section("dataset", dataset)?;
    w.section("model", enc_pmf_map(state.base.iter()))?;
    w.section("dists", enc_pmf_map(state.dists.iter()))?;
    w.section("store", enc_store(&state.store))?;
    w.section("ctable", enc_ctable(&state.ctable))?;
    w.section("progress", enc_progress(state, elapsed))?;
    w.section("pending", enc_pending(&state.pending))?;
    w.section("prob_cache", enc_prob_cache(state.cache.probabilities()))?;
    w.section("platform", enc_platform_state(platform))?;
    w.finish()
}

/// Reads and verifies one checkpoint document: the run state, with the
/// elapsed wall-clock as its `prior_elapsed`, and the platform state to
/// restore. The fingerprint, checksum and every section's shape are
/// checked; a torn or foreign checkpoint is an error, never a half-read
/// state. So is one of an older format version: its cached probabilities
/// were summed in ADPLL's order, so a run resumed from it would match
/// neither the run that wrote it nor one of this version.
pub(crate) fn read_checkpoint(
    reader: impl Read,
) -> Result<(RunState, PlatformState), SnapshotError> {
    let snap = Snapshot::parse(reader)?;
    if snap.version() != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(snap.version()));
    }
    let config_v = snap.section("config")?;
    let dataset_v = snap.section("dataset")?;
    let fp = fingerprint_of(config_v, dataset_v);
    if fp != snap.fingerprint() {
        return Err(inv(format!(
            "snapshot fingerprint {} does not match its own config+dataset ({fp})",
            snap.fingerprint()
        )));
    }
    let config = dec_config(config_v)?;
    let data = dec_dataset(dataset_v)?;
    let base = VarDists::new(dec_pmf_map(snap.section("model")?, &data)?);
    let dists = VarDists::new(dec_pmf_map(snap.section("dists")?, &data)?);
    let store = dec_store(snap.section("store")?, &data)?;
    let ctable = dec_ctable(snap.section("ctable")?, &data)?;
    let pending = snap.section("pending")?.list_of("pending queue", |p| {
        Ok(PendingTask {
            task: dec_task(p.field("task")?, &data)?,
            attempts: p.field("attempts")?,
            eligible_round: p.field("eligible_round")?,
        })
    })?;
    let probs = dec_prob_cache(snap.section("prob_cache")?, &ctable)?;
    let cache = ProbCache::restore(probs, &ctable);
    let platform = dec_platform_state(snap.section("platform")?, &data)?;
    let p = snap.section("progress")?;
    let state = RunState {
        budget: p.field("budget")?,
        round_idx: p.field("round")?,
        idle_rounds: p.field("idle_rounds")?,
        tasks_expired: p.field("tasks_expired")?,
        tasks_retried: p.field("tasks_retried")?,
        rounds_stalled: p.field("rounds_stalled")?,
        total_posted: p.field("total_posted")?,
        total_answered: p.field("total_answered")?,
        evals: p.field("evals")?,
        rounds_before: p.field("rounds_before")?,
        finished: p.field("finished")?,
        modeling_time: Duration::from_nanos(p.field("modeling_nanos")?),
        prior_elapsed: Duration::from_nanos(p.field("elapsed_nanos")?),
        config,
        data,
        base,
        dists,
        ctable,
        store,
        pending,
        cache,
    };
    Ok((state, platform))
}

fn inv(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Invalid(msg.into())
}

/// The run identity: a hash of the canonical config and dataset sections.
/// A checkpoint only resumes against the run it was taken from.
fn fingerprint_of(config: &Value, dataset: &Value) -> String {
    let mut bytes = config.to_json().into_bytes();
    bytes.extend_from_slice(dataset.to_json().as_bytes());
    format!("{:016x}", fnv1a64(&bytes))
}

// -- wire names -------------------------------------------------------------
//
// One table per name-coded enum, read by both directions. A variant that
// carries data appears once, with placeholder data its decoder replaces.

const OPS: [(CmpOp, &str); 6] = [
    (CmpOp::Lt, "lt"),
    (CmpOp::Le, "le"),
    (CmpOp::Gt, "gt"),
    (CmpOp::Ge, "ge"),
    (CmpOp::Eq, "eq"),
    (CmpOp::Ne, "ne"),
];
const RELATIONS: [(Relation, &str); 3] = [
    (Relation::Lt, "lt"),
    (Relation::Eq, "eq"),
    (Relation::Gt, "gt"),
];
const STRATEGIES: [(TaskStrategy, &str); 3] = [
    (TaskStrategy::Fbs, "fbs"),
    (TaskStrategy::Ubs, "ubs"),
    (TaskStrategy::Hhs { m: 0 }, "hhs"),
];
const RANKINGS: [(ObjectRanking, &str); 2] = [
    (ObjectRanking::Entropy, "entropy"),
    (ObjectRanking::Random { seed: 0 }, "random"),
];

fn searches() -> [(StructureSearch, &'static str); 2] {
    [
        (StructureSearch::HillClimb, "hill-climb"),
        (StructureSearch::Anneal(AnnealConfig::default()), "anneal"),
    ]
}

/// `x`'s wire name in `names`.
fn name_of<T>(names: &[(T, &'static str)], x: &T) -> &'static str {
    let (_, name) = names
        .iter()
        .find(|(t, _)| discriminant(t) == discriminant(x))
        .expect("every variant has a wire name");
    name
}

/// The variant named `name` in `names`; `what` names the enum in the error.
fn by_name<T: Clone>(names: &[(T, &str)], name: &str, what: &str) -> Result<T, SnapshotError> {
    names
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(t, _)| t.clone())
        .ok_or_else(|| inv(format!("unknown {what} {name:?}")))
}

/// A `{"kind": <name>}` map, to which a data-carrying variant adds its
/// fields.
fn kind<T>(names: &[(T, &'static str)], x: &T) -> Vec<(&'static str, Value)> {
    vec![("kind", name_of(names, x).into())]
}

// -- identifiers, expressions and conditions ---------------------------------

fn enc_vid(v: VarId) -> Value {
    Value::List(vec![v.object.0.into(), v.attr.0.into()])
}

/// A variable id that must name a missing cell of `data`: the tables a
/// resume fills, the c-table's occurrence index among them, key only on
/// cells a run can produce.
fn dec_cell(v: &Value, data: &Dataset) -> Result<VarId, SnapshotError> {
    let (object, attr) = v.read("variable id")?;
    let var = VarId::new(object, attr);
    let in_range = var.object.index() < data.n_objects() && var.attr.index() < data.n_attrs();
    if in_range && data.get(var.object, var.attr).is_none() {
        Ok(var)
    } else {
        Err(inv(format!("{var} is not a missing cell of the dataset")))
    }
}

fn enc_operand(rhs: Operand) -> Value {
    match rhs {
        Operand::Const(c) => Value::obj(vec![("c", c.into())]),
        Operand::Var(v) => Value::obj(vec![("v", enc_vid(v))]),
    }
}

fn dec_operand(v: &Value, data: &Dataset) -> Result<Operand, SnapshotError> {
    if let Some(c) = v.get("c") {
        Ok(Operand::Const(c.read("constant operand")?))
    } else if let Some(var) = v.get("v") {
        Ok(Operand::Var(dec_cell(var, data)?))
    } else {
        Err(inv("operand must carry \"c\" or \"v\""))
    }
}

fn enc_expr(e: &Expr) -> Value {
    Value::obj(vec![
        ("v", enc_vid(e.var())),
        ("op", name_of(&OPS, &e.op()).into()),
        ("rhs", enc_operand(e.rhs())),
    ])
}

fn dec_expr(v: &Value, data: &Dataset) -> Result<Expr, SnapshotError> {
    Ok(Expr::new(
        dec_cell(v.field("v")?, data)?,
        by_name(&OPS, v.field("op")?, "comparison operator")?,
        dec_operand(v.field("rhs")?, data)?,
    ))
}

fn enc_cond(c: &Condition) -> Value {
    match c {
        Condition::True => Value::Bool(true),
        Condition::False => Value::Bool(false),
        Condition::Cnf(_) => Value::List(
            c.clauses()
                .iter()
                .map(|cl| Value::List(cl.exprs().iter().map(enc_expr).collect()))
                .collect(),
        ),
    }
}

/// A condition whose variables are missing cells of `data`.
fn dec_cond(v: &Value, data: &Dataset) -> Result<Condition, SnapshotError> {
    match v {
        Value::Bool(true) => Ok(Condition::True),
        Value::Bool(false) => Ok(Condition::False),
        // `from_clauses` canonicalizes; serialized conditions are already
        // canonical, so the rebuild is an identity.
        Value::List(_) => Ok(Condition::from_clauses(v.list_of("condition", |cl| {
            cl.list_of("clause", |e| dec_expr(e, data))
        })?)),
        _ => Err(inv("condition must be a bool or a clause list")),
    }
}

fn enc_ctable(ctable: &CTable) -> Value {
    Value::List(ctable.iter().map(|(_, c)| enc_cond(c)).collect())
}

/// One condition per object of `data`, each over its missing cells: the
/// occurrence index is sized from the variables a table mentions.
fn dec_ctable(v: &Value, data: &Dataset) -> Result<CTable, SnapshotError> {
    let conditions = v.list_of("ctable", |c| dec_cond(c, data))?;
    if conditions.len() != data.n_objects() {
        return Err(inv(format!(
            "ctable holds {} conditions for {} objects",
            conditions.len(),
            data.n_objects()
        )));
    }
    Ok(CTable::new(conditions))
}

// -- constraint store and distributions --------------------------------------

fn enc_store(store: &ConstraintStore) -> Value {
    let cards = store.attr_cards().iter().map(|&c| c.into()).collect();
    let masks = store
        .masks()
        .map(|(v, m)| Value::List(vec![enc_vid(v), m.into()]))
        .collect();
    let facts = store
        .facts()
        .map(|((l, r), rel)| {
            let rel = name_of(&RELATIONS, &rel).into();
            Value::List(vec![enc_vid(l), enc_vid(r), rel])
        })
        .collect();
    Value::obj(vec![
        ("cards", Value::List(cards)),
        ("masks", Value::List(masks)),
        ("facts", Value::List(facts)),
    ])
}

fn dec_store(v: &Value, data: &Dataset) -> Result<ConstraintStore, SnapshotError> {
    let masks = v.field::<&Value>("masks")?.list_of("masks", |entry| {
        let (var, mask): (&Value, u64) = entry.read("mask entry")?;
        Ok((dec_cell(var, data)?, mask))
    })?;
    let facts = v.field::<&Value>("facts")?.list_of("facts", |entry| {
        let (l, r, rel): (&Value, &Value, &str) = entry.read("fact entry")?;
        let pair = (dec_cell(l, data)?, dec_cell(r, data)?);
        Ok((pair, by_name(&RELATIONS, rel, "relation")?))
    })?;
    Ok(ConstraintStore::from_parts(v.field("cards")?, masks, facts))
}

fn enc_pmf_map<'m>(entries: impl Iterator<Item = (&'m VarId, &'m Pmf)>) -> Value {
    Value::List(
        entries
            .map(|(v, pmf)| {
                let probs = pmf.probs().iter().map(|&p| p.into()).collect();
                Value::List(vec![enc_vid(*v), Value::List(probs)])
            })
            .collect(),
    )
}

fn dec_pmf_map(v: &Value, data: &Dataset) -> Result<BTreeMap<VarId, Pmf>, SnapshotError> {
    let entries = v.list_of("distribution map", |entry| {
        let (var, probs): (&Value, Vec<f64>) = entry.read("distribution entry")?;
        let total: f64 = probs.iter().sum();
        if probs.is_empty()
            || probs.iter().any(|p| !p.is_finite() || *p < 0.0)
            || (total - 1.0).abs() >= 1e-6
        {
            return Err(inv("pmf probabilities do not form a distribution"));
        }
        // Exact restore: the serialized floats are bit-identical to the
        // originals, so no renormalization happens here.
        Ok((dec_cell(var, data)?, Pmf::from_probs(probs)))
    })?;
    Ok(entries.into_iter().collect())
}

// -- dataset ----------------------------------------------------------------

fn enc_dataset(data: &Dataset) -> Value {
    let domains = data
        .domains()
        .iter()
        .map(|d| {
            let card = d.cardinality().into();
            Value::obj(vec![("name", d.name().into()), ("card", card)])
        })
        .collect();
    let rows = data
        .objects()
        .map(|o| {
            let cells = data.row(o).iter().map(|cell| match cell {
                Some(v) => (*v).into(),
                None => Value::Null,
            });
            Value::List(cells.collect())
        })
        .collect();
    Value::obj(vec![
        ("name", data.name().into()),
        ("domains", Value::List(domains)),
        ("rows", Value::List(rows)),
    ])
}

fn dec_dataset(v: &Value) -> Result<Dataset, SnapshotError> {
    let name: &str = v.field("name")?;
    let domains = v.field::<&Value>("domains")?.list_of("domains", |d| {
        Domain::new(d.field::<&str>("name")?, d.field("card")?)
            .map_err(|e| inv(format!("invalid domain: {e}")))
    })?;
    let rows = v.field::<&Value>("rows")?.list_of("rows", |row| {
        row.list_of("row", |cell| match cell {
            Value::Null => Ok(None),
            other => other.read("cell value").map(Some),
        })
    })?;
    Dataset::from_rows(name, domains, rows).map_err(|e| inv(format!("invalid dataset: {e}")))
}

// -- session progress, retry queue and probability cache ---------------------

fn enc_progress(s: &RunState, elapsed: Duration) -> Value {
    let nanos = |d: Duration| Value::Int(d.as_nanos().min(u64::MAX as u128) as i128);
    Value::obj(vec![
        ("budget", s.budget.into()),
        ("round", s.round_idx.into()),
        ("idle_rounds", s.idle_rounds.into()),
        ("tasks_expired", s.tasks_expired.into()),
        ("tasks_retried", s.tasks_retried.into()),
        ("rounds_stalled", s.rounds_stalled.into()),
        ("total_posted", s.total_posted.into()),
        ("total_answered", s.total_answered.into()),
        ("evals", s.evals.into()),
        ("rounds_before", s.rounds_before.into()),
        ("finished", s.finished.into()),
        ("modeling_nanos", nanos(s.modeling_time)),
        ("elapsed_nanos", nanos(elapsed)),
    ])
}

fn enc_task(t: &Task) -> Value {
    Value::obj(vec![("v", enc_vid(t.var)), ("rhs", enc_operand(t.rhs))])
}

/// A task over missing cells of `data`.
fn dec_task(v: &Value, data: &Dataset) -> Result<Task, SnapshotError> {
    Ok(Task {
        var: dec_cell(v.field("v")?, data)?,
        rhs: dec_operand(v.field("rhs")?, data)?,
    })
}

fn enc_pending(pending: &[PendingTask]) -> Value {
    Value::List(
        pending
            .iter()
            .map(|p| {
                Value::obj(vec![
                    ("task", enc_task(&p.task)),
                    ("attempts", p.attempts.into()),
                    ("eligible_round", p.eligible_round.into()),
                ])
            })
            .collect(),
    )
}

fn enc_prob_cache(cache: impl Iterator<Item = (ObjectId, f64)>) -> Value {
    Value::List(
        cache
            .map(|(o, p)| Value::List(vec![o.0.into(), p.into()]))
            .collect(),
    )
}

/// Cached probabilities: `[object, probability]` pairs in ascending object
/// order, each object in the table and each value a probability.
fn dec_prob_cache(v: &Value, ctable: &CTable) -> Result<BTreeMap<ObjectId, f64>, SnapshotError> {
    let mut out = BTreeMap::new();
    let mut last: Option<u32> = None;
    for (o, p) in v.read::<Vec<(u32, f64)>>("probability cache")? {
        if o as usize >= ctable.n_objects() {
            return Err(inv("cached probability's object id out of range"));
        }
        if last.is_some_and(|prev| prev >= o) {
            return Err(inv("prob_cache entries must be in ascending object order"));
        }
        let p = checked_probability(p)
            .map_err(|e| inv(format!("prob_cache entry for object {o}: {e}")))?;
        last = Some(o);
        out.insert(ObjectId(o), p);
    }
    Ok(out)
}

// -- platform state -----------------------------------------------------------

fn enc_rng(rng: &[u64; 4]) -> Value {
    Value::List(rng.iter().map(|&w| w.into()).collect())
}

fn enc_crowd_stats(s: &CrowdStats) -> Value {
    Value::obj(vec![
        ("tasks_posted", s.tasks_posted.into()),
        ("rounds", s.rounds.into()),
        ("worker_answers", s.worker_answers.into()),
        ("money_spent", s.money_spent.into()),
    ])
}

fn dec_crowd_stats(v: &Value) -> Result<CrowdStats, SnapshotError> {
    Ok(CrowdStats {
        tasks_posted: v.field("tasks_posted")?,
        rounds: v.field("rounds")?,
        worker_answers: v.field("worker_answers")?,
        money_spent: v.field("money_spent")?,
    })
}

fn enc_platform_state(state: &PlatformState) -> Value {
    match state {
        PlatformState::Simulated {
            rng,
            stats,
            escalated,
            log,
        } => {
            let log = log
                .iter()
                .map(|a| {
                    let rel = name_of(&RELATIONS, &a.relation).into();
                    Value::obj(vec![("task", enc_task(&a.task)), ("rel", rel)])
                })
                .collect();
            Value::obj(vec![
                ("kind", "simulated".into()),
                ("rng", enc_rng(rng)),
                ("stats", enc_crowd_stats(stats)),
                ("escalated", (*escalated).into()),
                ("log", Value::List(log)),
            ])
        }
        PlatformState::Faulty {
            rng,
            workforce,
            overlay,
            faults,
            inner,
        } => Value::obj(vec![
            ("kind", "faulty".into()),
            ("rng", enc_rng(rng)),
            ("workforce", (*workforce).into()),
            ("overlay", enc_crowd_stats(overlay)),
            (
                "faults",
                Value::obj(vec![
                    ("expired", faults.expired_injected.into()),
                    ("spam", faults.spam_injected.into()),
                    ("duplicates", faults.duplicates_injected.into()),
                    ("straggler_rounds", faults.straggler_rounds.into()),
                ]),
            ),
            ("inner", enc_platform_state(inner)),
        ]),
    }
}

fn dec_platform_state(v: &Value, data: &Dataset) -> Result<PlatformState, SnapshotError> {
    match v.field::<&str>("kind")? {
        "simulated" => Ok(PlatformState::Simulated {
            rng: v.field("rng")?,
            stats: dec_crowd_stats(v.field("stats")?)?,
            escalated: v.field("escalated")?,
            log: v.field::<&Value>("log")?.list_of("answer log", |a| {
                Ok(TaskAnswer {
                    task: dec_task(a.field("task")?, data)?,
                    relation: by_name(&RELATIONS, a.field("rel")?, "relation")?,
                })
            })?,
        }),
        "faulty" => {
            let faults: &Value = v.field("faults")?;
            Ok(PlatformState::Faulty {
                rng: v.field("rng")?,
                workforce: v.field("workforce")?,
                overlay: dec_crowd_stats(v.field("overlay")?)?,
                faults: FaultStats {
                    expired_injected: faults.field("expired")?,
                    spam_injected: faults.field("spam")?,
                    duplicates_injected: faults.field("duplicates")?,
                    straggler_rounds: faults.field("straggler_rounds")?,
                },
                inner: Box::new(dec_platform_state(v.field("inner")?, data)?),
            })
        }
        other => Err(inv(format!("unknown platform state kind {other:?}"))),
    }
}

// -- configuration ------------------------------------------------------------

fn enc_learn(l: &LearnConfig) -> Value {
    Value::obj(vec![
        ("max_parents", l.max_parents.into()),
        ("laplace", l.laplace.into()),
        ("max_rows_for_scoring", l.max_rows_for_scoring.into()),
        ("max_iterations", l.max_iterations.into()),
    ])
}

fn dec_learn(v: &Value) -> Result<LearnConfig, SnapshotError> {
    Ok(LearnConfig {
        max_parents: v.field("max_parents")?,
        laplace: v.field("laplace")?,
        max_rows_for_scoring: v.field("max_rows_for_scoring")?,
        max_iterations: v.field("max_iterations")?,
    })
}

fn enc_config(c: &BayesCrowdConfig) -> Value {
    let [solver, heuristic, caching, dominators, threshold] = fixed_keys();
    let mut strategy = kind(&STRATEGIES, &c.strategy);
    if let TaskStrategy::Hhs { m } = c.strategy {
        strategy.push(("m", m.into()));
    }
    let mut ranking = kind(&RANKINGS, &c.ranking);
    if let ObjectRanking::Random { seed } = c.ranking {
        ranking.push(("seed", seed.into()));
    }
    let em = match &c.model.em {
        None => Value::Null,
        Some(em) => Value::obj(vec![
            ("iterations", em.iterations.into()),
            ("max_missing_per_row", em.max_missing_per_row.into()),
            ("laplace", em.laplace.into()),
        ]),
    };
    let mut search = kind(&searches(), &c.model.search);
    if let StructureSearch::Anneal(a) = &c.model.search {
        search.extend([
            ("learn", enc_learn(&a.learn)),
            ("initial_temperature", a.initial_temperature.into()),
            ("cooling", a.cooling.into()),
            ("moves", a.moves.into()),
            ("seed", a.seed.into()),
        ]);
    }
    let model = Value::obj(vec![
        ("learn", enc_learn(&c.model.learn)),
        ("uniform_prior", c.model.uniform_prior.into()),
        ("em", em),
        ("search", Value::obj(search)),
    ]);
    let retry = Value::obj(vec![
        ("max_attempts", c.retry.max_attempts.into()),
        ("escalate_workers", c.retry.escalate_workers.into()),
        ("backoff_base", c.retry.backoff_base.into()),
    ]);
    Value::obj(vec![
        ("budget", c.budget.into()),
        ("latency", c.latency.into()),
        ("alpha", c.alpha.into()),
        ("strategy", Value::obj(strategy)),
        ("ranking", Value::obj(ranking)),
        solver,
        heuristic,
        caching,
        dominators,
        ("model", model),
        ("conflict_free", c.conflict_free.into()),
        ("propagate_answers", c.propagate_answers.into()),
        ("parallel", c.parallel.into()),
        ("retry", retry),
        threshold,
    ])
}

/// The config keys that hold what the paper fixes: ADPLL with
/// most-frequent branching and caching, the fast dominator index, and
/// [`ANSWER_THRESHOLD`]. Each is written with its one value, which keeps
/// the fingerprints of earlier checkpoints; a checkpoint holding another
/// value is rejected, never read as this one.
fn fixed_keys() -> [(&'static str, Value); 5] {
    [
        ("solver", "adpll".into()),
        ("branch_heuristic", "most-frequent".into()),
        ("solver_caching", true.into()),
        ("dominators", "fast-index".into()),
        ("answer_threshold", ANSWER_THRESHOLD.into()),
    ]
}

fn dec_config(v: &Value) -> Result<BayesCrowdConfig, SnapshotError> {
    let s: &Value = v.field("strategy")?;
    let strategy = match by_name(&STRATEGIES, s.field("kind")?, "strategy")? {
        TaskStrategy::Hhs { .. } => TaskStrategy::Hhs { m: s.field("m")? },
        other => other,
    };
    let r: &Value = v.field("ranking")?;
    let ranking = match by_name(&RANKINGS, r.field("kind")?, "ranking")? {
        ObjectRanking::Random { .. } => ObjectRanking::Random {
            seed: r.field("seed")?,
        },
        other => other,
    };
    let model: &Value = v.field("model")?;
    let em = match model.field::<&Value>("em")? {
        Value::Null => None,
        em => Some(EmConfig {
            iterations: em.field("iterations")?,
            max_missing_per_row: em.field("max_missing_per_row")?,
            laplace: em.field("laplace")?,
        }),
    };
    let s: &Value = model.field("search")?;
    let search = match by_name(&searches(), s.field("kind")?, "structure search")? {
        StructureSearch::Anneal(_) => StructureSearch::Anneal(AnnealConfig {
            learn: dec_learn(s.field("learn")?)?,
            initial_temperature: s.field("initial_temperature")?,
            cooling: s.field("cooling")?,
            moves: s.field("moves")?,
            seed: s.field("seed")?,
        }),
        other => other,
    };
    for (key, want) in fixed_keys() {
        let got: &Value = v.field(key)?;
        if *got != want {
            let (got, want) = (got.to_json(), want.to_json());
            return Err(inv(format!(
                "key {key:?} is {got}; only {want} is supported"
            )));
        }
    }
    let retry: &Value = v.field("retry")?;
    Ok(BayesCrowdConfig {
        budget: v.field("budget")?,
        latency: v.field("latency")?,
        alpha: v.field("alpha")?,
        strategy,
        ranking,
        model: ModelConfig {
            learn: dec_learn(model.field("learn")?)?,
            uniform_prior: model.field("uniform_prior")?,
            em,
            search,
        },
        conflict_free: v.field("conflict_free")?,
        propagate_answers: v.field("propagate_answers")?,
        parallel: v.field("parallel")?,
        retry: RetryPolicy {
            max_attempts: retry.field("max_attempts")?,
            escalate_workers: retry.field("escalate_workers")?,
            backoff_base: retry.field("backoff_base")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Six objects over three attributes of cardinality eight, every cell
    /// missing: any variable of a test condition is one of its cells.
    fn holes() -> Dataset {
        let domains = (0..3).map(|a| Domain::new(format!("a{a}"), 8).unwrap());
        Dataset::from_rows("holes", domains.collect(), vec![vec![None; 3]; 6]).unwrap()
    }

    #[test]
    fn store_bytes_do_not_depend_on_insertion_order() {
        use bc_ctable::Operand;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let data = bc_data::generators::sample::paper_dataset();
        let mut store = ConstraintStore::new(&data);
        let missing = data.missing_vars();
        assert!(missing.len() >= 4);
        for (i, &l) in missing.iter().enumerate() {
            store.record(l, Operand::Const(7 - i as u16), Relation::Lt);
            for &r in &missing[i + 1..] {
                store.record(l, Operand::Var(r), Relation::Gt);
            }
        }
        let want = enc_store(&store).to_json();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..8 {
            let mut masks: Vec<_> = store.masks().collect();
            let mut facts: Vec<_> = store.facts().collect();
            masks.shuffle(&mut rng);
            facts.shuffle(&mut rng);
            let shuffled = ConstraintStore::from_parts(store.attr_cards().to_vec(), masks, facts);
            assert_eq!(enc_store(&shuffled).to_json(), want);
            let decoded = dec_store(&enc_store(&shuffled), &data).unwrap();
            assert_eq!(enc_store(&decoded).to_json(), want);
        }
    }

    #[test]
    fn config_round_trips_through_the_codec() {
        let config = BayesCrowdConfig {
            budget: 42,
            latency: 7,
            alpha: 0.125,
            strategy: TaskStrategy::Hhs { m: 9 },
            ranking: ObjectRanking::Random { seed: u64::MAX },
            model: ModelConfig {
                learn: LearnConfig {
                    max_parents: 3,
                    laplace: 0.5,
                    max_rows_for_scoring: 123,
                    max_iterations: 17,
                },
                uniform_prior: true,
                em: Some(EmConfig {
                    iterations: 4,
                    max_missing_per_row: 2,
                    laplace: 2.0,
                }),
                search: StructureSearch::Anneal(AnnealConfig {
                    seed: 99,
                    ..Default::default()
                }),
            },
            conflict_free: false,
            propagate_answers: false,
            parallel: true,
            retry: RetryPolicy {
                max_attempts: 5,
                escalate_workers: 2,
                backoff_base: 1,
            },
        };
        let encoded = enc_config(&config);
        let decoded = dec_config(&encoded).expect("decodes");
        // Re-encoding the decoded config must reproduce the same tree —
        // the codec is lossless and canonical.
        assert_eq!(enc_config(&decoded).to_json(), encoded.to_json());
        assert_eq!(decoded.budget, 42);
        assert!(matches!(
            decoded.model.search,
            StructureSearch::Anneal(AnnealConfig { seed: 99, .. })
        ));
    }

    #[test]
    fn dataset_round_trips_through_the_codec() {
        let data = bc_data::generators::sample::paper_dataset();
        let encoded = enc_dataset(&data);
        let decoded = dec_dataset(&encoded).expect("decodes");
        assert_eq!(decoded.name(), data.name());
        assert_eq!(decoded.n_objects(), data.n_objects());
        assert_eq!(decoded.n_missing(), data.n_missing());
        for o in data.objects() {
            assert_eq!(decoded.row(o), data.row(o));
        }
        assert_eq!(enc_dataset(&decoded).to_json(), encoded.to_json());
    }

    #[test]
    fn conditions_round_trip_canonically() {
        let v1 = VarId::new(3, 0);
        let v2 = VarId::new(5, 1);
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(v1, 2), Expr::var_gt(v1, v2)],
            vec![Expr::gt(v2, 1)],
        ]);
        for c in [Condition::True, Condition::False, cond] {
            let decoded = dec_cond(&enc_cond(&c), &holes()).expect("decodes");
            assert_eq!(decoded, c);
            // Canonicalization is idempotent: re-encoding is byte-stable.
            assert_eq!(enc_cond(&decoded).to_json(), enc_cond(&c).to_json());
        }
    }

    /// The kernel's rewrites need canonical conditions; the decoder must
    /// canonicalize whatever clause list a snapshot holds.
    #[test]
    fn non_canonical_clause_lists_decode_to_the_canonical_condition() {
        let (x, y, z) = (VarId::new(0, 0), VarId::new(1, 0), VarId::new(2, 1));
        let canonical = Condition::from_clauses(vec![
            vec![Expr::lt(x, 2)],
            vec![Expr::gt(y, 3), Expr::lt(z, 1)],
        ]);
        let clause = |exprs: &[Expr]| Value::List(exprs.iter().map(enc_expr).collect());
        let lists = [
            (
                "unsorted",
                vec![
                    clause(&[Expr::lt(z, 1), Expr::gt(y, 3)]),
                    clause(&[Expr::lt(x, 2)]),
                ],
            ),
            (
                "duplicated",
                vec![
                    clause(&[Expr::lt(x, 2)]),
                    clause(&[Expr::gt(y, 3), Expr::lt(z, 1)]),
                    clause(&[Expr::lt(x, 2), Expr::lt(x, 2)]),
                ],
            ),
            (
                "subsumed",
                vec![
                    clause(&[Expr::lt(x, 2), Expr::gt(y, 3)]),
                    clause(&[Expr::gt(y, 3), Expr::lt(z, 1)]),
                    clause(&[Expr::lt(x, 2)]),
                ],
            ),
        ];
        for (what, clauses) in lists {
            let decoded = dec_cond(&Value::List(clauses), &holes()).expect("decodes");
            assert_eq!(decoded, canonical, "{what}");
            assert_eq!(
                enc_cond(&decoded).to_json(),
                enc_cond(&canonical).to_json(),
                "{what}"
            );
            assert_eq!(
                decoded.substitute(y, 5),
                canonical.substitute(y, 5),
                "{what}"
            );
        }
    }

    #[test]
    fn platform_state_round_trips_nested() {
        let answer = TaskAnswer {
            task: Task {
                var: VarId::new(1, 2),
                rhs: Operand::Const(3),
            },
            relation: Relation::Gt,
        };
        let state = PlatformState::Faulty {
            rng: [1, u64::MAX, 3, 4],
            workforce: 0.75,
            overlay: CrowdStats {
                tasks_posted: 8,
                rounds: 2,
                worker_answers: 0,
                money_spent: u64::MAX,
            },
            faults: FaultStats {
                expired_injected: 1,
                spam_injected: 2,
                duplicates_injected: 3,
                straggler_rounds: 4,
            },
            inner: Box::new(PlatformState::Simulated {
                rng: [9, 8, 7, 6],
                stats: CrowdStats::default(),
                escalated: 5,
                log: vec![answer],
            }),
        };
        let decoded = dec_platform_state(&enc_platform_state(&state), &holes()).expect("decodes");
        assert_eq!(decoded, state);
    }

    #[test]
    fn pmf_maps_restore_bit_exactly() {
        let data = bc_data::generators::sample::paper_dataset();
        let missing = data.missing_vars();
        let mut map = BTreeMap::new();
        map.insert(missing[0], Pmf::from_weights(vec![1.0, 2.0, 4.0]));
        map.insert(missing[1], Pmf::uniform(7));
        let decoded = dec_pmf_map(&enc_pmf_map(map.iter()), &data).expect("decodes");
        assert_eq!(decoded.len(), 2);
        for (v, pmf) in &map {
            let got = &decoded[v];
            assert_eq!(got.probs(), pmf.probs(), "bit-exact restore for {v}");
        }
    }

    #[test]
    fn corrupt_sections_are_rejected_not_panicked() {
        for bad in [
            Value::Str("nope".into()),
            Value::List(vec![Value::Int(1)]),
            Value::obj(vec![("kind", Value::Str("martian".into()))]),
        ] {
            assert!(dec_platform_state(&bad, &holes()).is_err());
            assert!(dec_config(&bad).is_err());
            assert!(dec_dataset(&bad).is_err());
        }
        // The keys that hold what the paper fixes take that value only: any
        // other is rejected by name, never read as the fixed one.
        let with = |key: &str, value: Value| {
            let Value::Map(mut entries) = enc_config(&BayesCrowdConfig::default()) else {
                unreachable!("a config encodes to a map")
            };
            let slot = entries.iter_mut().find(|(k, _)| k == key).expect("written");
            slot.1 = value;
            Value::Map(entries)
        };
        assert!(dec_config(&with("budget", 7u64.into())).is_ok());
        for (key, value) in [
            ("solver", Value::from("naive")),
            ("solver_caching", false.into()),
            ("branch_heuristic", "first".into()),
            ("dominators", "baseline".into()),
            ("answer_threshold", 0.625.into()),
        ] {
            match dec_config(&with(key, value)) {
                Err(SnapshotError::Invalid(m)) => assert!(m.contains(key), "{key}: {m}"),
                other => panic!("{key}: {other:?}"),
            }
        }
        // A pmf that does not sum to one is data corruption the checksum
        // cannot catch (it was written that way): the decoder must reject
        // it instead of panicking inside Pmf::from_probs.
        let bad_pmf = Value::List(vec![Value::List(vec![
            enc_vid(VarId::new(0, 0)),
            Value::List(vec![Value::Float(0.9), Value::Float(0.3)]),
        ])]);
        let data = bc_data::generators::sample::paper_dataset();
        assert!(dec_pmf_map(&bad_pmf, &data).is_err());
        // Distributions and store entries must name missing cells: an
        // observed cell or an id outside the dataset is refused.
        let missing = data.missing_vars()[0];
        for var in [VarId::new(0, 0), VarId::new(u32::MAX, 0), VarId::new(0, 99)] {
            assert_ne!(var, missing);
            let probs = Value::List(vec![Value::Float(1.0)]);
            let pmfs = Value::List(vec![Value::List(vec![enc_vid(var), probs])]);
            assert!(dec_pmf_map(&pmfs, &data).is_err(), "{var} as a pmf");
            let store = Value::obj(vec![
                ("cards", Value::List(vec![])),
                (
                    "masks",
                    Value::List(vec![Value::List(vec![enc_vid(var), Value::Int(1)])]),
                ),
                ("facts", Value::List(vec![])),
            ]);
            assert!(dec_store(&store, &data).is_err(), "{var} as a mask");
            // So must every variable of a condition or a pending task, on
            // either side of an expression.
            let cell = enc_vid(missing);
            let exprs = [
                (enc_vid(var), Value::obj(vec![("c", 1u64.into())])),
                (cell.clone(), Value::obj(vec![("v", enc_vid(var))])),
                (enc_vid(var), Value::obj(vec![("v", cell.clone())])),
            ];
            for (lhs, rhs) in exprs {
                let task = Value::obj(vec![("v", lhs.clone()), ("rhs", rhs.clone())]);
                let expr = Value::obj(vec![("v", lhs), ("op", "lt".into()), ("rhs", rhs)]);
                let mut conditions = vec![Value::Bool(true); data.n_objects()];
                conditions[0] = Value::List(vec![Value::List(vec![expr])]);
                for got in [
                    dec_task(&task, &data).map(|_| ()),
                    dec_ctable(&Value::List(conditions), &data).map(|_| ()),
                ] {
                    match got {
                        Err(SnapshotError::Invalid(m)) => {
                            assert!(m.contains("missing cell"), "{m}")
                        }
                        other => panic!("{var}: {other:?}"),
                    }
                }
            }
        }
        // A c-table holds one condition per object.
        let conditions = |n| Value::List(vec![Value::Bool(true); n]);
        let n = data.n_objects();
        assert_eq!(dec_ctable(&conditions(n), &data).unwrap().n_objects(), n);
        for wrong in [0, n - 1, n + 1] {
            match dec_ctable(&conditions(wrong), &data) {
                Err(SnapshotError::Invalid(m)) => assert!(m.contains("conditions"), "{m}"),
                other => panic!("{wrong} conditions: {other:?}"),
            }
        }
        // Cached probabilities name objects of the table, in ascending
        // order, and are probabilities: the first use would otherwise
        // index out of the table, or rank and report a non-probability.
        let ctable = CTable::new(vec![Condition::True, Condition::True]);
        let entry = |o: i128, p: f64| Value::List(vec![Value::Int(o), Value::Float(p)]);
        let good = Value::List(vec![entry(0, 0.25), entry(1, 1.0)]);
        assert_eq!(dec_prob_cache(&good, &ctable).expect("decodes").len(), 2);
        for bad in [
            vec![entry(2, 0.5)],
            vec![entry(999_999, 0.5)],
            vec![entry(1, 0.5), entry(0, 0.5)],
            vec![entry(0, 0.5), entry(0, 0.5)],
            vec![entry(0, f64::NAN)],
            vec![entry(0, 1.5)],
            vec![entry(0, -0.5)],
            vec![entry(0, f64::INFINITY)],
        ] {
            let bad = Value::List(bad);
            match dec_prob_cache(&bad, &ctable) {
                Err(SnapshotError::Invalid(_)) => {}
                other => panic!("{bad:?}: {other:?}"),
            }
        }
    }
}
