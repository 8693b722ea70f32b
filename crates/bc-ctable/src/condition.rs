//! Propositional conditions in conjunctive normal form.
//!
//! The condition `φ(o)` of an object is a conjunction of clauses, one per
//! potential dominator `p ∈ D(o)`, each clause being the disjunction
//! `o[1] > p[1] ∨ … ∨ o[d] > p[d]` restricted to the expressions that
//! actually involve a missing value.

use crate::constraint::ConstraintStore;
use crate::expr::{Expr, ExprOrBool};
use crate::kernel::{self, ClauseSet, Merged, Normalized, Plain};
use bc_data::{ObjectId, Value, VarId};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Expressions a clause keeps inline; longer clauses spill to the heap.
/// Most dominator clauses are this short, so cloning or rewriting a clause
/// usually allocates nothing.
const INLINE_EXPRS: usize = 4;

/// The expressions of a clause: inline up to [`INLINE_EXPRS`], on the heap
/// beyond. The empty list is an empty `Vec`, which does not allocate.
#[derive(Clone)]
enum ExprList {
    Inline {
        len: u8,
        exprs: [Expr; INLINE_EXPRS],
    },
    Heap(Vec<Expr>),
}

impl ExprList {
    fn new() -> ExprList {
        ExprList::Heap(Vec::new())
    }

    fn from_slice(exprs: &[Expr]) -> ExprList {
        match exprs {
            [] => ExprList::new(),
            [first, ..] if exprs.len() <= INLINE_EXPRS => {
                let mut inline = [*first; INLINE_EXPRS];
                inline[..exprs.len()].copy_from_slice(exprs);
                ExprList::Inline {
                    len: exprs.len() as u8,
                    exprs: inline,
                }
            }
            _ => ExprList::Heap(exprs.to_vec()),
        }
    }

    fn as_slice(&self) -> &[Expr] {
        match self {
            ExprList::Inline { len, exprs } => &exprs[..usize::from(*len)],
            ExprList::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Expr] {
        match self {
            ExprList::Inline { len, exprs } => &mut exprs[..usize::from(*len)],
            ExprList::Heap(v) => v,
        }
    }

    fn push(&mut self, e: Expr) {
        match self {
            ExprList::Heap(v) if v.is_empty() => {
                *self = ExprList::Inline {
                    len: 1,
                    exprs: [e; INLINE_EXPRS],
                }
            }
            ExprList::Heap(v) => v.push(e),
            ExprList::Inline { len, exprs } if usize::from(*len) < INLINE_EXPRS => {
                exprs[usize::from(*len)] = e;
                *len += 1;
            }
            ExprList::Inline { exprs, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE_EXPRS);
                v.extend_from_slice(exprs);
                v.push(e);
                *self = ExprList::Heap(v);
            }
        }
    }

    /// Keeps the first `n` expressions; a heap list short enough to fit
    /// inline moves inline, as a list built by pushing them would be.
    fn truncate(&mut self, n: usize) {
        match self {
            ExprList::Inline { len, .. } => *len = (*len).min(n as u8),
            ExprList::Heap(v) if n <= INLINE_EXPRS && n < v.len() => {
                *self = ExprList::from_slice(&v[..n]);
            }
            ExprList::Heap(v) => v.truncate(n),
        }
    }
}

impl From<Vec<Expr>> for ExprList {
    fn from(v: Vec<Expr>) -> ExprList {
        if v.len() <= INLINE_EXPRS {
            ExprList::from_slice(&v)
        } else {
            ExprList::Heap(v)
        }
    }
}

/// A disjunction of expressions. Invariant: non-empty, deduplicated, sorted.
/// Clauses compare and hash as their expression slices.
#[derive(Clone)]
pub struct Clause {
    exprs: ExprList,
}

impl PartialEq for Clause {
    fn eq(&self, other: &Clause) -> bool {
        self.exprs() == other.exprs()
    }
}

impl Eq for Clause {}

impl PartialOrd for Clause {
    fn partial_cmp(&self, other: &Clause) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Clause {
    fn cmp(&self, other: &Clause) -> Ordering {
        self.exprs().cmp(other.exprs())
    }
}

impl Hash for Clause {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.exprs().hash(state);
    }
}

/// Outcome of normalizing a clause.
enum ClauseOrBool {
    Bool(bool),
    Clause(Clause),
}

impl Clause {
    /// Builds a clause, deduplicating and detecting tautologies
    /// (`e ∨ ¬e` is `true`, an empty disjunction is `false`).
    fn normalize(mut exprs: ExprList) -> ClauseOrBool {
        match kernel::normalize(exprs.as_mut_slice()) {
            Normalized::Empty => ClauseOrBool::Bool(false),
            Normalized::Tautology => ClauseOrBool::Bool(true),
            Normalized::Clause(len) => {
                exprs.truncate(len);
                ClauseOrBool::Clause(Clause { exprs })
            }
        }
    }

    /// The clause of `exprs`, which must be sorted and distinct and hold
    /// no `e ∨ ¬e`: already what normalizing them would give.
    pub(crate) fn from_sorted(exprs: &[Expr]) -> Clause {
        debug_assert!(
            !exprs.is_empty() && exprs.windows(2).all(|w| w[0] < w[1]),
            "from_sorted needs sorted distinct expressions: {exprs:?}"
        );
        Clause {
            exprs: ExprList::from_slice(exprs),
        }
    }

    /// An empty clause, which stands where a clause was moved out and is
    /// never part of a condition. Allocates nothing.
    fn placeholder() -> Clause {
        Clause {
            exprs: ExprList::new(),
        }
    }

    /// The one-expression clause `{e}`.
    fn unit(e: Expr) -> Clause {
        let mut exprs = ExprList::new();
        exprs.push(e);
        Clause { exprs }
    }

    /// The expressions of the clause (sorted).
    #[inline]
    pub fn exprs(&self) -> &[Expr] {
        self.exprs.as_slice()
    }

    /// Number of expressions.
    #[inline]
    pub fn len(&self) -> usize {
        self.exprs().len()
    }

    /// Clauses are never empty, but the standard pair is provided.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.exprs().is_empty()
    }

    /// Evaluates the clause under a complete assignment.
    pub fn eval(&self, lookup: impl Fn(VarId) -> Value + Copy) -> bool {
        self.exprs().iter().any(|e| e.eval(lookup))
    }

    /// Whether an expression mentions a variable of `vars`.
    fn mentions_any(&self, vars: &VarSet) -> bool {
        self.exprs().iter().any(|e| vars.mentioned_by(e))
    }
}

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, e) in self.exprs().iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")
    }
}

/// A condition in CNF: `true`, `false`, or a conjunction of clauses.
///
/// The `Cnf` variant is kept in canonical form:
///
/// * at least one clause;
/// * every clause normalized: non-empty, its expressions sorted and
///   distinct, and not a tautology (`e ∨ ¬e`);
/// * the clauses sorted and distinct;
/// * no clause subsumes another (no clause's expressions are a strict
///   subset of another clause's).
///
/// [`Condition::from_clauses`] establishes this form from arbitrary raw
/// clauses. [`Condition::substitute`], [`Condition::simplify`] and
/// [`Condition::and_expr`] rely on it: they keep the clauses a rewrite does
/// not touch verbatim and re-normalize only the rewritten ones. Because the
/// form is canonical, equal conditions have equal clause lists, which is
/// what the solver's component cache keys on. A `Cnf` built by hand
/// bypasses the invariant; debug builds check it where rewriting starts.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Condition {
    /// The object is certainly an answer.
    True,
    /// The object is certainly not an answer.
    False,
    /// Undecided: the conjunction of the clauses must hold.
    Cnf(Vec<Clause>),
}

impl Condition {
    /// Builds a condition from raw clauses (each a disjunction of
    /// expressions), normalizing:
    ///
    /// * an empty clause makes the whole condition `false`,
    /// * tautological clauses are dropped,
    /// * duplicate clauses are merged,
    /// * subsumed clauses are dropped (if clause `A ⊆ B`, then `A ⟹ B`
    ///   and the weaker `B` is redundant in the conjunction),
    /// * no clauses left means `true`.
    pub fn from_clauses(raw: impl IntoIterator<Item = Vec<Expr>>) -> Condition {
        let mut clauses = Vec::new();
        for exprs in raw {
            match Clause::normalize(exprs.into()) {
                ClauseOrBool::Bool(false) => return Condition::False,
                ClauseOrBool::Bool(true) => {}
                ClauseOrBool::Clause(c) => clauses.push(c),
            }
        }
        clauses.sort_unstable();
        clauses.dedup();
        kernel::drop_subsumed(&Plain, &mut clauses, &mut kernel::Scratch::default());
        if clauses.is_empty() {
            Condition::True
        } else {
            Condition::Cnf(clauses)
        }
    }

    /// Builds `φ(o)` from the escape clauses of `o`'s dominators, each
    /// normalized already ([`Clause::from_sorted`]), and gives what
    /// [`Condition::from_clauses`] gives on them.
    ///
    /// The clauses are sorted and deduplicated, and a clause goes when a
    /// clause over `o`'s own cells alone is a strict subset of it. No other
    /// clause can be one: a clause that mentions dominator `p`'s cell is
    /// the only clause that mentions `p`. So when no own-cell clause
    /// exists, the common case, nothing is checked for subsumption. No
    /// clause at all makes `true`.
    pub(crate) fn from_escape_clauses(o: ObjectId, mut clauses: Vec<Clause>) -> Condition {
        if clauses.is_empty() {
            return Condition::True;
        }
        clauses.sort_unstable();
        clauses.dedup();
        let own_cells_only = |c: &Clause| {
            c.exprs()
                .iter()
                .all(|e| e.var().object == o && e.rhs_var().is_none())
        };
        let own: Vec<Clause> = clauses
            .iter()
            .filter(|c| own_cells_only(c))
            .cloned()
            .collect();
        if !own.is_empty() {
            clauses.retain(|big| {
                !own.iter().any(|small| {
                    small.len() < big.len() && kernel::is_subset(small.exprs(), big.exprs())
                })
            });
        }
        Condition::Cnf(clauses)
    }

    /// The clauses, if undecided.
    pub fn clauses(&self) -> &[Clause] {
        match self {
            Condition::Cnf(c) => c,
            _ => &[],
        }
    }

    /// Whether the condition is `true` or `false`.
    #[inline]
    pub fn is_decided(&self) -> bool {
        !matches!(self, Condition::Cnf(_))
    }

    /// Total number of expressions across clauses.
    pub fn n_exprs(&self) -> usize {
        self.clauses().iter().map(Clause::len).sum()
    }

    /// The distinct variables mentioned.
    pub fn vars(&self) -> BTreeSet<VarId> {
        self.clauses()
            .iter()
            .flat_map(|c| c.exprs().iter().flat_map(Expr::vars))
            .collect()
    }

    /// Iterates every expression (with clause repetition preserved).
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        self.clauses().iter().flat_map(|c| c.exprs().iter())
    }

    /// Whether any expression mentions a variable of `sorted_vars`, which
    /// must be sorted ascending. Allocates nothing.
    pub fn mentions_any(&self, sorted_vars: &[VarId]) -> bool {
        debug_assert!(sorted_vars.is_sorted(), "mentions_any needs sorted vars");
        !sorted_vars.is_empty()
            && self
                .exprs()
                .flat_map(Expr::vars)
                .any(|v| sorted_vars.binary_search(&v).is_ok())
    }

    /// [`Condition::mentions_any`] for a set built once for many
    /// conditions.
    pub(crate) fn mentions_set(&self, vars: &VarSet) -> bool {
        self.clauses().iter().any(|c| c.mentions_any(vars))
    }

    /// Substitutes `v = value` everywhere and re-normalizes. Only clauses
    /// mentioning `v` are rewritten; the others are kept verbatim.
    pub fn substitute(&self, v: VarId, value: Value) -> Condition {
        let Condition::Cnf(clauses) = self else {
            return self.clone();
        };
        debug_assert!(
            is_canonical(clauses),
            "substitute on non-canonical {self:?}"
        );
        rewrite(clauses, |clause| {
            if !clause.exprs().iter().any(|e| e.mentions(v)) {
                return Rewrite::Keep;
            }
            let mut exprs = ExprList::new();
            for e in clause.exprs() {
                match e.substitute(v, value) {
                    ExprOrBool::Bool(true) => return Rewrite::Drop,
                    ExprOrBool::Bool(false) => {}
                    ExprOrBool::Expr(e2) => exprs.push(e2),
                }
            }
            Rewrite::Replace(exprs)
        })
    }

    /// Simplifies by deciding expressions: `decide(e)` may settle an
    /// expression's truth (e.g. from crowd answers or candidate-value
    /// masks); undecided expressions are kept as-is, and clauses with no
    /// decided expression are kept verbatim.
    pub fn simplify(&self, decide: impl Fn(&Expr) -> Option<bool>) -> Condition {
        let Condition::Cnf(clauses) = self else {
            return self.clone();
        };
        debug_assert!(is_canonical(clauses), "simplify on non-canonical {self:?}");
        rewrite(clauses, |clause| {
            // The undecided expressions, once the first decided-false one
            // shows the clause changes.
            let mut rest: Option<ExprList> = None;
            let exprs = clause.exprs();
            for (i, e) in exprs.iter().enumerate() {
                match decide(e) {
                    Some(true) => return Rewrite::Drop,
                    Some(false) => {
                        rest.get_or_insert_with(|| ExprList::from_slice(&exprs[..i]));
                    }
                    None => {
                        if let Some(rest) = &mut rest {
                            rest.push(*e);
                        }
                    }
                }
            }
            rest.map_or(Rewrite::Keep, Rewrite::Replace)
        })
    }

    /// Conjoins a unit clause `{e}` — used to compute `Pr(φ ∧ e)` for the
    /// marginal-utility function. Every existing clause is kept verbatim
    /// unless `{e}` subsumes it.
    pub fn and_expr(&self, e: Expr) -> Condition {
        match self {
            Condition::True => Condition::Cnf(vec![Clause::unit(e)]),
            Condition::False => Condition::False,
            Condition::Cnf(clauses) => {
                debug_assert!(is_canonical(clauses), "and_expr on non-canonical {self:?}");
                merge_rewritten(clauses.iter().collect(), vec![Clause::unit(e)])
            }
        }
    }

    /// Evaluates under a complete assignment.
    pub fn eval(&self, lookup: impl Fn(VarId) -> Value + Copy) -> bool {
        match self {
            Condition::True => true,
            Condition::False => false,
            Condition::Cnf(clauses) => clauses.iter().all(|c| c.eval(lookup)),
        }
    }

    /// Rewrites the condition in place to its fixpoint under `store`, the
    /// condition [`Condition::simplify`] with `store.decide` and then
    /// [`Condition::substitute`] of every pinned variable reach when
    /// iterated until nothing changes.
    ///
    /// Only the expressions that mention a variable the [`Scope`] touched
    /// are decided, and only touched variables are substituted. One step of
    /// each reaches the fixpoint when the condition was at its fixpoint
    /// under a store that differed from `store` only on the touched
    /// variables: no other expression is decidable and no other variable is
    /// pinned. A substitution leaves no pinned variable behind, and it
    /// makes no expression decidable that was not: `x op y` with `y` pinned
    /// to `c` was decided by the same interval test as `x op c`, since
    /// `y`'s candidates are `{c}`.
    ///
    /// Each step edits the clause list in place and restores the canonical
    /// form from what it rewrote ([`restore`]). Returns the number of
    /// expressions handed to the store to decide.
    pub(crate) fn settle(
        &mut self,
        store: &ConstraintStore,
        scope: &Scope,
        scratch: &mut SettleScratch,
    ) -> usize {
        let mut visited = 0;
        let Condition::Cnf(clauses) = self else {
            return visited;
        };
        debug_assert!(is_canonical(clauses), "settle on non-canonical {self:?}");
        let SettleScratch {
            marks,
            fresh,
            kernel,
        } = scratch;
        marks.clear();
        marks.resize(clauses.len(), Mark::Dirty);
        let may_decide = |e: &Expr| scope.touched.mentioned_by(e);
        let Some(decided) = decide_dirty(clauses, marks, store, may_decide, &mut visited) else {
            *self = Condition::False;
            return visited;
        };
        if decided {
            restore(clauses, marks, fresh, kernel);
        }
        let pin = |v| scope.pinned_value(v);
        let pins = !scope.values.is_empty()
            && clauses.iter().zip(marks.iter()).any(|(clause, mark)| {
                matches!(mark, Mark::Dirty | Mark::Shrunk)
                    && clause
                        .exprs()
                        .iter()
                        .flat_map(Expr::vars)
                        .any(|v| pin(v).is_some())
            });
        if !decided && !pins {
            return visited;
        }
        if pins {
            if substitute_pinned(clauses, marks, pin).is_none() {
                *self = Condition::False;
                return visited;
            }
            restore(clauses, marks, fresh, kernel);
        }
        if clauses.is_empty() {
            *self = Condition::True;
        }
        debug_assert!(
            self.is_decided() || is_canonical(self.clauses()),
            "settle left non-canonical {self:?}"
        );
        visited
    }
}

/// Where a propagation pass looks for decidable expressions and pinned
/// variables ([`Condition::settle`]): the variables whose store knowledge
/// changed since the last pass.
pub(crate) struct Scope {
    touched: VarSet,
    /// The touched variables with one candidate value left, and those
    /// values, in the same order.
    pinned: VarSet,
    values: Vec<Value>,
}

impl Scope {
    /// The variables of `sorted` (ascending): the store changed on them
    /// alone since the last pass.
    pub(crate) fn new(sorted: &[VarId], store: &ConstraintStore) -> Scope {
        let pinned = sorted
            .iter()
            .filter_map(|&v| store.pinned_value(v).map(|x| (v, x)));
        let (vars, values) = pinned.unzip();
        Scope {
            touched: VarSet::new(sorted.to_vec()),
            pinned: VarSet::new(vars),
            values,
        }
    }

    /// The value `v` is pinned to, if it is touched and pinned.
    fn pinned_value(&self, v: VarId) -> Option<Value> {
        self.pinned.position(v).map(|at| self.values[at])
    }
}

/// A sorted set of variables behind a 1024-bit filter, for the membership
/// test a propagation pass makes for every variable of the clauses it
/// examines: a variable outside the set mostly costs one multiplication.
pub(crate) struct VarSet {
    sorted: Vec<VarId>,
    filter: [u64; 16],
}

impl VarSet {
    /// The set of `sorted` (ascending).
    pub(crate) fn new(sorted: Vec<VarId>) -> VarSet {
        debug_assert!(sorted.is_sorted(), "a VarSet needs sorted vars");
        let mut filter = [0; 16];
        for &v in &sorted {
            let bit = VarSet::bit(v);
            filter[bit / 64] |= 1 << (bit % 64);
        }
        VarSet { sorted, filter }
    }

    /// `v`'s filter bit: the top ten bits of its hash.
    #[inline]
    fn bit(v: VarId) -> usize {
        (kernel::var_hash(v) >> 54) as usize
    }

    /// Where `v` sits in the set, if it is in it.
    #[inline]
    fn position(&self, v: VarId) -> Option<usize> {
        let bit = VarSet::bit(v);
        if self.filter[bit / 64] & 1 << (bit % 64) == 0 {
            return None;
        }
        self.sorted.binary_search(&v).ok()
    }

    /// Whether `e` mentions a variable of the set.
    #[inline]
    fn mentioned_by(&self, e: &Expr) -> bool {
        self.position(e.var()).is_some() || e.rhs_var().is_some_and(|r| self.position(r).is_some())
    }
}

/// The buffers [`Condition::settle`] reuses from one condition to the next.
#[derive(Default)]
pub(crate) struct SettleScratch {
    /// The step's view of each clause, by position.
    marks: Vec<Mark>,
    /// The rewritten clauses while [`restore`] merges them back.
    fresh: Vec<(Clause, Mark)>,
    /// The subsumption check's buffers.
    kernel: kernel::Scratch,
}

/// What the current step of [`Condition::settle`] knows of one clause.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Mark {
    /// Not this step's to rewrite; verbatim from the canonical list.
    Kept,
    /// This step decides it or substitutes into it.
    Dirty,
    /// Lost decided-false expressions in place: a strict subset of a clause
    /// of the canonical list, and still sorted and distinct.
    Shrunk,
    /// Rewritten by a substitution and normalized again.
    Substituted,
    /// Holds a true expression: the next [`restore`] drops it.
    Dropped,
}

/// The [`ClauseSet`] of the clauses [`restore`] merges, with their marks.
struct Tagged;

impl ClauseSet<(Clause, Mark)> for Tagged {
    fn exprs<'t>(&'t self, clause: &'t (Clause, Mark)) -> &'t [Expr] {
        clause.0.exprs()
    }
}

/// Decides the expressions `may_decide` admits of every `Dirty` clause in
/// place, as [`Condition::simplify`] does: a clause with a true expression
/// is marked `Dropped`, one that lost false expressions `Shrunk`, and one
/// with no expression admitted `Kept`. Counts the expressions decided into
/// `visited`. `None` when a clause lost every expression, making the
/// condition false; otherwise whether any clause changed.
fn decide_dirty(
    clauses: &mut [Clause],
    marks: &mut [Mark],
    store: &ConstraintStore,
    may_decide: impl Fn(&Expr) -> bool,
    visited: &mut usize,
) -> Option<bool> {
    let mut changed = false;
    for (clause, mark) in clauses.iter_mut().zip(marks.iter_mut()) {
        if *mark != Mark::Dirty {
            continue;
        }
        if !clause.exprs().iter().any(&may_decide) {
            *mark = Mark::Kept;
            continue;
        }
        let exprs = clause.exprs.as_mut_slice();
        let n = exprs.len();
        let mut undecided = 0;
        for i in 0..n {
            let e = exprs[i];
            let truth = if may_decide(&e) {
                *visited += 1;
                store.decide(&e)
            } else {
                None
            };
            match truth {
                Some(true) => {
                    *mark = Mark::Dropped;
                    break;
                }
                Some(false) => {}
                None => {
                    if undecided != i {
                        exprs[undecided] = e;
                    }
                    undecided += 1;
                }
            }
        }
        if *mark == Mark::Dropped {
            changed = true;
        } else if undecided < n {
            if undecided == 0 {
                return None;
            }
            clause.exprs.truncate(undecided);
            *mark = Mark::Shrunk;
            changed = true;
        }
    }
    Some(changed)
}

/// Substitutes the values variables are pinned to (`value`) into every
/// `Dirty` or `Shrunk` clause that mentions a pinned one, as
/// [`Condition::substitute`] does, and normalizes it again: it is marked
/// `Substituted`, or `Dropped` when it became true. Every other clause is
/// marked `Kept`. `None` when a clause lost every expression, making the
/// condition false.
fn substitute_pinned(
    clauses: &mut [Clause],
    marks: &mut [Mark],
    value: impl Fn(VarId) -> Option<Value>,
) -> Option<()> {
    for (clause, mark) in clauses.iter_mut().zip(marks.iter_mut()) {
        let candidate = matches!(mark, Mark::Dirty | Mark::Shrunk);
        *mark = Mark::Kept;
        let mentions = |e: &Expr| e.vars().any(|v| value(v).is_some());
        if !candidate || !clause.exprs().iter().any(mentions) {
            continue;
        }
        let exprs = clause.exprs.as_mut_slice();
        let mut len = 0;
        for i in 0..exprs.len() {
            let mut e = ExprOrBool::Expr(exprs[i]);
            for v in exprs[i].vars() {
                if let (ExprOrBool::Expr(current), Some(val)) = (e, value(v)) {
                    e = current.substitute(v, val);
                }
            }
            match e {
                ExprOrBool::Bool(true) => {
                    *mark = Mark::Dropped;
                    break;
                }
                ExprOrBool::Bool(false) => {}
                ExprOrBool::Expr(e) => {
                    exprs[len] = e;
                    len += 1;
                }
            }
        }
        if *mark == Mark::Dropped {
            continue;
        }
        match kernel::normalize(&mut exprs[..len]) {
            Normalized::Empty => return None,
            Normalized::Tautology => *mark = Mark::Dropped,
            Normalized::Clause(n) => {
                clause.exprs.truncate(n);
                *mark = Mark::Substituted;
            }
        }
    }
    Some(())
}

/// Restores the canonical form of a clause list a step of
/// [`Condition::settle`] edited in place, keeping `marks` aligned; it
/// gives exactly what [`Condition::from_clauses`] gives on the whole list.
///
/// `Dropped` clauses go. The `Shrunk` and `Substituted` ones are sorted
/// and deduplicated, the survivors drop their own supersets, and each
/// `Kept` or `Dirty` clause with a strict subset among them goes
/// (backward subsumption). A `Substituted` clause also goes when an
/// untouched clause is a subset of it. A `Shrunk` one never does: it is a
/// strict subset of a clause of the canonical list, so a subset of it would
/// have subsumed that clause. What is left merges back in clause order.
fn restore(
    clauses: &mut Vec<Clause>,
    marks: &mut Vec<Mark>,
    fresh: &mut Vec<(Clause, Mark)>,
    scratch: &mut kernel::Scratch,
) {
    fresh.clear();
    let mut at = 0;
    clauses.retain_mut(|clause| {
        let mark = marks[at];
        at += 1;
        match mark {
            Mark::Kept | Mark::Dirty => true,
            Mark::Dropped => false,
            Mark::Shrunk | Mark::Substituted => {
                fresh.push((std::mem::replace(clause, Clause::placeholder()), mark));
                false
            }
        }
    });
    marks.retain(|m| matches!(m, Mark::Kept | Mark::Dirty));
    if fresh.is_empty() {
        return;
    }
    fresh.sort_unstable_by(|a, b| a.0.exprs().cmp(b.0.exprs()).then(a.1.cmp(&b.1)));
    fresh.dedup_by(|a, b| a.0 == b.0);
    fresh.retain(|(f, mark)| {
        *mark == Mark::Shrunk
            || !clauses
                .iter()
                .any(|k| k.len() <= f.len() && kernel::is_subset(k.exprs(), f.exprs()))
    });
    kernel::drop_subsumed(&Tagged, fresh, scratch);
    let mut subsumed = false;
    for (k, mark) in clauses.iter().zip(marks.iter_mut()) {
        if fresh
            .iter()
            .any(|(f, _)| f.len() < k.len() && kernel::is_subset(f.exprs(), k.exprs()))
        {
            *mark = Mark::Dropped;
            subsumed = true;
        }
    }
    if subsumed {
        let mut at = 0;
        clauses.retain(|_| {
            at += 1;
            marks[at - 1] != Mark::Dropped
        });
        marks.retain(|&m| m != Mark::Dropped);
    }
    // Merge from the back: the survivors below `i` are still to place, the
    // clauses from `at` on are placed, and the placeholders between them
    // are one per fresh clause left. Each survivor moves once.
    let mut i = clauses.len();
    clauses.resize_with(i + fresh.len(), Clause::placeholder);
    marks.resize(i + fresh.len(), Mark::Kept);
    let mut at = clauses.len();
    while let Some((f, mark)) = fresh.pop() {
        let p = clauses[..i].partition_point(|k| *k < f);
        let gap = at - i;
        clauses[p..at].rotate_right(gap);
        marks[p..at].rotate_right(gap);
        at = p + gap - 1;
        clauses[at] = f;
        marks[at] = mark;
        i = p;
    }
}

/// What a clause-wise rewrite does with one clause.
enum Rewrite {
    /// The clause is unchanged and stays normalized.
    Keep,
    /// The clause became true.
    Drop,
    /// The clause's expressions after the rewrite, not yet normalized.
    Replace(ExprList),
}

/// Applies `f` to every clause of a canonical clause list and restores the
/// canonical form, re-normalizing only the replaced clauses.
fn rewrite(clauses: &[Clause], mut f: impl FnMut(&Clause) -> Rewrite) -> Condition {
    let mut kept = Vec::with_capacity(clauses.len());
    let mut fresh = Vec::new();
    for clause in clauses {
        match f(clause) {
            Rewrite::Keep => kept.push(clause),
            Rewrite::Drop => {}
            Rewrite::Replace(exprs) => match Clause::normalize(exprs) {
                ClauseOrBool::Bool(false) => return Condition::False,
                ClauseOrBool::Bool(true) => {}
                ClauseOrBool::Clause(c) => fresh.push(c),
            },
        }
    }
    merge_rewritten(kept, fresh)
}

/// Joins the clauses a rewrite kept verbatim with the normalized clauses it
/// produced, giving exactly what [`Condition::from_clauses`] would give on
/// the whole list ([`kernel::merge_rewritten`]).
fn merge_rewritten(mut kept: Vec<&Clause>, mut fresh: Vec<Clause>) -> Condition {
    let mut out = Vec::with_capacity(kept.len() + fresh.len());
    let scratch = &mut kernel::Scratch::default();
    kernel::merge_rewritten(&Plain, &mut kept, &mut fresh, scratch, |c| {
        out.push(match c {
            Merged::Kept(k) => k.clone(),
            Merged::Fresh(f) => f,
        })
    });
    if out.is_empty() {
        Condition::True
    } else {
        Condition::Cnf(out)
    }
}

/// Whether `clauses` are in the canonical form documented on
/// [`Condition`]. Quadratic; for debug assertions.
fn is_canonical(clauses: &[Clause]) -> bool {
    let normalized = |c: &Clause| {
        let exprs = c.exprs();
        !exprs.is_empty()
            && exprs.windows(2).all(|w| w[0] < w[1])
            && exprs
                .iter()
                .all(|e| exprs.binary_search(&e.negated()).is_err())
    };
    !clauses.is_empty()
        && clauses.windows(2).all(|w| w[0] < w[1])
        && clauses.iter().all(normalized)
        && clauses.iter().all(|big| {
            !clauses.iter().any(|small| {
                small.len() < big.len() && kernel::is_subset(small.exprs(), big.exprs())
            })
        })
}

impl fmt::Debug for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::True => write!(f, "true"),
            Condition::False => write!(f, "false"),
            Condition::Cnf(clauses) => {
                for (i, c) in clauses.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{c:?}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(o: u32, a: u16) -> VarId {
        VarId::new(o, a)
    }

    #[test]
    fn normalization_rules() {
        // Empty clause → false.
        assert_eq!(Condition::from_clauses(vec![vec![]]), Condition::False);
        // No clauses → true.
        assert_eq!(
            Condition::from_clauses(Vec::<Vec<Expr>>::new()),
            Condition::True
        );
        // Tautological clause dropped.
        let e = Expr::lt(v(0, 0), 3);
        let cond = Condition::from_clauses(vec![vec![e, e.negated()]]);
        assert_eq!(cond, Condition::True);
        // Duplicate clauses merged; duplicate exprs deduped.
        let cond = Condition::from_clauses(vec![vec![e, e], vec![e]]);
        assert_eq!(cond.clauses().len(), 1);
        assert_eq!(cond.n_exprs(), 1);
    }

    #[test]
    fn subsumed_clauses_are_dropped() {
        let x = VarId::new(0, 0);
        let y = VarId::new(1, 0);
        let z = VarId::new(2, 0);
        // (x < 2) subsumes (x < 2 ∨ y < 3): keep only the stronger clause.
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(x, 2), Expr::lt(y, 3)],
            vec![Expr::lt(x, 2)],
            vec![Expr::gt(z, 5)],
        ]);
        assert_eq!(
            cond,
            Condition::from_clauses(vec![vec![Expr::lt(x, 2)], vec![Expr::gt(z, 5)]])
        );
        // Equal-length clauses never subsume each other.
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(x, 2), Expr::lt(y, 3)],
            vec![Expr::lt(x, 2), Expr::gt(z, 5)],
        ]);
        assert_eq!(cond.clauses().len(), 2);
    }

    #[test]
    fn subsumption_chains_keep_only_the_minimal_clauses() {
        let (x, y, z, w) = (v(0, 0), v(1, 0), v(2, 0), v(3, 0));
        let a = vec![Expr::lt(x, 2)];
        let b = vec![Expr::lt(x, 2), Expr::lt(y, 2)];
        let c = vec![Expr::lt(x, 2), Expr::lt(y, 2), Expr::lt(z, 2)];
        let d = vec![Expr::lt(w, 2)];
        let want = Condition::from_clauses(vec![a.clone(), d.clone()]);
        assert_eq!(want.clauses().len(), 2);
        assert_eq!(Condition::from_clauses(vec![c, d, b, a]), want);
    }

    /// Raw clause lists whose substitution, simplification or conjunction
    /// makes a rewritten clause duplicate, subsume, or be subsumed by a
    /// clause kept verbatim.
    #[test]
    fn incremental_rewrites_equal_full_normalization() {
        let (x, y, z) = (v(0, 0), v(1, 0), v(2, 0));
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(x, 2), Expr::lt(y, 3)],
            vec![Expr::lt(y, 3), Expr::gt(z, 1)],
            vec![Expr::var_gt(x, z), Expr::lt(z, 4)],
            vec![Expr::gt(x, 5), Expr::lt(z, 4), Expr::lt(y, 1)],
        ]);
        let raw = |f: &dyn Fn(&Expr) -> ExprOrBool| -> Vec<Vec<Expr>> {
            cond.clauses()
                .iter()
                .filter_map(|c| {
                    let mut out = Vec::new();
                    for e in c.exprs() {
                        match f(e) {
                            ExprOrBool::Bool(true) => return None,
                            ExprOrBool::Bool(false) => {}
                            ExprOrBool::Expr(e2) => out.push(e2),
                        }
                    }
                    Some(out)
                })
                .collect()
        };
        for var in [x, y, z] {
            for value in 0..8 {
                let want = Condition::from_clauses(raw(&|e| e.substitute(var, value)));
                assert_eq!(cond.substitute(var, value), want, "{var} := {value}");
            }
        }
        for e in cond.exprs().copied().collect::<Vec<_>>() {
            for truth in [false, true] {
                let decide = |x: &Expr| (*x == e).then_some(truth);
                let want = Condition::from_clauses(raw(&|x| {
                    decide(x).map_or(ExprOrBool::Expr(*x), ExprOrBool::Bool)
                }));
                assert_eq!(cond.simplify(decide), want, "{e} := {truth}");
            }
            for e in [e, e.negated()] {
                let mut conj = raw(&|x| ExprOrBool::Expr(*x));
                conj.push(vec![e]);
                assert_eq!(cond.and_expr(e), Condition::from_clauses(conj), "∧ {e}");
            }
        }
    }

    /// Clauses longer than the inline capacity live on the heap; equality,
    /// order and hashing see only the expressions.
    #[test]
    fn long_clauses_behave_like_short_ones() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |c: &Condition| {
            let mut h = DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        let vars: Vec<VarId> = (0..6).map(|o| v(o, 0)).collect();
        let long: Vec<Expr> = vars.iter().map(|&x| Expr::lt(x, 3)).collect();
        let cond = Condition::from_clauses(vec![long.clone()]);
        assert_eq!(cond.n_exprs(), 6);
        // Substituting values that falsify expressions shrinks the clause.
        let mut shrunk = cond.clone();
        for &x in &vars[..4] {
            shrunk = shrunk.substitute(x, 5);
        }
        let short = Condition::from_clauses(vec![long[4..].to_vec()]);
        assert_eq!(shrunk, short);
        assert_eq!(hash(&shrunk), hash(&short));
        // Deduplication shrinks a heap clause below the inline capacity.
        let dup = vec![long[4], long[4], long[4], long[4], long[5]];
        let deduped = Condition::from_clauses(vec![dup]);
        assert_eq!(deduped, short);
        assert_eq!(hash(&deduped), hash(&short));
        assert_eq!(
            Condition::from_clauses(vec![long[..5].to_vec(), long[..2].to_vec()]),
            Condition::from_clauses(vec![long[..2].to_vec()])
        );
    }

    #[test]
    fn mentions_any_checks_both_sides() {
        let cond = Condition::from_clauses(vec![vec![Expr::var_gt(v(5, 2), v(2, 2))]]);
        assert!(cond.mentions_any(&[v(1, 0), v(5, 2)]));
        assert!(cond.mentions_any(&[v(2, 2)]));
        assert!(!cond.mentions_any(&[v(1, 0), v(3, 2)]));
        assert!(!cond.mentions_any(&[]));
        assert!(!Condition::True.mentions_any(&[v(2, 2)]));
    }

    #[test]
    fn substitution_collapses() {
        // (x < 2 ∨ y < 3) ∧ (x > 4): x = 5 → first clause becomes y < 3,
        // second becomes true.
        let x = v(0, 0);
        let y = v(1, 0);
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(x, 2), Expr::lt(y, 3)],
            vec![Expr::gt(x, 4)],
        ]);
        let s = cond.substitute(x, 5);
        assert_eq!(s, Condition::from_clauses(vec![vec![Expr::lt(y, 3)]]));
        // x = 1 → first clause true, second false → condition false.
        assert_eq!(cond.substitute(x, 1), Condition::False);
    }

    #[test]
    fn simplify_with_decider() {
        let x = v(0, 0);
        let y = v(1, 0);
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(x, 2), Expr::lt(y, 3)],
            vec![Expr::gt(x, 0)],
        ]);
        // Decide "x < 2" false and "x > 0" true.
        let s = cond.simplify(|e| {
            if *e == Expr::lt(x, 2) {
                Some(false)
            } else if *e == Expr::gt(x, 0) {
                Some(true)
            } else {
                None
            }
        });
        assert_eq!(s, Condition::from_clauses(vec![vec![Expr::lt(y, 3)]]));
    }

    #[test]
    fn and_expr_conjoins_a_unit_clause() {
        let x = v(0, 0);
        let e = Expr::lt(x, 2);
        assert_eq!(
            Condition::True.and_expr(e),
            Condition::from_clauses(vec![vec![e]])
        );
        assert_eq!(Condition::False.and_expr(e), Condition::False);
        let cond = Condition::from_clauses(vec![vec![Expr::gt(x, 0)]]);
        assert_eq!(cond.and_expr(e).clauses().len(), 2);
        // Conjoining a contradiction yields false after substitution.
        let c2 = cond.and_expr(e).substitute(x, 3);
        assert_eq!(c2, Condition::False);
    }

    #[test]
    fn eval_full_assignment() {
        let x = v(0, 0);
        let y = v(1, 0);
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(x, 2), Expr::lt(y, 3)],
            vec![Expr::gt(x, 0)],
        ]);
        let assign = |vals: (Value, Value)| move |q: VarId| if q == x { vals.0 } else { vals.1 };
        assert!(cond.eval(assign((1, 9))));
        assert!(!cond.eval(assign((0, 9)))); // second clause fails
        assert!(cond.eval(assign((5, 2)))); // first via y, second via x
        assert!(!cond.eval(assign((5, 9))));
    }

    #[test]
    fn vars_collects_both_sides() {
        let cond = Condition::from_clauses(vec![vec![Expr::var_gt(v(5, 2), v(2, 2))]]);
        let vars: Vec<VarId> = cond.vars().into_iter().collect();
        assert_eq!(vars, vec![v(2, 2), v(5, 2)]);
    }
}
