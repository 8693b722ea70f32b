//! The c-table itself: one condition per object, plus bulk update plumbing.

use crate::condition::{Condition, Scope, SettleScratch, VarSet};
use crate::constraint::ConstraintStore;
use crate::expr::Expr;
use bc_data::{ObjectId, Value, VarId};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::OnceLock;

/// What one [`CTable::propagate`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PropagateStats {
    /// Open conditions examined: those that mention a touched variable.
    pub examined: usize,
    /// Expressions the pass handed to the constraint store to decide: those
    /// that mention a touched variable.
    pub visited: usize,
    /// Conditions that became decided (true or false) during the pass.
    pub decided: usize,
}

/// A conditional table: `entries[i]` is the condition `φ(o_i)` of object
/// `o_i` being a skyline answer (Definition 3).
///
/// Beside the conditions it keeps an occurrence index from each variable
/// to the objects whose condition mentions it. The index is derived: the
/// first lookup builds it ([`CTable::open_mentioning`]), and it is never
/// compared or written out.
#[derive(Clone)]
pub struct CTable {
    entries: Vec<Condition>,
    occurrences: OnceLock<Occurrences>,
}

impl PartialEq for CTable {
    fn eq(&self, other: &CTable) -> bool {
        self.entries == other.entries
    }
}

impl fmt::Debug for CTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CTable")
            .field("entries", &self.entries)
            .finish_non_exhaustive()
    }
}

impl CTable {
    /// Wraps one condition per object (indexed by object id).
    pub fn new(entries: Vec<Condition>) -> CTable {
        CTable {
            entries,
            occurrences: OnceLock::new(),
        }
    }

    /// Number of objects.
    #[inline]
    pub fn n_objects(&self) -> usize {
        self.entries.len()
    }

    /// The condition of object `o`.
    ///
    /// # Panics
    ///
    /// Panics if `o` is out of bounds.
    #[inline]
    pub fn condition(&self, o: ObjectId) -> &Condition {
        &self.entries[o.index()]
    }

    /// Overwrites the condition of object `o`. A condition that mentions a
    /// variable the old one did not drops the occurrence index, which the
    /// next lookup builds again.
    pub fn set_condition(&mut self, o: ObjectId, c: Condition) {
        let old = &self.entries[o.index()];
        if self.occurrences.get().is_some() && !c.vars().is_subset(&old.vars()) {
            self.occurrences.take();
        }
        self.entries[o.index()] = c;
    }

    /// Iterates `(object, condition)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &Condition)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, c)| (ObjectId(i as u32), c))
    }

    /// Objects whose condition is still undecided.
    pub fn open_objects(&self) -> Vec<ObjectId> {
        self.iter()
            .filter(|(_, c)| !c.is_decided())
            .map(|(o, _)| o)
            .collect()
    }

    /// Whether any condition is still undecided.
    pub fn any_open(&self) -> bool {
        self.entries.iter().any(|c| !c.is_decided())
    }

    /// The objects whose condition is undecided and mentions a variable of
    /// `vars` (sorted ascending), in object order. The candidates are
    /// looked up in the occurrence index, which the first lookup builds;
    /// each is kept if it is undecided and still
    /// [mentions](Condition::mentions_any) a variable of `vars`, so the
    /// result is exactly the objects a scan finds.
    pub fn open_mentioning(&self, vars: &[VarId]) -> Vec<ObjectId> {
        if vars.is_empty() {
            return Vec::new();
        }
        let index = self
            .occurrences
            .get_or_init(|| Occurrences::build(&self.entries));
        let set = VarSet::new(vars.to_vec());
        // The candidates as a bitset over objects: deduplicated and in
        // object order.
        let mut candidates = vec![0u64; self.entries.len().div_ceil(64)];
        for &v in vars {
            for o in index.objects(v) {
                candidates[o.index() / 64] |= 1 << (o.index() % 64);
            }
        }
        let mut objects = Vec::new();
        for (w, &word) in candidates.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let o = ObjectId((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
                let cond = self.condition(o);
                if !cond.is_decided() && cond.mentions_set(&set) {
                    objects.push(o);
                }
            }
        }
        objects
    }

    /// Objects whose condition is `true` (certain answers).
    pub fn certain_answers(&self) -> Vec<ObjectId> {
        self.iter()
            .filter(|(_, c)| matches!(c, Condition::True))
            .map(|(o, _)| o)
            .collect()
    }

    /// Total number of expressions still present in open conditions.
    pub fn n_open_exprs(&self) -> usize {
        self.entries.iter().map(Condition::n_exprs).sum()
    }

    /// Every variable mentioned by any open condition — the coordinates a
    /// possible world must assign to decide the whole table.
    pub fn vars(&self) -> BTreeSet<VarId> {
        self.entries.iter().flat_map(Condition::vars).collect()
    }

    /// Evaluates every condition under one complete assignment (a possible
    /// world): `result[i]` is whether `φ(o_i)` holds in that world. This is
    /// the world-enumeration hook the exhaustive oracle walks — `lookup`
    /// must cover every variable in [`CTable::vars`].
    pub fn eval_world(&self, lookup: impl Fn(VarId) -> Value + Copy) -> Vec<bool> {
        self.entries.iter().map(|c| c.eval(lookup)).collect()
    }

    /// Brings the conditions of `objects` to their fixpoint under `store`:
    /// decides the expressions crowd knowledge settles, then substitutes
    /// the variables pinned to a single value ([`Condition::simplify`] and
    /// [`Condition::substitute`], iterated until nothing changes). Returns
    /// counters describing the pass.
    ///
    /// `touched` are the variables whose store knowledge changed since the
    /// last pass (sorted ascending), and `objects` must be
    /// [`CTable::open_mentioning`]`(touched)`. Inside each condition only
    /// the clauses that mention a touched variable are rewritten.
    ///
    /// A condition's fixpoint depends only on the store's masks and facts
    /// for its own variables, and a clause's only on its own. So if every
    /// open condition was at its fixpoint before the store changed on
    /// `touched` alone, the conditions and clauses skipped are already at
    /// the new fixpoint, and the whole table ends at it. A built table is
    /// at its fixpoint under an empty store
    /// ([`build_ctable`](crate::build_ctable)), and every pass leaves it at
    /// the fixpoint of its store.
    pub fn propagate(
        &mut self,
        store: &ConstraintStore,
        touched: &[VarId],
        objects: &[ObjectId],
    ) -> PropagateStats {
        debug_assert_eq!(objects, self.open_mentioning(touched), "stale objects");
        let scope = Scope::new(touched, store);
        let mut stats = PropagateStats::default();
        let mut scratch = SettleScratch::default();
        for &o in objects {
            let cond = &mut self.entries[o.index()];
            stats.visited += cond.settle(store, &scope, &mut scratch);
            stats.examined += 1;
            if cond.is_decided() {
                stats.decided += 1;
            }
        }
        stats
    }
}

/// The occurrence index: for each variable, the objects whose condition
/// mentioned it when the index was built (Eén & Biere's occurrence lists,
/// SAT 2005, at the granularity of conditions). Propagation never adds a
/// variable to a condition, so an entry may go stale but is never missing.
///
/// The lists sit in one buffer, a segment per variable slot
/// (`object · attrs + attr`), each in object order.
#[derive(Clone, Debug)]
struct Occurrences {
    /// Attributes per object, giving each variable its slot.
    attrs: usize,
    /// Slot `s`'s segment is `objects[bounds[s]..bounds[s + 1]]`.
    bounds: Vec<u32>,
    objects: Vec<ObjectId>,
}

impl Occurrences {
    /// The index of every open condition in `entries`. Its slots span the
    /// objects and attributes of the variables the conditions mention: for
    /// a table built over a dataset, at most one slot per cell.
    fn build(entries: &[Condition]) -> Occurrences {
        let (mut objects, mut attrs) = (0, 0);
        for v in entries
            .iter()
            .flat_map(Condition::exprs)
            .flat_map(Expr::vars)
        {
            objects = objects.max(v.object.index() + 1);
            attrs = attrs.max(v.attr.index() + 1);
        }
        let n = attrs * objects;
        // Each condition's distinct variables by slot, in object order, and
        // each slot's count; `last` is the object a slot last counted.
        let mut last = vec![u32::MAX; n];
        let mut bounds = vec![0u32; n + 1];
        let mut slots: Vec<(u32, ObjectId)> = Vec::new();
        for (i, cond) in entries.iter().enumerate() {
            for v in cond.exprs().flat_map(Expr::vars) {
                let s = v.object.index() * attrs + v.attr.index();
                if last[s] != i as u32 {
                    last[s] = i as u32;
                    bounds[s] += 1;
                    slots.push((s as u32, ObjectId(i as u32)));
                }
            }
        }
        // A counting sort: each slot's count summed into its end, then
        // counted down to its start while filling from the back.
        let mut end = 0;
        for b in bounds.iter_mut() {
            end += *b;
            *b = end;
        }
        let mut list = vec![ObjectId(0); slots.len()];
        for &(s, o) in slots.iter().rev() {
            let at = &mut bounds[s as usize];
            *at -= 1;
            list[*at as usize] = o;
        }
        Occurrences {
            attrs,
            bounds,
            objects: list,
        }
    }

    /// The objects listed for `v`.
    fn objects(&self, v: VarId) -> &[ObjectId] {
        let s = v.object.index() * self.attrs + v.attr.index();
        if v.attr.index() >= self.attrs || s + 1 >= self.bounds.len() {
            return &[];
        }
        &self.objects[self.bounds[s] as usize..self.bounds[s + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_ctable, CTableConfig, DominatorStrategy};
    use crate::constraint::Relation;
    use crate::expr::{Expr, Operand};
    use bc_data::generators::sample::paper_dataset;
    use bc_data::{Dataset, Domain, VarId};
    use proptest::prelude::*;

    fn v(o: u32, a: u16) -> VarId {
        VarId::new(o, a)
    }

    /// One round's pass over the conditions that mention a variable of
    /// `touched` (sorted ascending).
    fn pass(ct: &mut CTable, store: &ConstraintStore, touched: &[VarId]) -> PropagateStats {
        let objects = ct.open_mentioning(touched);
        ct.propagate(store, touched, &objects)
    }

    fn sample_ctable() -> (bc_data::Dataset, CTable) {
        let data = paper_dataset();
        let ct = build_ctable(
            &data,
            &CTableConfig {
                alpha: 1.0,
                strategy: DominatorStrategy::FastIndex,
            },
        );
        (data, ct)
    }

    #[test]
    fn bookkeeping() {
        let (_, ct) = sample_ctable();
        assert_eq!(ct.n_objects(), 5);
        assert_eq!(ct.certain_answers(), vec![ObjectId(1), ObjectId(2)]);
        assert_eq!(
            ct.open_objects(),
            vec![ObjectId(0), ObjectId(3), ObjectId(4)]
        );
        assert!(ct.n_open_exprs() >= 3 + 4 + 6);
    }

    /// The paper's Example 4 update: after the first round of answers
    /// (`Var(o5,a4) < 4` and `Var(o5,a3) = 3`) the c-table becomes Table 5.
    #[test]
    fn paper_table_5_update() {
        let (data, mut ct) = sample_ctable();
        let mut store = crate::constraint::ConstraintStore::new(&data);
        store.record(v(4, 3), Operand::Const(4), Relation::Lt);
        store.record(v(4, 2), Operand::Const(3), Relation::Eq);
        pass(&mut ct, &store, &[v(4, 2), v(4, 3)]);

        // φ(o1) turns true.
        assert_eq!(*ct.condition(ObjectId(0)), Condition::True);
        // φ(o4) = (Var(o2,a2) < 3) ∧ (Var(o5,a2) < 3 ∨ Var(o5,a4) < 2).
        let expected_o4 = Condition::from_clauses(vec![
            vec![Expr::lt(v(1, 1), 3)],
            vec![Expr::lt(v(4, 1), 3), Expr::lt(v(4, 3), 2)],
        ]);
        assert_eq!(*ct.condition(ObjectId(3)), expected_o4);
        // φ(o5) = Var(o5,a2) > 2.
        let expected_o5 = Condition::from_clauses(vec![vec![Expr::gt(v(4, 1), 2)]]);
        assert_eq!(*ct.condition(ObjectId(4)), expected_o5);
    }

    /// Second iteration of Example 4: `Var(o5,a2) > 2` and
    /// `Var(o2,a2) > 3` make φ(o5) true and φ(o4) false.
    #[test]
    fn paper_example_4_second_round() {
        let (data, mut ct) = sample_ctable();
        let mut store = crate::constraint::ConstraintStore::new(&data);
        store.record(v(4, 3), Operand::Const(4), Relation::Lt);
        store.record(v(4, 2), Operand::Const(3), Relation::Eq);
        store.record(v(4, 1), Operand::Const(2), Relation::Gt);
        store.record(v(1, 1), Operand::Const(3), Relation::Gt);
        pass(&mut ct, &store, &[v(1, 1), v(4, 1), v(4, 2), v(4, 3)]);

        assert_eq!(*ct.condition(ObjectId(4)), Condition::True);
        assert_eq!(*ct.condition(ObjectId(3)), Condition::False);
        assert_eq!(
            ct.certain_answers(),
            vec![ObjectId(0), ObjectId(1), ObjectId(2), ObjectId(4)]
        );
        assert!(ct.open_objects().is_empty());
        assert_eq!(ct.n_open_exprs(), 0);
    }

    #[test]
    fn world_evaluation_hooks() {
        let (data, ct) = sample_ctable();
        let vars = ct.vars();
        // Every variable in the table is a missing cell of the dataset.
        for var in &vars {
            assert_eq!(data.get(var.object, var.attr), None, "{var} is observed");
        }
        // The paper's completion (Table 1 ground truth): o1, o2, o3, o5 in
        // the skyline. Condition truth in that world must agree.
        let complete = bc_data::generators::sample::paper_completion();
        let truth = ct.eval_world(|v| complete.get(v.object, v.attr).unwrap());
        assert_eq!(truth, vec![true, true, true, false, true]);
    }

    /// The pass examines the open conditions that mention an answered
    /// variable and, inside them, decides only the expressions that do; it
    /// leaves the table where the whole-condition reference does.
    #[test]
    fn propagate_touches_only_what_the_answers_touch() {
        let (data, before) = sample_ctable();
        let mut store = ConstraintStore::new(&data);
        store.record(v(4, 3), Operand::Const(4), Relation::Lt);
        store.record(v(4, 2), Operand::Const(3), Relation::Eq);
        let touched = [v(4, 2), v(4, 3)];
        let mut ct = before.clone();
        assert_eq!(
            ct.open_mentioning(&touched),
            vec![ObjectId(0), ObjectId(3), ObjectId(4)]
        );
        let stats = pass(&mut ct, &store, &touched);
        // Three open conditions examined; φ(o1) turns true.
        assert_eq!((stats.examined, stats.decided), (3, 1));
        assert!(stats.visited < before.n_open_exprs(), "{stats:?}");
        let mut reference: Vec<Condition> = before.iter().map(|(_, c)| c.clone()).collect();
        reference_pass(&mut reference, &store);
        assert_eq!(
            ct.iter().map(|(_, c)| c.clone()).collect::<Vec<_>>(),
            reference
        );
        assert!(before.iter().any(|(o, c)| c != ct.condition(o)));
        // A pass with no news examines the open conditions that still
        // mention an answered variable and decides nothing.
        let idle = pass(&mut ct, &store, &touched);
        assert_eq!((idle.examined, idle.decided), (1, 0));
        assert_eq!(
            ct.iter().map(|(_, c)| c.clone()).collect::<Vec<_>>(),
            reference
        );
    }

    /// A condition that gains a variable drops the index, so lookups
    /// still find it; one that only loses variables keeps the index.
    #[test]
    fn set_condition_keeps_lookups_exact() {
        let (_, mut ct) = sample_ctable();
        assert!(ct.occurrences.get().is_none());
        let fresh = v(2, 0);
        assert!(ct.open_mentioning(&[fresh]).is_empty());
        assert!(ct.occurrences.get().is_some());
        let shrunk = Condition::from_clauses(vec![vec![Expr::lt(v(1, 1), 3)]]);
        ct.set_condition(ObjectId(3), shrunk);
        assert!(ct.occurrences.get().is_some());
        assert_eq!(ct.open_mentioning(&[v(1, 1)]), scan(&ct, &[v(1, 1)]));
        ct.set_condition(
            ObjectId(3),
            Condition::from_clauses(vec![vec![Expr::gt(fresh, 1)]]),
        );
        assert!(ct.occurrences.get().is_none());
        assert_eq!(ct.open_mentioning(&[fresh]), vec![ObjectId(3)]);
    }

    #[test]
    fn propagate_substitutes_pinned_vars_into_var_var_exprs() {
        let (data, mut ct) = sample_ctable();
        let mut store = crate::constraint::ConstraintStore::new(&data);
        // Pin Var(o2,a2) = 1: in φ(o5) the expression
        // Var(o5,a2) > Var(o2,a2) becomes Var(o5,a2) > 1.
        store.record(v(1, 1), Operand::Const(1), Relation::Eq);
        pass(&mut ct, &store, &[v(1, 1)]);
        let cond = ct.condition(ObjectId(4));
        assert!(
            cond.exprs().any(|e| *e == Expr::gt(v(4, 1), 1)),
            "expected substituted expression, got {cond}"
        );
        // φ(o4)'s first clause (Var(o2,a2) < 3) is now true and disappears.
        assert_eq!(ct.condition(ObjectId(3)).clauses().len(), 1);
    }

    /// The reference for propagation: the whole-condition fixpoint,
    /// `simplify` against the store, then `substitute` every pinned
    /// variable, until nothing changes.
    fn reference_fixpoint(cond: &Condition, store: &ConstraintStore) -> Condition {
        let mut current = cond.clone();
        loop {
            let mut next = current.simplify(|e| store.decide(e));
            let mut pinned: Vec<(VarId, Value)> = next
                .exprs()
                .flat_map(Expr::vars)
                .filter_map(|v| store.pinned_value(v).map(|x| (v, x)))
                .collect();
            pinned.sort_unstable();
            pinned.dedup();
            for &(v, x) in &pinned {
                next = next.substitute(v, x);
            }
            if next == current || pinned.is_empty() {
                return next;
            }
            current = next;
        }
    }

    /// A full reference pass over every open condition; returns the
    /// conditions decided.
    fn reference_pass(entries: &mut [Condition], store: &ConstraintStore) -> usize {
        let mut decided = 0;
        for cond in entries.iter_mut().filter(|c| !c.is_decided()) {
            *cond = reference_fixpoint(cond, store);
            decided += usize::from(cond.is_decided());
        }
        decided
    }

    /// The objects a scan finds: undecided and mentioning a variable of
    /// `vars`.
    fn scan(ct: &CTable, vars: &[VarId]) -> Vec<ObjectId> {
        ct.iter()
            .filter(|(_, c)| !c.is_decided() && c.mentions_any(vars))
            .map(|(o, _)| o)
            .collect()
    }

    /// One crowd answer, drawn before the dataset is known: `pick` and
    /// `other` choose missing variables, `value` a constant, `relation`
    /// the answer; var-var answers compare two cells of one attribute.
    #[derive(Clone, Debug)]
    struct Answer {
        var_var: bool,
        pick: usize,
        other: usize,
        value: u16,
        relation: Relation,
    }

    fn answer() -> impl Strategy<Value = Answer> {
        let relation = prop_oneof![Just(Relation::Lt), Just(Relation::Eq), Just(Relation::Gt)];
        (
            any::<bool>(),
            any::<usize>(),
            any::<usize>(),
            0u16..9,
            relation,
        )
            .prop_map(|(var_var, pick, other, value, relation)| Answer {
                var_var,
                pick,
                other,
                value,
                relation,
            })
    }

    /// A small incomplete dataset: two to eight objects over one to three
    /// attributes of cardinality one to eight, each cell missing with
    /// probability about 0.4; and one to six rounds of one to four answers.
    fn campaign() -> impl Strategy<Value = (Dataset, Vec<Vec<Answer>>)> {
        let cards = prop::collection::vec(1u16..9, 1..4);
        let data = cards.prop_flat_map(|cards| {
            let cell = (any::<u16>(), 0u8..5);
            let row = prop::collection::vec(cell, cards.len());
            (Just(cards), prop::collection::vec(row, 2..9))
        });
        let data = data.prop_map(|(cards, rows)| {
            let domains = cards.iter().enumerate();
            let domains = domains.map(|(a, &c)| Domain::new(format!("a{a}"), c).unwrap());
            let rows = rows.iter().map(|row| {
                let cells = row.iter().zip(&cards);
                cells
                    .map(|(&(v, m), &c)| (m >= 2).then_some(v % c))
                    .collect()
            });
            Dataset::from_rows("random", domains.collect(), rows.collect()).unwrap()
        });
        let rounds = prop::collection::vec(prop::collection::vec(answer(), 1..5), 1..7);
        (data, rounds)
    }

    /// What [`run_campaign`] exercised.
    #[derive(Default)]
    struct Tally {
        var_var: usize,
        contradictions: usize,
        single_values: usize,
        decided: usize,
    }

    /// Round by round from the built table, the occurrence path (only the
    /// conditions the index finds and, inside them, only the clauses an
    /// answer touches) must leave every condition byte for byte where the
    /// whole-condition reference fixpoint does, with the same decided
    /// count; and the index must find exactly the objects a scan finds.
    /// The first round holds only if [`build_ctable`] leaves the table at
    /// its fixpoint under an empty store: one-value domains are where it
    /// could fail.
    fn run_campaign(data: &Dataset, rounds: &[Vec<Answer>]) -> Result<Tally, String> {
        let mut tally = Tally::default();
        let missing = data.missing_vars();
        if missing.is_empty() {
            return Ok(tally);
        }
        tally.single_values = data
            .domains()
            .iter()
            .filter(|d| d.cardinality() == 1)
            .count();
        let config = CTableConfig {
            alpha: 1.0,
            strategy: DominatorStrategy::FastIndex,
        };
        let mut ct = build_ctable(data, &config);
        let mut reference: Vec<Condition> = ct.iter().map(|(_, c)| c.clone()).collect();
        let mut store = ConstraintStore::new(data);
        for (round, answers) in rounds.iter().enumerate() {
            let mut touched = Vec::new();
            for a in answers {
                let var = missing[a.pick % missing.len()];
                let peers: Vec<VarId> = missing
                    .iter()
                    .copied()
                    .filter(|w| w.attr == var.attr && *w != var)
                    .collect();
                let rhs = match (a.var_var, peers.is_empty()) {
                    (true, false) => Operand::Var(peers[a.other % peers.len()]),
                    _ => Operand::Const(a.value),
                };
                store.record(var, rhs, a.relation);
                touched.push(var);
                if let Operand::Var(w) = rhs {
                    touched.push(w);
                    tally.var_var += 1;
                }
            }
            touched.sort_unstable();
            touched.dedup();
            tally.contradictions += touched.iter().filter(|&&v| store.mask(v) == 0).count();
            let objects = ct.open_mentioning(&touched);
            if objects != scan(&ct, &touched) {
                return Err(format!("round {round}: the index found {objects:?}"));
            }
            let stats = ct.propagate(&store, &touched, &objects);
            let decided = reference_pass(&mut reference, &store);
            let got: Vec<Condition> = ct.iter().map(|(_, c)| c.clone()).collect();
            if format!("{got:?}") != format!("{reference:?}") || got != reference {
                return Err(format!("round {round}: {got:?} against {reference:?}"));
            }
            if stats.decided != decided {
                return Err(format!("round {round}: {stats:?} against {decided}"));
            }
            tally.decided += decided;
            // Any set of variables: the index finds what a scan finds.
            for vars in [&missing[..], &missing[..missing.len() / 2]] {
                if ct.open_mentioning(vars) != scan(&ct, vars) {
                    return Err(format!("round {round}: the index missed on {vars:?}"));
                }
            }
        }
        Ok(tally)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// See [`run_campaign`].
        #[test]
        fn occurrence_propagation_matches_the_whole_condition_fixpoint(
            (data, rounds) in campaign()
        ) {
            let outcome = run_campaign(&data, &rounds);
            prop_assert!(outcome.is_ok(), "{}", outcome.err().unwrap_or_default());
        }
    }

    /// The random campaigns reach what the property is about: var-var
    /// answers, contradictory answers, one-value domains, and conditions
    /// rewritten and decided.
    #[test]
    fn random_campaigns_cover_the_hard_cases() {
        let mut runner = proptest::TestRunner::new(
            ProptestConfig::with_cases(512),
            "random_campaigns_cover_the_hard_cases",
        );
        let mut total = Tally::default();
        for _ in 0..512 {
            let (data, rounds) = campaign().generate(runner.rng());
            let tally = run_campaign(&data, &rounds).expect("the paths agree");
            total.var_var += tally.var_var;
            total.contradictions += tally.contradictions;
            total.single_values += tally.single_values;
            total.decided += tally.decided;
        }
        assert!(total.var_var > 100, "{}", total.var_var);
        assert!(total.contradictions > 10, "{}", total.contradictions);
        assert!(total.single_values > 10, "{}", total.single_values);
        assert!(total.decided > 100, "{}", total.decided);
    }
}
