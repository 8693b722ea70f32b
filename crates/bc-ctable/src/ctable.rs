//! The c-table itself: one condition per object, plus bulk update plumbing.

use crate::condition::Condition;
use crate::constraint::ConstraintStore;
use crate::expr::Expr;
use bc_data::{ObjectId, Value, VarId};
use std::collections::BTreeSet;

/// What one [`CTable::propagate`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PropagateStats {
    /// Open conditions examined.
    pub examined: usize,
    /// Conditions that became decided (true or false) during the pass.
    pub decided: usize,
    /// Deepest simplify/substitute fixpoint iteration over all conditions —
    /// how far a single crowd answer cascaded.
    pub max_depth: usize,
}

/// A conditional table: `entries[i]` is the condition `φ(o_i)` of object
/// `o_i` being a skyline answer (Definition 3).
#[derive(Clone, Debug, PartialEq)]
pub struct CTable {
    entries: Vec<Condition>,
}

impl CTable {
    /// Wraps one condition per object (indexed by object id).
    pub fn new(entries: Vec<Condition>) -> CTable {
        CTable { entries }
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

    /// Overwrites the condition of object `o`.
    pub fn set_condition(&mut self, o: ObjectId, c: Condition) {
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

    /// Re-simplifies every open condition against the constraint store:
    /// decides expressions settled by crowd knowledge, then substitutes any
    /// variable pinned to a single value, iterating to a fixpoint per
    /// condition. Returns counters describing the pass.
    pub fn propagate(&mut self, store: &ConstraintStore) -> PropagateStats {
        self.propagate_where(store, |_| true)
    }

    /// [`CTable::propagate`], restricted with `touching` to the open
    /// conditions that mention one of its variables (sorted ascending): the
    /// variables whose store knowledge changed since the last pass; `None`
    /// examines every open condition.
    ///
    /// A condition's fixpoint depends only on the store's masks and facts
    /// for its own variables. So if the previous pass left every open
    /// condition at its fixpoint, and the store changed only on `touching`,
    /// the conditions skipped are already at the new fixpoint. The c-table
    /// then ends exactly as after a full pass, and only
    /// [`PropagateStats::examined`] differs.
    pub fn propagate_touching(
        &mut self,
        store: &ConstraintStore,
        touching: Option<&[VarId]>,
    ) -> PropagateStats {
        match touching {
            Some(vars) => self.propagate_where(store, |c| c.mentions_any(vars)),
            None => self.propagate_where(store, |_| true),
        }
    }

    fn propagate_where(
        &mut self,
        store: &ConstraintStore,
        examine: impl Fn(&Condition) -> bool,
    ) -> PropagateStats {
        let mut stats = PropagateStats::default();
        for cond in self.entries.iter_mut() {
            if cond.is_decided() || !examine(cond) {
                continue;
            }
            stats.examined += 1;
            let original = std::mem::replace(cond, Condition::True);
            // The latest rewrite, once the pass changed anything.
            let mut rewritten: Option<Condition> = None;
            let mut depth = 0;
            loop {
                let current = rewritten.as_ref().unwrap_or(&original);
                let mut next = current.simplify(|e| store.decide(e));
                // Substitute pinned variables to expose further collapses
                // (e.g. a var-var expression becoming var-const).
                let mut pinned: Vec<(VarId, Value)> = next
                    .exprs()
                    .flat_map(Expr::vars)
                    .filter_map(|v| store.pinned_value(v).map(|val| (v, val)))
                    .collect();
                pinned.sort_unstable();
                pinned.dedup();
                for &(v, val) in &pinned {
                    next = next.substitute(v, val);
                }
                if next == *current {
                    break;
                }
                rewritten = Some(next);
                depth += 1;
                // `simplify` leaves only undecided expressions, so with
                // nothing substituted another iteration would change
                // nothing: `current` is the fixpoint.
                if pinned.is_empty() {
                    break;
                }
            }
            stats.max_depth = stats.max_depth.max(depth);
            match rewritten {
                Some(current) => {
                    if current.is_decided() {
                        stats.decided += 1;
                    }
                    *cond = current;
                }
                None => *cond = original,
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_ctable, CTableConfig, DominatorStrategy};
    use crate::constraint::Relation;
    use crate::expr::{Expr, Operand};
    use bc_data::generators::sample::paper_dataset;
    use bc_data::VarId;

    fn v(o: u32, a: u16) -> VarId {
        VarId::new(o, a)
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
        ct.propagate(&store);

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
        ct.propagate(&store);

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

    #[test]
    fn propagate_reports_examined_decided_and_depth() {
        let (data, mut ct) = sample_ctable();
        let mut store = crate::constraint::ConstraintStore::new(&data);
        store.record(v(4, 3), Operand::Const(4), Relation::Lt);
        store.record(v(4, 2), Operand::Const(3), Relation::Eq);
        let stats = ct.propagate(&store);
        // Three open conditions examined; φ(o1) turns true.
        assert_eq!(stats.examined, 3);
        assert_eq!(stats.decided, 1);
        assert!(stats.max_depth >= 1, "got {stats:?}");
        // A no-op pass examines the remaining open conditions, decides
        // nothing, and cascades nowhere.
        let idle = ct.propagate(&store);
        assert_eq!(idle.examined, 2);
        assert_eq!(idle.decided, 0);
        assert_eq!(idle.max_depth, 0);
    }

    #[test]
    fn propagate_touching_matches_a_full_pass() {
        let (data, before) = sample_ctable();
        let mut store = crate::constraint::ConstraintStore::new(&data);
        store.record(v(4, 3), Operand::Const(4), Relation::Lt);
        store.record(v(4, 2), Operand::Const(3), Relation::Eq);
        let mut plain = before.clone();
        let want = plain.propagate(&store);
        for touching in [None, Some(&[v(4, 2), v(4, 3)][..])] {
            let mut ct = before.clone();
            let stats = ct.propagate_touching(&store, touching);
            assert_eq!(stats.decided, want.decided);
            assert_eq!(
                ct.iter().collect::<Vec<_>>(),
                plain.iter().collect::<Vec<_>>()
            );
            assert!(before.iter().any(|(o, c)| c != ct.condition(o)));
        }
    }

    #[test]
    fn propagate_substitutes_pinned_vars_into_var_var_exprs() {
        let (data, mut ct) = sample_ctable();
        let mut store = crate::constraint::ConstraintStore::new(&data);
        // Pin Var(o2,a2) = 1: in φ(o5) the expression
        // Var(o5,a2) > Var(o2,a2) becomes Var(o5,a2) > 1.
        store.record(v(1, 1), Operand::Const(1), Relation::Eq);
        ct.propagate(&store);
        let cond = ct.condition(ObjectId(4));
        assert!(
            cond.exprs().any(|e| *e == Expr::gt(v(4, 1), 1)),
            "expected substituted expression, got {cond}"
        );
        // φ(o4)'s first clause (Var(o2,a2) < 3) is now true and disappears.
        assert_eq!(ct.condition(ObjectId(3)).clauses().len(), 1);
    }
}
