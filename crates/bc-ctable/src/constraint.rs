//! Constraint store: accumulates crowd answers and propagates them.
//!
//! A crowd answer is stronger than the truth value of a single expression:
//! it pins the relation of a variable to a constant (shrinking the set of
//! still-possible values) or to another variable (a relational fact). The
//! store keeps both kinds of knowledge and is consulted when simplifying
//! *every* condition in the c-table — this cross-condition inference is what
//! the paper credits for BayesCrowd needing far fewer tasks than CrowdSky
//! (see the update from Table 3 to Table 5).

use crate::expr::{mask_range, Expr, Operand};
use bc_data::{Dataset, FxMap, Value, VarId};

/// The outcome of a triple-choice crowd task: how the (hidden) left operand
/// relates to the right operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Relation {
    /// Left is smaller.
    Lt,
    /// Operands are equal.
    Eq,
    /// Left is larger.
    Gt,
}

impl Relation {
    /// The relation seen from the right operand's side.
    pub fn flipped(self) -> Relation {
        match self {
            Relation::Lt => Relation::Gt,
            Relation::Eq => Relation::Eq,
            Relation::Gt => Relation::Lt,
        }
    }

    /// The true relation between two values.
    pub fn between(l: Value, r: Value) -> Relation {
        match l.cmp(&r) {
            std::cmp::Ordering::Less => Relation::Lt,
            std::cmp::Ordering::Equal => Relation::Eq,
            std::cmp::Ordering::Greater => Relation::Gt,
        }
    }
}

/// Accumulated knowledge about missing-value variables.
///
/// Propagation reads a mask or a fact per expression, so both are hashed:
/// each lookup is one probe (DESIGN.md, "Variable index"). The accessors
/// [`ConstraintStore::masks`] and [`ConstraintStore::facts`] sort, so
/// nothing outside sees the hash order.
#[derive(Clone, Debug)]
pub struct ConstraintStore {
    /// Cardinality of each attribute's domain (indexed by attribute).
    attr_cards: Vec<u16>,
    /// Candidate-value masks for variables we have learned something about;
    /// absent variables implicitly have the full domain mask.
    masks: FxMap<VarId, u64>,
    /// Relational facts between variable pairs, keyed with the smaller
    /// variable first (the relation is expressed from that variable's side).
    facts: FxMap<(VarId, VarId), Relation>,
}

impl ConstraintStore {
    /// An empty store for a dataset's attribute domains.
    pub fn new(data: &Dataset) -> ConstraintStore {
        ConstraintStore {
            attr_cards: data.domains().iter().map(|d| d.cardinality()).collect(),
            masks: FxMap::default(),
            facts: FxMap::default(),
        }
    }

    /// Rebuilds a store from its serialized parts (see the accessors
    /// [`ConstraintStore::attr_cards`], [`ConstraintStore::masks`] and
    /// [`ConstraintStore::facts`]) — the checkpoint/restore path. A key
    /// that repeats keeps its last value.
    pub fn from_parts(
        attr_cards: Vec<u16>,
        masks: impl IntoIterator<Item = (VarId, u64)>,
        facts: impl IntoIterator<Item = ((VarId, VarId), Relation)>,
    ) -> ConstraintStore {
        ConstraintStore {
            attr_cards,
            masks: masks.into_iter().collect(),
            facts: facts.into_iter().collect(),
        }
    }

    /// Cardinality of each attribute's domain, indexed by attribute.
    pub fn attr_cards(&self) -> &[u16] {
        &self.attr_cards
    }

    /// The explicitly narrowed candidate-value masks in variable order
    /// (variables not present implicitly keep their full domain mask).
    pub fn masks(&self) -> impl ExactSizeIterator<Item = (VarId, u64)> {
        sorted(&self.masks)
    }

    /// The recorded var–var relational facts, keyed smaller variable first,
    /// in key order.
    pub fn facts(&self) -> impl ExactSizeIterator<Item = ((VarId, VarId), Relation)> {
        sorted(&self.facts)
    }

    /// Candidate-value mask of `v` (full domain if nothing is known).
    #[inline]
    pub fn mask(&self, v: VarId) -> u64 {
        match self.masks.get(&v) {
            Some(&m) => m,
            None => full_mask(&self.attr_cards, v),
        }
    }

    /// If only one value remains possible for `v`, that value.
    pub fn pinned_value(&self, v: VarId) -> Option<Value> {
        let m = self.mask(v);
        if m != 0 && m & (m - 1) == 0 {
            Some(m.trailing_zeros() as Value)
        } else {
            None
        }
    }

    /// Records the answer to a task comparing `var` against `rhs` and
    /// returns the variables whose candidate mask actually changed (none,
    /// one, or for a var-var answer both sides), in ascending order.
    ///
    /// Var-const answers shrink `var`'s mask. Var-var answers record a fact
    /// and additionally tighten both masks by interval reasoning (`l < r`
    /// implies `l < max(r)` and `r > min(l)`).
    pub fn record(&mut self, var: VarId, rhs: Operand, relation: Relation) -> Vec<VarId> {
        let mut changed = Vec::new();
        let mut narrow = |store: &mut ConstraintStore, v: VarId, m: u64| {
            let cards = &store.attr_cards;
            let slot = store.masks.entry(v).or_insert_with(|| full_mask(cards, v));
            if *slot != m {
                changed.push(v);
            }
            *slot = m;
        };
        match rhs {
            Operand::Const(c) => {
                let keep = match relation {
                    Relation::Lt => below_mask(c),
                    Relation::Eq => {
                        if c < 64 {
                            1u64 << c
                        } else {
                            0
                        }
                    }
                    Relation::Gt => above_mask(c),
                };
                let m = self.mask(var) & keep;
                narrow(self, var, m);
            }
            Operand::Var(other) => {
                let (a, b, rel) = if var <= other {
                    (var, other, relation)
                } else {
                    (other, var, relation.flipped())
                };
                self.facts.insert((a, b), rel);
                // Interval propagation between the two masks.
                let (ma, mb) = (self.mask(a), self.mask(b));
                if let (Some((amin, amax)), Some((bmin, bmax))) = (mask_range(ma), mask_range(mb)) {
                    let (na, nb) = match rel {
                        Relation::Lt => (ma & below_mask(bmax), mb & above_mask(amin)),
                        Relation::Gt => (ma & above_mask(bmin), mb & below_mask(amax)),
                        Relation::Eq => (ma & mb, mb & ma),
                    };
                    narrow(self, a, na);
                    narrow(self, b, nb);
                }
            }
        }
        changed
    }

    /// The recorded fact between two variables, if any (expressed from
    /// `l`'s side).
    pub fn fact(&self, l: VarId, r: VarId) -> Option<Relation> {
        if l <= r {
            self.facts.get(&(l, r)).copied()
        } else {
            self.facts.get(&(r, l)).map(|f| f.flipped())
        }
    }

    /// Tries to settle an expression's truth value from the accumulated
    /// knowledge: relational facts first, then candidate-mask interval
    /// reasoning.
    pub fn decide(&self, e: &Expr) -> Option<bool> {
        if let Some(r) = e.rhs_var() {
            if let Some(fact) = self.fact(e.var(), r) {
                use crate::expr::CmpOp::*;
                let truth = match (e.op(), fact) {
                    (Lt, Relation::Lt) => true,
                    (Lt, _) => false,
                    (Le, Relation::Gt) => false,
                    (Le, _) => true,
                    (Gt, Relation::Gt) => true,
                    (Gt, _) => false,
                    (Ge, Relation::Lt) => false,
                    (Ge, _) => true,
                    (Eq, Relation::Eq) => true,
                    (Eq, _) => false,
                    (Ne, Relation::Eq) => false,
                    (Ne, _) => true,
                };
                return Some(truth);
            }
        }
        e.decide(|v| self.mask(v))
    }

    /// Number of variables with narrowed masks plus recorded facts — a
    /// measure of accumulated crowd knowledge.
    pub fn knowledge_size(&self) -> usize {
        self.masks.len() + self.facts.len()
    }
}

/// Mask of all values strictly below `c`.
fn below_mask(c: Value) -> u64 {
    if c >= 64 {
        u64::MAX
    } else if c == 0 {
        0
    } else {
        (1u64 << c) - 1
    }
}

/// The mask of every value of `v`'s domain.
fn full_mask(attr_cards: &[u16], v: VarId) -> u64 {
    let card = attr_cards[v.attr.index()];
    if card == 64 {
        u64::MAX
    } else {
        (1u64 << card) - 1
    }
}

/// The entries of `map` in key order.
fn sorted<K: Ord + Copy, V: Copy>(map: &FxMap<K, V>) -> std::vec::IntoIter<(K, V)> {
    let mut entries: Vec<(K, V)> = map.iter().map(|(&k, &v)| (k, v)).collect();
    entries.sort_unstable_by_key(|e| e.0);
    entries.into_iter()
}

/// Mask of all values strictly above `c`.
fn above_mask(c: Value) -> u64 {
    if c >= 63 {
        0
    } else {
        !((1u64 << (c + 1)) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_data::generators::sample::paper_dataset;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    fn store() -> ConstraintStore {
        ConstraintStore::new(&paper_dataset())
    }

    fn v(o: u32, a: u16) -> VarId {
        VarId::new(o, a)
    }

    #[test]
    fn masks_default_to_full_domain() {
        let s = store();
        // a3 has cardinality 8, a2 cardinality 10.
        assert_eq!(s.mask(v(5, 2)), 0xFF);
        assert_eq!(s.mask(v(5, 1)), 0x3FF);
        assert_eq!(s.pinned_value(v(5, 2)), None);
    }

    #[test]
    fn const_answers_shrink_masks() {
        let mut s = store();
        // Crowd says Var(o5, a4) < 4 (a4 has cardinality 6).
        s.record(v(5, 3), Operand::Const(4), Relation::Lt);
        assert_eq!(s.mask(v(5, 3)), 0b001111);
        // Then Var(o5, a4) > 1.
        s.record(v(5, 3), Operand::Const(1), Relation::Gt);
        assert_eq!(s.mask(v(5, 3)), 0b001100);
        // Then equality pins it.
        s.record(v(5, 3), Operand::Const(2), Relation::Eq);
        assert_eq!(s.pinned_value(v(5, 3)), Some(2));
    }

    #[test]
    fn decided_expressions_follow_the_paper_update() {
        // Example 4: answer Var(o5, a3) = 3 must decide both
        // "Var(o5,a3) < 3" (false) and "Var(o5,a3) > 3" (false),
        // and leave "Var(o5,a3) > 2" true.
        let mut s = store();
        s.record(v(5, 2), Operand::Const(3), Relation::Eq);
        assert_eq!(s.decide(&Expr::lt(v(5, 2), 3)), Some(false));
        assert_eq!(s.decide(&Expr::gt(v(5, 2), 3)), Some(false));
        assert_eq!(s.decide(&Expr::gt(v(5, 2), 2)), Some(true));
    }

    #[test]
    fn var_var_facts_decide_expressions() {
        let mut s = store();
        let l = v(5, 1);
        let r = v(2, 1);
        s.record(l, Operand::Var(r), Relation::Gt);
        assert_eq!(s.decide(&Expr::var_gt(l, r)), Some(true));
        assert_eq!(s.decide(&Expr::var_gt(r, l)), Some(false));
        // The flipped key lookup agrees.
        assert_eq!(s.fact(r, l), Some(Relation::Lt));
    }

    #[test]
    fn var_var_equality_intersects_masks() {
        let mut s = store();
        let l = v(5, 1);
        let r = v(2, 1);
        s.record(l, Operand::Const(5), Relation::Lt); // l in {0..4}
        s.record(r, Operand::Const(2), Relation::Gt); // r in {3..9}
        s.record(l, Operand::Var(r), Relation::Eq);
        assert_eq!(s.mask(l), 0b11000);
        assert_eq!(s.mask(r), 0b11000);
    }

    #[test]
    fn var_var_inequality_tightens_intervals() {
        let mut s = store();
        let l = v(5, 1);
        let r = v(2, 1);
        s.record(r, Operand::Const(4), Relation::Lt); // r in {0..3}
        s.record(l, Operand::Var(r), Relation::Lt); // l < r → l in {0..2}
        assert_eq!(s.mask(l), 0b0111);
        // And r > min(l) = 0 → r in {1..3}.
        assert_eq!(s.mask(r), 0b1110);
    }

    #[test]
    fn record_reports_exactly_the_narrowed_masks() {
        let mut s = store();
        let l = v(5, 1);
        let r = v(2, 1);
        assert_eq!(s.record(l, Operand::Const(5), Relation::Lt), vec![l]);
        // Already known: nothing narrows.
        assert_eq!(s.record(l, Operand::Const(7), Relation::Lt), vec![]);
        // l in {0..4}, r full {0..9}: l < r narrows r to {1..9} only.
        assert_eq!(s.record(l, Operand::Var(r), Relation::Lt), vec![r]);
        // r in {1..9} vs l in {0..4}: l = r narrows both, smaller var first.
        assert_eq!(s.record(l, Operand::Var(r), Relation::Eq), vec![r, l]);
        assert_eq!(s.mask(l), 0b11110);
        assert_eq!(s.mask(r), 0b11110);
        // A repeated var-var answer changes nothing.
        assert_eq!(s.record(r, Operand::Var(l), Relation::Eq), vec![]);
    }

    #[test]
    fn undecidable_expressions_stay_open() {
        let s = store();
        assert_eq!(s.decide(&Expr::lt(v(5, 1), 3)), None);
        assert_eq!(s.decide(&Expr::var_gt(v(5, 1), v(2, 1))), None);
    }

    #[test]
    fn mask_helpers() {
        assert_eq!(below_mask(0), 0);
        assert_eq!(below_mask(3), 0b111);
        assert_eq!(below_mask(64), u64::MAX);
        assert_eq!(above_mask(63), 0);
        assert_eq!(above_mask(2), !0b111);
    }

    #[test]
    fn from_parts_round_trips_all_knowledge() {
        let mut s = store();
        s.record(v(5, 1), Operand::Const(4), Relation::Lt);
        s.record(v(5, 1), Operand::Var(v(2, 1)), Relation::Gt);
        let rebuilt = ConstraintStore::from_parts(s.attr_cards().to_vec(), s.masks(), s.facts());
        assert!(rebuilt.masks().eq(s.masks()));
        assert!(rebuilt.facts().eq(s.facts()));
        assert_eq!(rebuilt.mask(v(5, 1)), s.mask(v(5, 1)));
        assert_eq!(rebuilt.knowledge_size(), s.knowledge_size());
    }

    /// The store as it was kept before hashing: `BTreeMap`s and the same
    /// answer rules, the reference of the differential test below.
    struct Model {
        cards: Vec<u16>,
        masks: BTreeMap<VarId, u64>,
        facts: BTreeMap<(VarId, VarId), Relation>,
    }

    impl Model {
        fn mask(&self, v: VarId) -> u64 {
            self.masks
                .get(&v)
                .copied()
                .unwrap_or_else(|| full_mask(&self.cards, v))
        }

        fn fact(&self, l: VarId, r: VarId) -> Option<Relation> {
            if l <= r {
                self.facts.get(&(l, r)).copied()
            } else {
                self.facts.get(&(r, l)).map(|f| f.flipped())
            }
        }

        fn decide(&self, e: &Expr) -> Option<bool> {
            if let Some(fact) = e.rhs_var().and_then(|r| self.fact(e.var(), r)) {
                let (l, r) = match fact {
                    Relation::Lt => (0, 1),
                    Relation::Eq => (1, 1),
                    Relation::Gt => (1, 0),
                };
                return Some(e.op().eval(l, r));
            }
            e.decide(|v| self.mask(v))
        }

        fn record(&mut self, var: VarId, rhs: Operand, relation: Relation) -> Vec<VarId> {
            let mut changed = Vec::new();
            let mut narrow = |model: &mut Model, v: VarId, m: u64| {
                if model.mask(v) != m {
                    changed.push(v);
                }
                model.masks.insert(v, m);
            };
            match rhs {
                Operand::Const(c) => {
                    let keep = match relation {
                        Relation::Lt => below_mask(c),
                        Relation::Eq => 1u64.checked_shl(u32::from(c)).unwrap_or(0),
                        Relation::Gt => above_mask(c),
                    };
                    let m = self.mask(var) & keep;
                    narrow(self, var, m);
                }
                Operand::Var(other) => {
                    let (a, b, rel) = if var <= other {
                        (var, other, relation)
                    } else {
                        (other, var, relation.flipped())
                    };
                    self.facts.insert((a, b), rel);
                    let (ma, mb) = (self.mask(a), self.mask(b));
                    if let (Some((amin, amax)), Some((bmin, bmax))) =
                        (mask_range(ma), mask_range(mb))
                    {
                        let (na, nb) = match rel {
                            Relation::Lt => (ma & below_mask(bmax), mb & above_mask(amin)),
                            Relation::Gt => (ma & above_mask(bmin), mb & below_mask(amax)),
                            Relation::Eq => (ma & mb, mb & ma),
                        };
                        narrow(self, a, na);
                        narrow(self, b, nb);
                    }
                }
            }
            changed
        }
    }

    const KEY_OBJECTS: u32 = 5;

    fn keys() -> impl Iterator<Item = VarId> {
        (0..KEY_OBJECTS).flat_map(|o| (0..5).map(move |a| v(o, a)))
    }

    fn relation(r: u8) -> Relation {
        [Relation::Lt, Relation::Eq, Relation::Gt][r as usize % 3]
    }

    /// Checks `s` against `model` on every lookup of the key space and on
    /// the sorted accessors.
    fn agrees(s: &ConstraintStore, model: &Model) -> Result<(), TestCaseError> {
        prop_assert!(s.masks().eq(model.masks.iter().map(|(&k, &m)| (k, m))));
        prop_assert!(s.facts().eq(model.facts.iter().map(|(&k, &r)| (k, r))));
        prop_assert_eq!(s.knowledge_size(), model.masks.len() + model.facts.len());
        for l in keys() {
            prop_assert_eq!(s.mask(l), model.mask(l));
            for c in [0, 2, 5] {
                let e = Expr::lt(l, c);
                prop_assert_eq!(s.decide(&e), model.decide(&e));
            }
            for r in keys().filter(|&r| r != l) {
                prop_assert_eq!(s.fact(l, r), model.fact(l, r));
                let e = Expr::var_gt(l, r);
                prop_assert_eq!(s.decide(&e), model.decide(&e));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random answer sequences (each an insert or a replace of masks
        /// and facts) agree with the `BTreeMap` store on every lookup and
        /// in iteration order, and so does a store rebuilt from the parts
        /// in shuffled order.
        #[test]
        fn store_matches_a_btreemap_store(
            answers in prop::collection::vec(
                (0..KEY_OBJECTS, 0u16..5, 0u8..3, prop::option::of((0..KEY_OBJECTS, 0u16..5)), 0u16..10),
                0..40,
            ),
            shuffle in any::<u64>(),
        ) {
            let mut s = store();
            let mut model = Model {
                cards: s.attr_cards().to_vec(),
                masks: BTreeMap::new(),
                facts: BTreeMap::new(),
            };
            for &(o, a, rel, other, c) in &answers {
                let rhs = match other {
                    Some((o2, a2)) if (o2, a2) != (o, a) => Operand::Var(v(o2, a2)),
                    _ => Operand::Const(c),
                };
                let (got, want) = (s.record(v(o, a), rhs, relation(rel)), model.record(v(o, a), rhs, relation(rel)));
                prop_assert_eq!(got, want);
                agrees(&s, &model)?;
            }
            let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle);
            let mut masks: Vec<_> = s.masks().collect();
            let mut facts: Vec<_> = s.facts().collect();
            masks.shuffle(&mut rng);
            facts.shuffle(&mut rng);
            let rebuilt = ConstraintStore::from_parts(s.attr_cards().to_vec(), masks, facts);
            agrees(&rebuilt, &model)?;
        }
    }
}
