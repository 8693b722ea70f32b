//! Per-variable value distributions and expression probabilities.

use crate::SolverError;
use bc_bayes::Pmf;
use bc_ctable::{CmpOp, Expr, Operand};
use bc_data::{FxMap, Value, VarId};
use std::collections::BTreeMap;
use std::fmt;

/// The value distributions of every missing-value variable, as produced by
/// the Bayesian-network preprocessing step (and later truncated by crowd
/// answers).
///
/// Distinct variables are treated as independent — the modeling assumption
/// the paper's ADPLL weighting (`prob · p(v_a)`) encodes.
///
/// Every solver step reads one variable at a time, so lookups are one hash
/// probe: the variables sit sorted in `vars`, their pmfs at the same index
/// in `pmfs`, and `slots` maps each variable to that index (DESIGN.md,
/// "Variable index"). Replacing a pmf is in place; adding or removing a
/// variable shifts the later slots and costs time linear in the table.
#[derive(Clone, Default)]
pub struct VarDists {
    /// Sorted and distinct.
    vars: Vec<VarId>,
    /// `pmfs[i]` is the distribution of `vars[i]`.
    pmfs: Vec<Pmf>,
    /// `slots[&vars[i]] == i`.
    slots: FxMap<VarId, u32>,
}

impl VarDists {
    /// Takes over a variable-to-distribution map, moving its pmfs in order.
    pub fn new(map: BTreeMap<VarId, Pmf>) -> VarDists {
        let (vars, pmfs): (Vec<VarId>, Vec<Pmf>) = map.into_iter().unzip();
        let slot_count = u32::try_from(vars.len()).expect("fewer than 2^32 variables");
        let slots = vars.iter().copied().zip(0..slot_count).collect();
        VarDists { vars, pmfs, slots }
    }

    /// The distribution of `v`.
    #[inline]
    pub fn pmf(&self, v: VarId) -> Result<&Pmf, SolverError> {
        match self.slots.get(&v) {
            Some(&i) => Ok(&self.pmfs[i as usize]),
            None => Err(SolverError::MissingDistribution(v)),
        }
    }

    /// Inserts or replaces a distribution.
    pub fn insert(&mut self, v: VarId, pmf: Pmf) {
        if let Some(&i) = self.slots.get(&v) {
            self.pmfs[i as usize] = pmf;
            return;
        }
        let at = self.vars.partition_point(|&w| w < v);
        self.vars.insert(at, v);
        self.pmfs.insert(at, pmf);
        self.renumber_from(at);
    }

    /// Removes a distribution (e.g. once the variable's value is pinned and
    /// substituted away).
    pub fn remove(&mut self, v: VarId) -> Option<Pmf> {
        let at = self.slots.remove(&v)? as usize;
        self.vars.remove(at);
        let pmf = self.pmfs.remove(at);
        self.renumber_from(at);
        Some(pmf)
    }

    /// Points the slots of `vars[at..]` at their current indices.
    fn renumber_from(&mut self, at: usize) {
        for (i, &w) in self.vars.iter().enumerate().skip(at) {
            self.slots.insert(w, i as u32);
        }
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Iterates `(variable, pmf)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&VarId, &Pmf)> {
        self.vars.iter().zip(&self.pmfs)
    }

    /// `Pr(e)`: the probability of a single expression under variable
    /// independence.
    pub fn expr_prob(&self, e: &Expr) -> Result<f64, SolverError> {
        let l = self.pmf(e.var())?;
        match e.rhs() {
            Operand::Const(c) => Ok(const_prob(l, e.op(), c)),
            Operand::Var(rv) => {
                // Both probability vectors in value order, entries that are
                // not positive skipped: the products and summation order of
                // a walk over `support()` with `p()` lookups.
                let r = self.pmf(rv)?.probs();
                let op = e.op();
                let mut total = 0.0;
                for (lv, &pl) in l.probs().iter().enumerate().filter(|(_, &p)| p > 0.0) {
                    for (rv_val, &pr) in r.iter().enumerate() {
                        if pr > 0.0 && op.eval(lv as Value, rv_val as Value) {
                            total += pl * pr;
                        }
                    }
                }
                Ok(total.clamp(0.0, 1.0))
            }
        }
    }
}

/// `Pr(X op c)` for `X` distributed as `pmf`.
pub(crate) fn const_prob(pmf: &Pmf, op: CmpOp, c: Value) -> f64 {
    match op {
        CmpOp::Lt => pmf.pr_lt(c),
        CmpOp::Le => pmf.pr_le(c),
        CmpOp::Gt => pmf.pr_gt(c),
        CmpOp::Ge => pmf.pr_ge(c),
        CmpOp::Eq => pmf.p(c),
        CmpOp::Ne => 1.0 - pmf.p(c),
    }
}

impl FromIterator<(VarId, Pmf)> for VarDists {
    /// Collects pairs in any order; a variable that repeats keeps its last
    /// pmf.
    fn from_iter<T: IntoIterator<Item = (VarId, Pmf)>>(iter: T) -> Self {
        VarDists::new(iter.into_iter().collect())
    }
}

impl fmt::Debug for VarDists {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(o: u32, a: u16) -> VarId {
        VarId::new(o, a)
    }

    fn dists() -> VarDists {
        [
            (v(0, 0), Pmf::uniform(10)),
            (v(1, 0), Pmf::from_weights(vec![0.5, 0.5])),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn const_expression_probabilities() {
        let d = dists();
        assert!((d.expr_prob(&Expr::lt(v(0, 0), 2)).unwrap() - 0.2).abs() < 1e-12);
        assert!((d.expr_prob(&Expr::gt(v(0, 0), 2)).unwrap() - 0.7).abs() < 1e-12);
        let eq = Expr::new(v(0, 0), CmpOp::Eq, Operand::Const(3));
        assert!((d.expr_prob(&eq).unwrap() - 0.1).abs() < 1e-12);
        assert!((d.expr_prob(&eq.negated()).unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn var_var_probability_by_double_sum() {
        let mut d = dists();
        d.insert(v(2, 0), Pmf::uniform(4));
        d.insert(v(3, 0), Pmf::uniform(4));
        // P(X > Y) for iid uniform over 4 values = (16 - 4) / 2 / 16 = 0.375.
        let e = Expr::var_gt(v(2, 0), v(3, 0));
        assert!((d.expr_prob(&e).unwrap() - 0.375).abs() < 1e-12);
        // Complement includes ties: P(X <= Y) = 0.625.
        assert!((d.expr_prob(&e.negated()).unwrap() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn missing_distribution_is_an_error() {
        let d = dists();
        let e = Expr::lt(v(9, 9), 1);
        assert_eq!(
            d.expr_prob(&e),
            Err(SolverError::MissingDistribution(v(9, 9)))
        );
    }

    #[test]
    fn probability_complement_identity() {
        let d = dists();
        for c in 0..11 {
            let e = Expr::lt(v(0, 0), c);
            let p = d.expr_prob(&e).unwrap();
            let q = d.expr_prob(&e.negated()).unwrap();
            assert!((p + q - 1.0).abs() < 1e-12);
        }
    }

    /// Checks `d` against a `BTreeMap` model: the same pmf or the same
    /// `MissingDistribution` for every variable of the key space, and the
    /// same pairs in the same order.
    fn agrees(d: &VarDists, model: &BTreeMap<VarId, Pmf>) -> Result<(), TestCaseError> {
        prop_assert_eq!(d.len(), model.len());
        prop_assert_eq!(d.is_empty(), model.is_empty());
        prop_assert!(d.iter().eq(model.iter()), "iteration order differs");
        for o in 0..KEY_OBJECTS {
            for a in 0..KEY_ATTRS {
                let key = v(o, a);
                let want = model.get(&key).ok_or(SolverError::MissingDistribution(key));
                prop_assert_eq!(d.pmf(key), want);
            }
        }
        Ok(())
    }

    const KEY_OBJECTS: u32 = 6;
    const KEY_ATTRS: u16 = 3;

    /// `(op, object, attr, cardinality)`: op 0–1 insert, 2 remove.
    fn ops() -> impl Strategy<Value = Vec<(u8, u32, u16, u16)>> {
        prop::collection::vec((0u8..3, 0..KEY_OBJECTS, 0..KEY_ATTRS, 1u16..6), 0..60)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random insert/replace/remove/lookup sequences agree with a
        /// `BTreeMap`, whether the table starts from a map, from pairs in
        /// any order, or empty, and leave an earlier clone as it was.
        #[test]
        fn table_matches_a_btreemap(seed in ops(), script in ops()) {
            let pmf = |card: u16, salt: u32| {
                Pmf::from_weights((0..card).map(|x| f64::from(x) + f64::from(salt) + 1.0).collect())
            };
            let mut model = BTreeMap::new();
            let mut pairs = Vec::new();
            for &(_, o, a, card) in &seed {
                model.insert(v(o, a), pmf(card, o));
                pairs.push((v(o, a), pmf(card, o)));
            }
            let tables = [
                VarDists::new(model.clone()),
                pairs.into_iter().collect(),
                VarDists::default(),
            ];
            for (start, mut d) in tables.into_iter().enumerate() {
                let mut model = if start == 2 { BTreeMap::new() } else { model.clone() };
                agrees(&d, &model)?;
                // The script's changes must not reach an earlier clone.
                let (before, before_model) = (d.clone(), model.clone());
                for &(op, o, a, card) in &script {
                    let key = v(o, a);
                    if op < 2 {
                        d.insert(key, pmf(card, u32::from(op)));
                        model.insert(key, pmf(card, u32::from(op)));
                    } else {
                        prop_assert_eq!(d.remove(key), model.remove(&key));
                    }
                    agrees(&d, &model)?;
                }
                agrees(&before, &before_model)?;
            }
        }
    }
}
