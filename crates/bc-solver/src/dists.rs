//! Per-variable value distributions and expression probabilities.

use crate::SolverError;
use bc_bayes::Pmf;
use bc_ctable::{CmpOp, Expr, Operand};
use bc_data::{Value, VarId};
use std::collections::BTreeMap;

/// The value distributions of every missing-value variable, as produced by
/// the Bayesian-network preprocessing step (and later truncated by crowd
/// answers).
///
/// Distinct variables are treated as independent — the modeling assumption
/// the paper's ADPLL weighting (`prob · p(v_a)`) encodes.
#[derive(Clone, Debug, Default)]
pub struct VarDists {
    map: BTreeMap<VarId, Pmf>,
}

impl VarDists {
    /// Wraps a variable-to-distribution map.
    pub fn new(map: BTreeMap<VarId, Pmf>) -> VarDists {
        VarDists { map }
    }

    /// The distribution of `v`.
    pub fn pmf(&self, v: VarId) -> Result<&Pmf, SolverError> {
        self.map.get(&v).ok_or(SolverError::MissingDistribution(v))
    }

    /// Inserts or replaces a distribution.
    pub fn insert(&mut self, v: VarId, pmf: Pmf) {
        self.map.insert(v, pmf);
    }

    /// Removes a distribution (e.g. once the variable's value is pinned and
    /// substituted away).
    pub fn remove(&mut self, v: VarId) -> Option<Pmf> {
        self.map.remove(&v)
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates `(variable, pmf)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&VarId, &Pmf)> {
        self.map.iter()
    }

    /// `Pr(e)`: the probability of a single expression under variable
    /// independence.
    pub fn expr_prob(&self, e: &Expr) -> Result<f64, SolverError> {
        let l = self.pmf(e.var())?;
        match e.rhs() {
            Operand::Const(c) => Ok(match e.op() {
                CmpOp::Lt => l.pr_lt(c),
                CmpOp::Le => l.pr_le(c),
                CmpOp::Gt => l.pr_gt(c),
                CmpOp::Ge => l.pr_ge(c),
                CmpOp::Eq => l.p(c),
                CmpOp::Ne => 1.0 - l.p(c),
            }),
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

impl FromIterator<(VarId, Pmf)> for VarDists {
    fn from_iter<T: IntoIterator<Item = (VarId, Pmf)>>(iter: T) -> Self {
        VarDists {
            map: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
