//! Expressions: inequalities between a missing-value variable and a constant
//! or another variable. One expression is one crowd task (the paper's
//! "disjunct"/"expression").

use bc_data::{FxHasher, Value, VarId};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Comparison operator. Conditions built from dominator sets only use strict
/// comparisons, but the set is closed under negation (needed to evaluate the
/// marginal-utility function) and under crowd answers (`Eq`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Evaluates `l op r`.
    #[inline]
    pub fn eval(self, l: Value, r: Value) -> bool {
        match self {
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
        }
    }

    /// The logical negation: `¬(l op r) = l negate(op) r`.
    #[inline]
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }

    /// The converse: `l op r  ⇔  r converse(op) l`.
    #[inline]
    pub fn converse(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }
}

/// Right-hand side of an expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operand {
    /// A known constant value.
    Const(Value),
    /// Another missing-value variable.
    Var(VarId),
}

/// An atomic expression `var op rhs`. The left operand is always a variable.
///
/// Canonical form (enforced by [`Expr::new`]): for var-var expressions the
/// smaller [`VarId`] is on the left; for var-const expressions `Le c` is
/// rewritten as `Lt c+1` and `Gt c` as `Ge c+1`, so that semantically equal
/// expressions compare equal (the paper's expression-frequency counting
/// relies on this).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Expr {
    var: VarId,
    op: CmpOp,
    rhs: Operand,
}

/// Result of substituting a value into an expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExprOrBool {
    /// The expression collapsed to a constant.
    Bool(bool),
    /// The expression simplified to another (var-const) expression.
    Expr(Expr),
}

impl Expr {
    /// Builds an expression in canonical form.
    pub fn new(var: VarId, op: CmpOp, rhs: Operand) -> Expr {
        match rhs {
            Operand::Var(r) if r < var => Expr {
                var: r,
                op: op.converse(),
                rhs: Operand::Var(var),
            },
            Operand::Var(r) => {
                debug_assert!(
                    r != var,
                    "an expression cannot compare a variable to itself"
                );
                Expr { var, op, rhs }
            }
            Operand::Const(c) => {
                let (op, c) = match op {
                    CmpOp::Le => (CmpOp::Lt, c + 1),
                    CmpOp::Gt => (CmpOp::Ge, c + 1),
                    other => (other, c),
                };
                Expr {
                    var,
                    op,
                    rhs: Operand::Const(c),
                }
            }
        }
    }

    /// Shorthand: `var < c`.
    pub fn lt(var: VarId, c: Value) -> Expr {
        Expr::new(var, CmpOp::Lt, Operand::Const(c))
    }

    /// Shorthand: `var > c`.
    pub fn gt(var: VarId, c: Value) -> Expr {
        Expr::new(var, CmpOp::Gt, Operand::Const(c))
    }

    /// Shorthand: `l > r` over two variables.
    pub fn var_gt(l: VarId, r: VarId) -> Expr {
        Expr::new(l, CmpOp::Gt, Operand::Var(r))
    }

    /// Left-hand variable.
    #[inline]
    pub fn var(&self) -> VarId {
        self.var
    }

    /// Operator.
    #[inline]
    pub fn op(&self) -> CmpOp {
        self.op
    }

    /// Right-hand operand.
    #[inline]
    pub fn rhs(&self) -> Operand {
        self.rhs
    }

    /// The right-hand variable, if any.
    #[inline]
    pub fn rhs_var(&self) -> Option<VarId> {
        match self.rhs {
            Operand::Var(v) => Some(v),
            Operand::Const(_) => None,
        }
    }

    /// The variables mentioned (one or two).
    pub fn vars(&self) -> impl Iterator<Item = VarId> {
        std::iter::once(self.var).chain(self.rhs_var())
    }

    /// Whether the expression mentions `v`.
    #[inline]
    pub fn mentions(&self, v: VarId) -> bool {
        self.var == v || self.rhs_var() == Some(v)
    }

    /// One of 64 bits, picked by the expression's [`FxHasher`] hash. A
    /// clause's signature is the OR of its expressions' bits, so a subset
    /// of expressions has a subset of the bits: a one-instruction test that
    /// rejects most clause pairs before a subset check.
    #[inline]
    pub fn signature_bit(&self) -> u64 {
        let mut h = FxHasher::default();
        self.hash(&mut h);
        1 << (h.finish() >> 58)
    }

    /// Logical negation (stays canonical).
    pub fn negated(&self) -> Expr {
        Expr::new(self.var, self.op.negated(), self.rhs)
    }

    /// Substitutes `v = value`, simplifying.
    pub fn substitute(&self, v: VarId, value: Value) -> ExprOrBool {
        if self.var == v {
            match self.rhs {
                Operand::Const(c) => ExprOrBool::Bool(self.op.eval(value, c)),
                Operand::Var(r) => {
                    ExprOrBool::Expr(Expr::new(r, self.op.converse(), Operand::Const(value)))
                }
            }
        } else if self.rhs == Operand::Var(v) {
            ExprOrBool::Expr(Expr::new(self.var, self.op, Operand::Const(value)))
        } else {
            ExprOrBool::Expr(*self)
        }
    }

    /// Evaluates under a complete assignment (used by the naive solver and
    /// the crowd oracle).
    pub fn eval(&self, lookup: impl Fn(VarId) -> Value) -> bool {
        let l = lookup(self.var);
        let r = match self.rhs {
            Operand::Const(c) => c,
            Operand::Var(v) => lookup(v),
        };
        self.op.eval(l, r)
    }

    /// Decides the expression when every variable's candidate values are
    /// restricted: `mask_of(v)` gives the bitmask of values still possible
    /// for `v`. Returns `Some(truth)` if the expression has the same truth
    /// value for all candidate combinations (interval reasoning; `None`
    /// means undecided).
    pub fn decide(&self, mask_of: impl Fn(VarId) -> u64) -> Option<bool> {
        let lm = mask_of(self.var);
        let (lmin, lmax) = mask_range(lm)?;
        let (rmin, rmax) = match self.rhs {
            Operand::Const(c) => (c, c),
            Operand::Var(v) => mask_range(mask_of(v))?,
        };
        match self.op {
            CmpOp::Lt => decide_ranges(lmax < rmin, lmin >= rmax),
            CmpOp::Le => decide_ranges(lmax <= rmin, lmin > rmax),
            CmpOp::Gt => decide_ranges(lmin > rmax, lmax <= rmin),
            CmpOp::Ge => decide_ranges(lmin >= rmax, lmax < rmin),
            CmpOp::Eq => decide_ranges(
                lmin == lmax && rmin == rmax && lmin == rmin,
                lmax < rmin || rmax < lmin,
            ),
            CmpOp::Ne => decide_ranges(
                lmax < rmin || rmax < lmin,
                lmin == lmax && rmin == rmax && lmin == rmin,
            ),
        }
    }
}

/// `(min, max)` set bits of a candidate mask; `None` for the empty mask.
pub(crate) fn mask_range(mask: u64) -> Option<(Value, Value)> {
    if mask == 0 {
        None
    } else {
        Some((
            mask.trailing_zeros() as Value,
            (63 - mask.leading_zeros()) as Value,
        ))
    }
}

fn decide_ranges(always: bool, never: bool) -> Option<bool> {
    if always {
        Some(true)
    } else if never {
        Some(false)
    } else {
        None
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} ", self.var, self.op.symbol())?;
        match self.rhs {
            Operand::Const(c) => write!(f, "{c}"),
            Operand::Var(v) => write!(f, "{v}"),
        }
    }
}

impl fmt::Display for Expr {
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
    fn canonicalization_unifies_semantic_duplicates() {
        // Var <= 2 and Var < 3 are the same expression.
        let a = Expr::new(v(1, 1), CmpOp::Le, Operand::Const(2));
        let b = Expr::lt(v(1, 1), 3);
        assert_eq!(a, b);
        // Var > 2 and Var >= 3.
        let c = Expr::gt(v(1, 1), 2);
        let d = Expr::new(v(1, 1), CmpOp::Ge, Operand::Const(3));
        assert_eq!(c, d);
    }

    #[test]
    fn var_var_is_ordered_by_varid() {
        // Var(o5,a2) > Var(o2,a2) canonicalizes to Var(o2,a2) < Var(o5,a2).
        let e = Expr::var_gt(v(5, 2), v(2, 2));
        assert_eq!(e.var(), v(2, 2));
        assert_eq!(e.op(), CmpOp::Lt);
        assert_eq!(e.rhs(), Operand::Var(v(5, 2)));
        assert_eq!(e, Expr::new(v(2, 2), CmpOp::Lt, Operand::Var(v(5, 2))));
    }

    #[test]
    fn negation_is_involutive_and_complementary() {
        let exprs = [
            Expr::lt(v(0, 0), 3),
            Expr::gt(v(0, 0), 3),
            Expr::new(v(0, 0), CmpOp::Eq, Operand::Const(3)),
            Expr::var_gt(v(0, 0), v(1, 0)),
        ];
        for e in exprs {
            assert_eq!(e.negated().negated(), e);
            for l in 0..6 {
                for r in 0..6 {
                    let lookup = |x: VarId| if x == v(0, 0) { l } else { r };
                    assert_ne!(e.eval(lookup), e.negated().eval(lookup));
                }
            }
        }
    }

    #[test]
    fn substitution() {
        let e = Expr::lt(v(5, 2), 2);
        assert_eq!(e.substitute(v(5, 2), 1), ExprOrBool::Bool(true));
        assert_eq!(e.substitute(v(5, 2), 2), ExprOrBool::Bool(false));
        assert_eq!(e.substitute(v(9, 9), 1), ExprOrBool::Expr(e));

        // (Var(o2,a2) < Var(o5,a2)) with Var(o5,a2) = 4 → Var(o2,a2) < 4.
        let vv = Expr::var_gt(v(5, 2), v(2, 2));
        assert_eq!(
            vv.substitute(v(5, 2), 4),
            ExprOrBool::Expr(Expr::lt(v(2, 2), 4))
        );
        // ...and with Var(o2,a2) = 4 → Var(o5,a2) > 4.
        assert_eq!(
            vv.substitute(v(2, 2), 4),
            ExprOrBool::Expr(Expr::gt(v(5, 2), 4))
        );
    }

    #[test]
    fn decide_with_masks() {
        let e = Expr::lt(v(0, 0), 3); // var < 3
        let full = |_: VarId| 0b1111_1111u64;
        assert_eq!(e.decide(full), None);
        let low = |_: VarId| 0b0000_0111u64; // values {0,1,2}
        assert_eq!(e.decide(low), Some(true));
        let high = |_: VarId| 0b1111_1000u64; // values {3..7}
        assert_eq!(e.decide(high), Some(false));
        let empty = |_: VarId| 0u64;
        assert_eq!(e.decide(empty), None);

        // Var-var decision via disjoint ranges.
        let vv = Expr::var_gt(v(1, 0), v(0, 0));
        let masks = |x: VarId| {
            if x == v(1, 0) {
                0b1100_0000u64
            } else {
                0b0000_0011u64
            }
        };
        assert_eq!(vv.decide(masks), Some(true));
    }

    #[test]
    fn display_matches_paper_style() {
        let e = Expr::lt(v(5, 2), 2);
        assert_eq!(e.to_string(), "Var(o5, a2) < 2");
        let vv = Expr::var_gt(v(5, 2), v(2, 2));
        assert_eq!(vv.to_string(), "Var(o2, a2) < Var(o5, a2)");
    }

    #[test]
    fn mask_range_bounds() {
        assert_eq!(mask_range(0), None);
        assert_eq!(mask_range(0b1), Some((0, 0)));
        assert_eq!(mask_range(0b10110), Some((1, 4)));
        assert_eq!(mask_range(u64::MAX), Some((0, 63)));
    }
}
