//! The clause kernel: the canonical-form steps of a CNF rewrite, written
//! once for every clause representation.
//!
//! [`Condition`](crate::Condition)'s rewrites run it over owned
//! [`Clause`]s through [`Plain`]; ADPLL's clause arena runs it over the
//! ids of its interned clauses. A representation describes its clauses by
//! implementing [`ClauseSet`], and each use is monomorphized, so the arena
//! reads its stored signatures and variable masks and `Plain` computes
//! them on the fly.
//!
//! Every function gives the same clauses in the same order whatever the
//! representation and whichever internal path it takes: the survivors of a
//! subsumption check are the set's minimal clauses, in input order, which
//! the quadratic reference in the tests also computes.

use crate::condition::Clause;
use crate::expr::Expr;
use bc_data::VarId;
use std::borrow::Borrow;
use std::cmp::Ordering;

/// Sets of at least this many clauses find subsumed clauses through
/// occurrence lists; smaller ones compare every pair.
const OCCURRENCE_LISTS_FROM: usize = 8;

/// How the kernel reads the clauses of type `T` it is handed.
pub trait ClauseSet<T> {
    /// The clause's expressions, sorted and distinct.
    fn exprs<'t>(&'t self, clause: &'t T) -> &'t [Expr];

    /// The clause's [`Bits`], if the set stores them. Only stored bits
    /// filter the pairwise checks of [`merge_rewritten`], where computing
    /// them could cost more than the comparison they save.
    fn stored_bits(&self, _clause: &T) -> Option<Bits> {
        None
    }

    /// The clause's [`Bits`], stored or computed.
    fn bits(&self, clause: &T) -> Bits {
        self.stored_bits(clause)
            .unwrap_or_else(|| Bits::of(self.exprs(clause)))
    }

    /// Calls `f` with an occurrence key for each of the clause's variables.
    /// Equal variables have equal keys; unequal ones may share a key. The
    /// default hashes the variable.
    fn for_each_key(&self, clause: &T, mut f: impl FnMut(u32)) {
        for v in self.exprs(clause).iter().flat_map(Expr::vars) {
            f((var_hash(v) >> 32) as u32);
        }
    }
}

/// The [`ClauseSet`] of owned clauses and references to them. It stores
/// nothing, so bits and keys are hashed when asked for.
pub struct Plain;

impl<T: Borrow<Clause>> ClauseSet<T> for Plain {
    fn exprs<'t>(&'t self, clause: &'t T) -> &'t [Expr] {
        clause.borrow().exprs()
    }
}

/// A variable's hash, which picks its mask bit and occurrence key from its
/// top bits: one multiplication (Fibonacci hashing).
#[inline]
fn var_hash(v: VarId) -> u64 {
    (u64::from(v.object.0) << 16 | u64::from(v.attr.0)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Two 64-bit filters of a clause, each a necessary condition for a
/// subset: a subset's bits are a subset of its superset's.
#[derive(Clone, Copy, Debug)]
pub struct Bits {
    /// The OR of the expressions' [`Expr::signature_bit`]s.
    pub sig: u64,
    /// One bit per variable, shared between variables at will: clauses
    /// whose masks are disjoint share no variable.
    pub vars: u64,
}

impl Bits {
    /// The bits of `exprs`, variable bits picked by hash.
    fn of(exprs: &[Expr]) -> Bits {
        let vars = exprs.iter().flat_map(Expr::vars);
        Bits {
            sig: exprs.iter().fold(0, |sig, e| sig | e.signature_bit()),
            vars: vars.fold(0, |mask, v| mask | 1 << (var_hash(v) >> 58)),
        }
    }

    /// Whether a clause with these bits may be a subset of one with `big`.
    #[inline]
    fn within(self, big: Bits) -> bool {
        self.sig & !big.sig == 0 && self.vars & !big.vars == 0
    }
}

/// What normalizing a raw clause gives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Normalized {
    /// No expression is left: the clause is `false`.
    Empty,
    /// The clause holds `e ∨ ¬e`: it is `true`.
    Tautology,
    /// The first this many expressions are the normalized clause.
    Clause(usize),
}

/// Normalizes a raw clause in place: sorts its expressions and moves the
/// distinct ones to the front.
pub fn normalize(exprs: &mut [Expr]) -> Normalized {
    exprs.sort_unstable();
    let mut distinct = 0;
    for i in 0..exprs.len() {
        if distinct == 0 || exprs[i] != exprs[distinct - 1] {
            exprs[distinct] = exprs[i];
            distinct += 1;
        }
    }
    let exprs = &exprs[..distinct];
    if exprs.is_empty() {
        return Normalized::Empty;
    }
    // `e` and `¬e` share their left variable, so sorted they sit in a run
    // of one variable: without such a run there is no tautology.
    let shared_var = exprs.windows(2).any(|w| w[0].var() == w[1].var());
    if shared_var
        && exprs
            .iter()
            .any(|e| exprs.binary_search(&e.negated()).is_ok())
    {
        return Normalized::Tautology;
    }
    Normalized::Clause(distinct)
}

/// Whether sorted `a` is a subset of sorted `b`.
pub(crate) fn is_subset(a: &[Expr], b: &[Expr]) -> bool {
    let mut bi = 0;
    'outer: for x in a {
        while bi < b.len() {
            match b[bi].cmp(x) {
                Ordering::Less => bi += 1,
                Ordering::Equal => {
                    bi += 1;
                    continue 'outer;
                }
                Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// The buffers of the subsumption check, kept by a caller that merges often.
#[derive(Default)]
pub struct Scratch {
    /// `(length, bits, dropped)` by position.
    keys: Vec<(usize, Bits, bool)>,
    /// Occurrence lists: the positions with key `k` are
    /// `occ[starts[k]..starts[k + 1]]`.
    starts: Vec<u32>,
    occ: Vec<u32>,
}

/// Removes every clause that is a strict superset of another (the subset
/// implies it, so it is redundant in a conjunction), in place. The input is
/// sorted and distinct; the survivors keep their order.
///
/// The survivors are the minimal clauses, found by one of three paths:
/// - none is checked when the clauses are pairwise variable-disjoint;
/// - below eight clauses, a clause is checked against the survivors so far
///   and the clauses not yet visited;
/// - from there up, each surviving clause `s` marks its strict supersets,
///   looked for only on the shortest occurrence list of `s`'s variables:
///   a superset contains all of them (Eén & Biere, "Effective
///   Preprocessing in SAT through Variable and Clause Elimination",
///   SAT 2005).
///
/// Every pair is filtered by length and [`Bits`] before expressions are
/// compared. A clause already dropped needs no check: it has a surviving
/// strict subset, which is also a subset of whatever the dropped clause
/// subsumes.
pub(crate) fn drop_subsumed<T, S: ClauseSet<T>>(
    set: &S,
    clauses: &mut Vec<T>,
    scratch: &mut Scratch,
) {
    let n = clauses.len();
    if n < 2 {
        return;
    }
    let Scratch { keys, starts, occ } = scratch;
    keys.clear();
    keys.extend(
        clauses
            .iter()
            .map(|c| (set.exprs(c).len(), set.bits(c), false)),
    );
    let mut seen = 0;
    if keys.iter().all(|&(_, bits, _)| {
        let disjoint = seen & bits.vars == 0;
        seen |= bits.vars;
        disjoint
    }) {
        return;
    }
    // Whether `small` strictly subsumes `big`, which is not dropped yet.
    let subsumes = |keys: &[(usize, Bits, bool)], small: usize, big: usize| {
        let ((ls, bs, _), (lb, bb, dropped)) = (keys[small], keys[big]);
        !dropped
            && ls < lb
            && bs.within(bb)
            && is_subset(set.exprs(&clauses[small]), set.exprs(&clauses[big]))
    };
    if n < OCCURRENCE_LISTS_FROM {
        for big in 0..n {
            keys[big].2 = (0..big)
                .filter(|&small| !keys[small].2)
                .chain(big + 1..n)
                .any(|small| subsumes(keys, small, big));
        }
    } else {
        // A stable counting sort of `(key, position)` pairs into lists;
        // keys are folded onto a power of two that leaves lists short.
        let total: usize = keys.iter().map(|&(len, _, _)| 2 * len).sum();
        let fold = total.next_power_of_two() as u32 - 1;
        starts.clear();
        starts.resize(fold as usize + 3, 0);
        for c in clauses.iter() {
            set.for_each_key(c, |k| starts[(k & fold) as usize + 2] += 1);
        }
        for k in 2..starts.len() {
            starts[k] += starts[k - 1];
        }
        occ.clear();
        occ.resize(starts[starts.len() - 1] as usize, 0);
        for (i, c) in clauses.iter().enumerate() {
            set.for_each_key(c, |k| {
                let at = &mut starts[(k & fold) as usize + 1];
                occ[*at as usize] = i as u32;
                *at += 1;
            });
        }
        for small in 0..n {
            if keys[small].2 {
                continue;
            }
            let mut shortest = (u32::MAX, 0);
            set.for_each_key(&clauses[small], |k| {
                let k = (k & fold) as usize;
                let len = starts[k + 1] - starts[k];
                if len < shortest.0 {
                    shortest = (len, k);
                }
            });
            let k = shortest.1;
            for &big in &occ[starts[k] as usize..starts[k + 1] as usize] {
                if subsumes(keys, small, big as usize) {
                    keys[big as usize].2 = true;
                }
            }
        }
    }
    let mut dropped = keys.iter().map(|&(_, _, dropped)| dropped);
    clauses.retain(|_| !dropped.next().expect("a key per clause"));
}

/// Whether `small`'s expressions are a subset of `big`'s, and a strict one
/// if `strict`: then `small ⟹ big`.
fn implies<S, A, B>(set: &S, small: &A, big: &B, strict: bool) -> bool
where
    S: ClauseSet<A> + ClauseSet<B>,
{
    if let (Some(a), Some(b)) = (set.stored_bits(small), set.stored_bits(big)) {
        if !a.within(b) {
            return false;
        }
    }
    let (a, b) = (set.exprs(small), set.exprs(big));
    (a.len() < b.len() || !strict && a.len() == b.len()) && is_subset(a, b)
}

/// One clause of a merged canonical list: kept verbatim, or rewritten.
pub enum Merged<K, F> {
    /// A clause the rewrite did not touch.
    Kept(K),
    /// A normalized clause the rewrite produced.
    Fresh(F),
}

/// Joins the clauses a rewrite kept verbatim with the normalized clauses it
/// produced, and hands `emit` exactly the list a full normalization of
/// both would give, in canonical order.
///
/// `kept` is a subsequence of a canonical list: sorted, distinct and
/// mutually non-subsuming. So subsumption is checked only for pairs that
/// include a fresh clause: a fresh clause equal to a kept one, or with a
/// kept subset, goes; then the fresh clauses drop their own supersets;
/// then a kept clause with a fresh strict subset goes. Both lists are left
/// empty.
pub fn merge_rewritten<S, K, F>(
    set: &S,
    kept: &mut Vec<K>,
    fresh: &mut Vec<F>,
    scratch: &mut Scratch,
    mut emit: impl FnMut(Merged<K, F>),
) where
    S: ClauseSet<K> + ClauseSet<F>,
{
    if !fresh.is_empty() {
        fresh.sort_unstable_by(|a, b| set.exprs(a).cmp(set.exprs(b)));
        fresh.dedup_by(|a, b| set.exprs(a) == set.exprs(b));
        fresh.retain(|f| !kept.iter().any(|k| implies(set, k, f, false)));
        drop_subsumed(set, fresh, scratch);
        kept.retain(|k| !fresh.iter().any(|f| implies(set, f, k, true)));
    }
    let mut fresh = fresh.drain(..).peekable();
    for k in kept.drain(..) {
        while let Some(f) = fresh.next_if(|f| set.exprs(f) < set.exprs(&k)) {
            emit(Merged::Fresh(f));
        }
        emit(Merged::Kept(k));
    }
    fresh.for_each(|f| emit(Merged::Fresh(f)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Condition, ExprOrBool};
    use proptest::prelude::*;

    fn v(o: u32) -> VarId {
        VarId::new(o, 0)
    }

    /// The quadratic reference: a clause goes when any other clause is a
    /// strict subset of it.
    fn drop_subsumed_reference(clauses: &mut Vec<Clause>) {
        let all = clauses.clone();
        clauses.retain(|big| {
            !all.iter()
                .any(|small| small.len() < big.len() && is_subset(small.exprs(), big.exprs()))
        });
    }

    /// The normalized clause of `exprs`, if it is neither empty nor a
    /// tautology.
    fn clause(exprs: Vec<Expr>) -> Option<Clause> {
        match Condition::from_clauses([exprs]) {
            Condition::Cnf(mut clauses) => clauses.pop(),
            _ => None,
        }
    }

    /// An expression over `n_vars` variables and five constants: var-var
    /// one time in three, so that a substitution rewrites var-var
    /// expressions into var-const ones.
    fn expr(n_vars: u32) -> impl Strategy<Value = Expr> {
        (0..n_vars, 0u8..3, 0u16..5, 0..n_vars).prop_map(|(o, kind, c, other)| match kind {
            0 => Expr::lt(v(o), c),
            1 => Expr::gt(v(o), c),
            _ if other == o => Expr::lt(v(o), c),
            _ => Expr::var_gt(v(o), v(other)),
        })
    }

    /// Raw clause sets of one to forty clauses, in three shapes: over a few
    /// shared variables (subsumption is common); each clause over its own
    /// variables (pairwise disjoint); and either, rewritten by a
    /// substitution as a branch would.
    fn clause_sets() -> impl Strategy<Value = Vec<Vec<Expr>>> {
        let shared = prop::collection::vec(prop::collection::vec(expr(4), 1..5), 1..41);
        let disjoint = prop::collection::vec(prop::collection::vec(0u16..5, 1..4), 1..41).prop_map(
            |clauses| {
                clauses
                    .into_iter()
                    .enumerate()
                    .map(|(i, cs)| {
                        let o = 4 * i as u32;
                        cs.iter()
                            .enumerate()
                            .map(|(j, &c)| Expr::lt(v(o + j as u32), c))
                            .collect()
                    })
                    .collect()
            },
        );
        let sets: proptest::OneOf<Vec<Vec<Expr>>> = prop_oneof![shared, disjoint];
        (sets, 0u32..4, 0u16..5, any::<bool>()).prop_map(|(raw, var, value, rewrite)| {
            if !rewrite {
                return raw;
            }
            raw.into_iter()
                .filter_map(|c| {
                    let mut out = Vec::new();
                    for e in c {
                        match e.substitute(v(var), value) {
                            ExprOrBool::Bool(true) => return None,
                            ExprOrBool::Bool(false) => {}
                            ExprOrBool::Expr(e2) => out.push(e2),
                        }
                    }
                    Some(out)
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `drop_subsumed`, on every path, keeps exactly the clauses the
        /// quadratic reference keeps, in the same order.
        #[test]
        fn drop_subsumed_matches_the_quadratic_reference(raw in clause_sets()) {
            let mut clauses: Vec<Clause> = raw.into_iter().filter_map(clause).collect();
            clauses.sort_unstable();
            clauses.dedup();
            let mut want = clauses.clone();
            drop_subsumed_reference(&mut want);
            drop_subsumed(&Plain, &mut clauses, &mut Scratch::default());
            prop_assert_eq!(clauses, want);
        }
    }

    #[test]
    fn normalize_sorts_dedups_and_decides() {
        let (x, y) = (v(0), v(1));
        let mut exprs = vec![Expr::lt(y, 2), Expr::lt(x, 3), Expr::lt(y, 2)];
        assert_eq!(normalize(&mut exprs), Normalized::Clause(2));
        assert_eq!(exprs[..2], [Expr::lt(x, 3), Expr::lt(y, 2)]);
        let e = Expr::lt(x, 3);
        assert_eq!(
            normalize(&mut [e, Expr::lt(y, 1), e.negated()]),
            Normalized::Tautology
        );
        assert_eq!(normalize(&mut []), Normalized::Empty);
    }
}
