//! The clause arena one ADPLL search runs over.
//!
//! A search interns every distinct clause it meets once, as a [`ClauseId`],
//! and keeps per clause its expressions, whether they are
//! variable-disjoint, and its variables in first-occurrence order with
//! their occurrence counts. Variables are local indices into the root
//! condition's sorted variables: substitution never adds one, and local
//! order is [`VarId`] order.
//!
//! A search-time condition is a run of clause ids on [`Arena::stack`], in
//! the canonical order of [`Condition`](bc_ctable::Condition) (clause
//! content order); the empty run is `true`. Because clauses are
//! hash-consed, two runs are equal exactly when their conditions are, so
//! the component cache keys on id slices. Substitution writes its result
//! above the run it rewrites, and the caller truncates it on return.
//!
//! Every step reproduces the `Condition` kernel exactly: substitution
//! re-normalizes only the rewritten clauses and checks subsumption only
//! for pairs with a fresh clause, as `Condition::substitute` does; and
//! [`Arena::components`] fixes the component order the search's products
//! and counters depend on. So the search tree, its counters and its
//! probability bits do not depend on the representation (DESIGN.md,
//! "Search kernel").

use bc_ctable::{Clause, Expr, ExprOrBool};
use bc_data::{Value, VarId};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A map hashed with [`FxHasher`].
pub(crate) type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A multiply-rotate word hasher in the style of rustc's `FxHasher`: a few
/// cycles per word and no per-process seed. It hashes only what one search
/// derives from its own condition.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A clause interned in the arena of the current search.
pub(crate) type ClauseId = u32;

/// No clause, no owner, no variable.
const NONE: u32 = u32::MAX;
/// What a clause rewrite memoizes besides a clause id: the clause became
/// true, or empty.
const DROP: u32 = u32::MAX - 1;
const EMPTY: u32 = u32::MAX - 2;

#[derive(Clone, Copy)]
struct ClauseData {
    /// `Clauses::exprs[exprs.0..exprs.1]`: sorted and distinct.
    exprs: (u32, u32),
    /// `Clauses::occ[occ.0..occ.1]`: `(local variable, occurrences)` in
    /// order of first occurrence over the expressions.
    occ: (u32, u32),
    /// The next clause interned with the same content hash.
    next: ClauseId,
    /// One bit per expression, picked by its hash: a subset's bits are a
    /// subset of its superset's.
    sig: u64,
    /// No two expressions share a variable: the disjunctive rule applies.
    disjoint: bool,
}

/// The interned clauses of one search.
#[derive(Default)]
struct Clauses {
    /// The root condition's variables, sorted: local variable `i` is
    /// `vars[i]`.
    vars: Vec<VarId>,
    exprs: Vec<Expr>,
    occ: Vec<(u32, u32)>,
    data: Vec<ClauseData>,
    /// Content hash → the last clause interned with it.
    by_hash: FxMap<u64, ClauseId>,
}

impl Clauses {
    fn clear(&mut self) {
        self.vars.clear();
        self.exprs.clear();
        self.occ.clear();
        self.data.clear();
        self.by_hash.clear();
    }

    #[inline]
    fn exprs(&self, id: ClauseId) -> &[Expr] {
        let (start, end) = self.data[id as usize].exprs;
        &self.exprs[start as usize..end as usize]
    }

    #[inline]
    fn occ(&self, id: ClauseId) -> &[(u32, u32)] {
        let (start, end) = self.data[id as usize].occ;
        &self.occ[start as usize..end as usize]
    }

    #[inline]
    fn len(&self, id: ClauseId) -> usize {
        let (start, end) = self.data[id as usize].exprs;
        (end - start) as usize
    }

    /// Content order, the order of canonical conditions.
    #[inline]
    fn cmp(&self, a: ClauseId, b: ClauseId) -> Ordering {
        self.exprs(a).cmp(self.exprs(b))
    }

    /// Whether clause `a`'s expressions are a subset of `b`'s.
    #[inline]
    fn is_subset(&self, a: ClauseId, b: ClauseId) -> bool {
        let (sa, sb) = (self.data[a as usize].sig, self.data[b as usize].sig);
        sa & !sb == 0 && is_subset(self.exprs(a), self.exprs(b))
    }

    /// Whether `small` is a strict subset of `big` (so `small ⟹ big`).
    fn strictly_subsumes(&self, small: ClauseId, big: ClauseId) -> bool {
        self.len(small) < self.len(big) && self.is_subset(small, big)
    }

    /// The id of the normalized clause `exprs`, interned on first sight.
    fn intern(&mut self, exprs: &[Expr]) -> ClauseId {
        let mut h = FxHasher::default();
        exprs.hash(&mut h);
        let hash = h.finish();
        let head = self.by_hash.get(&hash).copied().unwrap_or(NONE);
        let mut id = head;
        while id != NONE {
            if self.exprs(id) == exprs {
                return id;
            }
            id = self.data[id as usize].next;
        }
        let start = self.exprs.len() as u32;
        self.exprs.extend_from_slice(exprs);
        let occ_start = self.occ.len();
        for v in exprs.iter().flat_map(Expr::vars) {
            let local = self
                .vars
                .binary_search(&v)
                .expect("a search meets only the root condition's variables")
                as u32;
            match self.occ[occ_start..].iter_mut().find(|(w, _)| *w == local) {
                Some((_, n)) => *n += 1,
                None => self.occ.push((local, 1)),
            }
        }
        let sig = exprs.iter().fold(0, |sig, e| {
            let mut h = FxHasher::default();
            e.hash(&mut h);
            sig | 1 << (h.finish() >> 58)
        });
        let disjoint = exprs.iter().enumerate().all(|(i, e)| {
            e.rhs_var() != Some(e.var())
                && e.vars().all(|v| !exprs[..i].iter().any(|f| f.mentions(v)))
        });
        let id = self.data.len() as ClauseId;
        self.data.push(ClauseData {
            exprs: (start, self.exprs.len() as u32),
            occ: (occ_start as u32, self.occ.len() as u32),
            next: head,
            sig,
            disjoint,
        });
        self.by_hash.insert(hash, id);
        id
    }
}

/// Whether sorted `a` is a subset of sorted `b`.
fn is_subset(a: &[Expr], b: &[Expr]) -> bool {
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

/// `from_clauses`' normalization of one raw clause, in place: sorted and
/// deduplicated. [`EMPTY`] when nothing is left, [`DROP`] for a tautology
/// (`e ∨ ¬e`), else [`NONE`] with `exprs` the normalized clause.
fn normalize(exprs: &mut Vec<Expr>) -> u32 {
    exprs.sort_unstable();
    exprs.dedup();
    if exprs.is_empty() {
        return EMPTY;
    }
    // `e` and `¬e` share their left variable, so sorted they sit in a run
    // of one variable: without such a run there is no tautology.
    let shared_var = exprs.windows(2).any(|w| w[0].var() == w[1].var());
    if shared_var
        && exprs
            .iter()
            .any(|e| exprs.binary_search(&e.negated()).is_ok())
    {
        return DROP;
    }
    NONE
}

/// The clause arena, the condition stack, and the scratch buffers of one
/// search; cleared, not freed, between searches.
#[derive(Default)]
pub(crate) struct Arena {
    clauses: Clauses,
    /// `(clause, variable, value)` → the rewritten clause, [`DROP`] or
    /// [`EMPTY`].
    rewrites: FxMap<(ClauseId, u32, Value), u32>,
    /// Search-time conditions, each a run of clause ids in canonical order.
    pub(crate) stack: Vec<ClauseId>,
    /// The ends (on `stack`) of the components of the open frames.
    pub(crate) bounds: Vec<u32>,
    /// The expressions of the clause being rewritten.
    buf: Vec<Expr>,
    kept: Vec<ClauseId>,
    fresh: Vec<ClauseId>,
    /// Union-find parents, by clause position, and the counting sort's
    /// positions, by root.
    parent: Vec<u32>,
    place: Vec<u32>,
    /// By local variable: the first clause position that mentions it, and
    /// occurrence counts; [`NONE`] and 0 between uses.
    owner: Vec<u32>,
    counts: Vec<u32>,
}

impl Arena {
    /// Starts a search of the condition with `clauses`: interns them and
    /// leaves their ids as the whole stack, in order.
    pub(crate) fn reset(&mut self, clauses: &[Clause]) {
        self.clauses.clear();
        self.rewrites.clear();
        self.stack.clear();
        self.bounds.clear();
        let vars = &mut self.clauses.vars;
        vars.extend(
            clauses
                .iter()
                .flat_map(|c| c.exprs().iter().flat_map(Expr::vars)),
        );
        vars.sort_unstable();
        vars.dedup();
        let n_vars = vars.len();
        self.owner.clear();
        self.owner.resize(n_vars, NONE);
        self.counts.clear();
        self.counts.resize(n_vars, 0);
        for clause in clauses {
            let id = self.clauses.intern(clause.exprs());
            self.stack.push(id);
        }
    }

    /// The variable of local index `v`.
    #[inline]
    pub(crate) fn var(&self, v: u32) -> VarId {
        self.clauses.vars[v as usize]
    }

    #[inline]
    pub(crate) fn exprs(&self, id: ClauseId) -> &[Expr] {
        self.clauses.exprs(id)
    }

    /// Whether the clause's expressions are variable-disjoint.
    #[inline]
    pub(crate) fn disjoint(&self, id: ClauseId) -> bool {
        self.clauses.data[id as usize].disjoint
    }

    /// The variable occurring in the most expressions of `stack[at..end]`,
    /// ties toward the smallest.
    pub(crate) fn most_frequent_var(&mut self, at: usize, end: usize) -> u32 {
        let c = &self.clauses;
        for &id in &self.stack[at..end] {
            for &(v, n) in c.occ(id) {
                self.counts[v as usize] += n;
            }
        }
        let (mut best, mut best_n) = (NONE, 0);
        for &id in &self.stack[at..end] {
            for &(v, _) in c.occ(id) {
                let n = std::mem::take(&mut self.counts[v as usize]);
                if n > best_n || (n == best_n && n > 0 && v < best) {
                    (best, best_n) = (v, n);
                }
            }
        }
        best
    }

    /// The smallest variable of `stack[at..end]`.
    pub(crate) fn first_var(&self, at: usize, end: usize) -> u32 {
        self.stack[at..end]
            .iter()
            .flat_map(|&id| self.clauses.occ(id).iter().map(|&(v, _)| v))
            .min()
            .unwrap_or(NONE)
    }

    /// Substitutes local variable `v = value` into the condition
    /// `stack[at..end]`, as `Condition::substitute` does. Returns `None`
    /// for `false`, else where the result starts: it runs to the end of
    /// the stack, and is `true` when empty.
    pub(crate) fn substitute(
        &mut self,
        at: usize,
        end: usize,
        v: u32,
        value: Value,
    ) -> Option<usize> {
        self.kept.clear();
        self.fresh.clear();
        for i in at..end {
            let id = self.stack[i];
            if !self.clauses.occ(id).iter().any(|&(w, _)| w == v) {
                self.kept.push(id);
                continue;
            }
            match self.rewrite(id, v, value) {
                EMPTY => return None,
                DROP => {}
                fresh => self.fresh.push(fresh),
            }
        }
        // `kept` is a subsequence of a canonical list: sorted, distinct
        // and mutually non-subsuming. So subsumption is checked only for
        // pairs that include a fresh clause.
        let c = &self.clauses;
        if !self.fresh.is_empty() {
            self.fresh.sort_unstable_by(|&a, &b| c.cmp(a, b));
            self.fresh.dedup();
            // A fresh clause equal to a kept one is a duplicate; one with a
            // kept subset is subsumed.
            let kept = &self.kept;
            self.fresh.retain(|&f| {
                !kept
                    .iter()
                    .any(|&k| c.len(k) <= c.len(f) && c.is_subset(k, f))
            });
            drop_subsumed(&mut self.fresh, c);
            let fresh = &self.fresh;
            self.kept
                .retain(|&k| !fresh.iter().any(|&f| c.strictly_subsumes(f, k)));
        }
        let top = self.stack.len();
        let mut fresh = self.fresh.iter().copied().peekable();
        for &k in &self.kept {
            while let Some(f) = fresh.next_if(|&f| c.cmp(f, k) == Ordering::Less) {
                self.stack.push(f);
            }
            self.stack.push(k);
        }
        self.stack.extend(fresh);
        Some(top)
    }

    /// Clause `id` with `v = value`, normalized: a clause id, [`DROP`] or
    /// [`EMPTY`]. Memoized for the search.
    fn rewrite(&mut self, id: ClauseId, v: u32, value: Value) -> u32 {
        if let Some(&out) = self.rewrites.get(&(id, v, value)) {
            return out;
        }
        let var = self.clauses.vars[v as usize];
        self.buf.clear();
        let mut out = NONE;
        for e in self.clauses.exprs(id) {
            match e.substitute(var, value) {
                ExprOrBool::Bool(true) => {
                    out = DROP;
                    break;
                }
                ExprOrBool::Bool(false) => {}
                ExprOrBool::Expr(e2) => self.buf.push(e2),
            }
        }
        if out == NONE {
            out = normalize(&mut self.buf);
        }
        if out == NONE {
            out = self.clauses.intern(&self.buf);
        }
        self.rewrites.insert((id, v, value), out);
        out
    }

    /// Splits the condition `stack[at..end]` into variable-connected
    /// components. Clauses sharing a variable are joined by union-find,
    /// each with the first clause that mentioned the variable, in clause
    /// order. Components come in order of their root position, and a
    /// component's clauses in position order: subsequences of a canonical
    /// list, so canonical themselves.
    ///
    /// Returns whether there is more than one. If so, they are written back
    /// to back onto the stack, and their ends pushed onto `bounds`;
    /// otherwise nothing is written.
    pub(crate) fn components(&mut self, at: usize, end: usize) -> bool {
        fn find(parent: &mut [u32], mut i: u32) -> u32 {
            while parent[i as usize] != i {
                parent[i as usize] = parent[parent[i as usize] as usize];
                i = parent[i as usize];
            }
            i
        }
        let n = end - at;
        let c = &self.clauses;
        let parent = &mut self.parent;
        parent.clear();
        parent.extend(0..n as u32);
        for (i, &id) in self.stack[at..end].iter().enumerate() {
            for &(v, _) in c.occ(id) {
                let owner = &mut self.owner[v as usize];
                if *owner == NONE {
                    *owner = i as u32;
                } else {
                    let (ri, rj) = (find(parent, i as u32), find(parent, *owner));
                    if ri != rj {
                        parent[ri as usize] = rj;
                    }
                }
            }
        }
        for &id in &self.stack[at..end] {
            for &(v, _) in c.occ(id) {
                self.owner[v as usize] = NONE;
            }
        }
        for i in 0..n as u32 {
            parent[i as usize] = find(parent, i);
        }
        if parent.iter().all(|&r| r == parent[0]) {
            return false;
        }
        // A stable counting sort by root: `place[r]` is where the next
        // clause of root `r` goes, and ends as the end of its component.
        let place = &mut self.place;
        place.clear();
        place.resize(n + 1, 0);
        for &r in parent.iter() {
            place[r as usize + 1] += 1;
        }
        for r in 0..n {
            place[r + 1] += place[r];
        }
        let top = self.stack.len();
        self.stack.resize(top + n, 0);
        for (i, &r) in parent.iter().enumerate() {
            self.stack[top + place[r as usize] as usize] = self.stack[at + i];
            place[r as usize] += 1;
        }
        for (r, &p) in parent.iter().enumerate() {
            if p as usize == r {
                self.bounds.push((top + place[r] as usize) as u32);
            }
        }
        true
    }
}

/// Removes every clause that is a superset of another clause, in place;
/// the input is sorted and distinct, and the survivors keep their order.
///
/// A clause at `i` is checked against the survivors so far and the clauses
/// not yet visited. A clause dropped earlier needs no check: it has a
/// subset that survives or comes later, and that subset is also a subset
/// of every superset of the dropped clause.
fn drop_subsumed(ids: &mut Vec<ClauseId>, c: &Clauses) {
    let mut kept = 0;
    for i in 0..ids.len() {
        let big = ids[i];
        let subsumed = ids[..kept]
            .iter()
            .chain(&ids[i + 1..])
            .any(|&small| c.strictly_subsumes(small, big));
        if !subsumed {
            ids.swap(kept, i);
            kept += 1;
        }
    }
    ids.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_ctable::{CmpOp, Condition, Operand};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const CARD: u16 = 5;

    /// A random canonical condition over `n_vars` variables: var-var
    /// expressions about one time in four, clauses of one to four
    /// expressions, some sharing a variable.
    fn random_condition(rng: &mut StdRng, n_vars: u32) -> Condition {
        let ops = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        let var = |i: u32| VarId::new(i, (i % 3) as u16);
        let n_clauses = rng.gen_range(1..8);
        Condition::from_clauses((0..n_clauses).map(|_| {
            (0..rng.gen_range(1..5))
                .map(|_| {
                    let v = rng.gen_range(0..n_vars);
                    let w = rng.gen_range(0..n_vars);
                    let op = ops[rng.gen_range(0..ops.len())];
                    if w != v && rng.gen_range(0..4) == 0 {
                        Expr::new(var(v), op, Operand::Var(var(w)))
                    } else {
                        Expr::new(var(v), op, Operand::Const(rng.gen_range(0..CARD + 1)))
                    }
                })
                .collect()
        }))
    }

    /// The old search's decomposition, kept as the reference: clause
    /// indices ordered by variable-connected component, and each clause's
    /// root. Union order is each clause's variables in expression order,
    /// joined to the first clause that mentioned them.
    fn connected_components(clauses: &[Clause]) -> (Vec<usize>, Vec<usize>) {
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let mut owners: Vec<(VarId, usize)> = Vec::new();
        let mut parent: Vec<usize> = (0..clauses.len()).collect();
        for (i, clause) in clauses.iter().enumerate() {
            for v in clause.exprs().iter().flat_map(Expr::vars) {
                match owners.binary_search_by(|&(w, _)| w.cmp(&v)) {
                    Ok(k) => {
                        let (ri, rj) = (find(&mut parent, i), find(&mut parent, owners[k].1));
                        if ri != rj {
                            parent[ri] = rj;
                        }
                    }
                    Err(k) => owners.insert(k, (v, i)),
                }
            }
        }
        for i in 0..parent.len() {
            parent[i] = find(&mut parent, i);
        }
        let mut order: Vec<usize> = (0..clauses.len()).collect();
        order.sort_unstable_by_key(|&i| (parent[i], i));
        (order, parent)
    }

    /// The condition `stack[at..]` read back: `None` for `false`.
    fn read_back(arena: &Arena, at: Option<usize>) -> Option<Vec<Vec<Expr>>> {
        at.map(|at| {
            arena.stack[at..]
                .iter()
                .map(|&id| arena.exprs(id).to_vec())
                .collect()
        })
    }

    fn clauses_of(cond: &Condition) -> Option<Vec<Vec<Expr>>> {
        match cond {
            Condition::False => None,
            _ => Some(cond.clauses().iter().map(|c| c.exprs().to_vec()).collect()),
        }
    }

    fn local(arena: &Arena, v: VarId) -> u32 {
        arena.clauses.vars.binary_search(&v).unwrap() as u32
    }

    /// For every variable and value, twice deep as branching walks it, the
    /// arena's substitution reads back as `Condition::substitute`'s
    /// clause list, and repeated substitutions hit the memo and the
    /// hash-consed ids.
    #[test]
    fn substitution_matches_the_condition_kernel() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut arena = Arena::default();
        let mut checked = 0;
        for _ in 0..300 {
            let n_vars = rng.gen_range(2..7);
            let cond = random_condition(&mut rng, n_vars);
            if cond.is_decided() {
                continue;
            }
            arena.reset(cond.clauses());
            let n = arena.stack.len();
            for v in cond.vars() {
                for value in 0..CARD {
                    let sub = cond.substitute(v, value);
                    let at = arena.substitute(0, n, local(&arena, v), value);
                    assert_eq!(
                        read_back(&arena, at),
                        clauses_of(&sub),
                        "{cond:?}: {v} := {value}"
                    );
                    checked += 1;
                    let Some(at) = at else { continue };
                    let end = arena.stack.len();
                    for w in sub.vars() {
                        for value2 in 0..CARD {
                            let want = sub.substitute(w, value2);
                            let at2 = arena.substitute(at, end, local(&arena, w), value2);
                            assert_eq!(
                                read_back(&arena, at2),
                                clauses_of(&want),
                                "{sub:?}: {w} := {value2}"
                            );
                            arena.stack.truncate(end);
                            checked += 1;
                        }
                    }
                    arena.stack.truncate(at);
                }
            }
            // Equal conditions are equal id runs.
            let again = arena
                .substitute(0, n, 0, 0)
                .map(|at| arena.stack[at..].to_vec());
            let twice = arena
                .substitute(0, n, 0, 0)
                .map(|at| arena.stack[at..].to_vec());
            assert_eq!(again, twice);
            arena.stack.truncate(n);
        }
        assert!(checked > 5_000, "only {checked} substitutions checked");
    }

    /// The arena's components, and its branching variables, equal the old
    /// search's on random conditions and their substitutions.
    #[test]
    fn components_and_branch_vars_match_the_reference() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut arena = Arena::default();
        let mut splits = 0;
        for _ in 0..500 {
            let n_vars = rng.gen_range(2..9);
            let root = random_condition(&mut rng, n_vars);
            if root.is_decided() {
                continue;
            }
            let v = *root.vars().iter().next().unwrap();
            for cond in [root.clone(), root.substitute(v, rng.gen_range(0..CARD))] {
                let Condition::Cnf(clauses) = &cond else {
                    continue;
                };
                arena.reset(clauses);
                let n = arena.stack.len();
                let (order, parent) = connected_components(clauses);
                let split = parent[order[0]] != parent[order[n - 1]];
                assert_eq!(arena.components(0, n), split, "{cond:?}");
                if split {
                    splits += 1;
                    let want: Vec<Vec<Vec<Expr>>> = order
                        .chunk_by(|&a, &b| parent[a] == parent[b])
                        .map(|comp| comp.iter().map(|&i| clauses[i].exprs().to_vec()).collect())
                        .collect();
                    let mut got = Vec::new();
                    let mut start = n;
                    for &end in &arena.bounds {
                        got.push(
                            arena.stack[start..end as usize]
                                .iter()
                                .map(|&id| arena.exprs(id).to_vec())
                                .collect::<Vec<_>>(),
                        );
                        start = end as usize;
                    }
                    assert_eq!(start, arena.stack.len());
                    assert_eq!(got, want, "{cond:?}");
                }
                let most = arena.most_frequent_var(0, n);
                assert_eq!(Some(arena.var(most)), cond.most_frequent_var());
                let first = arena.first_var(0, n);
                assert_eq!(Some(arena.var(first)), cond.vars().into_iter().next());
                assert!(arena.counts.iter().all(|&c| c == 0));
                assert!(arena.owner.iter().all(|&o| o == NONE));
            }
        }
        assert!(splits > 50, "only {splits} conditions split");
    }
}
