//! The clause arena one ADPLL search runs over.
//!
//! A search interns every distinct clause it meets once, as a [`ClauseId`],
//! and keeps per clause its expressions, whether they are
//! variable-disjoint, its variables in first-occurrence order with their
//! occurrence counts, and its [`Bits`]. Variables are local indices into
//! the root condition's sorted variables: substitution never adds one, and
//! local order is [`VarId`] order. The 63 variables that occur most often
//! in the root condition own a bit of the clause variable masks; the rest
//! share [`SHARED_BIT`].
//!
//! A search-time condition is a run of clause ids on [`Arena::stack`], in
//! the canonical order of [`Condition`](bc_ctable::Condition) (clause
//! content order); the empty run is `true`. Because clauses are
//! hash-consed, two runs are equal exactly when their conditions are, so
//! the component cache keys on id slices. Substitution writes its result
//! above the run it rewrites, and the caller truncates it on return.
//!
//! A branch on a variable opens with one pass over its condition
//! ([`Arena::open_branch`]): each clause that mentions the variable gets
//! its row, the clause rewritten for every value of the variable's
//! support, memoized for the search. Substitution then reads rows, and
//! restores the canonical form with the shared clause kernel
//! ([`bc_ctable::kernel`]), as `Condition::substitute` does; and
//! [`Arena::components`] fixes the component order the search's products
//! and counters depend on. So the search tree, its counters and its
//! probability bits do not depend on the representation (DESIGN.md,
//! "Search kernel").

use bc_ctable::kernel::{self, Bits, ClauseSet, Merged, Normalized};
use bc_ctable::{Clause, Expr, ExprOrBool};
use bc_data::{FxHasher, FxMap, Value, VarId};
use std::cmp::Reverse;
use std::hash::{Hash, Hasher};

/// A clause interned in the arena of the current search.
pub(crate) type ClauseId = u32;

/// No clause, no owner, no variable, no row.
const NONE: u32 = u32::MAX;
/// What a row holds besides a clause id: the clause became true, or empty.
const DROP: u32 = u32::MAX - 1;
const EMPTY: u32 = u32::MAX - 2;
/// A row entry whose clause is the rest of its var-const clause, while
/// that rest is not yet interned.
const REST: u32 = u32::MAX - 3;

/// The mask bit of every variable outside the 63 most frequent ones.
const SHARED_BIT: u64 = 1 << 63;

#[derive(Clone, Copy)]
struct ClauseData {
    /// `Clauses::exprs[exprs.0..exprs.1]`: sorted and distinct.
    exprs: (u32, u32),
    /// `Clauses::occ[occ.0..occ.1]`: `(local variable, occurrences)` in
    /// order of first occurrence over the expressions.
    occ: (u32, u32),
    /// The next clause interned with the same content hash.
    next: ClauseId,
    /// The expression signature, and the mask of the local variables' bits.
    bits: Bits,
    /// The clause's first entry on `Arena::row_memo`, or [`NONE`].
    rows: u32,
    /// No two expressions share a variable: the disjunctive rule applies.
    disjoint: bool,
}

/// The interned clauses of one search.
#[derive(Default)]
struct Clauses {
    /// The root condition's variables, sorted: local variable `i` is
    /// `vars[i]`, and its mask bit is `bit[i]`.
    vars: Vec<VarId>,
    bit: Vec<u64>,
    exprs: Vec<Expr>,
    occ: Vec<(u32, u32)>,
    data: Vec<ClauseData>,
    /// Content hash → the last clause interned with it.
    by_hash: FxMap<u64, ClauseId>,
}

impl Clauses {
    fn clear(&mut self) {
        self.vars.clear();
        self.bit.clear();
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

    /// Whether clause `id` mentions local variable `v`: by the mask alone,
    /// unless `v` shares its bit.
    #[inline]
    fn mentions(&self, id: ClauseId, v: u32) -> bool {
        let bit = self.bit[v as usize];
        self.data[id as usize].bits.vars & bit != 0
            && (bit != SHARED_BIT || self.occ(id).iter().any(|&(w, _)| w == v))
    }

    /// The id of the normalized clause `exprs`, interned on first sight.
    /// With `parent = Some((p, v))`, `exprs` is clause `p` without its
    /// expressions on `v`, and a new clause takes `p`'s occurrences less
    /// `v`'s.
    fn intern(&mut self, exprs: &[Expr], parent: Option<(ClauseId, u32)>) -> ClauseId {
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
        match parent {
            Some((p, v)) => {
                let (from, to) = self.data[p as usize].occ;
                for k in from..to {
                    let occ = self.occ[k as usize];
                    if occ.0 != v {
                        self.occ.push(occ);
                    }
                }
            }
            None => {
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
            }
        }
        let occ = &self.occ[occ_start..];
        let bits = Bits {
            sig: exprs.iter().fold(0, |sig, e| sig | e.signature_bit()),
            vars: occ
                .iter()
                .fold(0, |mask, &(v, _)| mask | self.bit[v as usize]),
        };
        // A variable met twice is in two expressions, or on both sides of
        // one.
        let disjoint = occ.iter().all(|&(_, n)| n == 1);
        let id = self.data.len() as ClauseId;
        self.data.push(ClauseData {
            exprs: (start, self.exprs.len() as u32),
            occ: (occ_start as u32, self.occ.len() as u32),
            next: head,
            bits,
            rows: NONE,
            disjoint,
        });
        self.by_hash.insert(hash, id);
        id
    }
}

/// The kernel reads interned clauses by id, with their stored bits, and
/// keys occurrence lists by local variable.
impl ClauseSet<ClauseId> for Clauses {
    #[inline]
    fn exprs<'t>(&'t self, id: &'t ClauseId) -> &'t [Expr] {
        Clauses::exprs(self, *id)
    }

    #[inline]
    fn stored_bits(&self, id: &ClauseId) -> Option<Bits> {
        Some(self.data[*id as usize].bits)
    }

    fn for_each_key(&self, id: &ClauseId, mut f: impl FnMut(u32)) {
        for &(v, _) in self.occ(*id) {
            f(v);
        }
    }
}

/// The clause arena, the condition stack, and the scratch buffers of one
/// search; cleared, not freed, between searches.
#[derive(Default)]
pub(crate) struct Arena {
    clauses: Clauses,
    /// Per clause, a list from `ClauseData::rows`: `(variable, where its
    /// row starts on `rows`, next entry)`.
    row_memo: Vec<(u32, u32, u32)>,
    /// Rows, each indexed by value: on the variable's support, the
    /// rewritten clause's id, [`DROP`] or [`EMPTY`]; elsewhere [`NONE`].
    rows: Vec<u32>,
    /// Per open branch, per clause of its condition: the clause's row, or
    /// [`NONE`] when it does not mention the branch variable.
    branch: Vec<u32>,
    /// Search-time conditions, each a run of clause ids in canonical order.
    pub(crate) stack: Vec<ClauseId>,
    /// The ends (on `stack`) of the components of the open frames.
    pub(crate) bounds: Vec<u32>,
    /// The expressions of the clause being rewritten.
    buf: Vec<Expr>,
    kept: Vec<ClauseId>,
    fresh: Vec<ClauseId>,
    kernel: kernel::Scratch,
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
        self.row_memo.clear();
        self.rows.clear();
        self.branch.clear();
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
        self.assign_bits(clauses);
        for clause in clauses {
            let id = self.clauses.intern(clause.exprs(), None);
            self.stack.push(id);
        }
    }

    /// Gives each of the (at most) 63 variables occurring most often in
    /// `clauses` a mask bit of its own, ties toward the smallest, and the
    /// others [`SHARED_BIT`].
    fn assign_bits(&mut self, clauses: &[Clause]) {
        let Arena {
            clauses: c,
            counts,
            place: order,
            ..
        } = self;
        let n_vars = c.vars.len();
        if n_vars <= 63 {
            c.bit.extend((0..n_vars).map(|v| 1 << v));
            return;
        }
        for v in clauses.iter().flat_map(|c| c.exprs()).flat_map(Expr::vars) {
            let local = c.vars.binary_search(&v).expect("a root variable");
            counts[local] += 1;
        }
        order.clear();
        order.extend(0..n_vars as u32);
        order.sort_unstable_by_key(|&v| (Reverse(counts[v as usize]), v));
        c.bit.resize(n_vars, SHARED_BIT);
        for (bit, &v) in order[..63].iter().enumerate() {
            c.bit[v as usize] = 1 << bit;
        }
        counts.fill(0);
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

    /// Opens a branch on local variable `v` of the condition
    /// `stack[at..end]`, whose values have probabilities `probs`: notes
    /// each clause's row (computed on first sight). Returns the branch,
    /// which [`substitute`](Arena::substitute) reads and
    /// [`close_branch`](Arena::close_branch) ends.
    pub(crate) fn open_branch(&mut self, at: usize, end: usize, v: u32, probs: &[f64]) -> usize {
        let branch = self.branch.len();
        for i in at..end {
            let id = self.stack[i];
            let row = if self.clauses.mentions(id, v) {
                self.row(id, v, probs)
            } else {
                NONE
            };
            self.branch.push(row);
        }
        branch
    }

    /// Ends the branch [`open_branch`](Arena::open_branch) returned, and
    /// every branch opened after it.
    pub(crate) fn close_branch(&mut self, branch: usize) {
        self.branch.truncate(branch);
    }

    /// Where clause `id`'s row for local variable `v` starts on `rows`:
    /// the clause with `v = a`, normalized, for every `a` with
    /// `probs[a] > 0`. Memoized for the search.
    fn row(&mut self, id: ClauseId, v: u32, probs: &[f64]) -> u32 {
        let head = self.clauses.data[id as usize].rows;
        let mut memo = head;
        while memo != NONE {
            let (w, row, next) = self.row_memo[memo as usize];
            if w == v {
                return row;
            }
            memo = next;
        }
        let Arena {
            clauses: c,
            rows,
            buf,
            ..
        } = self;
        let row = rows.len();
        rows.resize(row + probs.len(), NONE);
        let var = c.vars[v as usize];
        let support = probs.iter().enumerate().filter(|(_, &p)| p > 0.0);
        let exprs = c.exprs(id);
        if exprs
            .iter()
            .any(|e| e.rhs_var().is_some() && e.mentions(var))
        {
            // A var-var expression on `v` leaves a different clause for
            // every value: rewrite and normalize each.
            for (a, _) in support {
                buf.clear();
                let mut out = NONE;
                for e in c.exprs(id) {
                    match e.substitute(var, a as Value) {
                        ExprOrBool::Bool(true) => {
                            out = DROP;
                            break;
                        }
                        ExprOrBool::Bool(false) => {}
                        ExprOrBool::Expr(e2) => buf.push(e2),
                    }
                }
                if out == NONE {
                    out = match kernel::normalize(buf) {
                        Normalized::Empty => EMPTY,
                        Normalized::Tautology => DROP,
                        Normalized::Clause(len) => {
                            buf.truncate(len);
                            c.intern(buf, None)
                        }
                    };
                }
                rows[row + a] = out;
            }
        } else {
            // `v`'s expressions compare it with constants, and sorted they
            // are one run. A value makes one true and drops the clause, or
            // leaves the rest: a subsequence of a normalized clause, so
            // normalized itself, and the same for every such value.
            let lo = exprs.partition_point(|e| e.var() < var);
            let hi = lo + exprs[lo..].partition_point(|e| e.var() == var);
            let mut rest = false;
            for (a, _) in support {
                let drops = exprs[lo..hi]
                    .iter()
                    .any(|e| e.substitute(var, a as Value) == ExprOrBool::Bool(true));
                rows[row + a] = if drops { DROP } else { REST };
                rest |= !drops;
            }
            if rest {
                buf.clear();
                buf.extend_from_slice(&exprs[..lo]);
                buf.extend_from_slice(&exprs[hi..]);
                let out = if buf.is_empty() {
                    EMPTY
                } else {
                    c.intern(buf, Some((id, v)))
                };
                for entry in &mut rows[row..] {
                    if *entry == REST {
                        *entry = out;
                    }
                }
            }
        }
        self.clauses.data[id as usize].rows = self.row_memo.len() as u32;
        self.row_memo.push((v, row as u32, head));
        row as u32
    }

    /// Substitutes `v = value` into the condition `stack[at..end]` of the
    /// open branch on `v`, as `Condition::substitute` does. Returns `None`
    /// for `false`, else where the result starts: it runs to the end of
    /// the stack, and is `true` when empty.
    pub(crate) fn substitute(
        &mut self,
        at: usize,
        end: usize,
        branch: usize,
        value: Value,
    ) -> Option<usize> {
        self.kept.clear();
        self.fresh.clear();
        for (i, &row) in self.branch[branch..branch + (end - at)].iter().enumerate() {
            if row == NONE {
                self.kept.push(self.stack[at + i]);
                continue;
            }
            match self.rows[row as usize + value as usize] {
                EMPTY => return None,
                DROP => {}
                fresh => self.fresh.push(fresh),
            }
        }
        let Arena {
            clauses,
            stack,
            kept,
            fresh,
            kernel,
            ..
        } = self;
        let top = stack.len();
        kernel::merge_rewritten(&*clauses, kept, fresh, kernel, |c| {
            stack.push(match c {
                Merged::Kept(id) | Merged::Fresh(id) => id,
            })
        });
        Some(top)
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
    /// otherwise nothing is written. A variable that every clause's mask
    /// holds by its own bit joins them all, and skips the union-find.
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
        let common = self.stack[at..end].iter().fold(!SHARED_BIT, |mask, &id| {
            mask & c.data[id as usize].bits.vars
        });
        if common != 0 {
            return false;
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use bc_ctable::{CmpOp, Condition, Operand};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    const CARD: u16 = 5;
    /// Every value in the support.
    const PROBS: [f64; CARD as usize] = [0.2; CARD as usize];

    /// A random canonical condition. Small: up to seven clauses over
    /// `2..9` variables drawn uniformly. Large: 40–89 clauses over 64–160
    /// variables, a third of the draws among the first six, so that the root
    /// condition has more variables than mask bits yet its clauses still
    /// share and subsume. Var-var expressions come about one time in four,
    /// clauses have one to four expressions.
    fn random_condition(rng: &mut StdRng, large: bool) -> Condition {
        let ops = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        let var = |i: u32| VarId::new(i, (i % 3) as u16);
        let (n_vars, n_clauses) = if large {
            (rng.gen_range(64..161), rng.gen_range(40..90))
        } else {
            (rng.gen_range(2..9), rng.gen_range(1..8))
        };
        let pick = |rng: &mut StdRng| {
            if large && rng.gen_range(0..3) == 0 {
                rng.gen_range(0..6)
            } else {
                rng.gen_range(0..n_vars)
            }
        };
        Condition::from_clauses((0..n_clauses).map(|_| {
            (0..rng.gen_range(1..5))
                .map(|_| {
                    let v = pick(rng);
                    let w = pick(rng);
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

    /// The old search's branching variable, kept as the reference: the
    /// variable occurring in the most expressions, ties toward the
    /// smallest.
    fn most_frequent_var(cond: &Condition) -> Option<VarId> {
        let mut vars: Vec<VarId> = cond.exprs().flat_map(Expr::vars).collect();
        vars.sort_unstable();
        // Runs come in ascending variable order, so keeping only strictly
        // longer runs leaves the smallest of the most frequent variables.
        let mut best: Option<&[VarId]> = None;
        for run in vars.chunk_by(|a, b| a == b) {
            if best.is_none_or(|b| run.len() > b.len()) {
                best = Some(run);
            }
        }
        best.map(|run| run[0])
    }

    #[test]
    fn most_frequent_var_prefers_high_count_then_small_id() {
        let (x, y, z) = (VarId::new(0, 0), VarId::new(1, 0), VarId::new(2, 0));
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(x, 2), Expr::lt(y, 2)],
            vec![Expr::gt(y, 4), Expr::lt(z, 1)],
        ]);
        assert_eq!(most_frequent_var(&cond), Some(y));
        // All tied → smallest id.
        let cond = Condition::from_clauses(vec![vec![Expr::lt(x, 2), Expr::lt(z, 2)]]);
        assert_eq!(most_frequent_var(&cond), Some(x));
        assert_eq!(most_frequent_var(&Condition::True), None);
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

    /// Opens a branch on `v` over `stack[at..end]` and checks its rows:
    /// a clause has one exactly when it mentions `v`, and each entry is
    /// the one-clause condition's `substitute`.
    fn open_checked(arena: &mut Arena, at: usize, end: usize, v: u32) -> usize {
        let branch = arena.open_branch(at, end, v, &PROBS);
        let var = arena.var(v);
        for i in at..end {
            let id = arena.stack[i];
            let row = arena.branch[branch + i - at];
            let exprs = arena.exprs(id).to_vec();
            assert_eq!(row != NONE, exprs.iter().any(|e| e.mentions(var)));
            if row == NONE {
                continue;
            }
            for value in 0..CARD {
                let want = Condition::from_clauses([exprs.clone()]).substitute(var, value);
                let got = match arena.rows[row as usize + value as usize] {
                    DROP => Condition::True,
                    EMPTY => Condition::False,
                    id => Condition::from_clauses([arena.exprs(id).to_vec()]),
                };
                assert_eq!(got, want, "{exprs:?}: {var} := {value}");
            }
        }
        branch
    }

    /// For every variable and value, twice deep as branching walks it, the
    /// arena's substitution reads back as `Condition::substitute`'s
    /// clause list, every row entry is its clause's own substitution, and
    /// repeated substitutions hit the memo and the hash-consed ids. Large
    /// conditions check about eight variables at the first level and two at
    /// the second.
    #[test]
    fn substitution_matches_the_condition_kernel() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut arena = Arena::default();
        let (mut checked, mut large) = (0, 0);
        for round in 0..340 {
            let big = round >= 300;
            let cond = random_condition(&mut rng, big);
            if cond.is_decided() {
                continue;
            }
            arena.reset(cond.clauses());
            large += usize::from(arena.clauses.vars.len() > 63);
            let n = arena.stack.len();
            let sample = |vars: BTreeSet<VarId>, k: usize, rng: &mut StdRng| {
                let mut vars: Vec<VarId> = vars.into_iter().collect();
                if big {
                    let len = vars.len().max(k);
                    vars.retain(|_| rng.gen_range(0..len) < k);
                }
                vars
            };
            for v in sample(cond.vars(), 8, &mut rng) {
                let lv = local(&arena, v);
                let branch = open_checked(&mut arena, 0, n, lv);
                for value in 0..CARD {
                    let sub = cond.substitute(v, value);
                    let at = arena.substitute(0, n, branch, value);
                    assert_eq!(
                        read_back(&arena, at),
                        clauses_of(&sub),
                        "{cond:?}: {v} := {value}"
                    );
                    checked += 1;
                    let Some(at) = at else { continue };
                    let end = arena.stack.len();
                    for w in sample(sub.vars(), 2, &mut rng) {
                        let lw = local(&arena, w);
                        let branch2 = open_checked(&mut arena, at, end, lw);
                        for value2 in 0..CARD {
                            let want = sub.substitute(w, value2);
                            let at2 = arena.substitute(at, end, branch2, value2);
                            assert_eq!(
                                read_back(&arena, at2),
                                clauses_of(&want),
                                "{sub:?}: {w} := {value2}"
                            );
                            arena.stack.truncate(end);
                            checked += 1;
                        }
                        arena.close_branch(branch2);
                    }
                    arena.stack.truncate(at);
                }
                arena.close_branch(branch);
            }
            // Equal conditions are equal id runs.
            let branch = arena.open_branch(0, n, 0, &PROBS);
            let again = arena
                .substitute(0, n, branch, 0)
                .map(|at| arena.stack[at..].to_vec());
            arena.stack.truncate(n);
            let twice = arena
                .substitute(0, n, branch, 0)
                .map(|at| arena.stack[at..].to_vec());
            assert_eq!(again, twice);
            arena.stack.truncate(n);
            arena.close_branch(branch);
            assert!(arena.branch.is_empty());
        }
        assert!(checked > 5_000, "only {checked} substitutions checked");
        assert!(large > 20, "only {large} conditions over 63 variables");
    }

    /// Checks `arena.components(at, end)` against the reference on the
    /// clauses of `stack[at..end]`; returns whether they split.
    fn check_components(arena: &mut Arena, clauses: &[Clause], at: usize, end: usize) -> bool {
        let (order, parent) = connected_components(clauses);
        let split = parent[order[0]] != parent[order[clauses.len() - 1]];
        assert_eq!(arena.components(at, end), split, "{clauses:?}");
        if split {
            let want: Vec<Vec<Vec<Expr>>> = order
                .chunk_by(|&a, &b| parent[a] == parent[b])
                .map(|comp| comp.iter().map(|&i| clauses[i].exprs().to_vec()).collect())
                .collect();
            let top = arena.stack.len() - clauses.len();
            let mut got = Vec::new();
            let mut start = top;
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
            assert_eq!(got, want, "{clauses:?}");
            arena.stack.truncate(top);
            arena.bounds.clear();
        }
        split
    }

    /// The arena's components, and its branching variables, equal the old
    /// search's on random conditions and their substitutions, small and
    /// over more variables than mask bits. Over the latter, every run of up
    /// to six consecutive clauses is split too, so that runs whose clauses
    /// meet only on the shared mask bit come up.
    #[test]
    fn components_and_branch_vars_match_the_reference() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut arena = Arena::default();
        let (mut splits, mut large_splits) = (0, 0);
        for round in 0..600 {
            let big = round >= 500;
            let root = random_condition(&mut rng, big);
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
                if check_components(&mut arena, clauses, 0, n) {
                    splits += 1;
                }
                if arena.clauses.vars.len() > 63 {
                    for at in 0..n {
                        for end in at + 2..n.min(at + 6) + 1 {
                            let window = &clauses[at..end];
                            large_splits +=
                                usize::from(check_components(&mut arena, window, at, end));
                        }
                    }
                }
                let most = arena.most_frequent_var(0, n);
                assert_eq!(Some(arena.var(most)), most_frequent_var(&cond));
                let first = arena.first_var(0, n);
                assert_eq!(Some(arena.var(first)), cond.vars().into_iter().next());
                assert!(arena.counts.iter().all(|&c| c == 0));
                assert!(arena.owner.iter().all(|&o| o == NONE));
            }
        }
        assert!(splits > 50, "only {splits} conditions split");
        assert!(
            large_splits > 200,
            "only {large_splits} runs over 63 variables split"
        );
    }
}
