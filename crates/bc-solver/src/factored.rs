//! Factor tables: `Pr(φ(o))` and every `Pr(φ(o) ∧ e)` of a c-table
//! condition in closed form (DESIGN.md, "Factor tables").
//!
//! In the conditions Get-CTable builds and propagation rewrites, a
//! variable that is not one of object `o`'s own cells occurs in exactly
//! one expression. Once the own cells `x` are fixed, the clauses share no
//! variable and each closes by the disjunctive rule, so ADPLL's search
//! (Algorithm 3) sums
//!
//! ```text
//! Pr(φ) = Σ_x θ(x) · Π_C T_C(x),   T_C(x) = 1 − κ_C · Π_a g_{C,a}(x_a)
//! ```
//!
//! with `θ` the own cells' pmfs, `κ_C` the product of `1 − Pr(e)` over
//! `C`'s expressions that mention no own cell, and `g_{C,a}(v)` the
//! product of `1 − Pr(e | x_a = v)` over its expressions on own cell `a`.
//! Every step starts from `κ_C` and the `g_{C,a}` per clause, and sums out
//! a cell only one clause reads. [`Workspace::probability`] sums `Pr(φ)`
//! straight from them when at most one own cell is read by two clauses.
//! Otherwise, and for [`Workspace::build`], the values of each shared cell
//! fall into classes every clause weighs alike, clauses over the same
//! shared cells multiply into one group table, and groups that share no
//! cell are summed apart. Every table is a pure function of its clause and
//! the current pmfs, so tables built in a workspace that held another
//! object's equal a fresh workspace's bit for bit. [`Workspace::joints`]
//! gives every candidate's `Pr(φ ∧ e)` of the last build from outside
//! messages and prefix and suffix products, with no division by a factor
//! that may be 0.
//!
//! A workspace holds one object's tables at a time, in flat buffers it
//! clears and refills, so once they have grown to the largest condition
//! seen a build, a sum and a pass allocate nothing. One per thread.
//!
//! A condition outside this shape — a non-own variable in two
//! expressions, or a var-var expression between two own cells — is
//! [`SolverError::NotFactored`]; nothing falls back to another solver.

use crate::dists::{const_prob, VarDists};
use crate::utility::{is_open, utility_from_joint};
use crate::{checked_probability, SolverError};
use bc_ctable::{Clause, Condition, Expr, ExprOrBool, Operand};
use bc_data::{ObjectId, Value, VarId};

/// Effort of one build, sum or pass, all plain counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Clause tables computed.
    pub clause_tables: u64,
    /// Factor groups: distinct sets of shared cells among the clauses.
    pub groups: u64,
    /// Points of the components' class products visited.
    pub points: u64,
}

impl std::ops::AddAssign for TableStats {
    fn add_assign(&mut self, rhs: TableStats) {
        self.clause_tables += rhs.clause_tables;
        self.groups += rhs.groups;
        self.points += rhs.points;
    }
}

/// One clause's table `T_C(y) = 1 − κ · Π_a g_a(y_a)`.
#[derive(Debug)]
struct ClauseTable {
    kappa: f64,
    /// `κ` with every own cell summed out, `κ · Π_a Σ_v p_a(v) g_a(v)`:
    /// the clause's table when no other clause reads its cells.
    summed: f64,
    /// `g_a` over the support of each own cell `a` the clause reads, in
    /// variable order, concatenated: `Tables::factors[factors.0..factors.1]`.
    factors: (usize, usize),
    /// Those cells with their support sizes: `Tables::cells[cells.0..cells.1]`.
    cells: (usize, usize),
    /// Its group, in `Tables::groups`.
    group: usize,
}

/// The clauses that read one set of shared cells, and their product.
#[derive(Debug)]
struct GroupTable {
    /// The shared cells, sorted: `Tables::keys[keys.0..keys.1]`.
    keys: (usize, usize),
    /// The product of its clauses' tables over the classes of its cells,
    /// the first cell slowest: `Tables::products[table.0..table.1]`.
    table: (usize, usize),
}

/// One object's clause and group tables, in flat buffers addressed by
/// range.
#[derive(Debug, Default)]
struct Tables {
    /// In the condition's clause order.
    clauses: Vec<ClauseTable>,
    factors: Vec<f64>,
    cells: Vec<(VarId, usize)>,
    /// Per entry of `cells`, `Σ_v p_a(v) g_a(v)` over its support: the
    /// factor that sums the cell out of its clause.
    sums: Vec<f64>,
    /// The cells two or more clauses read, sorted, each with the range of
    /// `class_of` that gives each of its support values' class: runs of
    /// adjacent values every clause reading the cell weighs alike,
    /// numbered from 0 up in value order.
    shared: Vec<(VarId, usize, usize)>,
    class_of: Vec<u32>,
    /// In shared-cell-set order.
    groups: Vec<GroupTable>,
    keys: Vec<VarId>,
    products: Vec<f64>,
}

impl Tables {
    fn clear(&mut self) {
        self.clauses.clear();
        self.factors.clear();
        self.cells.clear();
        self.sums.clear();
        self.shared.clear();
        self.class_of.clear();
        self.groups.clear();
        self.keys.clear();
        self.products.clear();
    }

    /// The classes of `cell`'s support values, if two or more clauses read
    /// it.
    fn classes(&self, cell: VarId) -> Option<&[u32]> {
        let at = self.shared.binary_search_by(|c| c.0.cmp(&cell)).ok()?;
        let (_, from, to) = self.shared[at];
        Some(&self.class_of[from..to])
    }

    fn cells(&self, t: &ClauseTable) -> &[(VarId, usize)] {
        &self.cells[t.cells.0..t.cells.1]
    }

    fn sums(&self, t: &ClauseTable) -> &[f64] {
        &self.sums[t.cells.0..t.cells.1]
    }

    fn keys(&self, g: &GroupTable) -> &[VarId] {
        &self.keys[g.keys.0..g.keys.1]
    }

    /// Group `g`'s table.
    fn table(&self, g: usize) -> &[f64] {
        let (from, to) = self.groups[g].table;
        &self.products[from..to]
    }

    /// `t`'s `κ` with every own cell no other clause reads summed out; the
    /// `g_a` of each shared cell, one entry per class, and the class
    /// counts go to `out`.
    fn effective(&self, t: &ClauseTable, out: &mut Effective) -> f64 {
        out.factors.clear();
        out.sizes.clear();
        if self
            .cells(t)
            .iter()
            .all(|&(v, _)| self.classes(v).is_none())
        {
            return t.summed;
        }
        let mut kappa = t.kappa;
        let mut at = t.factors.0;
        for (&(v, n), &sum) in self.cells(t).iter().zip(self.sums(t)) {
            let g = &self.factors[at..at + n];
            at += n;
            match self.classes(v) {
                Some(of) => {
                    for (value, &gv) in g.iter().enumerate() {
                        if value == 0 || of[value] != of[value - 1] {
                            out.factors.push(gv);
                        }
                    }
                    out.sizes.push(class_count(of));
                }
                None => kappa *= sum,
            }
        }
        kappa
    }
}

/// The clauses per block of a group of `m`: about `√m`, so leaving one
/// clause out costs `O(√m)` tables and the blocks' products `O(√m)`.
fn block_size(m: usize) -> usize {
    (1..).find(|b| b * b >= m).unwrap_or(1)
}

/// The number of classes in a run of class numbers.
fn class_count(of: &[u32]) -> usize {
    of.last().map_or(0, |&k| k as usize + 1)
}

/// One object's factor tables and the buffers that build, sum and pass
/// over them. [`build`](Self::build) replaces the tables with another
/// object's; one workspace per thread serves every object it scores.
#[derive(Debug, Default)]
pub struct Workspace {
    /// The object of the last build, or that build's error; `None` before
    /// the first build and after [`probability`](Self::probability), which
    /// reuses the tables' buffers.
    built: Option<Result<ObjectId, SolverError>>,
    tables: Tables,
    scratch: Scratch,
}

/// The buffers builds and passes clear and refill.
#[derive(Debug, Default)]
struct Scratch {
    layout: Layout,
    walk: Walk,
    /// The non-own variables of a condition, packed, for the shape check;
    /// each with the clause it occurs in, sorted.
    seen: Vec<u64>,
    others: Vec<(VarId, usize)>,
    /// The cells two or more clauses read; each clause's among those,
    /// clause `c` at `keys_at[c]..`.
    shared: Vec<VarId>,
    keys: Vec<VarId>,
    keys_at: Vec<usize>,
    /// Every shared cell a clause reads, with the offset of its `g`.
    reads: Vec<(VarId, usize)>,
    /// One clause's table over its shared cells' classes, before and
    /// after expansion.
    eff: Effective,
    expanded: Vec<f64>,
    /// Each own cell only one clause reads, with that clause, sorted.
    privates: Vec<(VarId, usize)>,
    /// Per group, its outside message, at `Layout::group_at`.
    outside: Vec<f64>,
    /// Per shared cell and class, the sum over the points in that class
    /// (laid out like the classes).
    marginals: Vec<f64>,
    /// Per component, its sum, and the product of the others'.
    sums: Vec<f64>,
    rest: Vec<f64>,
    /// Per point, each group's value and the product of the groups before.
    values: Vec<f64>,
    excluded: Vec<f64>,
    /// Clause indices by group, group `g` at `members_at[g]..`, and each
    /// clause's place among its group's.
    members: Vec<usize>,
    members_at: Vec<usize>,
    position: Vec<usize>,
    /// Per group and block of its clauses, over the group's points, the
    /// outside message times the blocks before, and the blocks after;
    /// group `g`'s at `blocks_at[g]..`.
    before: Vec<f64>,
    after: Vec<f64>,
    blocks_at: Vec<usize>,
    /// One clause's sum with its own table left out.
    left_out: Vec<f64>,
    /// `Pr(e | x_a ∈ k)` per class `k` of one shared cell.
    given: Vec<f64>,
    /// The closed form's clauses that read its shared cell: where the
    /// cell's `g` starts in `Tables::factors`, and `κ` with the clause's
    /// other cells summed out.
    readers: Vec<(usize, f64)>,
}

/// The shared cells, their classes and the components of one pass.
#[derive(Debug, Default)]
struct Layout {
    /// The shared cells, sorted.
    cells: Vec<VarId>,
    /// Support values, their probabilities and classes, cell `i` at
    /// `values_at[i]..`.
    values: Vec<Value>,
    value_probs: Vec<f64>,
    value_class: Vec<u32>,
    values_at: Vec<usize>,
    /// Class probabilities, cell `i` at `class_at[i]..`.
    class_probs: Vec<f64>,
    class_at: Vec<usize>,
    /// Each group's cells as indices into `cells`, group `g` at
    /// `group_cells_at[g]..`, and its offset in per-group buffers.
    group_cells: Vec<usize>,
    group_cells_at: Vec<usize>,
    group_at: Vec<usize>,
    /// Per cell, the groups that read it and the cell's stride in each
    /// group's table; cell `i` at `reads_at[i]..reads_at[i + 1]`.
    reads: Vec<(usize, usize)>,
    reads_at: Vec<usize>,
    /// Each cell's component, then the components' cells and groups:
    /// component `k` at `comp_cells_at[k]..` and `comp_groups_at[k]..`.
    comp_of: Vec<usize>,
    comp_cells: Vec<usize>,
    comp_cells_at: Vec<usize>,
    comp_groups: Vec<usize>,
    comp_groups_at: Vec<usize>,
}

/// The odometer over one component's classes.
#[derive(Debug, Default)]
struct Walk {
    /// Each cell's class.
    digits: Vec<usize>,
    /// Each group's table index at the current point.
    index: Vec<usize>,
    /// `theta[i]`: the product of the first `i` cells' class probabilities.
    theta: Vec<f64>,
}

impl Workspace {
    /// Builds object `o`'s tables from `cond`, its condition, under
    /// `dists`, in place of whatever the workspace held, for
    /// [`joints`](Self::joints). A condition outside the shape (module
    /// docs) is [`SolverError::NotFactored`], and `joints` returns it too.
    pub fn build(
        &mut self,
        o: ObjectId,
        cond: &Condition,
        dists: &VarDists,
    ) -> Result<TableStats, SolverError> {
        let s = &mut self.scratch;
        let built = self.tables.factor(o, cond, dists, &mut s.seen);
        let built = built.map(|_| self.tables.group(s));
        self.built = Some(built.as_ref().map(|_| o).map_err(Clone::clone));
        built
    }

    /// `Pr(φ)` of object `o`'s condition `cond` under `dists`, with the
    /// effort: the clause tables, the groups a build would make and the
    /// points a pass over their classes would visit. When at most one own
    /// cell is read by two clauses, the sum comes straight from the clause
    /// tables (DESIGN.md, "Factor tables"); otherwise the workspace builds
    /// the group tables and passes over each component's classes. Either
    /// way the bits are the pass's. A condition outside the shape is
    /// [`SolverError::NotFactored`], and a value that is not a probability
    /// [`SolverError::InvalidProbability`].
    pub fn probability(
        &mut self,
        o: ObjectId,
        cond: &Condition,
        dists: &VarDists,
    ) -> Result<(f64, TableStats), SolverError> {
        self.built = None;
        if matches!(cond, Condition::False) {
            return Ok((0.0, TableStats::default()));
        }
        let (st, s) = (&mut self.tables, &mut self.scratch);
        match st.factor(o, cond, dists, &mut s.seen)? {
            Some(shared) if shared.count_ones() <= 1 => {
                let x = (shared != 0).then(|| VarId::new(o.0, shared.trailing_zeros() as u16));
                st.closed_form(x, dists, &mut s.readers)
            }
            _ => {
                let mut stats = st.group(s);
                let (p, points) = self.walk_sum(dists)?;
                stats.points = points;
                Ok((p, stats))
            }
        }
    }

    /// `Pr(φ)` of the group tables under `dists`, their pmfs, by one pass
    /// over each component's classes; with the points visited.
    fn walk_sum(&mut self, dists: &VarDists) -> Result<(f64, u64), SolverError> {
        let (st, s) = (&self.tables, &mut self.scratch);
        st.lay_out(dists, &mut s.layout)?;
        let layout = &s.layout;
        let (mut total, mut points) = (1.0, 0);
        for k in 0..layout.comp_cells_at.len() - 1 {
            let groups = layout.comp_groups(k);
            let mut sum = 0.0;
            points += walk(
                layout,
                layout.comp_cells(k),
                &mut s.walk,
                |theta, index, _| {
                    let mut p = theta;
                    for &g in groups {
                        p *= st.table(g)[index[g]];
                    }
                    sum += p;
                },
            );
            total *= sum;
        }
        Ok((checked_probability(total.clamp(0.0, 1.0))?, points))
    }

    /// Every `Pr(φ ∧ e)` for the expressions `e` of `cond`, the condition
    /// of the last build, under `dists`, the pmfs of the last build: one
    /// outside pass (module docs). A build that failed returns its error
    /// here too.
    ///
    /// # Panics
    ///
    /// Panics when no build came since the workspace was made or last ran
    /// [`probability`](Self::probability).
    pub fn joints<'s>(
        &'s mut self,
        cond: &'s Condition,
        dists: &'s VarDists,
    ) -> Result<Joints<'s>, SolverError> {
        let object = match &self.built {
            Some(built) => built.clone()?,
            None => panic!("joints reads the last build, and there is none"),
        };
        let (st, s) = (&self.tables, &mut self.scratch);
        debug_assert_eq!(cond.clauses().len(), st.clauses.len(), "built from {cond}");
        s.others.clear();
        for (c, clause) in cond.clauses().iter().enumerate() {
            let vars = clause.exprs().iter().flat_map(Expr::vars);
            let others = vars.filter(|v| v.object != object);
            s.others.extend(others.map(|v| (v, c)));
        }
        s.others.sort_unstable();
        st.lay_out(dists, &mut s.layout)?;
        let layout = &s.layout;
        let n_groups = st.groups.len();
        s.outside.clear();
        s.outside.resize(layout.group_at[n_groups], 0.0);
        s.marginals.clear();
        s.marginals.resize(layout.class_probs.len(), 0.0);
        s.values.resize(n_groups, 0.0);
        s.excluded.resize(n_groups, 0.0);
        s.sums.clear();
        let mut points = 0;
        for k in 0..layout.comp_cells_at.len() - 1 {
            let (cells, groups) = (layout.comp_cells(k), layout.comp_groups(k));
            let (outside, marginals) = (&mut s.outside, &mut s.marginals);
            let (values, excluded) = (&mut s.values, &mut s.excluded);
            let mut sum = 0.0;
            points += walk(layout, cells, &mut s.walk, |theta, index, digits| {
                let mut before = theta;
                for &g in groups {
                    values[g] = st.table(g)[index[g]];
                    excluded[g] = before;
                    before *= values[g];
                }
                let mut after = 1.0;
                for &g in groups.iter().rev() {
                    outside[layout.group_at[g] + index[g]] += excluded[g] * after;
                    after *= values[g];
                }
                sum += before;
                for (&i, &d) in cells.iter().zip(digits) {
                    marginals[layout.class_at[i] + d] += before;
                }
            });
            s.sums.push(sum);
        }
        // Scale each component's messages by the other components' sums.
        let n_comps = s.sums.len();
        s.rest.clear();
        s.rest.resize(n_comps, 1.0);
        let mut before = 1.0;
        for k in 0..n_comps {
            s.rest[k] = before;
            before *= s.sums[k];
        }
        let mut after = 1.0;
        for k in (0..n_comps).rev() {
            s.rest[k] *= after;
            after *= s.sums[k];
            let rest = s.rest[k];
            for &g in layout.comp_groups(k) {
                for m in &mut s.outside[layout.group_at[g]..layout.group_at[g + 1]] {
                    *m *= rest;
                }
            }
            for &i in layout.comp_cells(k) {
                for m in &mut s.marginals[layout.class_at[i]..layout.class_at[i + 1]] {
                    *m *= rest;
                }
            }
        }
        // Each group's clauses, in clause order, cut into blocks of about
        // the square root of their number; per block, the product of the
        // outside message and every block before it, and of every block
        // after it. A clause's sum with its own table left out is then its
        // block's two products times the block's other clauses
        // (`Joints::joint`).
        s.members.clear();
        s.members.extend(0..st.clauses.len());
        s.members.sort_by_key(|&c| st.clauses[c].group);
        s.members_at.clear();
        s.position.clear();
        s.position.resize(st.clauses.len(), 0);
        s.privates.clear();
        for (k, &c) in s.members.iter().enumerate() {
            let g = st.clauses[c].group;
            while s.members_at.len() <= g {
                s.members_at.push(k);
            }
            for &(v, _) in st.cells(&st.clauses[c]) {
                if st.classes(v).is_none() {
                    s.privates.push((v, c));
                }
            }
        }
        while s.members_at.len() <= n_groups {
            s.members_at.push(s.members.len());
        }
        for g in 0..n_groups {
            for k in s.members_at[g]..s.members_at[g + 1] {
                s.position[s.members[k]] = k - s.members_at[g];
            }
        }
        s.privates.sort_unstable();
        s.before.clear();
        s.after.clear();
        s.blocks_at.clear();
        for g in 0..n_groups {
            let m = s.members_at[g + 1] - s.members_at[g];
            let (len, size) = (st.table(g).len(), block_size(m));
            s.blocks_at.push(s.before.len());
            // The blocks' products, each at `before`'s slot of the next.
            let n_blocks = m.div_ceil(size);
            s.before.resize(s.before.len() + n_blocks * len, 1.0);
            s.after.resize(s.before.len(), 1.0);
            let at = s.blocks_at[g];
            for k in 0..m {
                let c = s.members[s.members_at[g] + k];
                let kappa = st.effective(&st.clauses[c], &mut s.eff);
                expand(kappa, &s.eff.factors, &s.eff.sizes, &mut s.expanded);
                let block = &mut s.after[at + (k / size) * len..][..len];
                for (x, &t) in block.iter_mut().zip(&s.expanded) {
                    *x *= t;
                }
            }
            // `after` holds each block's product; fold it into the running
            // products from the front and from the back.
            let outside = &s.outside[layout.group_at[g]..layout.group_at[g + 1]];
            s.before[at..at + len].copy_from_slice(outside);
            for b in 1..n_blocks {
                for y in 0..len {
                    s.before[at + b * len + y] =
                        s.before[at + (b - 1) * len + y] * s.after[at + (b - 1) * len + y];
                }
            }
            s.expanded.clear();
            s.expanded.resize(len, 1.0);
            for b in (0..n_blocks).rev() {
                for y in 0..len {
                    let product = s.after[at + b * len + y];
                    s.after[at + b * len + y] = s.expanded[y];
                    s.expanded[y] *= product;
                }
            }
        }
        s.blocks_at.push(s.before.len());
        let stats = TableStats {
            groups: n_groups as u64,
            points,
            ..TableStats::default()
        };
        Ok(Joints {
            object,
            cond,
            tables: st,
            dists,
            scratch: s,
            stats,
        })
    }
}

impl Tables {
    /// Replaces the tables with the clause tables of object `o`'s condition
    /// `cond` under `dists`, with `seen` as a buffer. Returns the own cells
    /// two or more clauses read, as a mask over their attributes, or `None`
    /// when an attribute lies past the mask.
    fn factor(
        &mut self,
        o: ObjectId,
        cond: &Condition,
        dists: &VarDists,
        seen: &mut Vec<u64>,
    ) -> Result<Option<u64>, SolverError> {
        self.clear();
        check_shape(o, cond.clauses(), seen)?;
        let (mut read, mut shared, mut fits) = (0u64, 0u64, true);
        for clause in cond.clauses() {
            let (factors, cells) = (self.factors.len(), self.cells.len());
            let (kappa, summed) = self.clause_factors(o, clause, dists)?;
            self.clauses.push(ClauseTable {
                kappa,
                summed,
                factors: (factors, self.factors.len()),
                cells: (cells, self.cells.len()),
                group: 0,
            });
            let mut mask = 0;
            for &(v, _) in &self.cells[cells..] {
                match 1u64.checked_shl(v.attr.0.into()) {
                    Some(bit) => mask |= bit,
                    None => fits = false,
                }
            }
            shared |= read & mask;
            read |= mask;
        }
        Ok(fits.then_some(shared))
    }

    /// `Pr(φ)` off the clause tables when `x`, if any, is the one own cell
    /// two clauses read, with the effort a build and a pass would report:
    /// the pass's sum in the pass's order, with no group tables, no layout
    /// and no odometer (DESIGN.md, "Factor tables"). `readers` is a buffer.
    fn closed_form(
        &self,
        x: Option<VarId>,
        dists: &VarDists,
        readers: &mut Vec<(usize, f64)>,
    ) -> Result<(f64, TableStats), SolverError> {
        // The clauses that read no shared cell multiply, in clause order,
        // into the table of the group with the empty key; each clause that
        // reads `x` weighs its classes by its `g` and its other cells'
        // sums.
        let mut constant = None;
        readers.clear();
        for t in &self.clauses {
            let cells = self.cells(t);
            match x.and_then(|x| cells.iter().position(|&(v, _)| v == x)) {
                None => *constant.get_or_insert(1.0) *= (1.0 - t.summed).clamp(0.0, 1.0),
                Some(k) => {
                    let (mut kappa, mut at, mut g) = (t.kappa, t.factors.0, 0);
                    for (j, (&(_, n), &sum)) in cells.iter().zip(self.sums(t)).enumerate() {
                        if j == k {
                            g = at;
                        } else {
                            kappa *= sum;
                        }
                        at += n;
                    }
                    readers.push((g, kappa));
                }
            }
        }
        let mut stats = TableStats {
            clause_tables: self.clauses.len() as u64,
            ..TableStats::default()
        };
        // The pass multiplies the components' sums from 1.0, the empty
        // key's first; that component's one point has `θ = 1`.
        let mut total = 1.0;
        if let Some(constant) = constant {
            total *= constant;
            stats.groups += 1;
            stats.points += 1;
        }
        if let Some(x) = x {
            // A class starts where some reader weighs a value unlike the
            // one before; its probability sums its values' in value order,
            // and its table is its first value's, its readers multiplied in
            // clause order.
            let table = |value: usize| {
                readers.iter().fold(1.0, |t, &(at, kappa)| {
                    t * (1.0 - kappa * self.factors[at + value]).clamp(0.0, 1.0)
                })
            };
            let starts = |value: usize| {
                let bits = |at: usize| self.factors[at].to_bits();
                readers
                    .iter()
                    .any(|&(at, _)| bits(at + value) != bits(at + value - 1))
            };
            let mut probs = dists.pmf(x)?.probs().iter().filter(|&&p| p > 0.0);
            let (mut p, mut t) = (*probs.next().expect("a pmf has mass"), table(0));
            let (mut sum, mut classes) = (0.0, 1);
            for (value, &q) in (1..).zip(probs) {
                if starts(value) {
                    sum += p * t;
                    (p, t) = (q, table(value));
                    classes += 1;
                } else {
                    p += q;
                }
            }
            sum += p * t;
            total *= sum;
            stats.groups += 1;
            stats.points += classes;
        }
        Ok((checked_probability(total.clamp(0.0, 1.0))?, stats))
    }

    /// Groups the clause tables of the last [`factor`](Self::factor) by
    /// their shared cells and multiplies each group's tables, with `s`'s
    /// buffers.
    fn group(&mut self, s: &mut Scratch) -> TableStats {
        // The cells two or more clauses read, and each clause's among them.
        s.shared.clear();
        s.shared.extend(self.cells.iter().map(|&(v, _)| v));
        s.shared.sort_unstable();
        keep_repeated(&mut s.shared);
        s.keys.clear();
        s.keys_at.clear();
        s.reads.clear();
        for t in &self.clauses {
            s.keys_at.push(s.keys.len());
            let mut at = t.factors.0;
            for &(v, n) in self.cells(t) {
                if s.shared.binary_search(&v).is_ok() {
                    s.keys.push(v);
                    s.reads.push((v, at));
                }
                at += n;
            }
        }
        s.keys_at.push(s.keys.len());
        // Each shared cell's classes: a value starts a new class when some
        // clause reading the cell weighs it unlike the value before.
        s.reads.sort_unstable();
        let mut i = 0;
        while i < s.reads.len() {
            let v = s.reads[i].0;
            let mut j = i;
            while j < s.reads.len() && s.reads[j].0 == v {
                j += 1;
            }
            let n = self
                .cells
                .iter()
                .find(|c| c.0 == v)
                .expect("a clause reads it")
                .1;
            let from = self.class_of.len();
            let mut class = 0;
            for value in 0..n {
                let differs = |&(_, at): &(VarId, usize)| {
                    self.factors[at + value].to_bits() != self.factors[at + value - 1].to_bits()
                };
                if value > 0 && s.reads[i..j].iter().any(differs) {
                    class += 1;
                }
                self.class_of.push(class);
            }
            self.shared.push((v, from, self.class_of.len()));
            i = j;
        }
        // Group the clauses by their shared cells, and multiply each
        // group's tables.
        s.members.clear();
        s.members.extend(0..self.clauses.len());
        {
            let (keys, at) = (&s.keys, &s.keys_at);
            let key = |c: usize| &keys[at[c]..at[c + 1]];
            s.members
                .sort_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));
        }
        let mut start = 0;
        while start < s.members.len() {
            let first = s.members[start];
            let key = &s.keys[s.keys_at[first]..s.keys_at[first + 1]];
            let mut end = start + 1;
            while end < s.members.len() {
                let c = s.members[end];
                if &s.keys[s.keys_at[c]..s.keys_at[c + 1]] != key {
                    break;
                }
                end += 1;
            }
            let run = &s.members[start..end];
            let from = self.products.len();
            if key.is_empty() {
                // No shared cell: every member is its summed constant.
                let mut product = 1.0;
                for &c in run {
                    product *= (1.0 - self.clauses[c].summed).clamp(0.0, 1.0);
                }
                self.products.push(product);
            } else {
                for &c in run {
                    let kappa = self.effective(&self.clauses[c], &mut s.eff);
                    expand(kappa, &s.eff.factors, &s.eff.sizes, &mut s.expanded);
                    if self.products.len() == from {
                        self.products.resize(from + s.expanded.len(), 1.0);
                    }
                    for (g, &x) in self.products[from..].iter_mut().zip(&s.expanded) {
                        *g *= x;
                    }
                }
            }
            for &c in run {
                self.clauses[c].group = self.groups.len();
            }
            let keys = (self.keys.len(), self.keys.len() + key.len());
            self.keys.extend_from_slice(key);
            self.groups.push(GroupTable {
                keys,
                table: (from, self.products.len()),
            });
            start = end;
        }
        TableStats {
            clause_tables: self.clauses.len() as u64,
            groups: self.groups.len() as u64,
            points: 0,
        }
    }

    /// Appends `clause`'s `g_a` for each own cell `a` of object `o` it
    /// reads, in variable order, to `factors`, and those cells with their
    /// support sizes to `cells` and their sums to `sums`; returns its `κ`,
    /// and `κ` with every own cell summed out.
    fn clause_factors(
        &mut self,
        o: ObjectId,
        clause: &Clause,
        dists: &VarDists,
    ) -> Result<(f64, f64), SolverError> {
        let mut kappa = 1.0;
        for e in clause.exprs().iter().filter(|e| own_cell(o, e).is_none()) {
            kappa *= (1.0 - dists.expr_prob(e)?).clamp(0.0, 1.0);
        }
        let start = self.cells.len();
        for e in clause.exprs() {
            if let Some(v) = own_cell(o, e) {
                if !self.cells[start..].iter().any(|&(u, _)| u == v) {
                    self.cells.push((v, 0));
                }
            }
        }
        self.cells[start..].sort_unstable();
        let mut summed = kappa;
        for cell in &mut self.cells[start..] {
            let v = cell.0;
            let probs = dists.pmf(v)?.probs();
            let from = self.factors.len();
            self.factors
                .extend(probs.iter().filter(|&&p| p > 0.0).map(|_| 1.0));
            cell.1 = self.factors.len() - from;
            let values = || {
                let positive = probs.iter().enumerate().filter(|(_, &p)| p > 0.0);
                positive.map(|(value, _)| value as Value)
            };
            // `g *= (1 − Pr(e | v)).clamp(0, 1)`, which for a var-const
            // `e` is `g · 0.0` where `e` holds and `g · 1.0 = g` elsewhere.
            for e in clause.exprs().iter().filter(|e| e.mentions(v)) {
                let g = &mut self.factors[from..];
                match e.rhs() {
                    Operand::Const(c) => {
                        for (value, g) in values().zip(g) {
                            if e.op().eval(value, c) {
                                *g *= 0.0;
                            }
                        }
                    }
                    Operand::Var(r) => {
                        // `e` with `v = value` is `w op value`, as
                        // `Expr::substitute` writes it.
                        let (w, op) = if e.var() == v {
                            (r, e.op().converse())
                        } else {
                            (e.var(), e.op())
                        };
                        let other = dists.pmf(w)?;
                        for (value, g) in values().zip(g) {
                            let rest = Expr::new(w, op, Operand::Const(value));
                            let Operand::Const(c) = rest.rhs() else {
                                unreachable!("a var-const expression")
                            };
                            *g *= (1.0 - const_prob(other, rest.op(), c)).clamp(0.0, 1.0);
                        }
                    }
                }
            }
            let positive = probs.iter().filter(|&&p| p > 0.0);
            let sum = positive
                .zip(&self.factors[from..])
                .map(|(p, g)| p * g)
                .sum::<f64>();
            self.sums.push(sum);
            summed *= sum;
        }
        Ok((kappa, summed))
    }

    /// Fills `layout` for the groups under `dists`.
    fn lay_out(&self, dists: &VarDists, layout: &mut Layout) -> Result<(), SolverError> {
        let st = self;
        layout.cells.clear();
        layout.cells.extend(st.shared.iter().map(|c| c.0));
        layout.values.clear();
        layout.value_probs.clear();
        layout.value_class.clear();
        layout.values_at.clear();
        layout.class_probs.clear();
        layout.class_at.clear();
        for &(v, from, to) in &st.shared {
            layout.values_at.push(layout.values.len());
            layout.class_at.push(layout.class_probs.len());
            let positive = dists.pmf(v)?.probs().iter().enumerate();
            let positive = positive.filter(|(_, &p)| p > 0.0);
            for ((value, &p), &k) in positive.zip(&st.class_of[from..to]) {
                layout.values.push(value as Value);
                layout.value_probs.push(p);
                layout.value_class.push(k);
                if k as usize == layout.class_probs.len() - layout.class_at.last().unwrap() {
                    layout.class_probs.push(p);
                } else {
                    *layout.class_probs.last_mut().expect("a class started") += p;
                }
            }
        }
        layout.values_at.push(layout.values.len());
        layout.class_at.push(layout.class_probs.len());
        layout.group_cells.clear();
        layout.group_cells_at.clear();
        layout.group_at.clear();
        let mut at = 0;
        for g in &st.groups {
            layout.group_cells_at.push(layout.group_cells.len());
            layout.group_at.push(at);
            at += g.table.1 - g.table.0;
            for v in st.keys(g) {
                let i = layout.cells.binary_search(v).expect("a shared cell");
                layout.group_cells.push(i);
            }
        }
        layout.group_cells_at.push(layout.group_cells.len());
        layout.group_at.push(at);
        debug_assert!(
            (0..st.groups.len())
                .all(|g| layout.group_sizes(g).product::<usize>() == st.table(g).len()),
            "a group table's size is not its cells' class product"
        );
        // Each cell's stride in the tables of the groups that read it.
        layout.reads.clear();
        layout.reads_at.clear();
        for i in 0..layout.cells.len() {
            layout.reads_at.push(layout.reads.len());
            for g in 0..st.groups.len() {
                let cells = layout.cells_of(g);
                if let Some(k) = cells.iter().position(|&j| j == i) {
                    let stride = cells[k + 1..].iter().map(|&j| layout.size(j)).product();
                    layout.reads.push((g, stride));
                }
            }
        }
        layout.reads_at.push(layout.reads.len());
        // Components: cells joined by a group that reads both. A group that
        // reads no cell is a component of its own, with one point.
        let n = layout.cells.len();
        layout.comp_of.clear();
        layout.comp_of.extend(0..n);
        for g in 0..st.groups.len() {
            let cells = &layout.group_cells[layout.group_cells_at[g]..layout.group_cells_at[g + 1]];
            if let Some(&first) = cells.first() {
                let into = layout.comp_of[first];
                for &i in &cells[1..] {
                    let from = layout.comp_of[i];
                    if from != into {
                        for c in &mut layout.comp_of {
                            if *c == from {
                                *c = into;
                            }
                        }
                    }
                }
            }
        }
        layout.comp_cells.clear();
        layout.comp_cells_at.clear();
        layout.comp_groups.clear();
        layout.comp_groups_at.clear();
        if st.groups.first().is_some_and(|g| g.keys.0 == g.keys.1) {
            layout.comp_cells_at.push(0);
            layout.comp_groups_at.push(0);
            layout.comp_groups.push(0);
        }
        for root in 0..n {
            if layout.comp_of[root] != root {
                continue;
            }
            layout.comp_cells_at.push(layout.comp_cells.len());
            layout.comp_groups_at.push(layout.comp_groups.len());
            for i in 0..n {
                if layout.comp_of[i] == root {
                    layout.comp_cells.push(i);
                }
            }
            for g in 0..st.groups.len() {
                if layout
                    .cells_of(g)
                    .first()
                    .is_some_and(|&i| layout.comp_of[i] == root)
                {
                    layout.comp_groups.push(g);
                }
            }
        }
        layout.comp_cells_at.push(layout.comp_cells.len());
        layout.comp_groups_at.push(layout.comp_groups.len());
        Ok(())
    }
}

impl Layout {
    /// The class count of cell `i`.
    fn size(&self, i: usize) -> usize {
        self.class_at[i + 1] - self.class_at[i]
    }

    /// The cells group `g` reads.
    fn cells_of(&self, g: usize) -> &[usize] {
        &self.group_cells[self.group_cells_at[g]..self.group_cells_at[g + 1]]
    }

    /// The class counts of the cells group `g` reads.
    fn group_sizes(&self, g: usize) -> impl Iterator<Item = usize> + '_ {
        self.cells_of(g).iter().map(|&i| self.size(i))
    }

    /// The cells of component `k`.
    fn comp_cells(&self, k: usize) -> &[usize] {
        &self.comp_cells[self.comp_cells_at[k]..self.comp_cells_at[k + 1]]
    }

    /// The groups of component `k`.
    fn comp_groups(&self, k: usize) -> &[usize] {
        &self.comp_groups[self.comp_groups_at[k]..self.comp_groups_at[k + 1]]
    }
}

/// A clause's table over its shared cells' classes: their `g_a` and class
/// counts.
#[derive(Debug, Default)]
struct Effective {
    factors: Vec<f64>,
    sizes: Vec<usize>,
}

/// Keeps one copy of each value `sorted` holds twice or more.
fn keep_repeated(sorted: &mut Vec<VarId>) {
    let mut kept = 0;
    for i in 1..sorted.len() {
        if sorted[i] == sorted[i - 1] && (kept == 0 || sorted[kept - 1] != sorted[i]) {
            sorted[kept] = sorted[i];
            kept += 1;
        }
    }
    sorted.truncate(kept);
}

/// Checks the shape of `clauses` for object `o` (module docs), with
/// `seen` as a buffer.
fn check_shape<'c>(
    o: ObjectId,
    clauses: impl IntoIterator<Item = &'c Clause>,
    seen: &mut Vec<u64>,
) -> Result<(), SolverError> {
    let key = |v: VarId| u64::from(v.object.0) << 16 | u64::from(v.attr.0);
    seen.clear();
    for clause in clauses {
        for e in clause.exprs() {
            match e.rhs_var() {
                Some(w) if e.var().object == o && w.object == o => {
                    return Err(SolverError::NotFactored(w));
                }
                _ => {}
            }
            seen.extend(e.vars().filter(|v| v.object != o).map(key));
        }
    }
    seen.sort_unstable();
    match seen.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(SolverError::NotFactored(VarId::new(
            (w[0] >> 16) as u32,
            w[0] as u16,
        ))),
        None => Ok(()),
    }
}

/// Writes `1 − κ · Π_a g_a(y_a)` for every point `y` of the cells with
/// `sizes` classes, whose `g_a` are concatenated in `factors`, the first
/// cell slowest, into `out`.
fn expand(kappa: f64, factors: &[f64], sizes: &[usize], out: &mut Vec<f64>) {
    out.clear();
    out.push(kappa);
    let mut factors = factors;
    for &n in sizes {
        let (g, rest) = factors.split_at(n);
        factors = rest;
        // Grow in place from the back: entry `j` becomes entries
        // `j·n .. j·n + n`.
        let m = out.len();
        out.resize(m * n, 0.0);
        for j in (0..m).rev() {
            let x = out[j];
            for (v, &gv) in g.iter().enumerate().rev() {
                out[j * n + v] = x * gv;
            }
        }
    }
    for x in out.iter_mut() {
        *x = (1.0 - *x).clamp(0.0, 1.0);
    }
}

/// The own cell of object `o` that `e` mentions, if any. A condition that
/// passed [`check_shape`] has at most one per expression.
fn own_cell(o: ObjectId, e: &Expr) -> Option<VarId> {
    e.vars().find(|v| v.object == o)
}

/// `Pr(e | v = value)` for an expression `e` mentioning `v`.
fn given(e: &Expr, v: VarId, value: Value, dists: &VarDists) -> Result<f64, SolverError> {
    match e.substitute(v, value) {
        ExprOrBool::Bool(b) => Ok(if b { 1.0 } else { 0.0 }),
        ExprOrBool::Expr(rest) => dists.expr_prob(&rest),
    }
}

/// Visits every point of the classes of `cells` (indices into
/// `layout.cells`), the last cell fastest, with `θ` of the point, each
/// group's table index (those of groups reading none of `cells` stay 0)
/// and each of `cells`' class. Returns the number of points.
fn walk(
    layout: &Layout,
    cells: &[usize],
    w: &mut Walk,
    mut visit: impl FnMut(f64, &[usize], &[usize]),
) -> u64 {
    let k = cells.len();
    w.digits.clear();
    w.digits.resize(k, 0);
    w.index.clear();
    w.index.resize(layout.group_cells_at.len() - 1, 0);
    w.theta.clear();
    w.theta.push(1.0);
    for (j, &i) in cells.iter().enumerate() {
        let p = w.theta[j] * layout.class_probs[layout.class_at[i]];
        w.theta.push(p);
    }
    let mut points = 0;
    loop {
        visit(w.theta[k], &w.index, &w.digits);
        points += 1;
        // Advance the odometer: the last cell that has a next class steps,
        // every cell after it wraps to its first.
        let mut j = k;
        loop {
            if j == 0 {
                return points;
            }
            j -= 1;
            let i = cells[j];
            let reads = &layout.reads[layout.reads_at[i]..layout.reads_at[i + 1]];
            if w.digits[j] + 1 < layout.size(i) {
                w.digits[j] += 1;
                for &(g, stride) in reads {
                    w.index[g] += stride;
                }
                break;
            }
            for &(g, stride) in reads {
                w.index[g] -= w.digits[j] * stride;
            }
            w.digits[j] = 0;
        }
        for (l, &i) in cells.iter().enumerate().skip(j) {
            w.theta[l + 1] = w.theta[l] * layout.class_probs[layout.class_at[i] + w.digits[l]];
        }
    }
}

/// `Pr(φ ∧ e)` for the expressions of one object's condition, read off
/// the outside pass of [`Workspace::joints`].
#[derive(Debug)]
pub struct Joints<'s> {
    object: ObjectId,
    cond: &'s Condition,
    tables: &'s Tables,
    dists: &'s VarDists,
    scratch: &'s mut Scratch,
    stats: TableStats,
}

impl Joints<'_> {
    /// The pass's effort: the groups and the points.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// `Pr(φ ∧ e)` for an expression `e` of the condition. An `e` that is
    /// not one is [`SolverError::NotFactored`].
    pub fn joint(&mut self, e: &Expr) -> Result<f64, SolverError> {
        let o = self.object;
        let s = &mut *self.scratch;
        let layout = &s.layout;
        // The shared cell `e` reads, if any.
        let shared =
            own_cell(o, e).and_then(|v| layout.cells.binary_search(&v).ok().map(|i| (v, i)));
        let other = e.vars().find(|v| v.object != o);
        if let (Some((_, i)), None) = (shared, other) {
            // A var-const expression on a shared cell: split each class
            // by its values' probabilities.
            let mut sum = 0.0;
            for at in layout.values_at[i]..layout.values_at[i + 1] {
                if e.eval(|_| layout.values[at]) {
                    let k = layout.class_at[i] + layout.value_class[at] as usize;
                    sum += s.marginals[k] * (layout.value_probs[at] / layout.class_probs[k]);
                }
            }
            return Ok(sum);
        }
        // The clause of `e`: the one its non-own variable, or else its
        // private own cell, occurs in.
        let key = other.unwrap_or(e.var());
        let list = if other.is_some() {
            &s.others
        } else {
            &s.privates
        };
        let st = self.tables;
        let c = match list.binary_search_by(|&(u, _)| u.cmp(&key)) {
            Ok(at) if self.cond.clauses()[list[at].1].exprs().contains(e) => list[at].1,
            _ => return Err(SolverError::NotFactored(key)),
        };
        let g = st.clauses[c].group;
        let len = st.table(g).len();
        let members = &s.members[s.members_at[g]..s.members_at[g + 1]];
        let size = block_size(members.len());
        let (k, block) = (s.position[c], s.position[c] / size);
        let at = s.blocks_at[g] + block * len;
        s.left_out.clear();
        let sides = s.before[at..at + len].iter().zip(&s.after[at..at + len]);
        s.left_out.extend(sides.map(|(b, a)| b * a));
        let end = members.len().min((block + 1) * size);
        for (j, &other) in members.iter().enumerate().take(end).skip(block * size) {
            if j != k {
                let kappa = st.effective(&st.clauses[other], &mut s.eff);
                expand(kappa, &s.eff.factors, &s.eff.sizes, &mut s.expanded);
                for (x, &t) in s.left_out.iter_mut().zip(&s.expanded) {
                    *x *= t;
                }
            }
        }
        let outside = &s.left_out[..];
        let Some((v, i)) = shared else {
            // `e` reads no cell another clause reads: it is independent of
            // the other clauses, and `e` implies its own.
            return Ok(self.dists.expr_prob(e)? * outside.iter().sum::<f64>());
        };
        // A var-var expression on shared cell `v`: weigh each point of the
        // clause's table by `Pr(e | v)` over its class of `v`.
        let cells = layout.cells_of(g);
        let k = cells
            .iter()
            .position(|&j| j == i)
            .expect("the clause reads v");
        let stride: usize = cells[k + 1..].iter().map(|&j| layout.size(j)).product();
        let n = layout.size(i);
        s.given.clear();
        s.given.resize(n, 0.0);
        for at in layout.values_at[i]..layout.values_at[i + 1] {
            let class = layout.value_class[at] as usize;
            let share = layout.value_probs[at] / layout.class_probs[layout.class_at[i] + class];
            s.given[class] += share * given(e, v, layout.values[at], self.dists)?;
        }
        let mut sum = 0.0;
        for (y, &m) in outside.iter().enumerate() {
            sum += m * s.given[(y / stride) % n];
        }
        Ok(sum)
    }

    /// `G(o, e)` (Definition 6) for an expression `e` of the condition,
    /// with `p_phi` as `Pr(φ)`: 0 for a decided `e`, else from
    /// [`joint`](Self::joint).
    pub fn utility(&mut self, e: &Expr, p_phi: f64) -> Result<f64, SolverError> {
        let p_e = self.dists.expr_prob(e)?;
        if !is_open(p_e) {
            return Ok(0.0);
        }
        let p_and_true = self.joint(e)?;
        let p_and_false = (p_phi - p_and_true).clamp(0.0, 1.0);
        Ok(utility_from_joint(p_phi, p_e, p_and_true, p_and_false))
    }
}

/// `Pr(φ(o))` by a fresh workspace ([`Workspace::probability`]): a
/// convenience for one-off checks.
pub fn probability(o: ObjectId, cond: &Condition, dists: &VarDists) -> Result<f64, SolverError> {
    Ok(Workspace::default().probability(o, cond, dists)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdpllSolver, Solver};
    use bc_bayes::Pmf;

    fn v(o: u32, a: u16) -> VarId {
        VarId::new(o, a)
    }

    /// φ(o0) over own cells x = (0,0), y = (0,1) and dominator cells:
    /// (x > 2 ∨ p < 3) ∧ (x > q ∨ y > 1) ∧ (r > 4 ∨ s < 2) ∧ (y > t).
    fn shaped() -> (Condition, VarDists) {
        let (x, y) = (v(0, 0), v(0, 1));
        let (p, q, r, s, t) = (v(1, 0), v(2, 0), v(3, 0), v(4, 1), v(5, 1));
        let cond = Condition::from_clauses(vec![
            vec![Expr::gt(x, 2), Expr::lt(p, 3)],
            vec![Expr::var_gt(x, q), Expr::gt(y, 1)],
            vec![Expr::gt(r, 4), Expr::lt(s, 2)],
            vec![Expr::var_gt(y, t)],
        ]);
        let weights = [
            vec![1.0, 2.0, 0.0, 3.0, 1.0, 2.0],
            vec![0.5, 1.0, 1.0, 2.0, 0.0, 1.0],
        ];
        let dists = [x, y, p, q, r, s, t]
            .into_iter()
            .enumerate()
            .map(|(i, var)| (var, Pmf::from_weights(weights[i % 2].clone())))
            .collect();
        (cond, dists)
    }

    #[test]
    fn probability_matches_adpll() {
        let (cond, dists) = shaped();
        let want = AdpllSolver::new().probability(&cond, &dists).unwrap();
        let mut workspace = Workspace::default();
        let (got, pass) = workspace.probability(ObjectId(0), &cond, &dists).unwrap();
        // Groups {}, {x}, {x, y} and {y}.
        assert_eq!((pass.clause_tables, pass.groups), (4, 4));
        assert!((got - want).abs() <= 1e-12, "{got} vs {want}");
        // One component over x and y, at most 5 × 5 points (fewer where
        // values fall into one class), and the constant group's one.
        assert!(pass.points <= 5 * 5 + 1, "{pass:?}");
        assert_eq!(probability(ObjectId(0), &Condition::True, &dists), Ok(1.0));
        assert_eq!(probability(ObjectId(0), &Condition::False, &dists), Ok(0.0));
    }

    #[test]
    fn every_joint_matches_a_solve_of_the_conjunction() {
        let (cond, dists) = shaped();
        let solver = AdpllSolver::new();
        let mut workspace = Workspace::default();
        workspace.build(ObjectId(0), &cond, &dists).unwrap();
        let mut joints = workspace.joints(&cond, &dists).unwrap();
        for e in cond.exprs() {
            let want = solver.probability(&cond.and_expr(*e), &dists).unwrap();
            let got = joints.joint(e).unwrap();
            assert!((got - want).abs() <= 1e-12, "{e}: {got} vs {want}");
        }
        let stranger = Expr::lt(v(9, 0), 2);
        assert_eq!(
            joints.joint(&stranger),
            Err(SolverError::NotFactored(v(9, 0)))
        );
    }

    #[test]
    fn values_every_clause_weighs_alike_share_one_class() {
        // x has 100 values; its clauses split them only at 30 and 70, so
        // the pass visits 3 classes; y is read by one clause and is summed
        // out.
        let (x, y, p, q) = (v(0, 0), v(0, 1), v(1, 0), v(2, 0));
        let cond = Condition::from_clauses(vec![
            vec![Expr::gt(x, 29), Expr::lt(p, 3)],
            vec![Expr::lt(x, 70), Expr::gt(y, 4), Expr::lt(q, 2)],
        ]);
        let dists: VarDists = [
            (x, Pmf::uniform(100)),
            (y, Pmf::uniform(10)),
            (p, Pmf::uniform(6)),
            (q, Pmf::uniform(6)),
        ]
        .into_iter()
        .collect();
        let mut workspace = Workspace::default();
        let (got, pass) = workspace.probability(ObjectId(0), &cond, &dists).unwrap();
        assert_eq!(pass.points, 3);
        let want = AdpllSolver::new().probability(&cond, &dists).unwrap();
        assert!((got - want).abs() <= 1e-12, "{got} vs {want}");
        workspace.build(ObjectId(0), &cond, &dists).unwrap();
        let mut joints = workspace.joints(&cond, &dists).unwrap();
        let solver = AdpllSolver::new();
        for e in cond.exprs() {
            let want = solver.probability(&cond.and_expr(*e), &dists).unwrap();
            let got = joints.joint(e).unwrap();
            assert!((got - want).abs() <= 1e-12, "{e}: {got} vs {want}");
        }
    }

    #[test]
    fn conditions_outside_the_shape_are_typed_errors() {
        let (x, y, p) = (v(0, 0), v(0, 1), v(1, 0));
        let dists: VarDists = [x, y, p]
            .into_iter()
            .map(|var| (var, Pmf::uniform(4)))
            .collect();
        // A dominator cell in two clauses.
        let shared = Condition::from_clauses(vec![
            vec![Expr::gt(x, 1), Expr::lt(p, 2)],
            vec![Expr::gt(y, 2), Expr::gt(p, 0)],
        ]);
        // A var-var expression between two own cells.
        let own_pair = Condition::from_clauses(vec![vec![Expr::var_gt(x, y), Expr::lt(p, 1)]]);
        for (cond, var) in [(shared, p), (own_pair, y)] {
            assert_eq!(
                probability(ObjectId(0), &cond, &dists),
                Err(SolverError::NotFactored(var)),
                "{cond}"
            );
        }
    }

    #[test]
    fn a_failed_build_is_an_error_not_a_sum() {
        let (x, y, p) = (v(0, 0), v(0, 1), v(1, 0));
        let dists: VarDists = [x, y, p]
            .into_iter()
            .map(|var| (var, Pmf::uniform(4)))
            .collect();
        let fine = Condition::from_clauses(vec![vec![Expr::gt(x, 1), Expr::lt(p, 2)]]);
        let broken = Condition::from_clauses(vec![
            vec![Expr::gt(x, 1), Expr::lt(p, 2)],
            vec![Expr::gt(y, 2), Expr::gt(p, 0)],
        ]);
        let not_factored = Err(SolverError::NotFactored(p));
        let mut workspace = Workspace::default();
        workspace.build(ObjectId(0), &fine, &dists).unwrap();
        assert_eq!(
            workspace.build(ObjectId(0), &broken, &dists),
            not_factored.clone()
        );
        // Neither the tables of the build before nor an empty sum.
        let joints = workspace.joints(&broken, &dists).map(|_| ());
        assert_eq!(joints, not_factored.clone().map(|_| ()));
        let summed = workspace.probability(ObjectId(0), &broken, &dists);
        assert_eq!(summed, not_factored.map(|_| (0.0, TableStats::default())));
    }

    mod closed_form {
        use super::*;
        use bc_ctable::CmpOp;
        use proptest::prelude::*;
        use proptest::TestRunner;

        const OPS: [CmpOp; 6] = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        const ATTRS: u16 = 4;
        const CARD: u16 = 6;

        /// A condition of object 0 of the c-table's shape, and the pmfs of
        /// its cells. The first `own` attributes are the object's missing
        /// cells; dominator `p` gives one clause, each expression on one
        /// attribute: a var-const or var-var one on the own cell, or a
        /// var-const one on `p`'s. One draw in about forty leaves the
        /// shape: an expression on another dominator's cell, or a var-var
        /// one between two own cells. Pmfs have one to six values of mass.
        fn arb_condition() -> impl Strategy<Value = (Condition, VarDists)> {
            let expr = (0..ATTRS, 0u8..40, 0usize..6, 0..CARD + 1);
            let clauses = prop::collection::vec(prop::collection::vec(expr, 1..5), 1..7);
            let pmfs = prop::collection::vec(
                prop::collection::vec((0..CARD, 0.05f64..1.0), 1..7),
                7 * ATTRS as usize,
            );
            (1..ATTRS + 1, clauses, pmfs).prop_map(|(own, clauses, pmfs)| {
                let raw: Vec<Vec<Expr>> = clauses
                    .iter()
                    .enumerate()
                    .map(|(i, exprs)| {
                        let p = i as u32 + 1;
                        let mut seen = Vec::new();
                        let mut clause = Vec::new();
                        for &(a, kind, op, c) in exprs {
                            if seen.contains(&a) {
                                continue;
                            }
                            seen.push(a);
                            let (op, c) = (OPS[op], Operand::Const(c));
                            let b = (a + 1) % own;
                            clause.push(match kind {
                                0 if p > 1 => Expr::new(v(p - 1, a), op, c),
                                1 if a < own && b != a => {
                                    Expr::new(v(0, a), op, Operand::Var(v(0, b)))
                                }
                                2..=11 if a < own => Expr::new(v(0, a), op, Operand::Var(v(p, a))),
                                12..=27 if a < own => Expr::new(v(0, a), op, c),
                                _ => Expr::new(v(p, a), op, c),
                            });
                        }
                        clause
                    })
                    .collect();
                let dists = pmfs
                    .iter()
                    .enumerate()
                    .map(|(i, entries)| {
                        let mut w = vec![0.0; CARD as usize];
                        for &(value, m) in entries {
                            w[value as usize] += m;
                        }
                        let cell = v((i / ATTRS as usize) as u32, (i % ATTRS as usize) as u16);
                        (cell, Pmf::from_weights(w))
                    })
                    .collect();
                (Condition::from_clauses(raw), dists)
            })
        }

        /// The own cells of object 0 two or more clauses of `cond` read.
        fn shared_cells(cond: &Condition) -> Vec<VarId> {
            let mut cells: Vec<VarId> = Vec::new();
            for clause in cond.clauses() {
                let mut own: Vec<VarId> = clause
                    .exprs()
                    .iter()
                    .filter_map(|e| own_cell(ObjectId(0), e))
                    .collect();
                own.sort_unstable();
                own.dedup();
                cells.extend(own);
            }
            cells.sort_unstable();
            keep_repeated(&mut cells);
            cells
        }

        /// [`Workspace::probability`] by the group tables and the pass over
        /// every condition: the reference the closed form is checked
        /// against.
        fn probability_by_walk(
            workspace: &mut Workspace,
            o: ObjectId,
            cond: &Condition,
            dists: &VarDists,
        ) -> Result<(f64, TableStats), SolverError> {
            if matches!(cond, Condition::False) {
                return Ok((0.0, TableStats::default()));
            }
            let mut stats = workspace.build(o, cond, dists)?;
            let (p, points) = workspace.walk_sum(dists)?;
            stats.points = points;
            Ok((p, stats))
        }

        /// Every `g` the last factoring of `workspace` holds for `cond`,
        /// against `Expr::substitute`'s `Pr(e | v = value)`, bit for bit.
        fn factors_match_substitution(
            workspace: &Workspace,
            cond: &Condition,
            dists: &VarDists,
        ) -> Result<(), TestCaseError> {
            let st = &workspace.tables;
            for (clause, t) in cond.clauses().iter().zip(&st.clauses) {
                let mut at = t.factors.0;
                for &(cell, n) in st.cells(t) {
                    let values = dists.pmf(cell).unwrap().support();
                    for (i, value) in values.enumerate() {
                        let mut g = 1.0;
                        for e in clause.exprs().iter().filter(|e| e.mentions(cell)) {
                            g *= (1.0 - given(e, cell, value, dists).unwrap()).clamp(0.0, 1.0);
                        }
                        prop_assert_eq!(st.factors[at + i].to_bits(), g.to_bits(), "{}", cell);
                    }
                    at += n;
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(
                if cfg!(debug_assertions) { 512 } else { 4096 }
            ))]

            /// The closed form against the group tables and their pass, in
            /// one reused workspace each: the same bits, the same effort,
            /// the same error.
            #[test]
            fn closed_form_has_the_walks_bits(
                cases in prop::collection::vec(arb_condition(), 1..4),
            ) {
                let (mut closed, mut walked) = (Workspace::default(), Workspace::default());
                for (cond, dists) in &cases {
                    let o = ObjectId(0);
                    let bits = |r: Result<(f64, TableStats), SolverError>| {
                        r.map(|(p, stats)| (p.to_bits(), stats))
                    };
                    let got = bits(closed.probability(o, cond, dists));
                    let want = bits(probability_by_walk(&mut walked, o, cond, dists));
                    prop_assert_eq!(&got, &want, "{}", cond);
                    if got.is_ok() {
                        factors_match_substitution(&closed, cond, dists)?;
                    }
                }
            }
        }

        #[test]
        fn conditions_cover_every_path() {
            let mut runner = TestRunner::new(ProptestConfig::default(), "cover");
            let strategy = arb_condition();
            // Out of shape; no, one and two or more shared cells; a
            // var-var expression on the one shared cell; a one-value
            // shared cell.
            let mut seen = [0; 6];
            for _ in 0..1000 {
                let (cond, dists) = strategy.generate(runner.rng());
                let shared = shared_cells(&cond);
                let x = shared.first().copied();
                let path = probability(ObjectId(0), &cond, &dists);
                let var_var = |x| cond.exprs().any(|e| e.mentions(x) && e.rhs_var().is_some());
                let one_value = |x| dists.pmf(x).unwrap().support_size() == 1;
                match (path, shared.len(), x) {
                    (Err(_), _, _) => seen[0] += 1,
                    (Ok(_), 0, _) => seen[1] += 1,
                    (Ok(_), 1, Some(x)) => {
                        seen[2] += 1;
                        seen[4] += usize::from(var_var(x));
                        seen[5] += usize::from(one_value(x));
                    }
                    (Ok(_), _, _) => seen[3] += 1,
                }
            }
            assert!(seen.iter().all(|&n| n >= 20), "{seen:?}");
        }
    }
}
