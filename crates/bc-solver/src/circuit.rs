//! Compiled solves: the circuit one ADPLL search traces, its upward
//! re-evaluation, and its derivative pass.
//!
//! ADPLL with component caching is a decision-DNNF compiler once its
//! search is recorded (Huang & Darwiche, "The Language of Search", JAIR
//! 2007). [`Solver::compile`](crate::Solver::compile) on an
//! [`AdpllSolver`](crate::AdpllSolver) records
//!
//! * a **decision** node per branch: the variable, and one `(value, child)`
//!   edge per value of its support;
//! * an **AND** node per product of independent components;
//! * a **leaf** per clause closed by the general disjunctive rule, with
//!   each of its expressions and their `Pr(e)`.
//!
//! A component-cache or clause-memo hit reuses the node it hits, so the
//! circuit is a DAG. Every node carries the probability the search
//! computed for it, so [`Circuit::probability`] *is* the solve's `Pr(φ)`,
//! bit for bit.
//!
//! [`Circuit::evaluate`] replays that computation under other
//! distributions whose supports lie inside the compiled ones: the same
//! sums, products and clamps in node-creation order, skipping values whose
//! `θ` is 0 as the search's support filter does. So a circuit compiled
//! from `φ` under `dists₀` and evaluated under `dists` has the root
//! `AdpllSolver::probability(φ, dists)`, bit for bit. Only nodes below a
//! variable whose `θ` changed are recomputed.
//!
//! [`Circuit::partials`] then runs one downward pass (Darwiche, "A
//! Differential Approach to Inference in Bayesian Networks", JACM 2003).
//! It reads the circuit as a polynomial in the value probabilities
//! `θ_{v=a}`, which is affine in each variable's `θ_v`, and accumulates
//! `D_{v=a} = ∂Pr(φ)/∂θ_{v=a}` for every variable and value. With
//! `R_v = Pr(φ) − Σ_a θ_{v=a}·D_{v=a}`, the mass of paths that never
//! mention `v`,
//!
//! ```text
//! Pr(φ | v = a) = D_{v=a} + R_v        Pr(φ ∧ v op c) = Σ_{a ⊨ op c} θ_{v=a}·Pr(φ | v = a)
//! ```
//!
//! so one pass yields every var-const `Pr(φ ∧ e)` of the condition.
//! DESIGN.md ("Compiled utilities", "Kept circuits") has the arguments.

use crate::adpll::Recorder;
use crate::dists::VarDists;
use crate::SolverError;
use bc_ctable::{CmpOp, Expr, Operand};
use bc_data::{Value, VarId};

/// Index of a node in [`Circuit::nodes`].
pub(crate) type NodeId = u32;

/// The `False` and `True` nodes every circuit starts with.
const FALSE: NodeId = 0;
const TRUE: NodeId = 1;

#[derive(Clone, Copy, Debug)]
enum Kind {
    /// `True` or `False`.
    Const,
    /// A branch on the variable in slot `slot`; `edges[start..end]` are
    /// its `(value, child)` pairs.
    Decision { slot: u32, start: u32, end: u32 },
    /// A product; `edges[start..end]` are its factors. `cut` when the
    /// search stopped at a zero product before its last component, whose
    /// factors are then missing.
    And { start: u32, end: u32, cut: bool },
    /// A disjunctive-rule clause over `leaves[start..end]`.
    Clause { start: u32, end: u32 },
}

#[derive(Clone, Copy, Debug)]
struct Node {
    /// The node's probability under the circuit's current `theta`.
    value: f64,
    kind: Kind,
}

/// The right-hand side of a leaf expression.
#[derive(Clone, Copy, Debug)]
enum Rhs {
    Const(Value),
    /// Another variable, by slot.
    Var(u32),
}

/// One expression of a clause leaf: `slot(lhs) op rhs`, with its `Pr(e)`.
#[derive(Clone, Copy, Debug)]
struct Leaf {
    p: f64,
    lhs: u32,
    rhs: Rhs,
    op: CmpOp,
}

impl Leaf {
    /// The expression, with its variables read off `slots`.
    fn expr(&self, slots: &[Slot]) -> Expr {
        let rhs = match self.rhs {
            Rhs::Const(c) => Operand::Const(c),
            Rhs::Var(r) => Operand::Var(slots[r as usize].var),
        };
        Expr::new(slots[self.lhs as usize].var, self.op, rhs)
    }

    /// Whether the expression mentions a slot flagged in `changed`.
    fn touches(&self, changed: &[bool]) -> bool {
        changed[self.lhs as usize] || matches!(self.rhs, Rhs::Var(r) if changed[r as usize])
    }
}

/// No node: the slot of a variable the circuit never branches on.
const NO_NODE: NodeId = NodeId::MAX;

/// A variable the circuit mentions: `theta[start..end]` is its current
/// value distribution.
#[derive(Clone, Copy, Debug)]
struct Slot {
    var: VarId,
    start: u32,
    end: u32,
    /// A decision node on the variable, whose edges are the values of the
    /// support the circuit was compiled over; [`NO_NODE`] when there is
    /// none, and the support does not shape the circuit.
    decision: NodeId,
}

impl Slot {
    fn span(&self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// The trace of one ADPLL search as a decision-DNNF circuit (see the
/// module docs). Build one with [`Solver::compile`](crate::Solver::compile).
#[derive(Debug)]
pub struct Circuit {
    nodes: Vec<Node>,
    /// Decision `(value, child)` edges and AND factors `(0, child)`.
    edges: Vec<(Value, NodeId)>,
    leaves: Vec<Leaf>,
    /// Sorted by variable.
    slots: Vec<Slot>,
    /// Every slot's value distribution, back to back.
    theta: Vec<f64>,
    root: NodeId,
}

impl Circuit {
    /// `Pr(φ)`: the root's value, bit-identical to the plain solve under
    /// the distributions of the compile or of the last
    /// [`evaluate`](Circuit::evaluate).
    pub fn probability(&self) -> f64 {
        self.nodes[self.root as usize].value
    }

    /// Number of nodes, the `True` and `False` constants included.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The variables whose distributions the circuit reads, in order.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.slots.iter().map(|s| s.var)
    }

    /// Re-evaluates the circuit under `dists` and returns the new
    /// `Pr(φ)`: bit-identical to a plain ADPLL solve of the compiled `φ`
    /// under `dists`, with the heuristic and caching flag of the compile.
    ///
    /// The upward pass replays the search's sums, products and clamps in
    /// node-creation order. A decision skips values whose `θ` is 0, an AND
    /// stops at a zero product, and clause leaves take `Pr(e)` from
    /// [`VarDists::expr_prob`]. Only nodes below a variable whose `θ`
    /// changed since the last pass are recomputed.
    ///
    /// The support in `dists` of every variable the circuit branches on
    /// must lie inside the compiled one: a value with mass outside it, or
    /// a zero product of the compile that is no longer zero, is
    /// [`SolverError::StaleCircuit`]. After that error, or a missing
    /// distribution, the circuit is partly updated and must be dropped.
    pub fn evaluate(&mut self, dists: &VarDists) -> Result<f64, SolverError> {
        // `changed[s]`: slot `s` took a new distribution; allocated at the
        // first one.
        let mut changed: Vec<bool> = Vec::new();
        for (s, slot) in self.slots.iter().enumerate() {
            let probs = dists.pmf(slot.var)?.probs();
            if probs.len() != slot.span().len() {
                return Err(SolverError::StaleCircuit);
            }
            // Unchanged `θ` passed this check when it was compiled or last
            // evaluated.
            if probs
                .iter()
                .zip(&self.theta[slot.span()])
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                if !self.within_support(slot, probs) {
                    return Err(SolverError::StaleCircuit);
                }
                self.theta[slot.span()].copy_from_slice(probs);
                changed.resize(self.slots.len(), false);
                changed[s] = true;
            }
        }
        if changed.is_empty() {
            return Ok(self.probability());
        }
        // Children precede parents, so creation order sees every child's
        // new value first. `moved[i]`: node `i`'s value changed.
        let mut moved = vec![false; self.nodes.len()];
        for i in 0..self.nodes.len() {
            let value = match self.nodes[i].kind {
                Kind::Const => continue,
                Kind::Decision { slot, start, end } => {
                    let edges = &self.edges[start as usize..end as usize];
                    if !changed[slot as usize] && !edges.iter().any(|&(_, c)| moved[c as usize]) {
                        continue;
                    }
                    let theta = &self.theta[self.slots[slot as usize].span()];
                    let mut total = 0.0;
                    for &(a, child) in edges {
                        let t = theta[a as usize];
                        if t > 0.0 {
                            total += t * self.nodes[child as usize].value;
                        }
                    }
                    total.clamp(0.0, 1.0)
                }
                Kind::And { start, end, cut } => {
                    let factors = &self.edges[start as usize..end as usize];
                    if !factors.iter().any(|&(_, c)| moved[c as usize]) {
                        continue;
                    }
                    let mut total = 1.0;
                    for &(_, child) in factors {
                        total *= self.nodes[child as usize].value;
                        if total == 0.0 {
                            break;
                        }
                    }
                    if cut && total != 0.0 {
                        return Err(SolverError::StaleCircuit);
                    }
                    total.clamp(0.0, 1.0)
                }
                Kind::Clause { start, end } => {
                    let leaves = &mut self.leaves[start as usize..end as usize];
                    if !leaves.iter().any(|l| l.touches(&changed)) {
                        continue;
                    }
                    let mut none = 1.0;
                    for leaf in leaves {
                        if leaf.touches(&changed) {
                            leaf.p = dists.expr_prob(&leaf.expr(&self.slots))?;
                        }
                        none *= complement(leaf.p);
                    }
                    (1.0 - none).clamp(0.0, 1.0)
                }
            };
            if value.to_bits() != self.nodes[i].value.to_bits() {
                self.nodes[i].value = value;
                moved[i] = true;
            }
        }
        Ok(self.probability())
    }

    /// Whether every value `probs` gives mass to is an edge of `slot`'s
    /// decisions, i.e. in the support the circuit was compiled over.
    fn within_support(&self, slot: &Slot, probs: &[f64]) -> bool {
        let Some(Kind::Decision { start, end, .. }) =
            self.nodes.get(slot.decision as usize).map(|n| n.kind)
        else {
            return true;
        };
        // Edges come in value order.
        let mut values = self.edges[start as usize..end as usize]
            .iter()
            .map(|&(a, _)| a as usize);
        probs
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > 0.0)
            .all(|(a, _)| values.by_ref().find(|&b| b >= a) == Some(a))
    }

    /// The downward pass: `Pr(φ | v = a)` for every variable `v` the
    /// circuit mentions and every value `a` of its support, under the
    /// distributions of the compile or of the last
    /// [`evaluate`](Circuit::evaluate). The circuit stays usable.
    pub fn partials(&self) -> Partials {
        let value = |n: NodeId| self.nodes[n as usize].value;
        let theta = |s: u32| &self.theta[self.slots[s as usize].span()];
        // `D_{v=a}` for every slot, laid out like `theta`.
        let mut d = vec![0.0; self.theta.len()];
        // Var-const leaves add their weight over a value range: difference
        // arrays, folded into `d` at the end, make each add O(1). Slot `s`
        // owns `ranges[start + s..=end + s]`.
        let mut ranges = vec![0.0; self.theta.len() + self.slots.len()];
        // Cumulative θ of the slots in var-var leaves, built on demand:
        // slot `s` owns `cums[cum_at[s]..][..=len]`.
        let mut cums: Vec<f64> = Vec::new();
        let mut cum_at = vec![u32::MAX; self.slots.len()];
        let root = self.root as usize;
        let mut adjoint = vec![0.0; root + 1];
        adjoint[root] = 1.0;
        let mut suffix: Vec<f64> = Vec::new();
        // Children precede parents, so reverse creation order visits every
        // node after all of its parents.
        for i in (0..=root).rev() {
            let adj = adjoint[i];
            if adj == 0.0 {
                continue;
            }
            match self.nodes[i].kind {
                Kind::Const => {}
                Kind::Decision { slot, start, end } => {
                    let at = self.slots[slot as usize].start as usize;
                    let theta = theta(slot);
                    for &(a, child) in &self.edges[start as usize..end as usize] {
                        d[at + a as usize] += adj * value(child);
                        adjoint[child as usize] += adj * theta[a as usize];
                    }
                }
                Kind::And { start, end, .. } => {
                    // ∂/∂child_j = Π_{k≠j} child_k, from prefix and suffix
                    // products.
                    let factors = &self.edges[start as usize..end as usize];
                    suffix_products(&mut suffix, factors.iter().map(|&(_, c)| value(c)));
                    let mut prefix = adj;
                    for (j, &(_, child)) in factors.iter().enumerate() {
                        adjoint[child as usize] += prefix * suffix[j + 1];
                        prefix *= value(child);
                    }
                }
                Kind::Clause { start, end } => {
                    // Pr = 1 − Π_k (1 − P_k), so ∂/∂P_j = Π_{k≠j} (1 − P_k).
                    let leaves = &self.leaves[start as usize..end as usize];
                    suffix_products(&mut suffix, leaves.iter().map(|l| complement(l.p)));
                    let mut prefix = adj;
                    for (j, leaf) in leaves.iter().enumerate() {
                        let w = prefix * suffix[j + 1];
                        prefix *= complement(leaf.p);
                        let lhs = self.slots[leaf.lhs as usize];
                        match leaf.rhs {
                            Rhs::Const(c) => {
                                let at = lhs.start as usize + leaf.lhs as usize;
                                let diff = &mut ranges[at..=at + lhs.span().len()];
                                add_range(diff, leaf.op, c, w);
                            }
                            Rhs::Var(r) => {
                                let rhs = self.slots[r as usize];
                                for (s, slot) in [(leaf.lhs, lhs), (r, rhs)] {
                                    if cum_at[s as usize] == u32::MAX {
                                        cum_at[s as usize] = cums.len() as u32;
                                        cumulative(&mut cums, &self.theta[slot.span()]);
                                    }
                                }
                                let cum = |s: u32, slot: Slot| {
                                    let at = cum_at[s as usize] as usize;
                                    &cums[at..=at + slot.span().len()]
                                };
                                let (cl, cr) = (cum(leaf.lhs, lhs), cum(r, rhs));
                                // ∂P/∂θ_{l=x} = Σ_{y: x op y} θ_{r=y}, and
                                // symmetrically for the right-hand side.
                                let (tl, tr) = (theta(leaf.lhs), theta(r));
                                for (x, dx) in d[lhs.span()].iter_mut().enumerate() {
                                    *dx += w * mass(leaf.op, x, cr, tr);
                                }
                                let conv = leaf.op.converse();
                                for (y, dy) in d[rhs.span()].iter_mut().enumerate() {
                                    *dy += w * mass(conv, y, cl, tl);
                                }
                            }
                        }
                    }
                }
            }
        }
        let p_phi = self.probability();
        for (s, slot) in self.slots.iter().enumerate() {
            let span = slot.span();
            let diff = &ranges[span.start + s..span.end + s];
            let mut run = 0.0;
            for (dx, r) in d[span.clone()].iter_mut().zip(diff) {
                run += r;
                *dx += run;
            }
            let dv = &mut d[span.clone()];
            let rest = p_phi
                - self.theta[span]
                    .iter()
                    .zip(dv.iter())
                    .map(|(t, dx)| t * dx)
                    .sum::<f64>();
            for dx in dv {
                *dx += rest;
            }
        }
        Partials {
            p_phi,
            slots: self.slots.clone(),
            theta: self.theta.clone(),
            given: d,
        }
    }
}

/// `1 − p`, clamped as the disjunctive rule clamps it.
fn complement(p: f64) -> f64 {
    (1.0 - p).clamp(0.0, 1.0)
}

/// Fills `out` with the suffix products of `factors`: `out[j]` is the
/// product of factors `j..`, and `out[len] = 1`.
fn suffix_products(out: &mut Vec<f64>, factors: impl DoubleEndedIterator<Item = f64>) {
    out.clear();
    out.push(1.0);
    for f in factors.rev() {
        let last = *out.last().expect("starts with 1");
        out.push(last * f);
    }
    out.reverse();
}

/// Appends `cum[k] = Σ_{y<k} θ_y` for `k` in `0..=θ.len()` to `out`.
fn cumulative(out: &mut Vec<f64>, probs: &[f64]) {
    let mut run = 0.0;
    out.push(run);
    for p in probs {
        run += p;
        out.push(run);
    }
}

/// `Σ_{y: x op y} θ_y`, from `θ` and its cumulative sums.
fn mass(op: CmpOp, x: usize, cum: &[f64], probs: &[f64]) -> f64 {
    let n = probs.len();
    let below = |k: usize| cum[k.min(n)];
    let at = probs.get(x).copied().unwrap_or(0.0);
    match op {
        CmpOp::Lt => cum[n] - below(x + 1),
        CmpOp::Le => cum[n] - below(x),
        CmpOp::Gt => below(x),
        CmpOp::Ge => below(x + 1),
        CmpOp::Eq => at,
        CmpOp::Ne => cum[n] - at,
    }
}

/// Adds `w` to every value `x` with `x op c`, into the difference array
/// `diff` (one longer than the domain).
fn add_range(diff: &mut [f64], op: CmpOp, c: Value, w: f64) {
    let n = diff.len() - 1;
    let c = c as usize;
    let mut add = |lo: usize, hi: usize, w: f64| {
        let (lo, hi) = (lo.min(n), hi.min(n));
        if lo < hi {
            diff[lo] += w;
            diff[hi] -= w;
        }
    };
    match op {
        CmpOp::Lt => add(0, c, w),
        CmpOp::Le => add(0, c + 1, w),
        CmpOp::Gt => add(c + 1, n, w),
        CmpOp::Ge => add(c, n, w),
        CmpOp::Eq => add(c, c + 1, w),
        CmpOp::Ne => {
            add(0, n, w);
            add(c, c + 1, -w);
        }
    }
}

/// What the downward pass yields: `Pr(φ)` and `Pr(φ | v = a)` for every
/// variable the circuit mentions.
#[derive(Debug)]
pub struct Partials {
    p_phi: f64,
    /// The circuit's slots, sorted by variable.
    slots: Vec<Slot>,
    theta: Vec<f64>,
    /// `Pr(φ | v = ·)`, laid out like `theta`.
    given: Vec<f64>,
}

impl Partials {
    /// `Pr(φ)`.
    pub fn probability(&self) -> f64 {
        self.p_phi
    }

    /// `Pr(φ | v = a)` for each value `a`, meaningful on `v`'s support;
    /// `None` when the circuit never mentions `v` (then it is `Pr(φ)` for
    /// every value).
    pub fn conditional(&self, v: VarId) -> Option<&[f64]> {
        self.slot(v).map(|s| &self.given[s.span()])
    }

    fn slot(&self, v: VarId) -> Option<&Slot> {
        self.slots
            .binary_search_by_key(&v, |s| s.var)
            .ok()
            .map(|i| &self.slots[i])
    }

    /// `Pr(φ ∧ e)` for a var-const expression `e`, clamped to `[0, 1]`;
    /// `None` for a var-var one. `dists` supplies `θ_v` only when the
    /// circuit never mentions `v`.
    pub fn joint(&self, e: &Expr, dists: &VarDists) -> Result<Option<f64>, SolverError> {
        let Operand::Const(c) = e.rhs() else {
            return Ok(None);
        };
        let (theta, given) = match self.slot(e.var()) {
            Some(s) => (&self.theta[s.span()], Some(&self.given[s.span()])),
            None => (dists.pmf(e.var())?.probs(), None),
        };
        let mut total = 0.0;
        for (a, &t) in theta.iter().enumerate() {
            if t > 0.0 && e.op().eval(a as Value, c) {
                total += t * given.map_or(self.p_phi, |g| g[a]);
            }
        }
        Ok(Some(total.clamp(0.0, 1.0)))
    }
}

/// The [`Recorder`] of a compile: appends each node the search closes.
/// One builder serves a solver's compiles one after another: its buffers
/// grow to the largest search and are cleared, not freed.
#[derive(Default)]
pub(crate) struct CircuitBuilder {
    nodes: Vec<Node>,
    edges: Vec<(Value, NodeId)>,
    leaves: Vec<Leaf>,
    slots: Vec<Slot>,
    theta: Vec<f64>,
    /// `(variable, slot)` for every slot, sorted by variable.
    index: Vec<(VarId, u32)>,
    /// The children of the open frames, innermost last.
    open: Vec<(Value, NodeId)>,
    /// Where the expressions of the open clause leaf start.
    leaf_start: u32,
    /// Old slot → slot in variable order, while finishing.
    renamed: Vec<u32>,
}

impl CircuitBuilder {
    /// Starts a compile: only the `False` and `True` constants.
    pub(crate) fn begin(&mut self) {
        let constant = |value| Node {
            value,
            kind: Kind::Const,
        };
        self.nodes.clear();
        self.nodes.extend([constant(0.0), constant(1.0)]);
        self.edges.clear();
        self.leaves.clear();
        self.slots.clear();
        self.theta.clear();
        self.index.clear();
        self.open.clear();
        self.leaf_start = 0;
    }

    /// The circuit rooted at `root`, whose value the search found to be `p`:
    /// exact-size copies of the builder's buffers, since kept circuits
    /// outlive the search.
    pub(crate) fn finish(&mut self, root: NodeId, p: f64) -> Circuit {
        debug_assert_eq!(self.nodes[root as usize].value.to_bits(), p.to_bits());
        // Renumber the slots, and lay out `theta`, in variable order, so
        // that lookups by variable binary-search them.
        self.renamed.clear();
        self.renamed.resize(self.slots.len(), 0);
        let mut theta = Vec::with_capacity(self.theta.len());
        let mut slots = Vec::with_capacity(self.slots.len());
        for (new, &(_, old)) in self.index.iter().enumerate() {
            self.renamed[old as usize] = new as u32;
            let slot = self.slots[old as usize];
            let start = theta.len() as u32;
            theta.extend_from_slice(&self.theta[slot.span()]);
            slots.push(Slot {
                start,
                end: theta.len() as u32,
                ..slot
            });
        }
        for node in &mut self.nodes {
            if let Kind::Decision { slot, .. } = &mut node.kind {
                *slot = self.renamed[*slot as usize];
            }
        }
        for leaf in &mut self.leaves {
            leaf.lhs = self.renamed[leaf.lhs as usize];
            if let Rhs::Var(r) = &mut leaf.rhs {
                *r = self.renamed[*r as usize];
            }
        }
        Circuit {
            nodes: self.nodes.to_vec(),
            edges: self.edges.to_vec(),
            leaves: self.leaves.to_vec(),
            slots,
            theta,
            root,
        }
    }

    fn push(&mut self, value: f64, kind: Kind) -> NodeId {
        self.nodes.push(Node { value, kind });
        (self.nodes.len() - 1) as NodeId
    }

    /// The slot of `v`, interning it with its distribution on first sight.
    fn slot(&mut self, v: VarId, dists: &VarDists) -> Result<u32, SolverError> {
        match self.index.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => Ok(self.index[i].1),
            Err(i) => Ok(self.intern(i, v, dists.pmf(v)?.probs())),
        }
    }

    /// Adds a slot for `v` at position `i` of the index.
    fn intern(&mut self, i: usize, v: VarId, probs: &[f64]) -> u32 {
        let s = self.slots.len() as u32;
        let start = self.theta.len() as u32;
        self.theta.extend_from_slice(probs);
        self.slots.push(Slot {
            var: v,
            start,
            end: self.theta.len() as u32,
            decision: NO_NODE,
        });
        self.index.insert(i, (v, s));
        s
    }

    /// Moves the children from `mark` on into the edge list.
    fn close(&mut self, mark: usize) -> (u32, u32) {
        let start = self.edges.len() as u32;
        self.edges.extend(self.open.drain(mark..));
        (start, self.edges.len() as u32)
    }
}

impl Recorder for CircuitBuilder {
    fn constant(&mut self, p: f64) -> NodeId {
        if p == 0.0 {
            FALSE
        } else {
            TRUE
        }
    }

    fn leaf_expr(&mut self, e: &Expr, p_e: f64, dists: &VarDists) -> Result<(), SolverError> {
        let lhs = self.slot(e.var(), dists)?;
        let rhs = match e.rhs() {
            Operand::Const(c) => Rhs::Const(c),
            Operand::Var(w) => Rhs::Var(self.slot(w, dists)?),
        };
        self.leaves.push(Leaf {
            p: p_e,
            lhs,
            rhs,
            op: e.op(),
        });
        Ok(())
    }

    fn clause(&mut self, p: f64) -> NodeId {
        let (start, end) = (self.leaf_start, self.leaves.len() as u32);
        self.leaf_start = end;
        self.push(p, Kind::Clause { start, end })
    }

    fn mark(&self) -> usize {
        self.open.len()
    }

    fn child(&mut self, value: Value, node: NodeId) {
        self.open.push((value, node));
    }

    fn decision(&mut self, v: VarId, probs: &[f64], mark: usize, p: f64) -> NodeId {
        let slot = match self.index.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => self.index[i].1,
            Err(i) => self.intern(i, v, probs),
        };
        let (start, end) = self.close(mark);
        let node = self.push(p, Kind::Decision { slot, start, end });
        let slot = &mut self.slots[slot as usize];
        if slot.decision == NO_NODE {
            slot.decision = node;
        }
        node
    }

    fn and(&mut self, mark: usize, p: f64, cut: bool) -> NodeId {
        // A single factor is the product itself: `1.0 * p` and the clamp
        // leave a probability unchanged. A cut product keeps its node, so
        // that re-evaluation can tell when the zero is gone.
        if !cut && self.open.len() == mark + 1 {
            return self.open.pop().expect("one factor").1;
        }
        let (start, end) = self.close(mark);
        self.push(p, Kind::And { start, end, cut })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdpllSolver, Solver};
    use bc_bayes::Pmf;
    use bc_ctable::Condition;

    fn v(o: u32, a: u16) -> VarId {
        VarId::new(o, a)
    }

    fn compile(cond: &Condition, d: &VarDists) -> Circuit {
        AdpllSolver::new()
            .compile(cond, d)
            .expect("ADPLL compiles")
            .unwrap()
            .0
    }

    #[test]
    fn constants_compile_to_constant_roots() {
        let d = VarDists::default();
        assert_eq!(compile(&Condition::True, &d).probability(), 1.0);
        assert_eq!(compile(&Condition::False, &d).probability(), 0.0);
        assert_eq!(compile(&Condition::True, &d).node_count(), 2);
    }

    #[test]
    fn one_clause_conditionals_by_hand() {
        // φ = (x < 2 ∨ y > 2), x uniform over 4, y uniform over 5:
        // Pr(φ | x = a) is 1 for a < 2, else Pr(y > 2) = 0.4.
        let (x, y) = (v(0, 0), v(1, 0));
        let cond = Condition::from_clauses(vec![vec![Expr::lt(x, 2), Expr::gt(y, 2)]]);
        let d: VarDists = [(x, Pmf::uniform(4)), (y, Pmf::uniform(5))]
            .into_iter()
            .collect();
        let partials = compile(&cond, &d).partials();
        let gx = partials.conditional(x).unwrap();
        for (a, want) in [1.0, 1.0, 0.4, 0.4].into_iter().enumerate() {
            assert!((gx[a] - want).abs() < 1e-12, "x = {a}: {}", gx[a]);
        }
        let e = Expr::lt(x, 3);
        let joint = partials.joint(&e, &d).unwrap().unwrap();
        assert!((joint - (0.25 + 0.25 + 0.25 * 0.4)).abs() < 1e-12);
        assert_eq!(partials.joint(&Expr::var_gt(x, y), &d).unwrap(), None);
    }

    #[test]
    fn a_variable_outside_the_circuit_is_independent_of_it() {
        let (x, z) = (v(0, 0), v(2, 0));
        let cond = Condition::from_clauses(vec![vec![Expr::lt(x, 2)]]);
        let d: VarDists = [(x, Pmf::uniform(4)), (z, Pmf::uniform(10))]
            .into_iter()
            .collect();
        let partials = compile(&cond, &d).partials();
        assert_eq!(partials.conditional(z), None);
        let joint = partials.joint(&Expr::lt(z, 3), &d).unwrap().unwrap();
        assert!((joint - 0.5 * 0.3).abs() < 1e-12);
    }

    #[test]
    fn var_var_leaves_differentiate_both_sides() {
        // φ = (x > y); Pr(φ | x = a) = Pr(y < a), Pr(φ | y = b) = Pr(x > b).
        let (x, y) = (v(0, 0), v(1, 0));
        let cond = Condition::from_clauses(vec![vec![Expr::var_gt(x, y)]]);
        let d: VarDists = [
            (x, Pmf::from_weights(vec![1.0, 2.0, 3.0, 4.0])),
            (y, Pmf::from_weights(vec![4.0, 0.0, 1.0, 5.0])),
        ]
        .into_iter()
        .collect();
        let partials = compile(&cond, &d).partials();
        let (px, py) = (d.pmf(x).unwrap(), d.pmf(y).unwrap());
        let gx = partials.conditional(x).unwrap();
        let gy = partials.conditional(y).unwrap();
        for a in 0..4u16 {
            assert!((gx[a as usize] - py.pr_lt(a)).abs() < 1e-12, "x = {a}");
            assert!((gy[a as usize] - px.pr_gt(a)).abs() < 1e-12, "y = {a}");
        }
    }

    fn narrowed(pmf: &Pmf, keep: &[usize]) -> Pmf {
        let mask = keep.iter().fold(0u64, |m, &a| m | 1 << a);
        pmf.conditioned(mask).expect("kept values carry mass")
    }

    #[test]
    fn evaluate_replays_a_solve_under_narrowed_supports() {
        // (x < 2 ∨ y > 2) ∧ (x > 0 ∨ z < 3) ∧ (y < 4 ∨ z > 1): correlated,
        // so the search branches.
        let (x, y, z) = (v(0, 0), v(1, 0), v(2, 0));
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(x, 2), Expr::gt(y, 2)],
            vec![Expr::gt(x, 0), Expr::lt(z, 3)],
            vec![Expr::lt(y, 4), Expr::gt(z, 1)],
        ]);
        let base: VarDists = [
            (x, Pmf::from_weights(vec![1.0, 2.0, 3.0, 4.0, 5.0])),
            (y, Pmf::uniform(5)),
            (z, Pmf::from_weights(vec![3.0, 1.0, 4.0, 1.0, 5.0])),
        ]
        .into_iter()
        .collect();
        let mut circuit = compile(&cond, &base);
        let solver = AdpllSolver::new();
        let mut now = base.clone();
        for (var, keep) in [
            (x, &[0, 1, 3][..]),
            (z, &[2, 3, 4]),
            (x, &[1, 3]),
            (y, &[4]),
        ] {
            now.insert(var, narrowed(now.pmf(var).unwrap(), keep));
            let want = solver.probability(&cond, &now).unwrap();
            assert_eq!(circuit.evaluate(&now).unwrap().to_bits(), want.to_bits());
            assert_eq!(circuit.probability().to_bits(), want.to_bits());
        }
        // Back to the compiled supports: still a replay.
        let want = solver.probability(&cond, &base).unwrap();
        assert_eq!(circuit.evaluate(&base).unwrap().to_bits(), want.to_bits());
    }

    #[test]
    fn partials_survive_and_follow_re_evaluation() {
        let (x, y) = (v(0, 0), v(1, 0));
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(x, 2), Expr::gt(y, 2)],
            vec![Expr::gt(x, 0), Expr::var_gt(y, x)],
        ]);
        let base: VarDists = [(x, Pmf::uniform(4)), (y, Pmf::uniform(5))]
            .into_iter()
            .collect();
        let mut now = base.clone();
        now.insert(y, narrowed(base.pmf(y).unwrap(), &[1, 3, 4]));
        let mut kept = compile(&cond, &base);
        kept.evaluate(&now).unwrap();
        let first = kept.partials();
        let again = kept.partials();
        let fresh = compile(&cond, &now).partials();
        for var in [x, y] {
            let (a, b) = (
                first.conditional(var).unwrap(),
                again.conditional(var).unwrap(),
            );
            assert_eq!(a, b);
            // A compile under `now` has the same conditionals on the
            // support, up to the order of sums.
            let pmf = now.pmf(var).unwrap();
            for (k, &t) in pmf.probs().iter().enumerate() {
                if t > 0.0 {
                    let f = fresh.conditional(var).unwrap()[k];
                    assert!((a[k] - f).abs() < 1e-12, "{var} = {k}: {} vs {f}", a[k]);
                }
            }
        }
    }

    #[test]
    fn a_widened_support_is_a_stale_circuit() {
        let (x, y) = (v(0, 0), v(1, 0));
        let cond = Condition::from_clauses(vec![
            vec![Expr::lt(x, 2), Expr::gt(y, 2)],
            vec![Expr::gt(x, 0), Expr::lt(y, 2)],
        ]);
        let base: VarDists = [(x, Pmf::uniform(4)), (y, Pmf::uniform(5))]
            .into_iter()
            .collect();
        let mut small = base.clone();
        small.insert(x, narrowed(base.pmf(x).unwrap(), &[0, 3]));
        let mut circuit = compile(&cond, &small);
        assert_eq!(circuit.evaluate(&base), Err(SolverError::StaleCircuit));
    }

    #[test]
    fn a_zero_product_that_comes_back_is_a_stale_circuit() {
        // Pr(x < 1) = 1e-17 rounds the first clause to probability 0, and
        // the product stops before (y < 2). Pinning x to 0 makes the clause
        // certain, so the missing factor matters.
        let (x, y) = (v(0, 0), v(1, 0));
        let cond = Condition::from_clauses(vec![vec![Expr::lt(x, 1)], vec![Expr::lt(y, 2)]]);
        let base: VarDists = [
            (x, Pmf::from_weights(vec![1e-17, 0.5, 0.5])),
            (y, Pmf::uniform(4)),
        ]
        .into_iter()
        .collect();
        let mut circuit = compile(&cond, &base);
        assert_eq!(circuit.probability(), 0.0);
        let mut pinned = base.clone();
        pinned.insert(x, Pmf::delta(3, 0));
        assert_eq!(circuit.evaluate(&pinned), Err(SolverError::StaleCircuit));
        // Narrowing that keeps the product at zero is still a replay.
        let mut circuit = compile(&cond, &base);
        pinned.insert(x, narrowed(base.pmf(x).unwrap(), &[1, 2]));
        assert_eq!(circuit.evaluate(&pinned), Ok(0.0));
    }

    #[test]
    fn a_missing_distribution_is_an_error() {
        let x = v(0, 0);
        let cond = Condition::from_clauses(vec![vec![Expr::lt(x, 2)]]);
        let d: VarDists = [(x, Pmf::uniform(4))].into_iter().collect();
        let mut circuit = compile(&cond, &d);
        assert_eq!(
            circuit.evaluate(&VarDists::default()),
            Err(SolverError::MissingDistribution(x))
        );
    }
}
