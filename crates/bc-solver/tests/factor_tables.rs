//! Property tests: factor tables agree with ADPLL on conditions of the
//! c-table's shape.
//!
//! Random conditions for an object `o`, one clause per dominator `p`,
//! each expression on one attribute: on `o`'s own cell, on `p`'s cell, or
//! a var-var one between the two (what Get-CTable builds and propagation
//! leaves). Pmfs have zero entries; one family has NBA's cardinality 100
//! with three to five own cells. For each:
//!
//! * `Pr(φ)` off the tables is within `1e-12` of ADPLL's;
//! * every `Pr(φ ∧ e)` off the outside pass is within `1e-12` of ADPLL's
//!   solve of `φ ∧ e`, and every `G(o, e)` within `1e-12` of
//!   [`marginal_utility_with_prior`]'s.
//!
//! And for a sequence of such conditions, for different objects and both
//! before and after a random mask narrowing, built one after the other in
//! one workspace: each `Pr(φ)` and every `Pr(φ ∧ e)` equals a fresh
//! workspace's bit for bit.

use bc_bayes::Pmf;
use bc_ctable::{CmpOp, Condition, Expr, Operand};
use bc_data::{ObjectId, VarId};
use bc_solver::factored::Workspace;
use bc_solver::utility::marginal_utility_with_prior;
use bc_solver::{AdpllSolver, Solver, VarDists};
use proptest::prelude::*;

const OPS: [CmpOp; 6] = [
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Eq,
    CmpOp::Ne,
];

/// The shape of one family of cases.
#[derive(Clone, Debug)]
struct Family {
    /// Attributes; the first `own` are the object's missing cells.
    attrs: u16,
    own: std::ops::Range<u16>,
    /// Dominators, each with one clause.
    dominators: std::ops::Range<usize>,
    card: u16,
    /// Values with mass per pmf, at most.
    support: u16,
}

const SMALL: Family = Family {
    attrs: 4,
    own: 1..4,
    dominators: 1..8,
    card: 6,
    support: 6,
};

const NBA: Family = Family {
    attrs: 6,
    own: 3..6,
    dominators: 1..6,
    card: 100,
    support: 4,
};

/// An object, its condition and the pmfs.
type Case = (ObjectId, Condition, VarDists);

/// Small cases, and one in three like NBA's.
fn mixed_case() -> impl Strategy<Value = Case> {
    prop_oneof![arb_case(SMALL), arb_case(SMALL), arb_case(NBA)]
}

/// A condition of object `o`: one expression per drawn attribute of each
/// dominator's clause, and a pmf per cell with at most `support` values of
/// mass. Objects are numbered from 0 with `o` swapped in for 0, so `o`'s
/// cells sort before, between or after its dominators'.
fn arb_case(f: Family) -> impl Strategy<Value = Case> {
    let clause = prop::collection::vec(
        (0..f.attrs, 0usize..6, 0..f.card + 1, 0u8..5),
        1..f.attrs as usize + 1,
    );
    let n_cells = f.dominators.end * f.attrs as usize;
    let object = 0..f.dominators.end as u32 + 2;
    let clauses = prop::collection::vec(clause, f.dominators);
    let pmfs = prop::collection::vec(
        prop::collection::vec((0..f.card, 0.05f64..1.0), 1..f.support as usize + 1),
        n_cells,
    );
    (f.own, clauses, pmfs, object).prop_map(move |(own, clauses, pmfs, k)| {
        let swap = |o: u32| match o {
            0 => k,
            o if o == k => 0,
            o => o,
        };
        let var = |o: u32, a: u16| VarId::new(swap(o), a);
        let raw: Vec<Vec<Expr>> = clauses
            .iter()
            .enumerate()
            .map(|(i, exprs)| {
                let p = i as u32 + 1;
                let mut seen = Vec::new();
                let mut clause = Vec::new();
                for &(a, op, c, kind) in exprs {
                    if seen.contains(&a) {
                        continue;
                    }
                    seen.push(a);
                    let op = OPS[op];
                    let c = Operand::Const(c);
                    clause.push(match kind {
                        0 if a < own => Expr::new(var(0, a), op, Operand::Var(var(p, a))),
                        1 | 2 if a < own => Expr::new(var(0, a), op, c),
                        _ => Expr::new(var(p, a), op, c),
                    });
                }
                clause
            })
            .collect();
        let dists = pmfs
            .iter()
            .enumerate()
            .map(|(i, entries)| {
                let (o, a) = ((i / f.attrs as usize) as u32, (i % f.attrs as usize) as u16);
                let mut w = vec![0.0; f.card as usize];
                for &(v, m) in entries {
                    w[v as usize] += m;
                }
                (var(o, a), Pmf::from_weights(w))
            })
            .collect();
        (ObjectId(k), Condition::from_clauses(raw), dists)
    })
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12
}

/// The agreement checks with ADPLL of the module docs for one case.
fn agrees(o: ObjectId, cond: &Condition, dists: &VarDists) -> Result<(), TestCaseError> {
    let adpll = AdpllSolver::new();
    let mut workspace = Workspace::default();
    let (p, _) = workspace.probability(o, cond, dists).unwrap();
    workspace.build(o, cond, dists).unwrap();
    let want = adpll.probability(cond, dists).unwrap();
    prop_assert!(close(p, want), "Pr(φ) {p} vs ADPLL {want} in {cond}");
    let mut joints = workspace.joints(cond, dists).unwrap();
    for e in cond.exprs() {
        let got = joints.joint(e).unwrap();
        let solved = adpll.probability(&cond.and_expr(*e), dists).unwrap();
        prop_assert!(close(got, solved), "{e}: {got} vs {solved} in {cond}");
        let g = joints.utility(e, want).unwrap();
        let reference = marginal_utility_with_prior(&adpll, cond, e, dists, want)
            .unwrap()
            .utility;
        prop_assert!(close(g, reference), "{e}: G {g} vs {reference} in {cond}");
    }
    Ok(())
}

/// `dists` with one variable of `cond` narrowed: `narrow` picks the
/// variable and the values it keeps of those with mass, or the pmf stays
/// as it is when it keeps none.
fn narrowed(cond: &Condition, dists: &VarDists, narrow: (usize, u64)) -> VarDists {
    let mut after = dists.clone();
    let vars: Vec<VarId> = cond.vars().into_iter().collect();
    if vars.is_empty() {
        return after;
    }
    let v = vars[narrow.0 % vars.len()];
    let pmf = dists.pmf(v).unwrap();
    let support: Vec<u16> = pmf.support().collect();
    let keep = support
        .iter()
        .enumerate()
        .filter(|&(i, _)| narrow.1 >> (i % 64) & 1 == 1)
        .fold(0u64, |m, (_, &value)| {
            m | 1u64.checked_shl(value.into()).unwrap_or(0)
        });
    if let Some(narrowed) = pmf.conditioned(keep) {
        after.insert(v, narrowed);
    }
    after
}

/// `Pr(φ)` and every `Pr(φ ∧ e)` of `cond` off `workspace`, as bits.
fn bits(workspace: &mut Workspace, o: ObjectId, cond: &Condition, dists: &VarDists) -> Vec<u64> {
    let (p, _) = workspace.probability(o, cond, dists).unwrap();
    workspace.build(o, cond, dists).unwrap();
    let mut joints = workspace.joints(cond, dists).unwrap();
    let mut out = vec![p.to_bits()];
    out.extend(cond.exprs().map(|e| joints.joint(e).unwrap().to_bits()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn small_tables_agree_with_adpll((o, cond, dists) in arb_case(SMALL)) {
        agrees(o, &cond, &dists)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn nba_like_tables_agree_with_adpll((o, cond, dists) in arb_case(NBA)) {
        agrees(o, &cond, &dists)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_reused_workspace_gives_a_fresh_ones_bits(
        cases in prop::collection::vec(
            (mixed_case(), (0usize..64, any::<u64>())),
            1..8,
        ),
    ) {
        let mut reused = Workspace::default();
        for ((o, cond, dists), narrow) in &cases {
            for dists in [dists.clone(), narrowed(cond, dists, *narrow)] {
                let fresh = bits(&mut Workspace::default(), *o, cond, &dists);
                let got = bits(&mut reused, *o, cond, &dists);
                prop_assert_eq!(got, fresh, "{} in {}", o, cond);
            }
        }
    }
}
