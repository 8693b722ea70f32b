//! C-table construction (Algorithm 2, `Get-CTable`).

use crate::bitset::BitSet;
use crate::condition::{Clause, Condition};
use crate::ctable::CTable;
use crate::dominators::{baseline_dominator_set, DominatorIndex};
use crate::expr::Expr;
use bc_data::{AttrId, Dataset, ObjectId, VarId};

/// How dominator sets are derived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DominatorStrategy {
    /// The paper's fast path: per-dimension sorting plus bitwise set
    /// operations (the `Get-CTable` algorithm of Figure 2).
    FastIndex,
    /// Pairwise comparisons (the `Baseline` of Figure 2).
    Baseline,
}

/// Configuration of c-table construction.
#[derive(Clone, Copy, Debug)]
pub struct CTableConfig {
    /// The pruning threshold `α`: objects with `|D(o)| > α · |O|` are deemed
    /// non-answers outright (their condition is set to `false`). The paper
    /// uses 0.003 on NBA and 0.01 on Synthetic.
    pub alpha: f64,
    /// Dominator-set derivation strategy.
    pub strategy: DominatorStrategy,
}

impl Default for CTableConfig {
    fn default() -> Self {
        CTableConfig {
            alpha: 0.01,
            strategy: DominatorStrategy::FastIndex,
        }
    }
}

/// Writes the condition clause `p ⊀ o` — the disjunction of the
/// per-attribute escapes `o[i] > p[i]` — into `exprs`, keeping only
/// expressions that involve a missing value (observed-observed comparisons
/// are constants by construction).
///
/// The clause comes out sorted as a [`Clause`]'s expressions are. Every
/// expression's left variable is `Var(o,a)` or `Var(p,a)` on its own
/// attribute `a`, so the expressions whose left variable is the lower
/// object's, `min(o, p)`'s, come first, each run in attribute order;
/// `upper` holds the other run until it is appended. No two expressions share a left variable, so the clause is
/// distinct and holds no `e ∨ ¬e`.
///
/// Returns `false` when the clause is certainly true (the pair is a fully
/// observed tie, which never dominates). Otherwise `exprs` holds the
/// clause; empty means `p` dominates `o` in every completion, which covers
/// a fully observed `p` that strictly dominates a fully observed `o`.
fn escape_clause(
    data: &Dataset,
    o: ObjectId,
    p: ObjectId,
    exprs: &mut Vec<Expr>,
    upper: &mut Vec<Expr>,
) -> bool {
    exprs.clear();
    upper.clear();
    let o_row = data.row(o);
    let p_row = data.row(p);
    let o_lower = o < p;
    let mut saw_missing = false;
    for (a, (oc, pc)) in o_row.iter().zip(p_row).enumerate() {
        let attr = AttrId(a as u16);
        let max = data.domain(attr).max_value();
        let o_var = VarId { object: o, attr };
        let p_var = VarId { object: p, attr };
        // The expression, and whether its left variable is the lower
        // object's.
        let (e, lower) = match (oc, pc) {
            // Both observed: p ∈ D(o) implies o[i] <= p[i], so the escape
            // o[i] > p[i] is constant false — contribute nothing.
            (Some(_), Some(_)) => continue,
            // o observed, p missing: escape is Var(p, a) < o[i];
            // impossible when o[i] is the domain minimum.
            (Some(ov), None) => {
                saw_missing = true;
                if *ov == 0 {
                    continue;
                }
                (Expr::lt(p_var, *ov), !o_lower)
            }
            // o missing, p observed: escape is Var(o, a) > p[i];
            // impossible when p[i] is the domain maximum.
            (None, Some(pv)) => {
                saw_missing = true;
                if *pv >= max {
                    continue;
                }
                (Expr::gt(o_var, *pv), o_lower)
            }
            // Both missing: escape is Var(o, a) > Var(p, a), whose left
            // variable is the lower object's; impossible over a one-value
            // domain.
            (None, None) => {
                saw_missing = true;
                if max == 0 {
                    continue;
                }
                (Expr::var_gt(o_var, p_var), true)
            }
        };
        if lower {
            exprs.push(e);
        } else {
            upper.push(e);
        }
    }
    exprs.extend_from_slice(upper);
    // A fully observed pair inside D(o) either ties, and a tie never
    // dominates, or p strictly dominates o: its clause is empty.
    saw_missing || o_row != p_row
}

/// What [`build_ctable_with_stats`] produced, for telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CTableBuildStats {
    /// Objects in the table.
    pub objects: usize,
    /// Objects that came out certainly-true (empty dominator set).
    pub certain: usize,
    /// Objects discarded by α-pruning (`|D(o)| > α · |O|`).
    pub pruned: usize,
    /// Objects falsified by certain dominance or an impossible escape.
    pub falsified: usize,
    /// Objects left with an open condition.
    pub open: usize,
    /// Distinct variables appearing in open conditions.
    pub vars: usize,
    /// Expressions across open conditions.
    pub exprs: usize,
    /// Sum of dominator-set sizes over all objects (`Σ |D(o)|`) — the
    /// bucket sizes Algorithm 2 iterates, and the direct driver of c-table
    /// construction cost.
    pub candidates: u64,
    /// Largest single dominator set encountered.
    pub max_dominators: usize,
    /// Bitset words combined while deriving dominator sets (zero for the
    /// pairwise baseline, which never touches the index).
    pub bitset_words: u64,
}

/// Algorithm 2: builds the c-table of the skyline query over `data`.
///
/// The table is at its propagation fixpoint under an empty constraint store
/// ([`ConstraintStore::new`](crate::ConstraintStore::new)): every escape
/// expression can go either way over its full domains, so none is decided,
/// and no variable of a one-value domain is mentioned, so none is pinned.
/// Propagation therefore only ever rewrites what an answer touches
/// ([`CTable::propagate`]).
///
/// ```
/// use bc_ctable::{build_ctable, CTableConfig, Condition, DominatorStrategy};
/// use bc_data::generators::sample::paper_dataset;
/// use bc_data::ObjectId;
///
/// let ctable = build_ctable(
///     &paper_dataset(),
///     &CTableConfig { alpha: 1.0, strategy: DominatorStrategy::FastIndex },
/// );
/// // The paper's Table 3: o2 and o3 are certain skyline answers.
/// assert_eq!(*ctable.condition(ObjectId(1)), Condition::True);
/// assert_eq!(*ctable.condition(ObjectId(2)), Condition::True);
/// // φ(o1) = Var(o5,a2) < 2 ∨ Var(o5,a3) < 3 ∨ Var(o5,a4) < 4.
/// assert_eq!(ctable.condition(ObjectId(0)).n_exprs(), 3);
/// ```
pub fn build_ctable(data: &Dataset, config: &CTableConfig) -> CTable {
    build_ctable_with_stats(data, config).0
}

/// [`build_ctable`] plus construction counters (how many objects each
/// branch of Algorithm 2 settled, and the size of what remains open).
pub fn build_ctable_with_stats(
    data: &Dataset,
    config: &CTableConfig,
) -> (CTable, CTableBuildStats) {
    let n = data.n_objects();
    let threshold = config.alpha * n as f64;
    let index = match config.strategy {
        DominatorStrategy::FastIndex => Some(DominatorIndex::build(data)),
        DominatorStrategy::Baseline => None,
    };

    let mut stats = CTableBuildStats {
        objects: n,
        ..Default::default()
    };
    let words_per_set = n.div_ceil(64) as u64;
    let mut conditions = Vec::with_capacity(n);
    let (mut exprs, mut upper) = (Vec::new(), Vec::new());
    for o in data.objects() {
        let dom = match &index {
            Some(idx) => {
                // One full-universe init plus one AND-with-OR sweep per
                // observed attribute, each over `⌈n/64⌉` words.
                let observed = data.row(o).iter().filter(|c| c.is_some()).count() as u64;
                stats.bitset_words += words_per_set * (observed + 1);
                idx.dominator_set(data, o)
            }
            None => baseline_dominator_set(data, o),
        };
        let dom_size = dom.count();
        stats.candidates += dom_size as u64;
        stats.max_dominators = stats.max_dominators.max(dom_size);

        let condition = if dom_size == 0 {
            // o is certainly a skyline object.
            stats.certain += 1;
            Condition::True
        } else if dom_size as f64 > threshold {
            // α-pruning: deemed not to be a skyline object.
            stats.pruned += 1;
            Condition::False
        } else {
            let mut clauses = Vec::with_capacity(dom_size);
            let mut falsified = false;
            for p in dom.iter() {
                if !escape_clause(data, o, ObjectId(p as u32), &mut exprs, &mut upper) {
                    continue; // certain tie: clause is true, drop it
                }
                if exprs.is_empty() {
                    falsified = true;
                    break;
                }
                clauses.push(Clause::from_sorted(&exprs));
            }
            if falsified {
                stats.falsified += 1;
                Condition::False
            } else {
                let cond = Condition::from_escape_clauses(o, clauses);
                match cond {
                    Condition::True => stats.certain += 1,
                    _ => stats.open += 1,
                }
                cond
            }
        };
        conditions.push(condition);
    }

    // One bit per cell, `object · d + attr`.
    let mut vars = BitSet::empty(n * data.n_attrs());
    for cond in &conditions {
        if !cond.is_decided() {
            stats.exprs += cond.n_exprs();
            for v in cond.exprs().flat_map(Expr::vars) {
                vars.insert(v.object.index() * data.n_attrs() + v.attr.index());
            }
        }
    }
    stats.vars = vars.count();
    (CTable::new(conditions), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_data::generators::sample::paper_dataset;
    use bc_data::missing::inject_mcar;
    use bc_data::VarId;
    use proptest::prelude::*;

    fn v(o: u32, a: u16) -> VarId {
        VarId::new(o, a)
    }

    fn paper_config() -> CTableConfig {
        // α = 1 disables pruning on the 5-object sample.
        CTableConfig {
            alpha: 1.0,
            strategy: DominatorStrategy::FastIndex,
        }
    }

    /// Table 3 of the paper: the c-table over the sample dataset.
    #[test]
    fn paper_table_3() {
        let data = paper_dataset();
        let ct = build_ctable(&data, &paper_config());

        // φ(o2) and φ(o3) are true.
        assert_eq!(*ct.condition(ObjectId(1)), Condition::True);
        assert_eq!(*ct.condition(ObjectId(2)), Condition::True);

        // φ(o1) = Var(o5,a2) < 2 ∨ Var(o5,a3) < 3 ∨ Var(o5,a4) < 4.
        let expected_o1 = Condition::from_clauses(vec![vec![
            Expr::lt(v(4, 1), 2),
            Expr::lt(v(4, 2), 3),
            Expr::lt(v(4, 3), 4),
        ]]);
        assert_eq!(*ct.condition(ObjectId(0)), expected_o1);

        // φ(o4) = (Var(o2,a2) < 3) ∧ (Var(o5,a2) < 3 ∨ Var(o5,a3) < 1
        //          ∨ Var(o5,a4) < 2).
        let expected_o4 = Condition::from_clauses(vec![
            vec![Expr::lt(v(1, 1), 3)],
            vec![
                Expr::lt(v(4, 1), 3),
                Expr::lt(v(4, 2), 1),
                Expr::lt(v(4, 3), 2),
            ],
        ]);
        assert_eq!(*ct.condition(ObjectId(3)), expected_o4);

        // φ(o5) = (Var(o5,a2) > 2 ∨ Var(o5,a3) > 3 ∨ Var(o5,a4) > 4)
        //        ∧ (Var(o5,a2) > Var(o2,a2) ∨ Var(o5,a3) > 2 ∨ Var(o5,a4) > 2).
        let expected_o5 = Condition::from_clauses(vec![
            vec![
                Expr::gt(v(4, 1), 2),
                Expr::gt(v(4, 2), 3),
                Expr::gt(v(4, 3), 4),
            ],
            vec![
                Expr::var_gt(v(4, 1), v(1, 1)),
                Expr::gt(v(4, 2), 2),
                Expr::gt(v(4, 3), 2),
            ],
        ]);
        assert_eq!(*ct.condition(ObjectId(4)), expected_o5);
    }

    /// Over a one-value domain `Var(o,a) > Var(p,a)` is always false, so
    /// the builder emits no such escape and the table starts at its
    /// fixpoint: here the only escape left, o0's from o1, is impossible.
    #[test]
    fn a_one_value_domain_has_no_escape() {
        let domains = vec![
            bc_data::Domain::new("single", 1).unwrap(),
            bc_data::Domain::new("a1", 4).unwrap(),
        ];
        let rows = vec![vec![None, Some(1)], vec![None, Some(2)], vec![None, None]];
        let data = Dataset::from_rows("single", domains, rows).unwrap();
        let ct = build_ctable(&data, &paper_config());
        assert_eq!(*ct.condition(ObjectId(0)), Condition::False);
        assert!(ct.vars().iter().all(|v| v.attr.index() == 1), "{ct:?}");
        assert!(ct.any_open(), "{ct:?}");
    }

    #[test]
    fn build_stats_partition_the_objects() {
        let data = paper_dataset();
        let (ct, stats) = build_ctable_with_stats(&data, &paper_config());
        assert_eq!(stats.objects, 5);
        assert_eq!(stats.certain, 2);
        assert_eq!(stats.pruned, 0);
        assert_eq!(stats.falsified, 0);
        assert_eq!(stats.open, 3);
        assert_eq!(
            stats.certain + stats.pruned + stats.falsified + stats.open,
            stats.objects
        );
        assert_eq!(stats.exprs, ct.n_open_exprs());
        // Open conditions mention Var(o2,a2) and the o5 row's three vars.
        assert_eq!(stats.vars, 4);
        // With aggressive pruning the open mass moves to `pruned`.
        let (_, pruned) = build_ctable_with_stats(
            &data,
            &CTableConfig {
                alpha: 1e-9,
                strategy: DominatorStrategy::FastIndex,
            },
        );
        assert_eq!(pruned.pruned, 3);
        assert_eq!(pruned.open, 0);
        assert_eq!(pruned.exprs, 0);
    }

    #[test]
    fn alpha_prunes_heavily_dominated_objects() {
        let data = paper_dataset();
        // With α tiny, every object with a non-empty dominator set is pruned.
        let ct = build_ctable(
            &data,
            &CTableConfig {
                alpha: 1e-9,
                strategy: DominatorStrategy::FastIndex,
            },
        );
        assert_eq!(*ct.condition(ObjectId(0)), Condition::False);
        assert_eq!(*ct.condition(ObjectId(1)), Condition::True);
        assert_eq!(*ct.condition(ObjectId(3)), Condition::False);
    }

    #[test]
    fn certain_dominance_falsifies_without_crowdsourcing() {
        let data = bc_data::Dataset::from_rows(
            "x",
            bc_data::domain::uniform_domains(2, 8).unwrap(),
            vec![
                vec![Some(5), Some(5)],
                vec![Some(3), Some(4)], // strictly dominated by o0
                vec![None, Some(6)],
            ],
        )
        .unwrap();
        let ct = build_ctable(&data, &paper_config());
        assert_eq!(*ct.condition(ObjectId(1)), Condition::False);
    }

    #[test]
    fn complete_data_reduces_to_plain_skyline() {
        let complete = bc_data::generators::classic::independent(120, 4, 8, 9);
        let ct = build_ctable(&complete, &paper_config());
        let truth = bc_data::skyline::skyline_bnl(&complete).unwrap();
        let answers: Vec<ObjectId> = complete
            .objects()
            .filter(|&o| *ct.condition(o) == Condition::True)
            .collect();
        assert_eq!(answers, truth);
        for o in complete.objects() {
            assert!(ct.condition(o).is_decided());
        }
    }

    #[test]
    fn strategies_agree() {
        let complete = bc_data::generators::classic::independent(150, 4, 8, 10);
        let (data, _) = inject_mcar(&complete, 0.1, 11);
        let fast = build_ctable(&data, &paper_config());
        let base = build_ctable(
            &data,
            &CTableConfig {
                alpha: 1.0,
                strategy: DominatorStrategy::Baseline,
            },
        );
        for o in data.objects() {
            assert_eq!(fast.condition(o), base.condition(o), "mismatch at {o}");
        }
    }

    #[test]
    fn domain_edge_escapes_are_constant_folded() {
        // o observed at the domain minimum: "Var(p,a) < 0" is impossible and
        // must not appear; if it is the only escape the clause falsifies φ.
        let data = bc_data::Dataset::from_rows(
            "x",
            bc_data::domain::uniform_domains(1, 8).unwrap(),
            vec![vec![Some(0)], vec![None]],
        )
        .unwrap();
        let ct = build_ctable(&data, &paper_config());
        // o0 has value 0; p=o1 missing: escape Var(o1,a1) < 0 impossible →
        // clause empty → φ(o0) = false (paper CNF semantics; the tie case
        // has probability mass but is ignored by the CNF encoding).
        assert_eq!(*ct.condition(ObjectId(0)), Condition::False);
        // o1 (missing) escapes o0 via Var(o1,a1) > 0.
        assert_eq!(
            *ct.condition(ObjectId(1)),
            Condition::from_clauses(vec![vec![Expr::gt(v(1, 0), 0)]])
        );
    }

    /// The builder as it was before it emitted each condition in canonical
    /// form: one `Vec` per escape clause, a certain-dominance pre-scan, and
    /// the generic [`Condition::from_clauses`]. The reference the builder
    /// is checked against.
    mod reference {
        use super::*;
        use crate::expr::{CmpOp, Operand};
        use crate::stats::count_distinct;

        /// The escape clause `p ⊀ o`, unsorted: `None` for a fully
        /// observed tie, empty when `p` dominates `o` in every completion.
        pub(super) fn escape_clause(data: &Dataset, o: ObjectId, p: ObjectId) -> Option<Vec<Expr>> {
            let o_row = data.row(o);
            let p_row = data.row(p);
            let mut exprs = Vec::new();
            let mut saw_missing = false;
            for (a, (oc, pc)) in o_row.iter().zip(p_row).enumerate() {
                let attr = AttrId(a as u16);
                let max = data.domain(attr).max_value();
                let (o_var, p_var) = (VarId { object: o, attr }, VarId { object: p, attr });
                match (oc, pc) {
                    (Some(_), Some(_)) => {}
                    (Some(ov), None) => {
                        saw_missing = true;
                        if *ov > 0 {
                            exprs.push(Expr::lt(p_var, *ov));
                        }
                    }
                    (None, Some(pv)) => {
                        saw_missing = true;
                        if *pv < max {
                            exprs.push(Expr::gt(o_var, *pv));
                        }
                    }
                    (None, None) => {
                        saw_missing = true;
                        if max > 0 {
                            exprs.push(Expr::new(o_var, CmpOp::Gt, Operand::Var(p_var)));
                        }
                    }
                }
            }
            if !saw_missing && o_row == p_row {
                return None;
            }
            Some(exprs)
        }

        /// Whether `p` dominates `o` with both rows fully observed.
        pub(super) fn certainly_dominates(data: &Dataset, p: ObjectId, o: ObjectId) -> bool {
            let mut strictly = false;
            for (pc, oc) in data.row(p).iter().zip(data.row(o)) {
                match (pc, oc) {
                    (Some(pv), Some(ov)) if pv < ov => return false,
                    (Some(pv), Some(ov)) => strictly |= pv > ov,
                    _ => return false,
                }
            }
            strictly
        }

        /// `o`'s dominator set under `config`'s strategy.
        pub(super) fn dominators(
            data: &Dataset,
            config: &CTableConfig,
            o: ObjectId,
        ) -> Vec<ObjectId> {
            let dom = match config.strategy {
                DominatorStrategy::FastIndex => DominatorIndex::build(data).dominator_set(data, o),
                DominatorStrategy::Baseline => baseline_dominator_set(data, o),
            };
            dom.iter().map(|p| ObjectId(p as u32)).collect()
        }

        /// Every condition and the build's counters.
        pub(super) fn build(
            data: &Dataset,
            config: &CTableConfig,
        ) -> (Vec<Condition>, CTableBuildStats) {
            let n = data.n_objects();
            let mut stats = CTableBuildStats {
                objects: n,
                ..Default::default()
            };
            let mut conditions = Vec::with_capacity(n);
            for o in data.objects() {
                let dom = dominators(data, config, o);
                stats.candidates += dom.len() as u64;
                stats.max_dominators = stats.max_dominators.max(dom.len());
                if config.strategy == DominatorStrategy::FastIndex {
                    let observed = data.row(o).iter().filter(|c| c.is_some()).count() as u64;
                    stats.bitset_words += n.div_ceil(64) as u64 * (observed + 1);
                }
                let condition = if dom.is_empty() {
                    stats.certain += 1;
                    Condition::True
                } else if dom.len() as f64 > config.alpha * n as f64 {
                    stats.pruned += 1;
                    Condition::False
                } else if dom.iter().any(|&p| certainly_dominates(data, p, o)) {
                    stats.falsified += 1;
                    Condition::False
                } else {
                    let clauses: Option<Vec<Vec<Expr>>> = dom
                        .iter()
                        .filter_map(|&p| escape_clause(data, o, p))
                        .map(|exprs| (!exprs.is_empty()).then_some(exprs))
                        .collect();
                    let cond = clauses.map_or(Condition::False, Condition::from_clauses);
                    match cond {
                        Condition::True => stats.certain += 1,
                        Condition::False => stats.falsified += 1,
                        Condition::Cnf(_) => stats.open += 1,
                    }
                    cond
                };
                conditions.push(condition);
            }
            let open = conditions.iter().filter(|c| !c.is_decided());
            stats.exprs = open.clone().map(Condition::n_exprs).sum();
            stats.vars =
                count_distinct(open.flat_map(|c| c.exprs().flat_map(Expr::vars)).collect());
            (conditions, stats)
        }
    }

    /// Small random datasets and build configurations: 2–40 objects, 1–5
    /// attributes of one to six values, missing rates from 0 to 0.7, α
    /// of 1.0 (no pruning) or small, and either dominator strategy. Half
    /// the draws have four or five attributes, so that clauses longer than
    /// a clause's inline expressions are common.
    fn arb_build() -> impl Strategy<Value = (Dataset, CTableConfig)> {
        let attrs: proptest::OneOf<usize> = prop_oneof![1usize..6, 4usize..6];
        let shape = (2usize..41, attrs, 0.0f64..0.7);
        shape.prop_flat_map(|(n, d, rate)| {
            let cards = prop::collection::vec(1u16..7, d);
            let cells = prop::collection::vec((0u16..6, 0.0f64..1.0), n * d);
            (cards, cells, 0usize..4, any::<bool>()).prop_map(move |(cards, cells, alpha, fast)| {
                let domains = cards
                    .iter()
                    .enumerate()
                    .map(|(a, &card)| bc_data::Domain::new(format!("a{a}"), card).unwrap())
                    .collect();
                let rows = cells
                    .chunks(d)
                    .map(|row| {
                        row.iter()
                            .zip(&cards)
                            .map(|(&(value, draw), &card)| (draw >= rate).then_some(value % card))
                            .collect()
                    })
                    .collect();
                let data = Dataset::from_rows("random", domains, rows).unwrap();
                let config = CTableConfig {
                    alpha: [1.0, 1.0, 0.3, 0.05][alpha],
                    strategy: if fast {
                        DominatorStrategy::FastIndex
                    } else {
                        DominatorStrategy::Baseline
                    },
                };
                (data, config)
            })
        })
    }

    mod canonical {
        use super::*;
        use proptest::TestRunner;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(
                if cfg!(debug_assertions) { 512 } else { 4096 }
            ))]

            /// The builder gives the reference's conditions and counters.
            #[test]
            fn builds_what_from_clauses_builds((data, config) in arb_build()) {
                let (table, stats) = build_ctable_with_stats(&data, &config);
                let (want, want_stats) = reference::build(&data, &config);
                for (o, cond) in table.iter() {
                    prop_assert_eq!(cond, &want[o.index()], "object {}", o);
                }
                prop_assert_eq!(stats, want_stats);
            }
        }

        /// Which of the builder's paths one object of `data` takes under
        /// `config`, by the reference's raw escape clauses:
        /// 0. an own-cell clause is a strict subset of a dominator's clause;
        /// 1. two own-cell clauses are equal;
        /// 2. a var-var escape from a dominator `p < o`;
        /// 3. a var-var escape from a dominator `p > o`;
        /// 4. a clause longer than the four expressions a clause keeps inline;
        /// 5. a fully observed dominator falsifies the condition.
        fn paths(data: &Dataset, config: &CTableConfig, o: ObjectId, seen: &mut [bool; 6]) {
            let dom = reference::dominators(data, config, o);
            if dom.is_empty() || dom.len() as f64 > config.alpha * data.n_objects() as f64 {
                return;
            }
            if dom
                .iter()
                .any(|&p| reference::certainly_dominates(data, p, o))
            {
                seen[5] = true;
                return;
            }
            let mut clauses = Vec::new();
            for &p in &dom {
                match reference::escape_clause(data, o, p) {
                    Some(exprs) if exprs.is_empty() => return,
                    Some(mut exprs) => {
                        exprs.sort_unstable();
                        clauses.push((p, exprs));
                    }
                    None => {}
                }
            }
            let own = |exprs: &[Expr]| {
                exprs
                    .iter()
                    .all(|e| e.var().object == o && e.rhs_var().is_none())
            };
            for (i, (p, exprs)) in clauses.iter().enumerate() {
                let var_var = exprs.iter().any(|e| e.rhs_var().is_some());
                seen[2] |= var_var && *p < o;
                seen[3] |= var_var && *p > o;
                seen[4] |= exprs.len() > 4;
                for (j, (_, other)) in clauses.iter().enumerate() {
                    if i == j || !own(other) {
                        continue;
                    }
                    seen[0] |= !own(exprs)
                        && other.len() < exprs.len()
                        && crate::kernel::is_subset(other, exprs);
                    seen[1] |= own(exprs) && other == exprs;
                }
            }
        }

        #[test]
        fn random_builds_cover_every_path() {
            let mut runner = TestRunner::new(ProptestConfig::default(), "cover");
            let strategy = arb_build();
            let mut drawn = [0; 6];
            for _ in 0..1000 {
                let (data, config) = strategy.generate(runner.rng());
                let mut seen = [false; 6];
                for o in data.objects() {
                    paths(&data, &config, o, &mut seen);
                }
                for (n, seen) in drawn.iter_mut().zip(seen) {
                    *n += usize::from(seen);
                }
            }
            assert!(drawn.iter().all(|&n| n >= 20), "{drawn:?}");
        }
    }
}
