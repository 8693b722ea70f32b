//! C-table construction (Algorithm 2, `Get-CTable`).

use crate::condition::Condition;
use crate::ctable::CTable;
use crate::dominators::{baseline_dominator_set, certainly_dominates, DominatorIndex};
use crate::expr::{CmpOp, Expr, Operand};
use crate::stats::count_distinct;
use bc_data::{Dataset, ObjectId, VarId};

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

/// Builds the condition clause `p ⊀ o` — the disjunction of the per-attribute
/// escapes `o[i] > p[i]` — keeping only expressions that involve a missing
/// value (observed-observed comparisons are constants by construction).
///
/// Returns `None` when the clause is certainly true (the pair is a fully
/// observed tie, which never dominates) and `Some(exprs)` otherwise; an
/// empty vector means `p` dominates `o` in every completion.
fn escape_clause(data: &Dataset, o: ObjectId, p: ObjectId) -> Option<Vec<Expr>> {
    let o_row = data.row(o);
    let p_row = data.row(p);
    let mut exprs = Vec::new();
    let mut saw_missing = false;
    for (a, (oc, pc)) in o_row.iter().zip(p_row).enumerate() {
        let attr = a as u16;
        let max = data.domain(bc_data::AttrId(attr)).max_value();
        match (oc, pc) {
            // Both observed: p ∈ D(o) implies o[i] <= p[i], so the escape
            // o[i] > p[i] is constant false — contribute nothing.
            (Some(_), Some(_)) => {}
            // o observed, p missing: escape is Var(p, a) < o[i];
            // impossible when o[i] is the domain minimum.
            (Some(ov), None) => {
                saw_missing = true;
                if *ov > 0 {
                    exprs.push(Expr::lt(
                        VarId {
                            object: p,
                            attr: bc_data::AttrId(attr),
                        },
                        *ov,
                    ));
                }
            }
            // o missing, p observed: escape is Var(o, a) > p[i];
            // impossible when p[i] is the domain maximum.
            (None, Some(pv)) => {
                saw_missing = true;
                if *pv < max {
                    exprs.push(Expr::gt(
                        VarId {
                            object: o,
                            attr: bc_data::AttrId(attr),
                        },
                        *pv,
                    ));
                }
            }
            // Both missing: escape is Var(o, a) > Var(p, a).
            (None, None) => {
                saw_missing = true;
                exprs.push(Expr::new(
                    VarId {
                        object: o,
                        attr: bc_data::AttrId(attr),
                    },
                    CmpOp::Gt,
                    Operand::Var(VarId {
                        object: p,
                        attr: bc_data::AttrId(attr),
                    }),
                ));
            }
        }
    }
    if !saw_missing {
        // Fully observed pair inside D(o): either p strictly dominates o
        // (handled by the caller's certain-dominance check) or the rows tie,
        // and a tie never dominates — drop the clause.
        let tie = o_row == p_row;
        if tie {
            return None;
        }
    }
    Some(exprs)
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
        } else if dom
            .iter()
            .any(|p| certainly_dominates(data, ObjectId(p as u32), o))
        {
            stats.falsified += 1;
            Condition::False
        } else {
            let mut clauses = Vec::with_capacity(dom_size);
            let mut falsified = false;
            for p in dom.iter() {
                match escape_clause(data, o, ObjectId(p as u32)) {
                    None => {} // certain tie: clause is true, drop it
                    Some(exprs) if exprs.is_empty() => {
                        falsified = true;
                        break;
                    }
                    Some(exprs) => clauses.push(exprs),
                }
            }
            if falsified {
                stats.falsified += 1;
                Condition::False
            } else {
                let cond = Condition::from_clauses(clauses);
                match &cond {
                    Condition::True => stats.certain += 1,
                    Condition::False => stats.falsified += 1,
                    Condition::Cnf(_) => stats.open += 1,
                }
                cond
            }
        };
        conditions.push(condition);
    }

    let mut vars: Vec<VarId> = Vec::new();
    for cond in &conditions {
        if !cond.is_decided() {
            stats.exprs += cond.n_exprs();
            vars.extend(cond.exprs().flat_map(Expr::vars));
        }
    }
    stats.vars = count_distinct(vars);
    (CTable::new(conditions), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_data::generators::sample::paper_dataset;
    use bc_data::missing::inject_mcar;
    use bc_data::VarId;

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
}
