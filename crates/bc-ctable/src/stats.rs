//! Summary statistics of a c-table, for reports and the CLI.

use crate::condition::Condition;
use crate::ctable::CTable;
use crate::expr::Expr;
use bc_data::VarId;
use std::fmt;

/// Aggregate shape of a c-table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CTableStats {
    /// Objects with condition `true` (certain answers).
    pub n_true: usize,
    /// Objects with condition `false` (certain non-answers, including the
    /// α-pruned ones).
    pub n_false: usize,
    /// Objects with an open condition.
    pub n_open: usize,
    /// Expressions across all open conditions (with clause repetition).
    pub total_exprs: usize,
    /// Clauses across all open conditions.
    pub total_clauses: usize,
    /// Largest number of clauses in one condition.
    pub max_clauses: usize,
    /// Largest number of expressions in one condition.
    pub max_exprs: usize,
    /// Distinct variables appearing in any open condition.
    pub distinct_vars: usize,
}

impl CTableStats {
    /// Computes the statistics of a c-table.
    pub fn of(ctable: &CTable) -> CTableStats {
        let mut stats = CTableStats::default();
        let mut vars: Vec<VarId> = Vec::new();
        for (_, cond) in ctable.iter() {
            match cond {
                Condition::True => stats.n_true += 1,
                Condition::False => stats.n_false += 1,
                Condition::Cnf(clauses) => {
                    stats.n_open += 1;
                    stats.total_clauses += clauses.len();
                    stats.max_clauses = stats.max_clauses.max(clauses.len());
                    let exprs = cond.n_exprs();
                    stats.total_exprs += exprs;
                    stats.max_exprs = stats.max_exprs.max(exprs);
                    vars.extend(cond.exprs().flat_map(Expr::vars));
                }
            }
        }
        stats.distinct_vars = count_distinct(vars);
        stats
    }

    /// Mean clauses per open condition (`|D|` of the paper's complexity
    /// analysis).
    pub fn mean_clauses(&self) -> f64 {
        if self.n_open == 0 {
            0.0
        } else {
            self.total_clauses as f64 / self.n_open as f64
        }
    }
}

/// The number of distinct variables in `vars`.
pub(crate) fn count_distinct(mut vars: Vec<VarId>) -> usize {
    vars.sort_unstable();
    vars.dedup();
    vars.len()
}

impl fmt::Display for CTableStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "true={} false={} open={} (clauses: total={} mean={:.1} max={}, \
             exprs: total={} max={}, vars={})",
            self.n_true,
            self.n_false,
            self.n_open,
            self.total_clauses,
            self.mean_clauses(),
            self.max_clauses,
            self.total_exprs,
            self.max_exprs,
            self.distinct_vars,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_ctable, CTableConfig, DominatorStrategy};
    use bc_data::generators::sample::paper_dataset;

    #[test]
    fn sample_ctable_stats() {
        let ct = build_ctable(
            &paper_dataset(),
            &CTableConfig {
                alpha: 1.0,
                strategy: DominatorStrategy::FastIndex,
            },
        );
        let s = CTableStats::of(&ct);
        assert_eq!(s.n_true, 2);
        assert_eq!(s.n_false, 0);
        assert_eq!(s.n_open, 3);
        // Table 3: φ(o1) 1 clause/3 exprs, φ(o4) 2/4, φ(o5) 2/6.
        assert_eq!(s.total_clauses, 5);
        assert_eq!(s.total_exprs, 13);
        assert_eq!(s.max_clauses, 2);
        assert_eq!(s.max_exprs, 6);
        // Vars: o2.a2, o5.a2, o5.a3, o5.a4.
        assert_eq!(s.distinct_vars, 4);
        assert!((s.mean_clauses() - 5.0 / 3.0).abs() < 1e-12);
        let text = s.to_string();
        assert!(text.contains("open=3"));
    }

    #[test]
    fn empty_table() {
        let s = CTableStats::of(&CTable::new(vec![]));
        assert_eq!(s, CTableStats::default());
        assert_eq!(s.mean_clauses(), 0.0);
    }
}
