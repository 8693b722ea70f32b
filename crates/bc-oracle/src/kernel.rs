//! Independent checks of the condition kernel every solver builds on.
//!
//! `Condition::substitute`, `Condition::simplify` and `Condition::and_expr`
//! re-normalize only the clauses a rewrite touches.
//! [`normalization_matches_reference`] applies the same rewrite to the raw
//! clause list, runs the full normalization of
//! [`Condition::from_clauses`], and demands equality.
//!
//! The tests also pin ADPLL's probability bits and search-tree counters:
//! per corpus condition and per `φ ∧ e` utility condition in
//! `corpus/solve-stats.txt`, and aggregated over seeded tables large
//! enough to split components and hit the cache, for the default solver
//! and both ablation configurations. A kernel change that moves a single
//! decision or probability bit fails them.

use bc_ctable::{Condition, Expr, ExprOrBool};
use bc_data::Dataset;
use std::collections::HashSet;

/// `cond`'s clauses rewritten expression by expression, without any
/// normalization: a clause with a true expression disappears, false
/// expressions are dropped, and the rest are kept as `f` returns them.
fn raw_rewrite(cond: &Condition, f: impl Fn(&Expr) -> ExprOrBool) -> Vec<Vec<Expr>> {
    cond.clauses()
        .iter()
        .filter_map(|clause| {
            let mut exprs = Vec::new();
            for e in clause.exprs() {
                match f(e) {
                    ExprOrBool::Bool(true) => return None,
                    ExprOrBool::Bool(false) => {}
                    ExprOrBool::Expr(e2) => exprs.push(e2),
                }
            }
            Some(exprs)
        })
        .collect()
}

fn distinct_exprs(cond: &Condition) -> Vec<Expr> {
    let mut exprs: Vec<Expr> = cond.exprs().copied().collect();
    exprs.sort();
    exprs.dedup();
    exprs
}

fn compare(cond: &Condition, op: &str, got: &Condition, want: &Condition) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{op} on {cond}: kernel gives {got}, full normalization gives {want}"
        ))
    }
}

/// Checks the kernel's rewrites of `cond` against the from-scratch
/// reference. `and_expr(e)` is checked for every expression `e` of `cond`
/// and its negation. From `cond` and from each of those conjunctions,
/// `substitute(v, a)` is checked for every variable and every value of its
/// domain (a superset of its support), recursively on each result, as
/// ADPLL's branching would walk it. Every condition reached also gets
/// `simplify` checked with each single expression decided either way.
/// Returns the number of rewrites checked.
pub fn normalization_matches_reference(cond: &Condition, data: &Dataset) -> Result<usize, String> {
    let mut checked = 0;
    let mut stack = vec![cond.clone()];
    for e in distinct_exprs(cond) {
        for e in [e, e.negated()] {
            let got = cond.and_expr(e);
            let mut raw = raw_rewrite(cond, |x| ExprOrBool::Expr(*x));
            raw.push(vec![e]);
            compare(
                cond,
                &format!("and_expr({e})"),
                &got,
                &Condition::from_clauses(raw),
            )?;
            checked += 1;
            stack.push(got);
        }
    }
    let mut seen = HashSet::new();
    while let Some(c) = stack.pop() {
        if c.is_decided() || !seen.insert(c.clone()) {
            continue;
        }
        for e in distinct_exprs(&c) {
            for truth in [false, true] {
                let decide = |x: &Expr| (*x == e).then_some(truth);
                let got = c.simplify(decide);
                let want = Condition::from_clauses(raw_rewrite(&c, |x| match decide(x) {
                    Some(t) => ExprOrBool::Bool(t),
                    None => ExprOrBool::Expr(*x),
                }));
                compare(&c, &format!("simplify({e} := {truth})"), &got, &want)?;
                checked += 1;
            }
        }
        for v in c.vars() {
            for value in 0..data.domain(v.attr).cardinality() {
                let got = c.substitute(v, value);
                let want = Condition::from_clauses(raw_rewrite(&c, |x| x.substitute(v, value)));
                compare(&c, &format!("substitute({v} := {value})"), &got, &want)?;
                checked += 1;
                stack.push(got);
            }
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::exact_ctable;
    use crate::gen::Instance;
    use crate::replay::load_corpus;
    use bc_solver::{AdpllSolver, Solver};
    use std::path::Path;

    fn corpus() -> Vec<Instance> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
        load_corpus(&dir)
            .unwrap()
            .into_iter()
            .map(|(_, i)| i)
            .collect()
    }

    /// One line per open condition `φ` of `inst`'s exact c-table, then one per
    /// `φ ∧ e` for each distinct expression `e` of `φ`: the instance, object,
    /// what was solved, ADPLL's probability as raw bits, and its
    /// [`bc_solver::SolveStats`] (branches, direct components, component
    /// splits, cache hits, cache misses, max depth).
    fn solve_stats_lines(inst: &Instance) -> Result<Vec<String>, String> {
        let ctable = exact_ctable(&inst.data);
        let dists = inst.dists();
        let solver = AdpllSolver::new();
        let mut lines = Vec::new();
        for o in ctable.open_objects() {
            let cond = ctable.condition(o);
            let conjoined = distinct_exprs(cond)
                .into_iter()
                .map(|e| (format!("[{e}]"), cond.and_expr(e)));
            for (what, c) in std::iter::once(("phi".to_string(), cond.clone())).chain(conjoined) {
                let (p, s) = solver
                    .probability_with_stats(&c, &dists)
                    .map_err(|e| format!("{}: {o} {what}: {e}", inst.name))?;
                lines.push(format!(
                    "{} {o} {what} {:016x} {} {} {} {} {} {}",
                    inst.name,
                    p.to_bits(),
                    s.branches,
                    s.direct_components,
                    s.component_splits,
                    s.cache_hits,
                    s.cache_misses,
                    s.max_depth
                ));
            }
        }
        Ok(lines)
    }

    #[test]
    fn corpus_normalization_matches_the_reference() {
        let mut checked = 0;
        for inst in corpus() {
            let ctable = exact_ctable(&inst.data);
            for o in ctable.open_objects() {
                checked += normalization_matches_reference(ctable.condition(o), &inst.data)
                    .unwrap_or_else(|e| panic!("{}: {o}: {e}", inst.name));
            }
        }
        assert!(checked > 100, "only {checked} rewrites checked");
    }

    /// Search-tree counters and probability bits on the corpus, pinned at
    /// the values the kernel had before its rewrite-only normalization.
    #[test]
    fn corpus_solve_stats_are_pinned() {
        let golden = include_str!("../corpus/solve-stats.txt");
        let got: Vec<String> = corpus()
            .iter()
            .flat_map(|inst| solve_stats_lines(inst).unwrap_or_else(|e| panic!("{e}")))
            .collect();
        let want: Vec<&str> = golden.lines().collect();
        assert_eq!(got.len(), want.len(), "line count");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w);
        }
    }

    /// The seeded tables: NBA-like 400 objects and Synthetic 800 objects,
    /// 10% of the cells missing, for seeds 1 and 2.
    fn seeded_tables() -> Vec<(String, bc_data::Dataset)> {
        use rand::SeedableRng;
        let mut out = Vec::new();
        for seed in [1u64, 2] {
            let nba = bc_data::generators::nba::nba_like(400, seed);
            let (data, _) = bc_data::missing::inject_mcar(&nba, 0.1, seed);
            out.push((format!("nba {seed}"), data));
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let synthetic = bc_bayes::synthetic::adult_like()
                .sample_dataset("synthetic", 800, &mut rng)
                .unwrap();
            let (data, _) = bc_data::missing::inject_mcar(&synthetic, 0.1, seed);
            out.push((format!("synthetic {seed}"), data));
        }
        out
    }

    /// The open conditions of `data`'s c-table and the learned pmfs.
    fn seeded_conditions(data: &bc_data::Dataset) -> (Vec<Condition>, bc_solver::VarDists) {
        use bc_ctable::{build_ctable, CTableConfig, DominatorStrategy};
        let pmfs =
            bc_bayes::MissingValueModel::learn(data, &bc_bayes::ModelConfig::default()).into_pmfs();
        let ctable = build_ctable(
            data,
            &CTableConfig {
                alpha: 0.01,
                strategy: DominatorStrategy::FastIndex,
            },
        );
        let conds = ctable
            .open_objects()
            .into_iter()
            .map(|o| ctable.condition(o).clone())
            .collect();
        (conds, bc_solver::VarDists::new(pmfs))
    }

    /// `solver` on every open condition of a seeded table, then on each of
    /// its `φ ∧ e` utility conditions: aggregate counters plus an FNV-1a
    /// hash of every probability's bits, in object order.
    fn seeded_table_summary(data: &bc_data::Dataset, solver: &AdpllSolver) -> String {
        use bc_solver::SolveStats;
        let (conds, dists) = seeded_conditions(data);
        let (mut phi, mut utility) = (SolveStats::default(), SolveStats::default());
        let mut bits = Vec::new();
        for cond in &conds {
            let (p, s) = solver.probability_with_stats(cond, &dists).unwrap();
            phi += s;
            bits.extend(p.to_bits().to_le_bytes());
            for e in distinct_exprs(cond) {
                let (p, s) = solver
                    .probability_with_stats(&cond.and_expr(e), &dists)
                    .unwrap();
                utility += s;
                bits.extend(p.to_bits().to_le_bytes());
            }
        }
        format!(
            "phi {phi:?} utility {utility:?} bits {:016x}",
            bc_snapshot::fnv1a64(&bits)
        )
    }

    /// Tables large enough to split components and hit the cache, with
    /// learned (not uniform) pmfs: the aggregate counters and probability
    /// bits are pinned at the values the kernel had before its
    /// rewrite-only normalization, so a change in component order or any
    /// decision shows.
    #[test]
    fn seeded_table_counters_are_pinned() {
        let want = [
            "nba 1: phi SolveStats { branches: 930, direct_components: 1589, component_splits: 588, cache_hits: 48, cache_misses: 93, max_depth: 2 } utility SolveStats { branches: 4290, direct_components: 5622, component_splits: 2344, cache_hits: 325, cache_misses: 429, max_depth: 2 } bits 31595e29cba7b53a",
            "synthetic 1: phi SolveStats { branches: 2208, direct_components: 2784, component_splits: 862, cache_hits: 97, cache_misses: 276, max_depth: 3 } utility SolveStats { branches: 23760, direct_components: 26697, component_splits: 8760, cache_hits: 802, cache_misses: 2970, max_depth: 3 } bits b35b1597b4819206",
            "nba 2: phi SolveStats { branches: 1760, direct_components: 2602, component_splits: 843, cache_hits: 158, cache_misses: 176, max_depth: 4 } utility SolveStats { branches: 7080, direct_components: 6295, component_splits: 2423, cache_hits: 849, cache_misses: 708, max_depth: 4 } bits cd7978456eb7998a",
            "synthetic 2: phi SolveStats { branches: 1352, direct_components: 1483, component_splits: 505, cache_hits: 43, cache_misses: 169, max_depth: 3 } utility SolveStats { branches: 12656, direct_components: 11636, component_splits: 4258, cache_hits: 349, cache_misses: 1582, max_depth: 3 } bits ee3a4dbf3aecfe3a",
        ];
        let got: Vec<String> = seeded_tables()
            .iter()
            .map(|(name, data)| {
                format!(
                    "{name}: {}",
                    seeded_table_summary(data, &AdpllSolver::new())
                )
            })
            .collect();
        assert_eq!(got, want);
    }

    /// The same tables solved by the two ablation configurations
    /// (first-variable branching; no component cache or clause memo):
    /// counters and probability bits pinned at the values of the search
    /// before its clause-arena rewrite. Each `max_depth` is the deepest
    /// recursion of one call in its group: the first-variable `utility`
    /// groups reach 10, below the `φ` solves' 11.
    #[test]
    fn seeded_table_ablations_are_pinned() {
        use bc_solver::BranchHeuristic;
        let want = [
            "nba 1 first: phi SolveStats { branches: 10180, direct_components: 2837, component_splits: 411, cache_hits: 4446, cache_misses: 1018, max_depth: 11 } utility SolveStats { branches: 44670, direct_components: 11563, component_splits: 1328, cache_hits: 16526, cache_misses: 4467, max_depth: 10 } bits fccba768b8fda7df",
            "nba 1 uncached: phi SolveStats { branches: 1410, direct_components: 2256, component_splits: 837, cache_hits: 0, cache_misses: 141, max_depth: 2 } utility SolveStats { branches: 7540, direct_components: 9695, component_splits: 4003, cache_hits: 0, cache_misses: 754, max_depth: 2 } bits 31595e29cba7b53a",
            "synthetic 1 first: phi SolveStats { branches: 78136, direct_components: 8097, component_splits: 595, cache_hits: 47895, cache_misses: 9767, max_depth: 13 } utility SolveStats { branches: 622096, direct_components: 72465, component_splits: 10956, cache_hits: 334613, cache_misses: 77762, max_depth: 13 } bits 13dffe3345bfe441",
            "synthetic 1 uncached: phi SolveStats { branches: 3272, direct_components: 4071, component_splits: 1318, cache_hits: 0, cache_misses: 409, max_depth: 3 } utility SolveStats { branches: 32952, direct_components: 36031, component_splits: 11688, cache_hits: 0, cache_misses: 4119, max_depth: 3 } bits b35b1597b4819206",
            "nba 2 first: phi SolveStats { branches: 12430, direct_components: 4354, component_splits: 514, cache_hits: 4855, cache_misses: 1243, max_depth: 11 } utility SolveStats { branches: 43290, direct_components: 10927, component_splits: 1057, cache_hits: 16751, cache_misses: 4329, max_depth: 10 } bits 45f51a237dd5b787",
            "nba 2 uncached: phi SolveStats { branches: 7050, direct_components: 12261, component_splits: 3882, cache_hits: 0, cache_misses: 705, max_depth: 4 } utility SolveStats { branches: 42150, direct_components: 53521, component_splits: 22697, cache_hits: 0, cache_misses: 4215, max_depth: 4 } bits cd7978456eb7998a",
            "synthetic 2 first: phi SolveStats { branches: 17120, direct_components: 3529, component_splits: 493, cache_hits: 7899, cache_misses: 2140, max_depth: 10 } utility SolveStats { branches: 144616, direct_components: 24127, component_splits: 6587, cache_hits: 66840, cache_misses: 18077, max_depth: 10 } bits cbaabe43f3ed1884",
            "synthetic 2 uncached: phi SolveStats { branches: 1696, direct_components: 1713, component_splits: 588, cache_hits: 0, cache_misses: 212, max_depth: 3 } utility SolveStats { branches: 15480, direct_components: 14102, component_splits: 5202, cache_hits: 0, cache_misses: 1935, max_depth: 3 } bits ee3a4dbf3aecfe3a",
        ];
        let mut got = Vec::new();
        for (name, data) in seeded_tables() {
            for (config, solver) in [
                ("first", AdpllSolver::with_heuristic(BranchHeuristic::First)),
                ("uncached", AdpllSolver::new().with_caching(false)),
            ] {
                let solves = seeded_table_summary(&data, &solver);
                got.push(format!("{name} {config}: {solves}"));
            }
        }
        assert_eq!(got, want);
    }
}
