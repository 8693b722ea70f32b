//! Allocation budget of ADPLL searches and circuit re-evaluations.
//!
//! A solver keeps its clause arena, caches and circuit builder between
//! calls, so a search allocates only what it must: a component-cache key
//! per cache miss, and a compile its circuit's exact-size blocks. A
//! circuit's re-evaluation allocates nothing when no distribution changed,
//! and otherwise only its two change marks. Scoring a var-var candidate off
//! a circuit allocates nothing once the scorer's buffers have grown. This
//! binary counts the heap
//! allocations of the calling thread (its own `#[global_allocator]`) over
//! every open condition of seeded NBA-400 and Synthetic-800 tables, and
//! bounds the average per call.

use bc_bayes::Pmf;
use bc_ctable::Expr;
use bc_ctable::{build_ctable, CTableConfig, Condition, DominatorStrategy};
use bc_data::Dataset;
use bc_solver::utility::compile_utilities;
use bc_solver::{AdpllSolver, ClampScratch, Solver, VarDists};
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Average allocations per plain solve, at most.
const SOLVE_BUDGET: f64 = 16.0;
/// Average allocations per compile, circuit included, at most.
const COMPILE_BUDGET: f64 = 40.0;
/// Allocations per re-evaluation under changed distributions, at most: the
/// changed-slot and moved-node marks.
const EVALUATE_BUDGET: u64 = 2;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and reallocations per
/// thread.
struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The open conditions of `data`'s c-table and the learned pmfs.
fn open_conditions(data: &Dataset) -> (Vec<Condition>, VarDists) {
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
    (conds, VarDists::new(pmfs))
}

/// `dists` with the largest supported value of every distribution that has
/// two or more cut off: a narrowing every compiled circuit can follow.
fn narrowed(dists: &VarDists) -> VarDists {
    dists
        .iter()
        .map(|(&v, pmf)| {
            let support: Vec<u16> = pmf.support().collect();
            let pmf: Pmf = match support.split_last() {
                Some((_, rest)) if !rest.is_empty() => {
                    let mask = rest.iter().fold(0u64, |m, &a| m | 1 << a);
                    pmf.conditioned(mask).expect("the kept values have mass")
                }
                _ => pmf.clone(),
            };
            (v, pmf)
        })
        .collect()
}

fn tables() -> Vec<(&'static str, Dataset)> {
    let nba = bc_data::generators::nba::nba_like(400, 1);
    let (nba, _) = bc_data::missing::inject_mcar(&nba, 0.1, 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let synthetic = bc_bayes::synthetic::adult_like()
        .sample_dataset("synthetic", 800, &mut rng)
        .unwrap();
    let (synthetic, _) = bc_data::missing::inject_mcar(&synthetic, 0.1, 1);
    vec![("nba-400", nba), ("synthetic-800", synthetic)]
}

#[test]
fn searches_stay_within_their_allocation_budget() {
    for (name, data) in tables() {
        let (conds, dists) = open_conditions(&data);
        assert!(
            conds.len() > 50,
            "{name}: only {} open conditions",
            conds.len()
        );
        let solver = AdpllSolver::new();
        let before = allocations();
        for cond in &conds {
            solver.probability(cond, &dists).unwrap();
        }
        let per_solve = (allocations() - before) as f64 / conds.len() as f64;

        let solver = AdpllSolver::new();
        let mut per_compile = 0.0;
        for cond in &conds {
            let before = allocations();
            let compiled = solver.compile(cond, &dists).unwrap();
            per_compile += (allocations() - before) as f64;
            drop(compiled);
        }
        per_compile /= conds.len() as f64;
        println!(
            "{name}: {} conditions, {per_solve:.1} allocations per solve, \
             {per_compile:.1} per compile",
            conds.len()
        );
        assert!(
            per_solve <= SOLVE_BUDGET,
            "{name}: {per_solve:.1} allocations per plain solve, budget {SOLVE_BUDGET}"
        );
        assert!(
            per_compile <= COMPILE_BUDGET,
            "{name}: {per_compile:.1} allocations per compile, budget {COMPILE_BUDGET}"
        );
    }
}

#[test]
fn evaluations_allocate_only_when_a_distribution_changed() {
    for (name, data) in tables() {
        let (conds, dists) = open_conditions(&data);
        let cut = narrowed(&dists);
        let solver = AdpllSolver::new();
        let (mut unchanged, mut changed) = (0, 0);
        for cond in &conds {
            let (mut circuit, _) = solver.compile(cond, &dists).unwrap();
            let before = allocations();
            let p = circuit.evaluate(&dists).unwrap();
            unchanged += allocations() - before;
            assert_eq!(p.to_bits(), circuit.probability().to_bits());
            let before = allocations();
            circuit.evaluate(&cut).unwrap();
            let n = allocations() - before;
            assert!(
                n <= EVALUATE_BUDGET,
                "{name}: {n} allocations in one re-evaluation, budget {EVALUATE_BUDGET}"
            );
            changed += n;
        }
        println!(
            "{name}: {} circuits, {unchanged} allocations re-evaluating unchanged, \
             {changed} changed",
            conds.len()
        );
        assert_eq!(unchanged, 0, "{name}: re-evaluating unchanged allocated");
        assert!(changed > 0, "{name}: the narrowing changed no circuit");
    }
}

#[test]
fn var_var_scoring_allocates_nothing_once_the_buffers_have_grown() {
    for (name, data) in tables() {
        let (conds, dists) = open_conditions(&data);
        let solver = AdpllSolver::new();
        let mut jobs = Vec::new();
        for cond in &conds {
            let p_phi = solver.probability(cond, &dists).unwrap();
            let utilities = compile_utilities(&solver, cond, &dists, p_phi).unwrap();
            let mut var_var: Vec<Expr> = cond
                .exprs()
                .filter(|e| e.rhs_var().is_some())
                .copied()
                .collect();
            var_var.sort();
            var_var.dedup();
            jobs.push((utilities, var_var));
        }
        let mut scratch = ClampScratch::default();
        let score = |scratch: &mut ClampScratch| {
            let mut scored = 0;
            for (utilities, var_var) in &jobs {
                for e in var_var {
                    let g = utilities.utility(e, &dists, scratch).unwrap();
                    scored += usize::from(g.is_some());
                }
            }
            scored
        };
        // The first round grows the buffers to the largest circuit.
        let scored = score(&mut scratch);
        let before = allocations();
        assert_eq!(score(&mut scratch), scored);
        let n = allocations() - before;
        println!("{name}: {scored} var-var candidates scored, {n} allocations once grown");
        assert!(
            scored > 20,
            "{name}: only {scored} var-var candidates scored"
        );
        assert_eq!(n, 0, "{name}: scoring var-var candidates allocated");
    }
}
