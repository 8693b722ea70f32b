//! Allocation budget of ADPLL searches and factor-table passes.
//!
//! A solver keeps its clause arena and caches between calls, so a search
//! allocates only what it must: a component-cache key per cache miss. A
//! factor-table workspace sums an object's `Pr(φ)`, builds its tables,
//! runs the outside pass and scores every candidate off it in buffers it
//! keeps, so once they have grown a sweep over every open condition
//! allocates nothing. This binary counts the heap allocations of the
//! calling thread (its own `#[global_allocator]`) over every open
//! condition of seeded NBA-400 and Synthetic-800 tables.

use bc_ctable::{build_ctable, CTableConfig, Condition, DominatorStrategy};
use bc_data::{Dataset, ObjectId};
use bc_solver::factored::Workspace;
use bc_solver::{AdpllSolver, Solver, VarDists};
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Average allocations per plain solve, at most.
const SOLVE_BUDGET: f64 = 16.0;

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

/// The open conditions of `data`'s c-table, with their objects, and the
/// learned pmfs.
fn open_conditions(data: &Dataset) -> (Vec<(ObjectId, Condition)>, VarDists) {
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
        .map(|o| (o, ctable.condition(o).clone()))
        .collect();
    (conds, VarDists::new(pmfs))
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
        for (_, cond) in &conds {
            solver.probability(cond, &dists).unwrap();
        }
        let per_solve = (allocations() - before) as f64 / conds.len() as f64;
        println!(
            "{name}: {} conditions, {per_solve:.1} allocations per solve",
            conds.len()
        );
        assert!(
            per_solve <= SOLVE_BUDGET,
            "{name}: {per_solve:.1} allocations per plain solve, budget {SOLVE_BUDGET}"
        );
    }
}

#[test]
fn builds_sums_and_scoring_allocate_nothing_once_the_buffers_have_grown() {
    for (name, data) in tables() {
        let (conds, dists) = open_conditions(&data);
        let jobs: Vec<_> = conds
            .iter()
            .map(|(o, cond)| {
                let mut exprs: Vec<_> = cond.exprs().copied().collect();
                exprs.sort();
                exprs.dedup();
                (*o, cond, exprs)
            })
            .collect();
        let mut workspace = Workspace::default();
        let sweep = |workspace: &mut Workspace| {
            let mut scored = 0;
            for (o, cond, exprs) in &jobs {
                let (p, _) = workspace.probability(*o, cond, &dists).unwrap();
                workspace.build(*o, cond, &dists).unwrap();
                let mut joints = workspace.joints(cond, &dists).unwrap();
                for e in exprs {
                    joints.utility(e, p).unwrap();
                    scored += 1;
                }
            }
            scored
        };
        // The first sweep grows the buffers to the largest condition.
        let scored = sweep(&mut workspace);
        let before = allocations();
        assert_eq!(sweep(&mut workspace), scored);
        let n = allocations() - before;
        println!(
            "{name}: {} conditions built, {scored} candidates scored, {n} allocations once grown",
            jobs.len()
        );
        assert!(scored > 100, "{name}: only {scored} candidates scored");
        assert_eq!(n, 0, "{name}: builds, sums and scoring allocated");
    }
}
