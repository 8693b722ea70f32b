//! Acceptance tests for the differential correctness oracle (`bc-oracle`).
//!
//! These are the headline guarantees: on hundreds of random small
//! instances every exact solver matches the exhaustive possible-worlds
//! oracle to 1e-9 (Monte Carlo within its 3σ sampling band), resuming a
//! checkpointed run preserves every per-object probability, and the
//! minimize-via-reflection path is oracle-checked end to end.

use bayescrowd::{BayesCrowd, BayesCrowdConfig, TaskStrategy};
use bc_crowd::{GroundTruthOracle, SimulatedPlatform};
use bc_ctable::Operand;
use bc_data::domain::uniform_domains;
use bc_data::skyline::skyline_bnl;
use bc_data::{normalize_directions, AttrId, Dataset, Direction, ObjectId};
use bc_oracle::diff::exact_ctable;
use bc_oracle::{
    check_instance, load_corpus, metamorphic, random_instance, utility_matches_worlds, DiffConfig,
    GenConfig,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Var-var (object, expression) pairs the utility test must check off the
/// factor tables, at least: 196 when the floor was set (then against
/// compiled circuits, over the same instances and pairs).
const VAR_VAR_ON_TABLES_FLOOR: usize = 150;

/// 500 random instances within the acceptance envelope (≤ 8 objects, ≤ 3
/// missing cells, domains ≤ 4): ADPLL, naive enumeration, and ApproxCount
/// must match the possible-worlds oracle exactly, Monte Carlo within 3σ,
/// and every c-table condition must agree with skyline membership in every
/// tie-free world. Any failure here is a solver/c-table bug — minimize it
/// with `cargo run -p bc-oracle --bin oracle-fuzz` and commit the repro to
/// `crates/bc-oracle/corpus/`.
#[test]
fn five_hundred_random_instances_match_the_oracle() {
    let cfg = DiffConfig::default();
    let gen = GenConfig::default();
    let mut worlds_total = 0u128;
    for seed in 10_000..10_500u64 {
        let inst = random_instance(seed, &gen);
        let summary = check_instance(&inst, &cfg).unwrap_or_else(|d| panic!("{d}"));
        worlds_total += summary.n_worlds;
    }
    // Sanity that the suite exercised real enumeration, not 500 trivial
    // complete datasets.
    assert!(
        worlds_total > 1_000,
        "only {worlds_total} worlds enumerated"
    );
}

/// The marginal utility `G(o, e)` that UBS/HHS rank by — one solve plus
/// the complement `Pr(φ ∧ ¬e) = Pr(φ) − Pr(φ ∧ e)`, or read off the
/// object's factor tables — matches the possible-worlds value for ADPLL,
/// naive enumeration and the tables, on every open object's every
/// expression, over the committed corpus and 500 seeded instances. Both
/// var-const and var-var expressions must be exercised, and enough var-var
/// ones off the tables that their weighted sums cannot silently drop out
/// of the check.
#[test]
fn utilities_match_the_oracle_on_corpus_and_random_instances() {
    let eps = DiffConfig::default().eps;
    let corpus_dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bc-oracle/corpus");
    let corpus = load_corpus(&corpus_dir).expect("the committed corpus loads");
    assert!(!corpus.is_empty(), "no corpus at {}", corpus_dir.display());
    let instances = corpus
        .into_iter()
        .map(|(_, inst)| inst)
        .chain((20_000..20_500u64).map(|seed| random_instance(seed, &GenConfig::default())));
    let (mut pairs, mut var_var, mut on_tables) = (0usize, 0usize, 0usize);
    for inst in instances {
        let checked = utility_matches_worlds(&inst, eps).unwrap_or_else(|e| panic!("{e}"));
        pairs += checked.pairs;
        on_tables += checked.var_var_on_tables;
        let ct = exact_ctable(&inst.data);
        var_var += ct
            .open_objects()
            .iter()
            .flat_map(|&o| ct.condition(o).exprs())
            .filter(|e| matches!(e.rhs(), Operand::Var(_)))
            .count();
    }
    assert!(
        pairs > 1_000,
        "only {pairs} (object, expression) pairs checked"
    );
    assert!(var_var > 0, "no var-var expression was exercised");
    assert!(
        on_tables >= VAR_VAR_ON_TABLES_FLOOR,
        "only {on_tables} var-var pairs checked off the tables"
    );
}

/// Satellite: checkpoint/resume preserves the *per-object probabilities*,
/// not just the aggregate `RunReport` fields — checked at several resume
/// rounds on a 6-object instance with the maximum number of missing cells.
#[test]
fn resume_matches_uninterrupted_probabilities_exactly() {
    let gen = GenConfig {
        min_objects: 6,
        max_objects: 6,
        ..GenConfig::default()
    };
    // Pick a seed whose instance actually has missing cells to crowdsource.
    let inst = (0..u64::MAX)
        .map(|s| random_instance(s.wrapping_add(404), &gen))
        .find(|i| i.data.n_missing() >= 2)
        .unwrap();
    assert_eq!(inst.data.n_objects(), 6);
    for resume_at in [1usize, 2, 4] {
        metamorphic::resume_preserves_probabilities(&inst, resume_at, 404, 1e-12)
            .unwrap_or_else(|e| panic!("resume at round {resume_at}: {e}"));
    }
}

/// Satellite: mixed preference directions. The directional possible-worlds
/// oracle on the original instance must agree with the standard pipeline
/// on the reflected instance ([`normalize_directions`] on values,
/// `Pmf::reflected` on distributions), and the reflected instance passes
/// the full differential check.
#[test]
fn mixed_directions_are_oracle_checked() {
    let cfg = DiffConfig::default();
    let mut covered_multi_attr = false;
    for seed in [5u64, 21, 63, 88] {
        let inst = random_instance(seed, &GenConfig::default());
        let d = inst.data.n_attrs();
        covered_multi_attr |= d >= 2;
        // Minimize the first attribute (and every odd one): at least one
        // attribute always goes through the reflection path.
        let dirs: Vec<Direction> = (0..d)
            .map(|i| {
                if i == 0 || i % 2 == 1 {
                    Direction::Minimize
                } else {
                    Direction::Maximize
                }
            })
            .collect();
        metamorphic::reflection_preserves_skyline(&inst, &dirs, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
    assert!(covered_multi_attr, "no multi-attribute instance was drawn");
}

/// Tie-free dataset whose columns are permutations (the standard exactness
/// testbed — see `tests/end_to_end.rs`).
fn permutation_dataset(n: usize, d: usize, seed: u64) -> Dataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut cols: Vec<Vec<u16>> = Vec::with_capacity(d);
    for _ in 0..d {
        let mut col: Vec<u16> = (0..n as u16).collect();
        col.shuffle(&mut rng);
        cols.push(col);
    }
    let rows: Vec<Vec<u16>> = (0..n)
        .map(|i| (0..d).map(|j| cols[j][i]).collect())
        .collect();
    Dataset::from_complete_rows("perm", uniform_domains(d, n as u16).unwrap(), rows).unwrap()
}

/// Satellite, end-to-end: a full crowdsourced run over minimize-direction
/// data. Ground truth is the directional skyline of the complete data
/// (computed by reflecting and taking the standard skyline — an
/// independent path through `bc_data`); the pipeline sees only the
/// reflected incomplete dataset and a crowd answering from the reflected
/// complete one. With perfect workers, no pruning, and tie-free data the
/// answer must be exact.
#[test]
fn mixed_directions_end_to_end_run() {
    let (n, d, seed) = (8usize, 3usize, 91u64);
    let dirs = [
        Direction::Minimize,
        Direction::Maximize,
        Direction::Minimize,
    ];
    let complete = permutation_dataset(n, d, seed);
    let reflected_complete = normalize_directions(&complete, &dirs).unwrap();
    let truth = skyline_bnl(&reflected_complete).unwrap();

    let mut incomplete = complete.clone();
    for (o, a) in [(0u32, 0u16), (3, 2), (5, 1)] {
        incomplete.set(ObjectId(o), AttrId(a), None).unwrap();
    }
    let reflected_incomplete = normalize_directions(&incomplete, &dirs).unwrap();

    let oracle = GroundTruthOracle::new(reflected_complete);
    let mut platform = SimulatedPlatform::new(oracle, 1.0, seed);
    let config = BayesCrowdConfig {
        budget: 10_000,
        latency: 1_000,
        alpha: 1.0,
        strategy: TaskStrategy::Fbs,
        ..Default::default()
    };
    let report = BayesCrowd::new(config).run(&reflected_incomplete, &mut platform);
    assert_eq!(
        report.result, truth,
        "minimize-via-reflection run diverged from the directional skyline"
    );
    assert_eq!(report.open_exprs_left, 0);
}
