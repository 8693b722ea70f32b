//! Handcrafted seed-corpus instances.
//!
//! Two families live here:
//!
//! * **Regression-derived** instances, folded in from the shrunk cases the
//!   proptest suites recorded in `tests/*.proptest-regressions`. The
//!   vendored proptest stand-in does not replay those files, so the shapes
//!   they pinned are preserved twice: as explicit unit tests next to the
//!   original suites, and as corpus documents the fuzz driver replays with
//!   the full metamorphic suite on every CI run.
//! * The constructors themselves, exposed so the committed `corpus/*.bcsnap`
//!   files can be verified against them — a drifted or corrupted corpus
//!   entry fails the crate's tests, not just silently weakens the fuzzer.
//!
//! Regenerate the files with
//! `cargo run -p bc-oracle --bin oracle-fuzz -- --write-regressions`.

use crate::gen::Instance;
use bc_bayes::Pmf;
use bc_data::domain::uniform_domains;
use bc_data::{Dataset, VarId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The shrunk case from `tests/solver_equivalence.proptest-regressions`:
/// five single-attribute objects, *every* cell missing, one skewed pmf.
/// The recorded condition `(Var(o1, a0) < 4)` compares against the domain
/// cardinality itself — a constant at the boundary, where `pr_lt` must
/// saturate at exactly 1.0. An all-missing single-attribute dataset makes
/// every object's skyline condition range over the same five-variable pool
/// the original property test drew from.
pub fn reg_boundary_const() -> Instance {
    let domains = uniform_domains(1, 4).expect("valid shape");
    let rows = vec![vec![None]; 5];
    let data = Dataset::from_rows("reg-boundary-const", domains, rows).expect("valid rows");
    let mut pmfs = BTreeMap::new();
    for o in 0..5u32 {
        let pmf = if o == 1 {
            // The exact probabilities proptest shrank to.
            Pmf::from_probs(vec![
                0.5093092101391585,
                0.00743283030467129,
                0.3598544550106761,
                0.12340350454549417,
            ])
        } else {
            Pmf::uniform(4)
        };
        pmfs.insert(VarId::new(o, 0), pmf);
    }
    Instance {
        name: "reg-boundary-const".into(),
        seed: 0,
        data,
        pmfs,
    }
}

/// Tie-free dataset whose columns are permutations — the same generator
/// `tests/end_to_end.rs` uses, reproduced here so the corpus entry is
/// byte-identical to the shape the recorded regression ran on.
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

/// The shrunk case from `tests/end_to_end.proptest-regressions`
/// (`n = 10, seed = 1709`, the `crowdsky_is_exact_with_perfect_workers`
/// property), cut down to oracle size: the first five objects of the same
/// permutation dataset, two cells blanked with uniform priors over the
/// full 10-value domain. 100 possible worlds — exhaustively checkable
/// while keeping the permutation structure and wide domain of the
/// original failure.
pub fn reg_crowdsky_1709() -> Instance {
    let mut data = permutation_dataset(10, 4, 1709).truncated(5);
    let mut pmfs = BTreeMap::new();
    for (o, a) in [(0u32, 1u16), (3, 0)] {
        data.set(bc_data::ObjectId(o), bc_data::AttrId(a), None)
            .expect("cell in range");
        pmfs.insert(VarId::new(o, a), Pmf::uniform(10));
    }
    Instance {
        name: "reg-crowdsky-1709".into(),
        seed: 1709,
        data,
        pmfs,
    }
}

/// Every handcrafted regression instance, in corpus file-name order.
pub fn regression_instances() -> Vec<Instance> {
    vec![reg_boundary_const(), reg_crowdsky_1709()]
}

/// Generator seeds for the committed random part of the corpus — shapes
/// that exercised interesting paths (multiple missing cells on one object,
/// single-attribute data, zero missing cells).
pub const GENERATED_SEEDS: [u64; 6] = [3, 12, 17, 42, 99, 2024];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{check_instance, DiffConfig};
    use crate::gen::{random_instance, GenConfig};
    use crate::replay::{load_corpus, save_instance};
    use std::path::Path;

    #[test]
    fn regression_instances_pass_the_harness() {
        let cfg = DiffConfig::default();
        for inst in regression_instances() {
            check_instance(&inst, &cfg).unwrap_or_else(|d| panic!("{d}"));
        }
    }

    /// Writing each constructor's instance reproduces the section lines of
    /// its committed corpus file byte for byte: the corpus writer's format
    /// is pinned. The committed files predate format version 2, so their
    /// header (and with it the footer's checksum) differs in the version.
    #[test]
    fn corpus_files_are_written_byte_identically() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
        let mut files: Vec<(String, Instance)> = regression_instances()
            .into_iter()
            .map(|inst| (format!("{}.bcsnap", inst.name), inst))
            .collect();
        files.extend(GENERATED_SEEDS.iter().map(|&seed| {
            let inst = random_instance(seed, &GenConfig::default());
            (format!("gen-{seed:08}.bcsnap"), inst)
        }));
        for (file, inst) in files {
            let path = dir.join(file);
            let want = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let mut got = Vec::new();
            save_instance(&inst, &mut got).unwrap();
            let got = String::from_utf8(got).unwrap();
            let (got, want): (Vec<&str>, Vec<&str>) =
                (got.lines().collect(), want.lines().collect());
            assert_eq!(got.len(), want.len(), "{}", path.display());
            let header = want[0].replacen(
                "\"version\":1,",
                &format!("\"version\":{},", bc_snapshot::FORMAT_VERSION),
                1,
            );
            assert_eq!(got[0], header, "{}", path.display());
            let n = want.len() - 1;
            assert_eq!(got[1..n], want[1..n], "{} drifted", path.display());
            let sections = |footer: &str| footer.split(',').next().unwrap().to_string();
            assert_eq!(sections(got[n]), sections(want[n]), "{}", path.display());
        }
    }

    /// The committed corpus files decode to exactly the instances the
    /// constructors (and generator seeds) describe — no silent drift.
    #[test]
    fn committed_corpus_matches_the_constructors() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
        let corpus = load_corpus(&dir).unwrap();
        let mut expected: Vec<Instance> = regression_instances();
        expected.extend(
            GENERATED_SEEDS
                .iter()
                .map(|&s| random_instance(s, &GenConfig::default())),
        );
        assert_eq!(
            corpus.len(),
            expected.len(),
            "corpus dir {} out of sync — regenerate with oracle-fuzz \
             --write-regressions / --write-seed",
            dir.display()
        );
        let by_name = |i: &Instance| i.name.clone();
        let mut exp_sorted = expected;
        exp_sorted.sort_by_key(by_name);
        let mut got_sorted: Vec<Instance> = corpus.into_iter().map(|(_, i)| i).collect();
        got_sorted.sort_by_key(by_name);
        for (got, want) in got_sorted.iter().zip(&exp_sorted) {
            assert_eq!(got.name, want.name);
            assert_eq!(got.seed, want.seed);
            assert_eq!(got.data.complete_rows(), want.data.complete_rows());
            assert_eq!(got.data.missing_vars(), want.data.missing_vars());
            for (v, pmf) in &want.pmfs {
                assert_eq!(
                    got.pmfs[v].probs(),
                    pmf.probs(),
                    "{}: pmf of {v}",
                    want.name
                );
            }
        }
    }
}
