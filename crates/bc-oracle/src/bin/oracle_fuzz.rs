//! Deterministic differential fuzz driver — the CI entry point.
//!
//! ```text
//! oracle-fuzz [--corpus DIR] [--seed N] [--cases N] [--artifact PATH]
//!             [--metamorphic-every N] [--write-seed SEED [SEED ...]]
//! ```
//!
//! Replays every committed corpus instance, then `--cases` fresh random
//! instances from the deterministic seed stream `seed, seed+1, ...`,
//! through the differential harness (every solver vs the possible-worlds
//! oracle, and every condition's incremental rewrites vs full
//! normalization) and the marginal-utility check. Every `--metamorphic-every`-th instance additionally runs the
//! run-level metamorphic suite, and a larger table drawn from its seed
//! runs a session whose c-table is checked against propagation from
//! scratch after every round. On the first divergence the driver
//! greedily minimizes the failing instance, writes it (with the divergence
//! record) to `--artifact`, prints the replay instructions, and exits 1 —
//! CI uploads the artifact, and `--corpus` gains a regression seed.
//!
//! `--write-seed` regenerates corpus entries from explicit generator
//! seeds: used once to create the committed corpus, and again whenever the
//! generator or format changes.

use bc_oracle::{
    check_instance, load_corpus, metamorphic, minimize_divergence, random_instance,
    regression_instances, save_divergence, save_instance, utility_matches_worlds, DiffConfig,
    Divergence, GenConfig, Instance,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    corpus: PathBuf,
    seed: u64,
    cases: u64,
    artifact: PathBuf,
    metamorphic_every: u64,
    write_seeds: Vec<u64>,
    write_regressions: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            corpus: PathBuf::from("crates/bc-oracle/corpus"),
            seed: 0xbc0de,
            cases: 200,
            artifact: PathBuf::from("target/oracle-divergence.bcsnap"),
            metamorphic_every: 20,
            write_seeds: Vec::new(),
            write_regressions: false,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--corpus" => args.corpus = PathBuf::from(value("--corpus")?),
            "--artifact" => args.artifact = PathBuf::from(value("--artifact")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--cases" => {
                args.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?
            }
            "--metamorphic-every" => {
                args.metamorphic_every = value("--metamorphic-every")?
                    .parse()
                    .map_err(|e| format!("--metamorphic-every: {e}"))?
            }
            "--write-seed" => {
                let s: u64 = value("--write-seed")?
                    .parse()
                    .map_err(|e| format!("--write-seed: {e}"))?;
                args.write_seeds.push(s);
            }
            "--write-regressions" => args.write_regressions = true,
            "--help" | "-h" => {
                println!(
                    "oracle-fuzz [--corpus DIR] [--seed N] [--cases N] [--artifact PATH] \
                     [--metamorphic-every N] [--write-seed SEED]... [--write-regressions]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Runs one instance through the differential harness and (when `deep`)
/// the metamorphic suite. Returns the first divergence.
fn fuzz_one(inst: &Instance, cfg: &DiffConfig, deep: bool) -> Result<(), Box<Divergence>> {
    check_instance(inst, cfg)?;
    // Utility and metamorphic failures carry their coordinates in the
    // message; wrap them as a pseudo-divergence so the one artifact path
    // covers every check.
    let wrapper = |solver: &'static str| {
        move |detail: String| {
            Box::new(Divergence {
                instance: inst.clone(),
                solver: solver.into(),
                object: bc_data::ObjectId(0),
                got: f64::NAN,
                want: f64::NAN,
                tolerance: 0.0,
                detail,
            })
        }
    };
    utility_matches_worlds(inst, cfg.eps).map_err(wrapper("utility"))?;
    if deep {
        let wrap = wrapper("metamorphic");
        metamorphic::conditioning_decomposes(inst, cfg.eps).map_err(&wrap)?;
        if inst.data.n_attrs() >= 2 {
            let dirs: Vec<bc_data::Direction> = (0..inst.data.n_attrs())
                .map(|i| {
                    if i % 2 == 1 {
                        bc_data::Direction::Minimize
                    } else {
                        bc_data::Direction::Maximize
                    }
                })
                .collect();
            metamorphic::reflection_preserves_skyline(inst, &dirs, cfg).map_err(&wrap)?;
        }
        metamorphic::session_invariants(inst, inst.seed ^ 0xfeed, cfg.eps).map_err(&wrap)?;
        // The same seed drawn as a table too large to enumerate, for the
        // session's c-table against propagation from scratch.
        let wide = random_instance(inst.seed, &metamorphic::wide_gen_config());
        metamorphic::propagation_matches_fixpoint(&wide, inst.seed ^ 0xfeed).map_err(|detail| {
            Box::new(Divergence {
                instance: wide.clone(),
                solver: "propagation".into(),
                object: bc_data::ObjectId(0),
                got: f64::NAN,
                want: f64::NAN,
                tolerance: 0.0,
                detail,
            })
        })?;
    }
    Ok(())
}

fn report_failure(args: &Args, cfg: &DiffConfig, div: Box<Divergence>) -> ExitCode {
    eprintln!("DIVERGENCE: {div}");
    eprintln!("minimizing...");
    let minimized = minimize_divergence(div, cfg);
    eprintln!("minimized: {minimized}");
    if let Some(dir) = args.artifact.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create artifact directory {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    match std::fs::File::create(&args.artifact)
        .map_err(bc_snapshot::SnapshotError::Io)
        .and_then(|f| save_divergence(&minimized, f))
    {
        Ok(()) => {
            eprintln!(
                "repro artifact written to {} — replay by copying it into {} and re-running",
                args.artifact.display(),
                args.corpus.display()
            );
        }
        Err(e) => eprintln!("could not write repro artifact: {e}"),
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("oracle-fuzz: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = DiffConfig::default();
    let gen_cfg = GenConfig::default();

    if !args.write_seeds.is_empty() || args.write_regressions {
        if let Err(e) = std::fs::create_dir_all(&args.corpus) {
            eprintln!("cannot create corpus directory: {e}");
            return ExitCode::FAILURE;
        }
        let mut to_write: Vec<(String, Instance)> = args
            .write_seeds
            .iter()
            .map(|&seed| {
                let inst = random_instance(seed, &gen_cfg);
                (format!("gen-{seed:08}.bcsnap"), inst)
            })
            .collect();
        if args.write_regressions {
            to_write.extend(
                regression_instances()
                    .into_iter()
                    .map(|inst| (format!("{}.bcsnap", inst.name), inst)),
            );
        }
        for (file, inst) in to_write {
            let path = args.corpus.join(file);
            let write = std::fs::File::create(&path)
                .map_err(bc_snapshot::SnapshotError::Io)
                .and_then(|f| save_instance(&inst, f));
            match write {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    let corpus = match load_corpus(&args.corpus) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("corpus load failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "oracle-fuzz: {} corpus instances + {} fresh (seed {:#x})",
        corpus.len(),
        args.cases,
        args.seed
    );

    for (path, inst) in &corpus {
        // Corpus entries are regressions or handcrafted edge cases: always
        // run the full metamorphic suite on them.
        if let Err(div) = fuzz_one(inst, &cfg, true) {
            eprintln!("corpus instance {} diverged", path.display());
            return report_failure(&args, &cfg, div);
        }
    }

    let mut checked = corpus.len() as u64;
    for i in 0..args.cases {
        let inst = random_instance(args.seed.wrapping_add(i), &gen_cfg);
        let deep = args.metamorphic_every > 0 && i % args.metamorphic_every == 0;
        if let Err(div) = fuzz_one(&inst, &cfg, deep) {
            return report_failure(&args, &cfg, div);
        }
        checked += 1;
        if (i + 1) % 50 == 0 {
            println!("  {}/{} fresh instances ok", i + 1, args.cases);
        }
    }
    println!("oracle-fuzz: {checked} instances, no divergence");
    ExitCode::SUCCESS
}
