//! The benchmark's workloads and the seeded inputs they run on.
//!
//! Every workload is a pool of independently seeded incomplete datasets of
//! one shape, answered by one BayesCrowd configuration. A run cycles
//! through the pool, so its medians average over many inputs and stay put
//! from one seed to the next.

use bayescrowd::{BayesCrowdConfig, TaskStrategy};
use bc_bayes::synthetic::adult_like;
use bc_crowd::GroundTruthOracle;
use bc_data::generators::nba::nba_like;
use bc_data::missing::inject_mcar;
use bc_data::skyline::skyline_sfs;
use bc_data::{Dataset, ObjectId};
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Share of cells removed at random (MCAR) from every complete dataset.
const MISSING_RATE: f64 = 0.1;

/// Which generator draws the complete data.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// NBA-like player statistics: 11 attributes of cardinality 100, all
    /// correlated through one latent skill.
    Nba,
    /// Rows sampled from the Adult-like Bayesian network: 9 attributes of
    /// cardinality 8 with the network's dependency structure.
    Synthetic,
}

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Data generator.
    pub source: Source,
    /// Objects per dataset.
    pub objects: usize,
    /// Datasets in the pool.
    pub pool: usize,
    /// The configuration every campaign runs with.
    pub config: BayesCrowdConfig,
}

/// Every workload, by name.
///
/// * `nba_hhs` — the paper's NBA setting (HHS with `m = 15`, `B = 50`,
///   `L = 5`) on correlated 11-attribute data: selection time goes to
///   marginal-utility solves.
/// * `synthetic_hhs` — the paper's Synthetic setting (HHS with `m = 50`,
///   `L = 10`) on BN-sampled data, with twice the tasks per round.
/// * `synthetic_fbs` — frequency-based selection on larger BN-sampled
///   tables: no utility solves at all, so time goes to modeling, condition
///   probabilities and constraint propagation.
///
/// Sizes keep one campaign at tens of milliseconds, so a run covers
/// hundreds of inputs and its medians move little from seed to seed.
/// `alpha` is the paper's Synthetic value on both datasets: the NBA value
/// of 0.003 is meant for 10,000 objects, and at a few hundred it would cap
/// dominator sets at one object.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "nba_hhs",
            source: Source::Nba,
            objects: 400,
            pool: 600,
            config: BayesCrowdConfig {
                budget: 50,
                latency: 5,
                alpha: 0.01,
                strategy: TaskStrategy::Hhs { m: 15 },
                ..BayesCrowdConfig::default()
            },
        },
        Workload {
            name: "synthetic_hhs",
            source: Source::Synthetic,
            objects: 800,
            pool: 250,
            config: BayesCrowdConfig {
                budget: 100,
                latency: 10,
                alpha: 0.01,
                strategy: TaskStrategy::Hhs { m: 50 },
                ..BayesCrowdConfig::default()
            },
        },
        Workload {
            name: "synthetic_fbs",
            source: Source::Synthetic,
            objects: 1_500,
            pool: 300,
            config: BayesCrowdConfig {
                budget: 400,
                latency: 10,
                alpha: 0.01,
                strategy: TaskStrategy::Fbs,
                ..BayesCrowdConfig::default()
            },
        },
    ]
}

/// One input of a workload's pool.
pub struct Instance {
    /// What the machine sees.
    pub incomplete: Dataset,
    /// The hidden complete data the simulated crowd answers from.
    pub oracle: GroundTruthOracle,
    /// Skyline of the complete data: the answer a perfect run returns.
    pub truth: BTreeSet<ObjectId>,
    /// Seed of the simulated crowd for this input.
    pub crowd_seed: u64,
}

/// SplitMix64: spreads the run seed over the pool's per-input seeds.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// Generates the pool for `seed`: the same seed gives the same inputs.
    pub fn instances(&self, seed: u64) -> Result<Vec<Instance>, String> {
        (0..self.pool as u64)
            .map(|i| {
                let s = mix(seed.wrapping_mul(1_000_003).wrapping_add(i));
                let complete = match self.source {
                    Source::Nba => nba_like(self.objects, s),
                    Source::Synthetic => {
                        let mut rng = rand::rngs::StdRng::seed_from_u64(s);
                        adult_like()
                            .sample_dataset("synthetic", self.objects, &mut rng)
                            .map_err(|e| format!("sampling failed: {e}"))?
                    }
                };
                let (incomplete, _) = inject_mcar(&complete, MISSING_RATE, mix(s));
                let truth = skyline_sfs(&complete)
                    .map_err(|e| format!("skyline failed: {e}"))?
                    .into_iter()
                    .collect();
                Ok(Instance {
                    incomplete,
                    oracle: GroundTruthOracle::new(complete),
                    truth,
                    crowd_seed: mix(s ^ 0xC0FFEE),
                })
            })
            .collect()
    }
}
