//! The preprocessing step of BayesCrowd: learn a Bayesian network from the
//! (incomplete) dataset and derive, for every missing cell `Var(o, a)`, its
//! conditional value distribution given the observed attributes of `o`.
//!
//! # How the conditionals are computed
//!
//! A node is independent of all other nodes given its Markov blanket (its
//! parents, children and children's other parents). So when every blanket
//! node of attribute `x` is observed in `o`'s row, the conditional has the
//! closed form
//!
//! ```text
//! P(x | E) ∝ P(x | pa(x)) · Π_{c ∈ ch(x)} P(e_c | pa(c) with x)
//! ```
//!
//! which costs `O(card · (1 + |children|))` table lookups. The result
//! depends only on `x` and the blanket's values, so it is memoized under
//! the key `(x, blanket values)`: with an empty DAG every attribute is
//! computed once, however many rows miss it. If every weight is zero (the
//! evidence is impossible) the cell gets `Pmf::uniform`, as variable
//! elimination returns.
//!
//! Variable elimination ([`BayesianNetwork::posterior`] with all of the
//! row's observed cells as evidence) still runs for a cell when
//!
//! * one of its blanket nodes is itself missing in the row, or
//! * some CPT outside the families of `x` and its children has a zero
//!   entry: then evidence outside the blanket could have probability zero,
//!   where elimination answers uniform and the closed form would not.
//!   Learned CPTs are Laplace-smoothed and never have zero entries.
//!
//! [`ModelStats`] counts the cells of each route and the memo entries.

use crate::anneal::{anneal_with_iters, AnnealConfig};
use crate::em::{em_fit, EmConfig};
use crate::graph::Dag;
use crate::learn::{family_bic_score, fit_parameters, hill_climb_with_iters, LearnConfig};
use crate::pmf::Pmf;
use crate::BayesianNetwork;
use bc_data::{Dataset, VarId};
use std::collections::{BTreeMap, HashMap};

/// What one [`MissingValueModel::learn_with_stats`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ModelStats {
    /// Total BIC score of the learned structure on the complete rows
    /// (`0.0` for the uniform-prior ablation or with no complete rows).
    pub bic: f64,
    /// Edges in the learned DAG.
    pub edges: usize,
    /// EM sweeps performed (`0` when EM was disabled).
    pub em_iters: usize,
    /// Structure-search moves applied (hill-climb improving moves or
    /// accepted annealing moves; `0` for the uniform-prior ablation).
    pub search_iters: usize,
    /// Missing cells that received a conditional distribution
    /// (`blanket_cells + ve_cells`).
    pub missing_vars: usize,
    /// Missing cells whose conditional came from the Markov-blanket closed
    /// form (memoized or freshly computed).
    pub blanket_cells: usize,
    /// Missing cells that went through variable elimination.
    pub ve_cells: usize,
    /// Distinct `(attribute, blanket values)` memo entries, i.e. closed-form
    /// evaluations.
    pub blanket_keys: usize,
}

/// Which structure-search mode runs over the complete rows (Banjo offers
/// the same pair).
#[derive(Clone, Debug, Default)]
pub enum StructureSearch {
    /// Greedy hill climbing (the default).
    #[default]
    HillClimb,
    /// Simulated annealing with the given schedule.
    Anneal(AnnealConfig),
}

/// Configuration of the modeling step.
#[derive(Clone, Debug, Default)]
pub struct ModelConfig {
    /// Structure/parameter learning knobs.
    pub learn: LearnConfig,
    /// If `true`, skip the Bayesian network entirely and give every missing
    /// value the uniform prior — the ablation the paper's design motivates
    /// against.
    pub uniform_prior: bool,
    /// If set, refine the CPTs by expectation-maximization over the
    /// incomplete rows instead of relying on listwise deletion alone.
    pub em: Option<EmConfig>,
    /// Structure-search mode.
    pub search: StructureSearch,
}

/// Learned value distributions for every missing cell of a dataset.
///
/// Variables of the *same* object are treated as mutually independent given
/// the object's observed attributes (each receives its own conditional
/// marginal). This matches the paper's ADPLL weighting, which multiplies a
/// standalone `p(v_a)` per variable.
#[derive(Clone, Debug)]
pub struct MissingValueModel {
    network: BayesianNetwork,
    pmfs: BTreeMap<VarId, Pmf>,
}

impl MissingValueModel {
    /// Runs the full preprocessing step on `data`.
    ///
    /// Structure and parameters are learned from the listwise-complete rows
    /// of `data` itself; with too few complete rows the model degrades
    /// gracefully to per-attribute marginals / uniform priors.
    pub fn learn(data: &Dataset, config: &ModelConfig) -> MissingValueModel {
        Self::learn_with_stats(data, config).0
    }

    /// [`MissingValueModel::learn`] plus training counters (structure
    /// score, DAG size, EM effort) for telemetry.
    pub fn learn_with_stats(
        data: &Dataset,
        config: &ModelConfig,
    ) -> (MissingValueModel, ModelStats) {
        let cards: Vec<usize> = data
            .domains()
            .iter()
            .map(|d| d.cardinality() as usize)
            .collect();
        let mut stats = ModelStats::default();
        let network = if config.uniform_prior {
            let dag = Dag::empty(cards.len());
            let cpts = fit_parameters(&dag, &[], &cards, config.learn.laplace);
            BayesianNetwork::new(dag, cpts, cards.clone())
        } else {
            // Structure on the complete rows (greedy or annealed)...
            let complete = data.complete_rows();
            let (dag, search_iters) = match &config.search {
                StructureSearch::HillClimb => {
                    hill_climb_with_iters(&complete, &cards, &config.learn)
                }
                StructureSearch::Anneal(a) => anneal_with_iters(&complete, &cards, a),
            };
            stats.search_iters = search_iters;
            if !complete.is_empty() {
                stats.bic = (0..dag.n_nodes())
                    .map(|node| family_bic_score(&complete, &cards, node, dag.parents(node)))
                    .sum();
            }
            // ...then parameters: EM over everything, or smoothed MLE on
            // the complete rows.
            if let Some(em_config) = &config.em {
                stats.em_iters = em_config.iterations;
                let all_rows: Vec<Vec<Option<u16>>> =
                    data.objects().map(|o| data.row(o).to_vec()).collect();
                em_fit(&dag, &all_rows, &cards, em_config)
            } else {
                let cpts = fit_parameters(&dag, &complete, &cards, config.learn.laplace);
                BayesianNetwork::new(dag, cpts, cards.clone())
            }
        };
        let pmfs = conditionals(&network, data, &mut stats);
        (MissingValueModel { network, pmfs }, stats)
    }

    /// Builds a model from an already-trained network (e.g. the true network
    /// a synthetic dataset was sampled from).
    pub fn from_network(network: BayesianNetwork, data: &Dataset) -> MissingValueModel {
        Self::from_network_with_stats(network, data).0
    }

    /// [`MissingValueModel::from_network`] plus the counters of the
    /// conditional step (`edges`, `missing_vars`, `blanket_cells`,
    /// `ve_cells`, `blanket_keys`; the training counters stay zero).
    pub fn from_network_with_stats(
        network: BayesianNetwork,
        data: &Dataset,
    ) -> (MissingValueModel, ModelStats) {
        let mut stats = ModelStats::default();
        let pmfs = conditionals(&network, data, &mut stats);
        (MissingValueModel { network, pmfs }, stats)
    }

    /// The underlying network.
    #[inline]
    pub fn network(&self) -> &BayesianNetwork {
        &self.network
    }

    /// Distribution of one missing variable, if it exists in the model.
    #[inline]
    pub fn pmf(&self, var: VarId) -> Option<&Pmf> {
        self.pmfs.get(&var)
    }

    /// All `(variable, distribution)` pairs, ordered by variable.
    #[inline]
    pub fn pmfs(&self) -> &BTreeMap<VarId, Pmf> {
        &self.pmfs
    }

    /// Moves the distributions out of the model.
    pub fn into_pmfs(self) -> BTreeMap<VarId, Pmf> {
        self.pmfs
    }
}

/// The conditional of every missing cell of `data` under `network` (see the
/// module docs), filling the edge, cell and memo counters of `stats`.
fn conditionals(
    network: &BayesianNetwork,
    data: &Dataset,
    stats: &mut ModelStats,
) -> BTreeMap<VarId, Pmf> {
    let plan = BlanketPlan::new(network);
    let mut memo: Vec<HashMap<Vec<u16>, Pmf>> = vec![HashMap::new(); network.n_nodes()];
    let mut key: Vec<u16> = Vec::new();
    let mut pmfs = BTreeMap::new();
    for o in data.objects() {
        let row = data.row(o);
        for x in (0..row.len()).filter(|&a| row[a].is_none()) {
            let blanket = &plan.blankets[x];
            let pmf = if plan.exact[x] && blanket.iter().all(|&n| row[n].is_some()) {
                stats.blanket_cells += 1;
                key.clear();
                key.extend(blanket.iter().filter_map(|&n| row[n]));
                match memo[x].get(key.as_slice()) {
                    Some(pmf) => pmf.clone(),
                    None => {
                        let pmf = plan.closed_form(x, row);
                        memo[x].insert(key.clone(), pmf.clone());
                        pmf
                    }
                }
            } else {
                stats.ve_cells += 1;
                let evidence: Vec<(usize, u16)> = row
                    .iter()
                    .enumerate()
                    .filter_map(|(a, cell)| cell.map(|v| (a, v)))
                    .collect();
                network.posterior(x, &evidence)
            };
            pmfs.insert(VarId::new(o.0, x as u16), pmf);
        }
    }
    stats.edges = network.dag().n_edges();
    stats.missing_vars = pmfs.len();
    stats.blanket_keys = memo.iter().map(HashMap::len).sum();
    pmfs
}

/// What the Markov-blanket closed form needs per node, derived once from
/// the network's DAG and CPTs.
struct BlanketPlan<'a> {
    network: &'a BayesianNetwork,
    children: Vec<Vec<usize>>,
    blankets: Vec<Vec<usize>>,
    /// Whether the closed form equals variable elimination for the node
    /// whenever its blanket is observed: every CPT outside the node's own
    /// family and its children's families is strictly positive, so the
    /// evidence outside the blanket cannot have probability zero.
    exact: Vec<bool>,
}

impl<'a> BlanketPlan<'a> {
    fn new(network: &'a BayesianNetwork) -> BlanketPlan<'a> {
        let dag = network.dag();
        let n = network.n_nodes();
        let children = dag.children();
        let positive: Vec<bool> = network
            .cpts()
            .iter()
            .map(|cpt| (0..cpt.n_configs()).all(|c| cpt.pmf_at(c).probs().iter().all(|&p| p > 0.0)))
            .collect();
        let exact = (0..n)
            .map(|x| (0..n).all(|m| positive[m] || m == x || children[x].contains(&m)))
            .collect();
        BlanketPlan {
            network,
            blankets: (0..n).map(|x| dag.markov_blanket(x)).collect(),
            children,
            exact,
        }
    }

    /// `P(x | blanket)` for a row whose blanket nodes of `x` are all
    /// observed.
    fn closed_form(&self, x: usize, row: &[Option<u16>]) -> Pmf {
        let value = |node: usize| row[node].expect("blanket node is observed");
        let cpts = self.network.cpts();
        let parent_vals: Vec<u16> = cpts[x].parents().iter().map(|&p| value(p)).collect();
        let mut weights = cpts[x].pmf(&parent_vals).probs().to_vec();
        for &c in &self.children[x] {
            let cpt = &cpts[c];
            // Mixed-radix configuration of c's parents with x = 0, plus the
            // stride of x's digit.
            let (mut config, mut stride) = (0usize, 0usize);
            for (&p, &card) in cpt.parents().iter().zip(cpt.parent_cards()) {
                if p == x {
                    config *= card;
                    stride = 1;
                } else {
                    config = config * card + value(p) as usize;
                    stride *= card;
                }
            }
            let observed = value(c);
            for (v, w) in weights.iter_mut().enumerate() {
                *w *= cpt.pmf_at(config + v * stride).p(observed);
            }
        }
        let total: f64 = weights.iter().sum();
        if total > 0.0 && total.is_finite() {
            Pmf::from_weights(weights)
        } else {
            Pmf::uniform(weights.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dag;
    use bc_data::generators::sample::paper_dataset;
    use bc_data::missing::inject_mcar;
    use bc_data::{AttrId, Domain, ObjectId};
    use rand::Rng;
    use rand::SeedableRng;

    #[test]
    fn covers_exactly_the_missing_cells() {
        let data = paper_dataset();
        let model = MissingValueModel::learn(&data, &ModelConfig::default());
        assert_eq!(model.pmfs().len(), data.n_missing());
        for var in data.missing_vars() {
            let pmf = model.pmf(var).unwrap();
            assert_eq!(pmf.card(), data.domain(var.attr).cardinality() as usize);
        }
        assert_eq!(model.pmf(VarId::new(0, 0)), None);
    }

    #[test]
    fn learn_stats_describe_the_training_run() {
        let data = paper_dataset();
        let (model, stats) = MissingValueModel::learn_with_stats(&data, &ModelConfig::default());
        assert_eq!(stats.missing_vars, model.pmfs().len());
        assert_eq!(stats.edges, model.network().dag().n_edges());
        assert_eq!(stats.em_iters, 0);
        assert!(stats.bic <= 0.0, "BIC is a log-score, got {}", stats.bic);

        let (_, em_stats) = MissingValueModel::learn_with_stats(
            &data,
            &ModelConfig {
                em: Some(crate::em::EmConfig::default()),
                ..Default::default()
            },
        );
        assert_eq!(em_stats.em_iters, crate::em::EmConfig::default().iterations);

        let (_, uni) = MissingValueModel::learn_with_stats(
            &data,
            &ModelConfig {
                uniform_prior: true,
                ..Default::default()
            },
        );
        assert_eq!(uni.bic, 0.0);
        assert_eq!(uni.edges, 0);
    }

    /// A dataset over binary attributes from rows of optional cells.
    fn binary_dataset(rows: &[&[Option<u16>]]) -> Dataset {
        let d = rows[0].len();
        let domains = (0..d)
            .map(|a| Domain::new(format!("a{a}"), 2).unwrap())
            .collect();
        let mut data =
            Dataset::from_complete_rows("hand", domains, vec![vec![0; d]; rows.len()]).unwrap();
        for (o, row) in rows.iter().enumerate() {
            for (a, &cell) in row.iter().enumerate() {
                data.set(ObjectId(o as u32), AttrId(a as u16), cell)
                    .unwrap();
            }
        }
        data
    }

    /// `X0 -> X1` over binary nodes, plus an isolated `X2` when `extra` is
    /// set, with the given CPT rows.
    fn chain(x1_given_x0: [[f64; 2]; 2], extra: Option<[f64; 2]>) -> BayesianNetwork {
        let n = 2 + usize::from(extra.is_some());
        let dag = Dag::from_edges(n, &[(0, 1)]);
        let mut cpts = vec![
            crate::Cpt::new(0, vec![], vec![], vec![Pmf::from_weights(vec![0.3, 0.7])]),
            crate::Cpt::new(
                1,
                vec![0],
                vec![2],
                x1_given_x0
                    .iter()
                    .map(|w| Pmf::from_weights(w.to_vec()))
                    .collect(),
            ),
        ];
        if let Some(w) = extra {
            cpts.push(crate::Cpt::new(
                2,
                vec![],
                vec![],
                vec![Pmf::from_weights(w.to_vec())],
            ));
        }
        BayesianNetwork::new(dag, cpts, vec![2; n])
    }

    #[test]
    fn empty_dag_memoizes_one_entry_per_attribute() {
        let data = paper_dataset();
        let (model, stats) = MissingValueModel::learn_with_stats(
            &data,
            &ModelConfig {
                uniform_prior: true,
                ..Default::default()
            },
        );
        let attrs: std::collections::BTreeSet<AttrId> =
            data.missing_vars().iter().map(|v| v.attr).collect();
        assert!(data.n_missing() > attrs.len(), "some attribute repeats");
        assert_eq!(stats.blanket_keys, attrs.len());
        assert_eq!(stats.blanket_cells, data.n_missing());
        assert_eq!(stats.ve_cells, 0);
        assert_eq!(stats.missing_vars, model.pmfs().len());
    }

    #[test]
    fn a_cell_with_a_missing_blanket_node_goes_to_variable_elimination() {
        let bn = chain([[0.9, 0.1], [0.2, 0.8]], None);
        // Row 0: X0 observed, X1 missing (blanket {X0} observed).
        // Row 1: both missing (each is the other's blanket).
        let data = binary_dataset(&[&[Some(1), None], &[None, None]]);
        let (model, stats) = MissingValueModel::from_network_with_stats(bn.clone(), &data);
        assert_eq!((stats.blanket_cells, stats.ve_cells), (1, 2));
        assert_eq!(stats.blanket_keys, 1);
        assert_eq!(stats.missing_vars, 3);
        let cases = [(0, 1, vec![(0, 1)]), (1, 0, vec![]), (1, 1, vec![])];
        for (o, a, evidence) in cases {
            let got = model.pmf(VarId::new(o, a)).unwrap();
            let want = bn.posterior(a as usize, &evidence);
            for v in 0..2 {
                assert!((got.p(v) - want.p(v)).abs() < 1e-12, "cell ({o}, {a})");
            }
        }
    }

    #[test]
    fn impossible_evidence_gives_the_uniform_pmf_like_elimination() {
        // X1 = 1 has probability zero under either value of X0.
        let bn = chain([[1.0, 0.0], [1.0, 0.0]], None);
        let data = binary_dataset(&[&[None, Some(1)]]);
        let (model, stats) = MissingValueModel::from_network_with_stats(bn.clone(), &data);
        assert_eq!(stats.blanket_cells, 1);
        assert_eq!(model.pmf(VarId::new(0, 0)), Some(&Pmf::uniform(2)));
        assert_eq!(bn.posterior(0, &[(1, 1)]), Pmf::uniform(2));
    }

    #[test]
    fn a_zero_entry_outside_the_blanket_families_forces_elimination() {
        // X2 is independent of X0, but X2 = 1 is impossible: elimination
        // answers uniform for X0, which the closed form cannot see.
        let bn = chain([[0.9, 0.1], [0.2, 0.8]], Some([1.0, 0.0]));
        let data = binary_dataset(&[&[None, Some(1), Some(1)], &[Some(0), None, Some(0)]]);
        let (model, stats) = MissingValueModel::from_network_with_stats(bn.clone(), &data);
        // X0 must go to elimination; X1's non-blanket CPTs (X0's, X2's)
        // include the zero too.
        assert_eq!((stats.blanket_cells, stats.ve_cells), (0, 2));
        assert_eq!(model.pmf(VarId::new(0, 0)), Some(&Pmf::uniform(2)));
        let x1 = model.pmf(VarId::new(1, 1)).unwrap();
        assert!((x1.p(1) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn annealed_structure_search_runs_end_to_end() {
        let data = paper_dataset();
        let cfg = ModelConfig {
            search: StructureSearch::Anneal(crate::anneal::AnnealConfig {
                moves: 200,
                ..Default::default()
            }),
            ..Default::default()
        };
        let model = MissingValueModel::learn(&data, &cfg);
        assert_eq!(model.pmfs().len(), data.n_missing());
    }

    #[test]
    fn em_modeling_runs_end_to_end() {
        let data = paper_dataset();
        let cfg = ModelConfig {
            em: Some(crate::em::EmConfig::default()),
            ..Default::default()
        };
        let model = MissingValueModel::learn(&data, &cfg);
        assert_eq!(model.pmfs().len(), data.n_missing());
    }

    #[test]
    fn uniform_prior_ablation_really_is_uniform() {
        let data = paper_dataset();
        let cfg = ModelConfig {
            uniform_prior: true,
            ..Default::default()
        };
        let model = MissingValueModel::learn(&data, &cfg);
        let pmf = model.pmf(VarId::new(1, 1)).unwrap();
        assert!((pmf.p(0) - 0.1).abs() < 1e-12);
        assert_eq!(model.network().dag().n_edges(), 0);
    }

    #[test]
    fn correlated_data_sharpens_the_conditional() {
        // X1 strongly tracks X0; hide X1 of an object whose X0 is large and
        // check the learned conditional leans large.
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let rows: Vec<Vec<u16>> = (0..3000)
            .map(|_| {
                let x0: u16 = rng.gen_range(0..8);
                let x1 = if rng.gen_bool(0.85) {
                    x0
                } else {
                    rng.gen_range(0..8)
                };
                vec![x0, x1]
            })
            .collect();
        let complete = Dataset::from_complete_rows(
            "corr",
            vec![Domain::new("a1", 8).unwrap(), Domain::new("a2", 8).unwrap()],
            rows,
        )
        .unwrap();
        let (mut data, _) = inject_mcar(&complete, 0.05, 3);
        // Force a specific missing cell with known evidence.
        data.set(ObjectId(0), AttrId(0), Some(7)).unwrap();
        data.set(ObjectId(0), AttrId(1), None).unwrap();

        let model = MissingValueModel::learn(&data, &ModelConfig::default());
        let pmf = model.pmf(VarId::new(0, 1)).unwrap();
        assert!(
            pmf.p(7) > 0.5,
            "conditional should concentrate near the evidence, got {:?}",
            pmf.probs()
        );

        // Versus the uniform ablation.
        let uni = MissingValueModel::learn(
            &data,
            &ModelConfig {
                uniform_prior: true,
                ..Default::default()
            },
        );
        assert!(uni.pmf(VarId::new(0, 1)).unwrap().p(7) < 0.2);
    }
}
