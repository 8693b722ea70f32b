//! Property tests for the Bayesian-network substrate: variable elimination
//! against brute-force enumeration of the joint distribution, and the
//! missing-value model's Markov-blanket conditionals against both.

use bc_bayes::{BayesianNetwork, Cpt, Dag, MissingValueModel, Pmf};
use bc_data::{AttrId, ObjectId, VarId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Builds a random network over `n` nodes with random-ish CPTs. Structure:
/// each node may take one or two of the previous nodes as parents, so the
/// graph is a DAG by construction.
fn random_network(
    n: usize,
    card: usize,
    parent_choices: &[u8],
    weights: &[f64],
) -> BayesianNetwork {
    let mut dag = Dag::empty(n);
    for child in 1..n {
        let code = parent_choices[child % parent_choices.len()];
        if !code.is_multiple_of(3) {
            dag.try_add_edge((child - 1) % child.max(1), child);
        }
        if code % 3 == 2 && child >= 2 {
            dag.try_add_edge(child - 2, child);
        }
    }
    let mut widx = 0usize;
    let mut next_weight = || {
        let w = weights[widx % weights.len()];
        widx += 1;
        0.05 + w
    };
    let cpts = (0..n)
        .map(|node| {
            let parents = dag.parents(node).to_vec();
            let parent_cards = vec![card; parents.len()];
            let configs: usize = parent_cards.iter().product::<usize>().max(1);
            let table = (0..configs)
                .map(|_| Pmf::from_weights((0..card).map(|_| next_weight()).collect()))
                .collect();
            Cpt::new(node, parents, parent_cards, table)
        })
        .collect();
    BayesianNetwork::new(dag, cpts, vec![card; n])
}

/// Joint probability of a complete assignment.
fn joint(bn: &BayesianNetwork, assignment: &[u16]) -> f64 {
    let mut p = 1.0;
    for node in 0..bn.n_nodes() {
        let parents = bn.dag().parents(node);
        let parent_vals: Vec<u16> = parents.iter().map(|&q| assignment[q]).collect();
        p *= bn.cpts()[node].pmf(&parent_vals).p(assignment[node]);
    }
    p
}

/// Brute-force posterior by enumerating the joint.
fn posterior_by_enumeration(bn: &BayesianNetwork, target: usize, evidence: &[(usize, u16)]) -> Pmf {
    let n = bn.n_nodes();
    let card = bn.cards()[target];
    let mut weights = vec![0.0; card];
    let mut assignment = vec![0u16; n];
    loop {
        let consistent = evidence
            .iter()
            .all(|&(q, v)| q == target || assignment[q] == v);
        if consistent {
            weights[assignment[target] as usize] += joint(bn, &assignment);
        }
        // Odometer.
        let mut k = n;
        loop {
            if k == 0 {
                let total: f64 = weights.iter().sum();
                return if total > 0.0 {
                    Pmf::from_weights(weights)
                } else {
                    Pmf::uniform(card)
                };
            }
            k -= 1;
            assignment[k] += 1;
            if (assignment[k] as usize) < bn.cards()[k] {
                break;
            }
            assignment[k] = 0;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn variable_elimination_matches_enumeration(
        n in 2usize..6,
        card in 2usize..4,
        parent_choices in prop::collection::vec(0u8..6, 1..6),
        weights in prop::collection::vec(0.01f64..1.0, 8),
        target_raw in 0usize..6,
        ev_node_raw in 0usize..6,
        ev_val_raw in 0usize..4,
    ) {
        let bn = random_network(n, card, &parent_choices, &weights);
        let target = target_raw % n;
        let ev_node = ev_node_raw % n;
        let ev_val = (ev_val_raw % card) as u16;
        let evidence: Vec<(usize, u16)> = if ev_node == target {
            vec![]
        } else {
            vec![(ev_node, ev_val)]
        };
        let ve = bn.posterior(target, &evidence);
        let brute = posterior_by_enumeration(&bn, target, &evidence);
        for v in 0..card as u16 {
            prop_assert!(
                (ve.p(v) - brute.p(v)).abs() < 1e-9,
                "P({target}={v}|{evidence:?}): VE {} vs enumeration {}",
                ve.p(v), brute.p(v)
            );
        }
    }

    #[test]
    fn blanket_conditionals_match_elimination_and_enumeration(
        n in 2usize..6,
        card in 2usize..4,
        parent_choices in prop::collection::vec(0u8..6, 1..6),
        weights in prop::collection::vec(0.01f64..1.0, 8),
        rows in 1usize..12,
        missing_rate in 0.05f64..0.8,
        seed in any::<u64>(),
    ) {
        let bn = random_network(n, card, &parent_choices, &weights);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut data = bn.sample_dataset("random", rows, &mut rng).unwrap();
        for o in 0..rows as u32 {
            for a in 0..n as u16 {
                if rng.gen_bool(missing_rate) {
                    data.set(ObjectId(o), AttrId(a), None).unwrap();
                }
            }
        }
        let (model, stats) = MissingValueModel::from_network_with_stats(bn.clone(), &data);
        prop_assert_eq!(stats.blanket_cells + stats.ve_cells, data.n_missing());
        prop_assert_eq!(model.pmfs().len(), data.n_missing());
        prop_assert!(stats.blanket_keys <= stats.blanket_cells);
        for var in data.missing_vars() {
            let evidence: Vec<(usize, u16)> = data
                .row(var.object)
                .iter()
                .enumerate()
                .filter_map(|(a, cell)| cell.map(|v| (a, v)))
                .collect();
            let target = var.attr.index();
            let got = model.pmf(var).unwrap();
            let ve = bn.posterior(target, &evidence);
            let brute = posterior_by_enumeration(&bn, target, &evidence);
            for v in 0..card as u16 {
                prop_assert!(
                    (got.p(v) - ve.p(v)).abs() < 1e-12,
                    "{var} = {v}: model {} vs VE {}", got.p(v), ve.p(v)
                );
                prop_assert!(
                    (got.p(v) - brute.p(v)).abs() < 1e-9,
                    "{var} = {v}: model {} vs enumeration {}", got.p(v), brute.p(v)
                );
            }
        }
        prop_assert!(model.pmf(VarId::new(rows as u32, 0)).is_none());
    }

    #[test]
    fn posteriors_are_normalized(
        n in 2usize..6,
        card in 2usize..4,
        parent_choices in prop::collection::vec(0u8..6, 1..6),
        weights in prop::collection::vec(0.01f64..1.0, 8),
        target_raw in 0usize..6,
    ) {
        let bn = random_network(n, card, &parent_choices, &weights);
        let target = target_raw % n;
        let p = bn.posterior(target, &[]);
        let total: f64 = (0..card as u16).map(|v| p.p(v)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }
}

#[test]
fn sampling_agrees_with_marginals() {
    // Ancestral sampling's empirical marginals must converge to the exact
    // posterior marginals.
    let bn = random_network(4, 3, &[1, 2, 4], &[0.3, 0.9, 0.5, 0.2, 0.7]);
    let exact = bn.posterior(3, &[]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let n = 60_000;
    let mut counts = [0usize; 3];
    for _ in 0..n {
        let row = bn.sample_row(&mut rng);
        counts[row[3] as usize] += 1;
    }
    for v in 0..3u16 {
        let emp = counts[v as usize] as f64 / n as f64;
        assert!(
            (emp - exact.p(v)).abs() < 0.01,
            "value {v}: empirical {emp} vs exact {}",
            exact.p(v)
        );
    }
}
