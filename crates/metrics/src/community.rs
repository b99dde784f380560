//! Community detection and Newman modularity (Table II metric `Mod`).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tpp_graph::{Graph, NeighborAccess, NodeId};

/// Newman modularity `Q` of a community assignment:
/// `Q = Σ_c ( e_c / m − (deg_c / 2m)² )`
/// where `e_c` is the number of intra-community edges and `deg_c` the total
/// degree of community `c`. Returns 0 for edgeless graphs.
#[must_use]
pub fn modularity<G: NeighborAccess>(g: &G, labels: &[usize]) -> f64 {
    assert_eq!(labels.len(), g.node_count(), "labels must cover every node");
    let m = g.edge_count();
    if m == 0 {
        return 0.0;
    }
    let ncomm = labels.iter().copied().max().map_or(0, |c| c + 1);
    let mut intra = vec![0usize; ncomm];
    let mut deg_sum = vec![0u64; ncomm];
    for u in g.node_ids() {
        deg_sum[labels[u as usize]] += g.degree(u) as u64;
        for &v in g.neighbors(u).iter().filter(|&&v| u < v) {
            if labels[u as usize] == labels[v as usize] {
                intra[labels[u as usize]] += 1;
            }
        }
    }
    let m_f = m as f64;
    (0..ncomm)
        .map(|c| {
            let frac = intra[c] as f64 / m_f;
            let deg_frac = deg_sum[c] as f64 / (2.0 * m_f);
            frac - deg_frac * deg_frac
        })
        .sum()
}

/// Asynchronous label propagation: each node adopts the most frequent label
/// among its neighbors until a fixed point (or `max_sweeps`). Fast and
/// usable at DBLP scale; quality below Louvain but adequate for utility-loss
/// deltas.
#[must_use]
pub fn label_propagation<G: NeighborAccess>(g: &G, seed: u64, max_sweeps: usize) -> Vec<usize> {
    let n = g.node_count();
    let mut labels: Vec<usize> = (0..n).collect();
    if n == 0 {
        return labels;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    let mut counts: tpp_graph::FastMap<usize, usize> = tpp_graph::FastMap::default();
    for _ in 0..max_sweeps {
        order.shuffle(&mut rng);
        let mut changed = false;
        for &u in &order {
            if g.degree(u) == 0 {
                continue;
            }
            counts.clear();
            for &v in g.neighbors(u) {
                *counts.entry(labels[v as usize]).or_insert(0) += 1;
            }
            // Deterministic tie-break: highest count, then smallest label.
            let best = counts
                .iter()
                .map(|(&l, &c)| (c, std::cmp::Reverse(l)))
                .max()
                .map(|(_, std::cmp::Reverse(l))| l)
                .expect("non-isolated node has neighbors");
            if best != labels[u as usize] {
                labels[u as usize] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    compact_labels(&mut labels);
    labels
}

/// One-level Louvain local-moving + aggregation, repeated until modularity
/// stops improving. Deterministic for a given seed.
#[must_use]
pub fn louvain<G: NeighborAccess>(g: &G, seed: u64) -> Vec<usize> {
    let n = g.node_count();
    let mut labels: Vec<usize> = (0..n).collect();
    if g.edge_count() == 0 {
        return labels;
    }
    // node -> community mapping refined over levels, working on aggregated
    // graphs (level 0 reads `g` itself). `membership[v]` maps an original
    // node to its community.
    let mut work: Option<Graph> = None;
    let mut membership: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for _level in 0..16 {
        let (moved, work_nodes) = match &work {
            None => (local_moving(g, &mut rng), n),
            Some(w) => (local_moving(w, &mut rng), w.node_count()),
        };
        let mut level_labels = moved.clone();
        compact_labels(&mut level_labels);
        let ncomm = level_labels.iter().copied().max().map_or(0, |c| c + 1);
        if ncomm == work_nodes {
            break; // no merge happened; converged
        }
        // Project to original nodes.
        for lbl in membership.iter_mut() {
            *lbl = level_labels[*lbl];
        }
        // Aggregate: one node per community; keep simple-graph structure
        // (self-loops and multiplicities are dropped — adequate because the
        // stopping criterion is monotone modularity measured on `g`).
        let agg = match &work {
            None => aggregate(g, &level_labels, ncomm),
            Some(w) => aggregate(w, &level_labels, ncomm),
        };
        // Stop if aggregation no longer improves modularity on the original.
        let q_before = modularity(g, &labels);
        let q_after = modularity(g, &membership);
        if q_after <= q_before + 1e-12 {
            break;
        }
        labels.copy_from_slice(&membership);
        work = Some(agg);
    }
    compact_labels(&mut labels);
    labels
}

/// Louvain phase 2: one node per community, one edge per pair of linked
/// communities.
fn aggregate<G: NeighborAccess>(g: &G, level_labels: &[usize], ncomm: usize) -> Graph {
    let mut agg = Graph::new(ncomm);
    for u in g.node_ids() {
        for &v in g.neighbors(u).iter().filter(|&&v| u < v) {
            let (a, b) = (level_labels[u as usize], level_labels[v as usize]);
            if a != b {
                agg.add_edge(a as NodeId, b as NodeId);
            }
        }
    }
    agg
}

/// Louvain phase 1: greedy local moving maximizing the modularity gain.
fn local_moving<G: NeighborAccess>(g: &G, rng: &mut StdRng) -> Vec<usize> {
    let n = g.node_count();
    let m2 = (2 * g.edge_count()) as f64; // 2m
    let mut labels: Vec<usize> = (0..n).collect();
    let mut comm_degree: Vec<f64> = g.node_ids().map(|u| g.degree(u) as f64).collect();
    let degrees: Vec<f64> = comm_degree.clone();
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    order.shuffle(rng);
    let mut neighbor_weights: tpp_graph::FastMap<usize, f64> = tpp_graph::FastMap::default();
    for _sweep in 0..32 {
        let mut moves = 0usize;
        for &u in &order {
            let ui = u as usize;
            let current = labels[ui];
            neighbor_weights.clear();
            for &v in g.neighbors(u) {
                *neighbor_weights.entry(labels[v as usize]).or_insert(0.0) += 1.0;
            }
            // Remove u from its community for the gain computation.
            comm_degree[current] -= degrees[ui];
            let mut best = current;
            let mut best_gain = neighbor_weights.get(&current).copied().unwrap_or(0.0)
                - comm_degree[current] * degrees[ui] / m2;
            let mut cands: Vec<(&usize, &f64)> = neighbor_weights.iter().collect();
            cands.sort_unstable_by_key(|(l, _)| **l); // deterministic iteration
            for (&c, &w) in cands {
                let gain = w - comm_degree[c] * degrees[ui] / m2;
                if gain > best_gain + 1e-12 {
                    best_gain = gain;
                    best = c;
                }
            }
            comm_degree[best] += degrees[ui];
            if best != current {
                labels[ui] = best;
                moves += 1;
            }
        }
        if moves == 0 {
            break;
        }
    }
    labels
}

/// Renumbers labels to a dense `0..k` range, preserving relative identity.
pub fn compact_labels(labels: &mut [usize]) {
    let mut remap: tpp_graph::FastMap<usize, usize> = tpp_graph::FastMap::default();
    for l in labels.iter_mut() {
        let next = remap.len();
        *l = *remap.entry(*l).or_insert(next);
    }
}

/// Convenience: best modularity of the graph under Louvain communities.
#[must_use]
pub fn louvain_modularity<G: NeighborAccess>(g: &G, seed: u64) -> f64 {
    let labels = louvain(g, seed);
    modularity(g, &labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::generators::{complete_graph, planted_partition};

    #[test]
    fn modularity_of_single_community_is_zero() {
        let g = complete_graph(6);
        let labels = vec![0usize; 6];
        assert!(modularity(&g, &labels).abs() < 1e-12);
    }

    #[test]
    fn modularity_two_cliques_hand_computed() {
        // Two triangles joined by one edge: m = 7.
        let mut g = Graph::from_edges([(0u32, 1u32), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        g.add_edge(2, 3);
        let labels = vec![0, 0, 0, 1, 1, 1];
        // e_0 = 3, deg_0 = 7; e_1 = 3, deg_1 = 7; Q = 2*(3/7 - (7/14)^2)
        let expect = 2.0 * (3.0 / 7.0 - 0.25);
        assert!((modularity(&g, &labels) - expect).abs() < 1e-12);
        // Splitting a clique must not increase Q.
        let worse = vec![0, 0, 2, 1, 1, 1];
        assert!(modularity(&g, &worse) < modularity(&g, &labels));
    }

    #[test]
    fn modularity_empty_graph() {
        assert_eq!(modularity(&Graph::new(4), &[0, 1, 2, 3]), 0.0);
    }

    #[test]
    #[should_panic(expected = "labels must cover")]
    fn modularity_rejects_short_labels() {
        let _ = modularity(&complete_graph(3), &[0, 0]);
    }

    #[test]
    fn louvain_recovers_planted_partition() {
        let g = planted_partition(4, 25, 0.4, 0.01, 11);
        let labels = louvain(&g, 7);
        let q = modularity(&g, &labels);
        assert!(q > 0.5, "expected strong communities, Q = {q}");
        // Most nodes in the same block should share a label.
        let mut agree = 0usize;
        let mut total = 0usize;
        for b in 0..4 {
            let base = b * 25;
            for i in 0..25 {
                for j in (i + 1)..25 {
                    total += 1;
                    if labels[base + i] == labels[base + j] {
                        agree += 1;
                    }
                }
            }
        }
        assert!(
            agree as f64 / total as f64 > 0.8,
            "block cohesion too low: {agree}/{total}"
        );
    }

    #[test]
    fn label_propagation_separates_two_cliques() {
        let mut g = Graph::new(10);
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                g.add_edge(u, v);
            }
        }
        for u in 5..10u32 {
            for v in (u + 1)..10 {
                g.add_edge(u, v);
            }
        }
        g.add_edge(0, 5);
        let labels = label_propagation(&g, 3, 50);
        assert_eq!(
            labels[0..5]
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            1
        );
        assert_eq!(
            labels[5..10]
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            1
        );
        assert_ne!(labels[0], labels[9]);
    }

    #[test]
    fn compact_labels_densifies() {
        let mut l = vec![7, 7, 3, 9, 3];
        compact_labels(&mut l);
        assert_eq!(l, vec![0, 0, 1, 2, 1]);
    }

    #[test]
    fn louvain_deterministic_per_seed() {
        let g = planted_partition(3, 20, 0.3, 0.02, 5);
        assert_eq!(louvain(&g, 9), louvain(&g, 9));
    }

    use tpp_graph::Graph;
}
