//! Truncated Katz index — the paper's §VII names Katz-based prediction as
//! future work; we implement it so the attack harness can evaluate TPP
//! protections against a path-counting adversary too.

use tpp_graph::{NeighborAccess, NodeId};

/// Katz similarity truncated at `max_len` hops:
/// `Σ_{ℓ=1..max_len} β^ℓ · |walks of length ℓ from u to v|`.
///
/// Computed matrix-free by propagating the walk-count vector from `u`
/// (`O(max_len · E)` per source). `beta` should be below the reciprocal of
/// the adjacency spectral radius for the untruncated series to converge;
/// the truncated sum is always finite.
#[must_use]
pub fn katz_score<G: NeighborAccess>(
    g: &G,
    u: NodeId,
    v: NodeId,
    beta: f64,
    max_len: usize,
) -> f64 {
    katz_row(g, u, beta, max_len)[v as usize]
}

/// Katz scores from `u` to every node (shared-work variant for ranking many
/// candidate pairs with the same source).
#[must_use]
pub fn katz_row<G: NeighborAccess>(g: &G, u: NodeId, beta: f64, max_len: usize) -> Vec<f64> {
    let n = g.node_count();
    let mut walks = vec![0.0f64; n]; // walk counts of current length
    let mut next = vec![0.0f64; n];
    let mut score = vec![0.0f64; n];
    walks[u as usize] = 1.0;
    let mut beta_pow = 1.0f64;
    for _ in 1..=max_len {
        beta_pow *= beta;
        next.iter_mut().for_each(|x| *x = 0.0);
        for a in g.node_ids() {
            let w = walks[a as usize];
            if w == 0.0 {
                continue;
            }
            for &b in g.neighbors(a) {
                next[b as usize] += w;
            }
        }
        std::mem::swap(&mut walks, &mut next);
        for (s, &w) in score.iter_mut().zip(walks.iter()) {
            *s += beta_pow * w;
        }
    }
    score[u as usize] = 0.0; // self-similarity is not a link prediction
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::generators::{complete_graph, path_graph};
    use tpp_graph::Graph;

    const EPS: f64 = 1e-12;

    #[test]
    fn single_edge_walk_counts() {
        let g = path_graph(2);
        // walks 0->1: length 1: 1 walk; length 2: 0; length 3: 1 (0-1-0-1)
        let beta = 0.5;
        assert!((katz_score(&g, 0, 1, beta, 1) - beta).abs() < EPS);
        assert!((katz_score(&g, 0, 1, beta, 3) - (beta + beta.powi(3))).abs() < EPS);
    }

    #[test]
    fn two_hop_neighbors_scored() {
        let g = path_graph(3);
        let beta = 0.1;
        // 0 to 2: only even contributions via the middle: length 2 = 1 walk.
        let s = katz_score(&g, 0, 2, beta, 2);
        assert!((s - beta * beta).abs() < EPS);
    }

    #[test]
    fn symmetric_on_undirected_graphs() {
        let g = tpp_graph::generators::erdos_renyi_gnp(30, 0.15, 3);
        for (u, v) in [(0u32, 5u32), (2, 9), (1, 17)] {
            let a = katz_score(&g, u, v, 0.05, 5);
            let b = katz_score(&g, v, u, 0.05, 5);
            assert!((a - b).abs() < 1e-9, "katz asymmetric: {a} vs {b}");
        }
    }

    #[test]
    fn longer_horizon_never_decreases_score() {
        let g = complete_graph(5);
        let s3 = katz_score(&g, 0, 1, 0.1, 3);
        let s6 = katz_score(&g, 0, 1, 0.1, 6);
        assert!(s6 >= s3);
    }

    #[test]
    fn disconnected_pair_scores_zero() {
        let mut g = path_graph(2);
        g.ensure_node(2);
        assert_eq!(katz_score(&g, 0, 2, 0.3, 6), 0.0);
    }

    #[test]
    fn row_matches_pointwise() {
        let g = Graph::from_edges([(0u32, 1u32), (1, 2), (2, 3), (0, 3), (1, 3)]);
        let row = katz_row(&g, 0, 0.2, 4);
        for v in 1..4u32 {
            assert!((row[v as usize] - katz_score(&g, 0, v, 0.2, 4)).abs() < EPS);
        }
        assert_eq!(row[0], 0.0, "self-score suppressed");
    }
}
