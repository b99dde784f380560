//! Average shortest-path length (Table II metric `l`).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tpp_graph::traversal::{bfs_distances, UNREACHABLE};
use tpp_graph::{NeighborAccess, NodeId};

/// Aggregate path-length statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLengthStats {
    /// Mean shortest-path length over reachable ordered-unordered pairs.
    pub mean: f64,
    /// Number of reachable (unordered) pairs that contributed.
    pub reachable_pairs: usize,
    /// Total number of (unordered) node pairs.
    pub total_pairs: usize,
}

impl PathLengthStats {
    /// Fraction of pairs that are connected.
    #[must_use]
    pub fn connectivity(&self) -> f64 {
        if self.total_pairs == 0 {
            1.0
        } else {
            self.reachable_pairs as f64 / self.total_pairs as f64
        }
    }
}

/// Exact average path length: all-pairs BFS, `O(V (V + E))`.
///
/// Disconnected pairs are excluded from the mean (the paper's graphs are
/// connected; after protector deletion small disconnections can appear and
/// must not produce infinities).
#[must_use]
pub fn average_path_length<G: NeighborAccess>(g: &G) -> PathLengthStats {
    let n = g.node_count();
    let total_pairs = n * n.saturating_sub(1) / 2;
    let mut sum = 0u64;
    let mut reachable = 0usize;
    for u in g.node_ids() {
        let dist = bfs_distances(g, u);
        for v in (u + 1)..n as NodeId {
            let d = dist[v as usize];
            if d != UNREACHABLE {
                sum += u64::from(d);
                reachable += 1;
            }
        }
    }
    PathLengthStats {
        mean: if reachable == 0 {
            0.0
        } else {
            sum as f64 / reachable as f64
        },
        reachable_pairs: reachable,
        total_pairs,
    }
}

/// Estimated average path length from `sources` random BFS roots,
/// `O(sources (V + E))`. Used for DBLP-scale graphs where the exact metric
/// "can't be efficiently computed on a general server" (paper §VI).
#[must_use]
pub fn sampled_path_length<G: NeighborAccess>(g: &G, sources: usize, seed: u64) -> PathLengthStats {
    let n = g.node_count();
    let total_pairs = n * n.saturating_sub(1) / 2;
    if n < 2 || sources == 0 {
        return PathLengthStats {
            mean: 0.0,
            reachable_pairs: 0,
            total_pairs,
        };
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut roots: Vec<NodeId> = (0..n as NodeId).collect();
    roots.shuffle(&mut rng);
    roots.truncate(sources.min(n));
    let mut sum = 0u64;
    let mut reachable = 0usize;
    for &u in &roots {
        let dist = bfs_distances(g, u);
        for (v, &d) in dist.iter().enumerate() {
            if v as NodeId != u && d != UNREACHABLE {
                sum += u64::from(d);
                reachable += 1;
            }
        }
    }
    PathLengthStats {
        mean: if reachable == 0 {
            0.0
        } else {
            sum as f64 / reachable as f64
        },
        reachable_pairs: reachable / 2, // ordered pairs seen once per root
        total_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::generators::{complete_graph, path_graph, star_graph};

    #[test]
    fn complete_graph_distance_one() {
        let s = average_path_length(&complete_graph(6));
        assert!((s.mean - 1.0).abs() < 1e-12);
        assert_eq!(s.reachable_pairs, 15);
        assert_eq!(s.total_pairs, 15);
        assert!((s.connectivity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_graph_average() {
        // P_4 distances: (1,2,3),(1,2),(1) -> sum 10 over 6 pairs.
        let s = average_path_length(&path_graph(4));
        assert!((s.mean - 10.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn star_average() {
        // hub-leaf = 1 (n pairs), leaf-leaf = 2 (C(n,2) pairs)
        let n = 7;
        let s = average_path_length(&star_graph(n));
        let expect = (n as f64 + 2.0 * (n * (n - 1) / 2) as f64) / (n + n * (n - 1) / 2) as f64;
        assert!((s.mean - expect).abs() < 1e-12);
    }

    #[test]
    fn disconnection_excluded() {
        let mut g = path_graph(3);
        g.ensure_node(3); // isolated node 3
        let s = average_path_length(&g);
        assert_eq!(s.reachable_pairs, 3);
        assert_eq!(s.total_pairs, 6);
        assert!(s.connectivity() < 1.0);
        assert!((s.mean - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let s = average_path_length(&tpp_graph::Graph::new(0));
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.total_pairs, 0);
    }

    #[test]
    fn sampling_approximates_exact() {
        let g = tpp_graph::generators::erdos_renyi_gnp(300, 0.05, 17);
        let exact = average_path_length(&g);
        let approx = sampled_path_length(&g, 60, 3);
        assert!(
            (exact.mean - approx.mean).abs() < 0.1 * exact.mean,
            "sampled {} vs exact {}",
            approx.mean,
            exact.mean
        );
    }

    #[test]
    fn sampling_with_all_sources_matches_exact_mean() {
        let g = path_graph(10);
        let exact = average_path_length(&g);
        let full = sampled_path_length(&g, 10, 1);
        assert!((exact.mean - full.mean).abs() < 1e-12);
    }
}
