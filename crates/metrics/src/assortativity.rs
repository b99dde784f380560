//! Degree assortativity coefficient (Table II metric `r`).

use tpp_graph::NeighborAccess;

/// Newman's degree assortativity: the Pearson correlation of the degrees at
/// the two ends of each edge.
///
/// With `j_i, k_i` the endpoint degrees of edge `i` and `M` the edge count:
///
/// ```text
///     M⁻¹ Σ j k − [M⁻¹ Σ ½(j + k)]²
/// r = ───────────────────────────────────
///     M⁻¹ Σ ½(j² + k²) − [M⁻¹ Σ ½(j + k)]²
/// ```
///
/// Returns `None` when the graph has no edges or zero degree variance
/// (e.g. regular graphs), where the correlation is undefined.
#[must_use]
pub fn assortativity<G: NeighborAccess>(g: &G) -> Option<f64> {
    let m = g.edge_count();
    if m == 0 {
        return None;
    }
    let m_inv = 1.0 / m as f64;
    let (mut s_jk, mut s_half_sum, mut s_half_sq) = (0.0f64, 0.0f64, 0.0f64);
    for u in g.node_ids() {
        let j = g.degree(u) as f64;
        for &v in g.neighbors(u).iter().filter(|&&v| u < v) {
            let k = g.degree(v) as f64;
            s_jk += j * k;
            s_half_sum += 0.5 * (j + k);
            s_half_sq += 0.5 * (j * j + k * k);
        }
    }
    let mean = m_inv * s_half_sum;
    let var = m_inv * s_half_sq - mean * mean;
    if var.abs() < 1e-12 {
        return None;
    }
    Some((m_inv * s_jk - mean * mean) / var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::generators::{complete_graph, cycle_graph, star_graph};
    use tpp_graph::Graph;

    #[test]
    fn star_is_perfectly_disassortative() {
        for leaves in [3usize, 5, 10] {
            let r = assortativity(&star_graph(leaves)).unwrap();
            assert!((r + 1.0).abs() < 1e-9, "star S_{leaves}: r = {r}");
        }
    }

    #[test]
    fn regular_graphs_are_undefined() {
        assert_eq!(assortativity(&complete_graph(5)), None);
        assert_eq!(assortativity(&cycle_graph(8)), None);
        assert_eq!(assortativity(&Graph::new(4)), None);
    }

    #[test]
    fn two_joined_stars_are_disassortative() {
        // hubs 0 and 5 joined; hub-leaf edges dominate.
        let mut g = Graph::from_edges([
            (0u32, 1u32),
            (0, 2),
            (0, 3),
            (0, 4),
            (5, 6),
            (5, 7),
            (5, 8),
            (5, 9),
        ]);
        g.add_edge(0, 5);
        let r = assortativity(&g).unwrap();
        assert!(r < -0.3, "expected strong disassortativity, got {r}");
    }

    #[test]
    fn assortative_construction() {
        // Two cliques of different sizes joined by a bridge: high-degree
        // nodes mostly link to high-degree nodes.
        let mut g = Graph::new(9);
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                g.add_edge(u, v);
            }
        }
        for u in 5..9u32 {
            for v in (u + 1)..9 {
                g.add_edge(u, v);
            }
        }
        // pendant chain to create degree variance
        g.ensure_node(10);
        g.add_edge(0, 9);
        g.add_edge(9, 10);
        let r = assortativity(&g).unwrap();
        // The bulk of edges connect equal-degree clique members.
        assert!(r > 0.0, "expected assortative graph, got {r}");
    }

    #[test]
    fn value_in_valid_range_on_random_graph() {
        let g = tpp_graph::generators::barabasi_albert(300, 3, 4);
        let r = assortativity(&g).unwrap();
        assert!((-1.0..=1.0).contains(&r), "r = {r} outside [-1, 1]");
        // BA graphs are known to be close to neutral/disassortative.
        assert!(r < 0.2);
    }
}
