//! k-shell decomposition / core numbers (Table II metric `cn`).

use tpp_graph::{NeighborAccess, NodeId};

/// Core number of every node via the linear-time bucket peeling algorithm
/// (Batagelj–Zaveršnik). `core[v]` is the largest `k` such that `v` belongs
/// to a subgraph where every node has degree ≥ `k`.
#[must_use]
pub fn core_numbers<G: NeighborAccess>(g: &G) -> Vec<u32> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let mut degree: Vec<usize> = g.node_ids().map(|u| g.degree(u)).collect();
    let max_deg = *degree.iter().max().unwrap_or(&0);

    // bucket sort nodes by degree
    let mut bin_start = vec![0usize; max_deg + 2];
    for &d in &degree {
        bin_start[d + 1] += 1;
    }
    for i in 1..bin_start.len() {
        bin_start[i] += bin_start[i - 1];
    }
    let mut pos = vec![0usize; n]; // node -> index in `order`
    let mut order = vec![0 as NodeId; n]; // sorted by current degree
    {
        let mut next = bin_start.clone();
        for v in 0..n {
            let d = degree[v];
            pos[v] = next[d];
            order[next[d]] = v as NodeId;
            next[d] += 1;
        }
    }
    // `bin_start[d]` = first index in `order` of a node with degree d.
    let mut core = vec![0u32; n];
    for i in 0..n {
        let v = order[i];
        core[v as usize] = degree[v as usize] as u32;
        for u in g.neighbors_iter(v) {
            let u_us = u as usize;
            if degree[u_us] > degree[v as usize] {
                // Move u one bucket down: swap with the first node of its bucket.
                let du = degree[u_us];
                let pu = pos[u_us];
                let pw = bin_start[du];
                let w = order[pw];
                if u != w {
                    order.swap(pu, pw);
                    pos[u_us] = pw;
                    pos[w as usize] = pu;
                }
                bin_start[du] += 1;
                degree[u_us] -= 1;
            }
        }
    }
    core
}

/// Average core number `cn = Σ_v cn_v / N` (paper §VI, metric 4).
#[must_use]
pub fn average_core_number<G: NeighborAccess>(g: &G) -> f64 {
    let n = g.node_count();
    if n == 0 {
        return 0.0;
    }
    let total: u64 = core_numbers(g).iter().map(|&c| u64::from(c)).sum();
    total as f64 / n as f64
}

/// Maximum core number (the graph's degeneracy).
#[must_use]
pub fn degeneracy<G: NeighborAccess>(g: &G) -> u32 {
    core_numbers(g).into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::generators::{complete_graph, cycle_graph, path_graph, star_graph};
    use tpp_graph::Graph;

    #[test]
    fn complete_graph_core() {
        let g = complete_graph(5);
        assert_eq!(core_numbers(&g), vec![4; 5]);
        assert!((average_core_number(&g) - 4.0).abs() < 1e-12);
        assert_eq!(degeneracy(&g), 4);
    }

    #[test]
    fn tree_core_is_one() {
        assert_eq!(core_numbers(&path_graph(6)), vec![1; 6]);
        assert_eq!(core_numbers(&star_graph(4)), vec![1; 5]);
    }

    #[test]
    fn cycle_core_is_two() {
        assert_eq!(core_numbers(&cycle_graph(7)), vec![2; 7]);
    }

    #[test]
    fn clique_with_tail() {
        // K4 on {0..3}, chain 3-4-5.
        let mut g = complete_graph(4);
        g.ensure_node(5);
        g.add_edge(3, 4);
        g.add_edge(4, 5);
        let core = core_numbers(&g);
        assert_eq!(&core[0..4], &[3, 3, 3, 3]);
        assert_eq!(core[4], 1);
        assert_eq!(core[5], 1);
        assert_eq!(degeneracy(&g), 3);
    }

    #[test]
    fn isolated_nodes_are_zero_core() {
        let g = Graph::new(3);
        assert_eq!(core_numbers(&g), vec![0, 0, 0]);
        assert_eq!(average_core_number(&g), 0.0);
        assert_eq!(core_numbers(&Graph::new(0)), Vec::<u32>::new());
    }

    #[test]
    fn core_matches_naive_peeling_on_random_graph() {
        let g = tpp_graph::generators::erdos_renyi_gnp(60, 0.1, 31);
        let fast = core_numbers(&g);
        let naive = naive_core_numbers(&g);
        assert_eq!(fast, naive);
    }

    /// O(V^2) reference implementation: repeatedly strip min-degree nodes.
    fn naive_core_numbers(g: &Graph) -> Vec<u32> {
        let n = g.node_count();
        let mut deg = g.degrees();
        let mut removed = vec![false; n];
        let mut core = vec![0u32; n];
        let mut k = 0usize;
        for _ in 0..n {
            let v = (0..n)
                .filter(|&v| !removed[v])
                .min_by_key(|&v| deg[v])
                .unwrap();
            k = k.max(deg[v]);
            core[v] = k as u32;
            removed[v] = true;
            for &u in g.neighbors(v as NodeId) {
                if !removed[u as usize] {
                    deg[u as usize] -= 1;
                }
            }
        }
        core
    }
}
