//! k-shell decomposition / core numbers (Table II metric `cn`).
//!
//! [`core_numbers`] peels level by level over a compacted node list, the
//! sequential form of Kabir & Madduri's PKC (IPDPSW 2017), in place of
//! the Batagelj–Zaveršnik bucket peel; [`patch_core_numbers`] lowers
//! the cores across edge deletions by h-index iteration.

use std::collections::VecDeque;
use tpp_graph::{fast_set_with_capacity, Edge, FastSet, NeighborAccess, NodeId};

/// Core number of every node: `core[v]` is the largest `k` such that `v`
/// belongs to a subgraph where every node has degree ≥ `k`.
///
/// Peels level by level over a compacted node list, as in the sequential
/// form of Kabir & Madduri's PKC (IPDPSW 2017). Level `k` starts at the
/// least degree among the nodes left; its frontier is the nodes left of
/// degree `k`, and peeling a frontier node lowers each neighbour still
/// above `k`, appending it to the frontier when it reaches `k`. After the
/// level, the list keeps only the nodes above `k`, and `k` jumps to the
/// least degree left. A node's degree is final once it reaches the
/// current level, so the degree array ends as the core array.
///
/// `O(n + m)`: a node stays on the list for at most `core(v) + 1` levels,
/// and each neighbour visit is one read and at most one write of its
/// degree. Every array is `u32` (node ids are `u32`, and a degree is below
/// the node count).
#[must_use]
pub fn core_numbers<G: NeighborAccess>(g: &G) -> Vec<u32> {
    let mut degree: Vec<u32> = g.node_ids().map(|u| g.degree(u) as u32).collect();
    let mut remaining: Vec<NodeId> = g.node_ids().collect();
    let mut frontier = Vec::new();
    // Isolated nodes are at their core, 0, already.
    let mut k = 0;
    while let Some(level) = next_level(&mut remaining, &degree, k, &mut frontier) {
        k = level;
        let mut i = 0;
        while let Some(&v) = frontier.get(i) {
            i += 1;
            for &u in g.neighbors(v) {
                let du = &mut degree[u as usize];
                if *du > k {
                    *du -= 1;
                    if *du == k {
                        frontier.push(u);
                    }
                }
            }
        }
    }
    degree
}

/// Drops from `remaining` every node of degree at most `floor`, fills
/// `frontier` with the nodes left of least degree, and returns that
/// degree, or `None` when no node is left.
fn next_level(
    remaining: &mut Vec<NodeId>,
    degree: &[u32],
    floor: u32,
    frontier: &mut Vec<NodeId>,
) -> Option<u32> {
    frontier.clear();
    let mut least = u32::MAX;
    remaining.retain(|&v| {
        let d = degree[v as usize];
        if d <= floor {
            return false;
        }
        if d < least {
            least = d;
            frontier.clear();
        }
        if d == least {
            frontier.push(v);
        }
        true
    });
    (!remaining.is_empty()).then_some(least)
}

/// Lowers `core` (the [`core_numbers`] of `released + deleted`) to the core
/// numbers of `released`, and returns how many node evaluations it took.
///
/// The h-index operator maps a node to the largest `h` such that at least
/// `h` of its neighbours have value ≥ `h`; coreness is its greatest fixed
/// point (Lü et al., Nat. Commun. 2016). The patch starts from the
/// original cores — a pointwise upper bound on the released coreness,
/// since deleting edges never raises one — and runs the operator
/// asynchronously (Montresor et al., IEEE TPDS 2013), each evaluation
/// capped at the node's current value, on a worklist seeded with the
/// endpoints of `deleted`. An endpoint's first evaluation thus yields at
/// most `min(core(u), deg_released(u))`, as an h-index never exceeds the
/// number of values. A value that drops to `h` queues the neighbours
/// valued above `h`; every other neighbour's capped evaluation reads the
/// same input as before.
///
/// Why it is exact: values only fall, and never below the coreness (the
/// operator is monotone and the coreness is a fixed point). At an empty
/// worklist every node `u` has at least `core(u)` neighbours valued
/// ≥ `core(u)`, so the nodes valued ≥ `k` induce a subgraph of minimum
/// degree `k`, inside the `k`-core. The result is the coreness.
/// `O(Σ d_u)` over the nodes evaluated, and `released` is only read.
pub fn patch_core_numbers<H: NeighborAccess>(
    released: &H,
    core: &mut [u32],
    deleted: &[Edge],
) -> u64 {
    let mut queue = VecDeque::new();
    let mut queued: FastSet<NodeId> = fast_set_with_capacity(2 * deleted.len());
    for u in deleted.iter().flat_map(|e| [e.u(), e.v()]) {
        if queued.insert(u) {
            queue.push_back(u);
        }
    }
    let mut evaluations = 0u64;
    let mut counts = Vec::new();
    while let Some(u) = queue.pop_front() {
        queued.remove(&u);
        evaluations += 1;
        let h = capped_h_index(released, core, u, &mut counts);
        if h < core[u as usize] {
            core[u as usize] = h;
            for &w in released.neighbors(u) {
                if core[w as usize] > h && queued.insert(w) {
                    queue.push_back(w);
                }
            }
        }
    }
    evaluations
}

/// The h-index of `u`'s neighbour values in `released`, capped at
/// `core[u]`. `counts` is scratch space, reused across calls.
fn capped_h_index<H: NeighborAccess>(
    released: &H,
    core: &[u32],
    u: NodeId,
    counts: &mut Vec<u32>,
) -> u32 {
    let cap = core[u as usize];
    counts.clear();
    counts.resize(cap as usize + 1, 0);
    for &w in released.neighbors(u) {
        counts[core[w as usize].min(cap) as usize] += 1;
    }
    let mut at_least = 0;
    for h in (1..=cap).rev() {
        at_least += counts[h as usize];
        if at_least >= h {
            return h;
        }
    }
    0
}

/// `Σ core / N`, or 0 for an empty graph.
pub(crate) fn average_of(core: &[u32]) -> f64 {
    if core.is_empty() {
        return 0.0;
    }
    let total: u64 = core.iter().map(|&c| u64::from(c)).sum();
    total as f64 / core.len() as f64
}

/// Average core number `cn = Σ_v cn_v / N` (paper §VI, metric 4).
#[must_use]
pub fn average_core_number<G: NeighborAccess>(g: &G) -> f64 {
    average_of(&core_numbers(g))
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

    /// Lowers `g`'s cores across `deleted` and checks them against a peel
    /// of the release; returns the patched cores and the evaluations.
    fn patched(g: &Graph, deleted: &[Edge]) -> (Vec<u32>, u64) {
        let mut released = g.clone();
        for e in deleted {
            assert!(released.remove_edge(e.u(), e.v()));
        }
        let mut core = core_numbers(g);
        let evaluations = patch_core_numbers(&released, &mut core, deleted);
        assert_eq!(core, core_numbers(&released));
        (core, evaluations)
    }

    #[test]
    fn patch_drops_k5_minus_an_edge_to_three_everywhere() {
        let (core, evaluations) = patched(&complete_graph(5), &[Edge::new(0, 1)]);
        assert_eq!(core, vec![3; 5]);
        assert!(evaluations >= 5, "all five nodes re-evaluated");
    }

    #[test]
    fn patch_cascades_around_a_ring_of_triangles() {
        // The square of a 40-cycle: triangles (i, i+1, i+2) closed into a
        // ring, 4-regular, every node in the 4-core. One deletion leaves
        // two nodes of degree 3, and the drop travels the whole ring.
        let n = 40u32;
        let ring = Graph::from_edges((0..n).flat_map(|i| [(i, (i + 1) % n), (i, (i + 2) % n)]));
        assert_eq!(core_numbers(&ring), vec![4; n as usize]);
        let (core, evaluations) = patched(&ring, &[Edge::new(0, 1)]);
        assert_eq!(core, vec![3; n as usize]);
        assert!(evaluations >= u64::from(n), "{evaluations} evaluations");
    }

    #[test]
    fn patch_of_nothing_evaluates_nothing() {
        let g = tpp_graph::generators::holme_kim(80, 3, 0.5, 2);
        let (core, evaluations) = patched(&g, &[]);
        assert_eq!(core, core_numbers(&g));
        assert_eq!(evaluations, 0);
    }

    #[test]
    fn patch_stays_local_when_a_hub_keeps_its_core() {
        // K5 with a pendant path 4-5-6: cutting the path's last edge
        // lowers node 6 to 0 and touches nothing inside the clique.
        let mut g = complete_graph(5);
        g.ensure_node(6);
        g.add_edge(4, 5);
        g.add_edge(5, 6);
        let (core, evaluations) = patched(&g, &[Edge::new(5, 6)]);
        assert_eq!(core, vec![4, 4, 4, 4, 4, 1, 0]);
        assert!(evaluations <= 3, "{evaluations} evaluations");
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
