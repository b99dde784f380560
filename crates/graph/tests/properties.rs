//! Property-based tests for the graph substrate: structural invariants of
//! every generator, mutation soundness, and edge-list round-tripping.

use proptest::prelude::*;
use tpp_graph::{generators, parse_edge_list, write_edge_list, Edge, Graph};

/// A kernel under test: runs one intersection, feeding results to a sink.
type KernelRun<'a> = &'a dyn Fn(&mut dyn FnMut(u32));

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All generators produce simple graphs with consistent bookkeeping.
    #[test]
    fn generators_produce_valid_simple_graphs(seed in 0u64..2_000) {
        let graphs = vec![
            generators::erdos_renyi_gnp(40, 0.1, seed),
            generators::erdos_renyi_gnm(40, 60, seed),
            generators::barabasi_albert(40, 3, seed),
            generators::watts_strogatz(40, 4, 0.2, seed),
            generators::holme_kim(40, 3, 0.5, seed),
            generators::planted_partition(4, 10, 0.3, 0.02, seed),
            generators::configuration_model(&[2usize; 40], seed),
        ];
        for g in &graphs {
            g.check_invariants();
            prop_assert_eq!(g.degree_sum(), 2 * g.edge_count());
        }
    }

    /// Adding then removing an edge restores the previous structure.
    #[test]
    fn add_remove_round_trip(seed in 0u64..2_000, a in 0u32..30, b in 0u32..30) {
        prop_assume!(a != b);
        let mut g = generators::erdos_renyi_gnp(30, 0.15, seed);
        let before = g.clone();
        let existed = g.has_edge(a, b);
        if existed {
            prop_assert!(g.remove_edge(a, b));
            prop_assert!(g.add_edge(a, b));
        } else {
            prop_assert!(g.add_edge(a, b));
            prop_assert!(g.remove_edge(a, b));
        }
        prop_assert_eq!(&g, &before);
        g.check_invariants();
    }

    /// Edge-list serialization round-trips exactly.
    #[test]
    fn edge_list_round_trip(seed in 0u64..2_000) {
        let g = generators::erdos_renyi_gnp(25, 0.2, seed);
        let text = write_edge_list(&g);
        let g2 = parse_edge_list(&text).unwrap();
        // Node counts can differ when trailing nodes are isolated; compare
        // edge sets and pad.
        prop_assert_eq!(g.edge_vec(), g2.edge_vec());
    }

    /// Common-neighbor enumeration agrees with a set-intersection oracle.
    #[test]
    fn common_neighbors_match_naive(seed in 0u64..2_000, u in 0u32..20, v in 0u32..20) {
        prop_assume!(u != v);
        let g = generators::erdos_renyi_gnp(20, 0.3, seed);
        let fast = g.common_neighbors(u, v);
        let set_u: std::collections::BTreeSet<u32> = g.neighbors(u).iter().copied().collect();
        let set_v: std::collections::BTreeSet<u32> = g.neighbors(v).iter().copied().collect();
        let naive: Vec<u32> = set_u.intersection(&set_v).copied().collect();
        prop_assert_eq!(fast, naive);
    }

    /// Both intersection kernels (merge, gallop) and both dispatcher
    /// variants (emit + count) agree with the set-intersection
    /// oracle on arbitrary sorted lists, including heavy degree skew.
    #[test]
    fn intersection_kernels_match_oracle(
        seed in 0u64..5_000,
        a_len in 0usize..40,
        b_len in 0usize..300,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use tpp_graph::kernels;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a_set = std::collections::BTreeSet::new();
        for _ in 0..a_len {
            a_set.insert(rng.gen_range(0u32..512));
        }
        let mut b_set = std::collections::BTreeSet::new();
        for _ in 0..b_len {
            b_set.insert(rng.gen_range(0u32..512));
        }
        let a: Vec<u32> = a_set.iter().copied().collect();
        let b: Vec<u32> = b_set.iter().copied().collect();
        let naive: Vec<u32> = a_set.intersection(&b_set).copied().collect();

        let run = |f: KernelRun| {
            let mut out = Vec::new();
            f(&mut |w| out.push(w));
            out
        };
        prop_assert_eq!(run(&|f| kernels::intersect_merge(&a, &b, f)), naive.clone());
        prop_assert_eq!(run(&|f| kernels::intersect_gallop(&a, &b, f)), naive.clone());
        prop_assert_eq!(run(&|f| kernels::intersect_gallop(&b, &a, f)), naive.clone());
        // The dispatcher, both argument orders (emit + count).
        prop_assert_eq!(run(&|f| kernels::intersect_with(&a, &b, f)), naive.clone());
        prop_assert_eq!(run(&|f| kernels::intersect_with(&b, &a, f)), naive.clone());
        prop_assert_eq!(kernels::count_with(&a, &b), naive.len());
        prop_assert_eq!(kernels::count_with(&b, &a), naive.len());
    }

    /// BFS distances satisfy the triangle inequality over edges:
    /// |d(s,u) - d(s,v)| <= 1 for every edge (u,v) in the same component.
    #[test]
    fn bfs_is_lipschitz_over_edges(seed in 0u64..2_000, s in 0u32..25) {
        let g = generators::erdos_renyi_gnp(25, 0.12, seed);
        let dist = tpp_graph::traversal::bfs_distances(&g, s);
        for e in g.edges() {
            let (du, dv) = (dist[e.u() as usize], dist[e.v() as usize]);
            if du != u32::MAX && dv != u32::MAX {
                prop_assert!(du.abs_diff(dv) <= 1, "edge {e}: {du} vs {dv}");
            } else {
                prop_assert_eq!(du, dv, "edge {} spans components", e);
            }
        }
    }

    /// Induced subgraphs keep exactly the edges among the chosen nodes.
    #[test]
    fn induced_subgraph_is_exact(seed in 0u64..2_000, keep in 2usize..15) {
        let g = generators::erdos_renyi_gnp(20, 0.25, seed);
        let nodes: Vec<u32> = (0..keep as u32).collect();
        let (sub, map) = g.induced_subgraph(&nodes);
        sub.check_invariants();
        let mut expected = 0usize;
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                if g.has_edge(a, b) {
                    expected += 1;
                    // find mapped ids
                    let na = map.iter().position(|&x| x == a).unwrap() as u32;
                    let nb = map.iter().position(|&x| x == b).unwrap() as u32;
                    prop_assert!(sub.has_edge(na, nb));
                }
            }
        }
        prop_assert_eq!(sub.edge_count(), expected);
    }

    /// Canonical edges are order-insensitive keys.
    #[test]
    fn edge_canonicalization(a in 0u32..1000, b in 0u32..1000) {
        prop_assume!(a != b);
        let e1 = Edge::new(a, b);
        let e2 = Edge::new(b, a);
        prop_assert_eq!(e1, e2);
        prop_assert!(e1.u() < e1.v());
        prop_assert_eq!(e1.other(a), b);
    }

    /// `from_edges` deduplicates and produces the same graph regardless of
    /// edge order.
    #[test]
    fn from_edges_is_order_insensitive(seed in 0u64..2_000) {
        let g = generators::erdos_renyi_gnp(15, 0.3, seed);
        let mut edges = g.edge_vec();
        edges.reverse();
        let mut g2 = Graph::from_edges(edges);
        // pad node count (isolated trailing nodes don't round-trip)
        while g2.node_count() < g.node_count() {
            g2.add_node();
        }
        prop_assert_eq!(g, g2);
    }
}
