//! The phase-1 release `G − T` and the published `G − T − P` are
//! overlays over the original snapshot (`tpp_core::Release`). These
//! properties pin them to the filtered copies they replaced: the same
//! graphs, the same reads through a borrowed, a shared and a stacked
//! view, and the same utility report from the overlay's own deleted set.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tpp_core::TppInstance;
use tpp_graph::generators::{erdos_renyi_gnp, holme_kim};
use tpp_graph::{Edge, FastSet, Graph, NeighborAccess, NodeId};
use tpp_metrics::{utility_loss, utility_loss_deleting, BaseStats, UtilityConfig};
use tpp_store::{CsrGraph, DeltaView};

/// A random Holme–Kim or ER graph, with up to three isolated nodes after
/// the last edge.
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (12usize..=48, 0u64..=5_000, 0usize..=3).prop_map(|(n, seed, isolated)| {
        let mut g = if seed % 2 == 0 {
            holme_kim(n, 3, 0.4, seed)
        } else {
            erdos_renyi_gnp(n, 0.1 + (seed % 10) as f64 / 50.0, seed)
        };
        for _ in 0..isolated {
            g.add_node();
        }
        g
    })
}

/// `g` without the edges in `gone`, on the same node set: the filtered
/// copy the overlay replaced, written out edge by edge.
fn filtered(g: &Graph, gone: &FastSet<Edge>) -> Graph {
    let mut out = Graph::new(g.node_count());
    for e in g.edge_vec() {
        if !gone.contains(&e) {
            out.add_edge(e.u(), e.v());
        }
    }
    out
}

/// Every read agrees with `want`'s, node by node and pair by pair: the
/// endpoints of deleted edges (dirty in the view) and every other node
/// (clean) alike, and a node past the range, probed from the dirty node
/// `dirty`, is no neighbour.
fn assert_reads<V: NeighborAccess>(what: &str, view: &V, want: &Graph, dirty: NodeId) {
    assert_eq!(view.node_count(), want.node_count(), "{what}");
    assert_eq!(view.edge_count(), want.edge_count(), "{what}");
    for u in want.node_ids() {
        assert_eq!(
            view.neighbors(u),
            want.neighbors(u),
            "{what}: neighbors({u})"
        );
        assert_eq!(view.degree(u), want.degree(u), "{what}: degree({u})");
        for v in want.node_ids() {
            assert_eq!(
                view.has_edge(u, v),
                want.has_edge(u, v),
                "{what}: has_edge({u}, {v})"
            );
        }
    }
    // Beyond the node range nothing is an edge.
    let past = want.node_count() as NodeId;
    assert!(
        !view.has_edge(dirty, past) && !view.has_edge(past, dirty),
        "{what}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `released()` and `apply_protectors(P)` equal the filtered copies
    /// `G − T` and `G − T − P`, for protector lists that mix released
    /// edges, targets, repeats and pairs that are no edge at all; their
    /// reads agree through every form of the view; and the utility report
    /// built from the overlay's `T ∪ P` is the from-scratch report, bit for
    /// bit.
    #[test]
    fn overlay_release_equals_the_filtered_copy(
        g in graph_strategy(),
        seed in 0u64..=1_000_000,
        tcount in 1usize..=8,
        pcount in 0usize..=12,
    ) {
        let edges = g.edge_vec();
        prop_assume!(!edges.is_empty());
        let mut rng = StdRng::seed_from_u64(seed);
        let targets = TppInstance::sample_targets(&g, tcount.min(edges.len()), seed);
        let inst = TppInstance::new(g.clone(), targets.clone()).unwrap();

        let t_set: FastSet<Edge> = targets.iter().copied().collect();
        let phase1 = filtered(&g, &t_set);
        prop_assert_eq!(
            CsrGraph::from_access(inst.released()),
            CsrGraph::from_graph(&phase1)
        );
        prop_assert_eq!(inst.released().deleted_edges(), targets.clone());

        let n = g.node_count() as NodeId;
        let mut protectors = Vec::new();
        for i in 0..pcount {
            protectors.push(match i % 4 {
                0 | 1 => edges[rng.gen_range(0..edges.len())],
                2 => targets[rng.gen_range(0..targets.len())],
                _ => {
                    let u = rng.gen_range(0..n - 1);
                    Edge::new(u, rng.gen_range(u + 1..n))
                }
            });
        }
        let release = inst.apply_protectors(&protectors);
        let mut gone = t_set.clone();
        gone.extend(protectors.iter().filter(|p| g.contains(**p)).copied());
        let published = filtered(&g, &gone);
        prop_assert_eq!(
            CsrGraph::from_access(&release),
            CsrGraph::from_graph(&published)
        );
        let mut deleted: Vec<Edge> = gone.iter().copied().collect();
        deleted.sort_unstable();
        prop_assert_eq!(release.deleted_edges(), deleted.clone());

        // The same reads through the shared base (the instance's own
        // views), a borrowed base, and a view stacked on the release.
        let dirty = targets[0].u();
        assert_reads("shared G − T", inst.released(), &phase1, dirty);
        assert_reads("shared G − T − P", &release, &published, dirty);
        let mut borrowed = DeltaView::new(inst.original());
        for &e in &deleted {
            prop_assert!(borrowed.delete_edge(e));
        }
        assert_reads("borrowed G − T − P", &borrowed, &published, dirty);
        let mut stacked = DeltaView::new(inst.released());
        for &p in &protectors {
            stacked.delete_edge(p);
        }
        assert_reads("stacked G − T − P", &stacked, &published, dirty);
        let owned = DeltaView::new(Arc::new(CsrGraph::from_graph(&published)));
        assert_reads("clean shared view", &owned, &published, dirty);

        let config = UtilityConfig::large_graph(seed);
        let want = utility_loss(&g, &published, &config);
        let got = utility_loss_deleting(
            &BaseStats::compute(inst.original()),
            inst.original(),
            &release,
            &release.deleted_edges(),
            &config,
        );
        prop_assert_eq!(got.average.to_bits(), want.average.to_bits());
        prop_assert_eq!(got.per_metric.len(), want.per_metric.len());
        for (a, b) in got.per_metric.iter().zip(&want.per_metric) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        prop_assert_eq!(got.deleted_edges, Some(deleted.len()));
        prop_assert_eq!(got.deleted_edges, want.deleted_edges);
        prop_assert_eq!(got.core_evaluations, want.core_evaluations);
    }
}
