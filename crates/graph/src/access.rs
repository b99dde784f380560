//! [`NeighborAccess`]: the read-only adjacency abstraction shared by every
//! graph representation in the workspace.
//!
//! The motif counters, link-prediction scores, and greedy evaluators only
//! ever *read* sorted neighbor lists — they never mutate. Abstracting that
//! read surface lets the same counting code run over:
//!
//! * [`Graph`] — the mutable adjacency-list structure,
//! * `tpp_store::CsrGraph` — an immutable compressed-sparse-row snapshot,
//! * `tpp_store::DeltaView` — a copy-on-write overlay of tentative edge
//!   deletions/additions layered over any of these (views stack).
//!
//! A reference `&G` and a shared `Arc<G>` read as `G` itself, so an
//! overlay can borrow its base or own a share of it.
//!
//! # Contract
//!
//! Implementations must guarantee, for every node `u < node_count()`:
//!
//! * `neighbors(u)` is one contiguous slice of neighbor ids in **strictly
//!   ascending** order, with no duplicates, no self-loop, and every id
//!   `< node_count()` — the only adjacency read path;
//! * adjacency is symmetric: `v ∈ N(u)` iff `u ∈ N(v)`;
//! * `degree(u)` equals the slice's length;
//! * `edge_count()` equals `Σ degree(u) / 2`.
//!
//! The provided common-neighbor methods rely on the sortedness contract:
//! they route through the size-adaptive dispatcher in [`crate::kernels`]
//! (merge / gallop), which keeps motif counting at or below the paper's
//! `O(d_u + d_v)` per pair while staying bit-identical to the plain merge.

use crate::edge::{Edge, NodeId};
use crate::graph::Graph;
use crate::kernels;
use std::borrow::Cow;
use std::sync::Arc;

/// Read-only access to a simple undirected graph with sorted adjacency.
pub trait NeighborAccess {
    /// Number of nodes; valid ids are `0..node_count()`.
    fn node_count(&self) -> usize;

    /// Number of undirected edges.
    fn edge_count(&self) -> usize;

    /// Degree of node `u`.
    fn degree(&self, u: NodeId) -> usize;

    /// The neighbors of `u` as one strictly ascending slice.
    fn neighbors(&self, u: NodeId) -> &[NodeId];

    /// Whether the undirected edge `(u, v)` exists.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool;

    /// Iterates all node ids.
    fn node_ids(&self) -> std::ops::Range<NodeId> {
        0..self.node_count() as NodeId
    }

    /// Calls `f(w)` for each common neighbor `w` of `u` and `v`, ascending,
    /// through the size-adaptive kernel dispatcher
    /// ([`kernels::intersect_with`]).
    fn for_each_common_neighbor<F: FnMut(NodeId)>(&self, u: NodeId, v: NodeId, f: F) {
        let (a, b) = (self.neighbors(u), self.neighbors(v));
        kernels::intersect_with(a, b, f);
    }

    /// Number of common neighbors of `u` and `v`, through the count-only
    /// kernel dispatcher ([`kernels::count_with`]) — no materialization.
    fn common_neighbor_count(&self, u: NodeId, v: NodeId) -> usize {
        let (a, b) = (self.neighbors(u), self.neighbors(v));
        kernels::count_with(a, b)
    }

    /// Common neighbors of `u` and `v`, ascending.
    fn common_neighbors_vec(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.for_each_common_neighbor(u, v, |w| out.push(w));
        out
    }

    /// Collects every edge in canonical `(u < v)` order.
    fn collect_edges(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.edge_count());
        for u in self.node_ids() {
            for &v in self.neighbors(u) {
                if u < v {
                    out.push(Edge::new(u, v));
                }
            }
        }
        out
    }

    /// The upper-edge prefix: `node_count() + 1` counts, entry `u` the
    /// number of edges `(a, b)` with `a < b` and `a < u`. Node `u` owns the
    /// canonical edge ranks `prefix[u]..prefix[u + 1]`: its upper edges,
    /// the last `prefix[u + 1] − prefix[u]` entries of its sorted list.
    /// The default computes it in one pass over every list
    /// ([`upper_edge_prefix`]); a CSR snapshot keeps the one it was loaded
    /// with or first computed.
    ///
    /// # Panics
    /// If the graph has more than `u32::MAX` edges.
    fn upper_edge_prefix(&self) -> Cow<'_, [u32]> {
        Cow::Owned(upper_edge_prefix(self))
    }

    /// A degree prefix (`node_count() + 1` entries, entry `u` the summed
    /// degree of nodes `0..u`) when the representation keeps one: a CSR
    /// snapshot's offset table. It is a balance hint for cutting the node
    /// space, so an overlay may forward its base's. `None` by default.
    fn degree_prefix(&self) -> Option<&[u64]> {
        None
    }
}

/// [`NeighborAccess::upper_edge_prefix`] computed from the lists: each
/// node's upper neighbours counted by one binary search of its list.
///
/// # Panics
/// If the graph has more than `u32::MAX` edges.
#[must_use]
pub fn upper_edge_prefix<G: NeighborAccess + ?Sized>(g: &G) -> Vec<u32> {
    let m = g.edge_count();
    assert!(
        u32::try_from(m).is_ok(),
        "cannot rank {m} edges: more than u32::MAX edges"
    );
    let mut prefix = Vec::with_capacity(g.node_count() + 1);
    let mut acc = 0u32;
    prefix.push(acc);
    for u in g.node_ids() {
        let nu = g.neighbors(u);
        acc += (nu.len() - nu.partition_point(|&v| v < u)) as u32;
        prefix.push(acc);
    }
    prefix
}

impl NeighborAccess for Graph {
    #[inline]
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    #[inline]
    fn edge_count(&self) -> usize {
        Graph::edge_count(self)
    }

    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        Graph::degree(self, u)
    }

    #[inline]
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        Graph::neighbors(self, u)
    }

    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        Graph::has_edge(self, u, v)
    }
}

impl<G: NeighborAccess> NeighborAccess for &G {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn edge_count(&self) -> usize {
        (**self).edge_count()
    }

    fn degree(&self, u: NodeId) -> usize {
        (**self).degree(u)
    }

    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        (**self).neighbors(u)
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        (**self).has_edge(u, v)
    }

    fn upper_edge_prefix(&self) -> Cow<'_, [u32]> {
        (**self).upper_edge_prefix()
    }

    fn degree_prefix(&self) -> Option<&[u64]> {
        (**self).degree_prefix()
    }
}

/// A shared graph reads as the graph itself: an overlay that owns its
/// base as an `Arc` (`tpp_store::DeltaView<Arc<CsrGraph>>`) forwards to
/// the one snapshot every holder shares.
impl<G: NeighborAccess + ?Sized> NeighborAccess for Arc<G> {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn edge_count(&self) -> usize {
        (**self).edge_count()
    }

    fn degree(&self, u: NodeId) -> usize {
        (**self).degree(u)
    }

    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        (**self).neighbors(u)
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        (**self).has_edge(u, v)
    }

    fn upper_edge_prefix(&self) -> Cow<'_, [u32]> {
        (**self).upper_edge_prefix()
    }

    fn degree_prefix(&self) -> Option<&[u64]> {
        (**self).degree_prefix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Graph {
        Graph::from_edges([(0u32, 1u32), (0, 2), (1, 2), (2, 3), (1, 3)])
    }

    fn generic_probe<G: NeighborAccess>(g: &G) -> (usize, usize, Vec<NodeId>, Vec<Edge>) {
        (
            g.node_count(),
            g.edge_count(),
            g.common_neighbors_vec(0, 3),
            g.collect_edges(),
        )
    }

    /// A wrapper exposing only the required methods, so every common-
    /// neighbor query runs the trait defaults.
    struct Wrap<'a>(&'a Graph);

    impl NeighborAccess for Wrap<'_> {
        fn node_count(&self) -> usize {
            self.0.node_count()
        }
        fn edge_count(&self) -> usize {
            self.0.edge_count()
        }
        fn degree(&self, u: NodeId) -> usize {
            self.0.degree(u)
        }
        fn neighbors(&self, u: NodeId) -> &[NodeId] {
            self.0.neighbors(u)
        }
        fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
            self.0.has_edge(u, v)
        }
    }

    #[test]
    fn graph_implements_the_contract() {
        let g = fixture();
        let (n, m, cn, edges) = generic_probe(&g);
        assert_eq!(n, 4);
        assert_eq!(m, 5);
        assert_eq!(cn, vec![1, 2]);
        assert_eq!(edges, g.edge_vec());
        assert_eq!(NeighborAccess::degree(&g, 2), 3);
        assert!(NeighborAccess::has_edge(&g, 3, 1));
        assert_eq!(g.common_neighbor_count(0, 3), 2);
    }

    #[test]
    fn reference_forwarding() {
        let g = fixture();
        let (n, m, _, _) = generic_probe(&&g);
        assert_eq!((n, m), (4, 5));
        let shared = Arc::new(g.clone());
        assert_eq!(generic_probe(&shared), generic_probe(&g));
        assert_eq!(
            NeighborAccess::neighbors(&shared, 2).as_ptr(),
            shared.neighbors(2).as_ptr()
        );
    }

    #[test]
    fn neighbors_slice_agrees_with_iterator() {
        let g = crate::generators::erdos_renyi_gnp(30, 0.25, 3);
        // Adjacency rebuilt by iterating the edge list.
        let mut expected = vec![Vec::new(); 30];
        for e in g.edges() {
            let (u, v) = e.endpoints();
            expected[u as usize].push(v);
            expected[v as usize].push(u);
        }
        for u in 0..30u32 {
            let slice = NeighborAccess::neighbors(&g, u);
            expected[u as usize].sort_unstable();
            assert_eq!(slice, expected[u as usize].as_slice(), "node {u}");
            assert!(slice.windows(2).all(|w| w[0] < w[1]), "node {u}");
            // The slice is the graph's own storage, also through `&G`.
            assert_eq!(slice.as_ptr(), g.neighbors(u).as_ptr());
            assert_eq!(NeighborAccess::neighbors(&&g, u).as_ptr(), slice.as_ptr());
        }
    }

    #[test]
    fn slice_default_merge_matches_override() {
        // The trait default must agree with Graph's own common neighbors.
        let g = crate::generators::erdos_renyi_gnp(40, 0.2, 11);
        let w = Wrap(&g);
        for u in 0..12u32 {
            for v in (u + 1)..12 {
                assert_eq!(
                    w.common_neighbors_vec(u, v),
                    g.common_neighbors(u, v),
                    "({u},{v})"
                );
            }
        }
    }

    #[test]
    fn default_merge_matches_slice_merge() {
        // The dispatcher defaults (list and count) agree with the plain
        // scalar merge of the two slices.
        let g = crate::generators::erdos_renyi_gnp(40, 0.2, 9);
        let w = Wrap(&g);
        for u in 0..10u32 {
            for v in (u + 1)..10 {
                let mut merged = Vec::new();
                kernels::intersect_merge(g.neighbors(u), g.neighbors(v), |x| merged.push(x));
                assert_eq!(w.common_neighbors_vec(u, v), merged, "({u},{v})");
                assert_eq!(w.common_neighbor_count(u, v), merged.len(), "({u},{v})");
            }
        }
    }
}
