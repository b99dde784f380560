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
//!   deletions/additions layered over any snapshot,
//! * [`MaskedGraph`] — the legacy deletion-only view in this crate.
//!
//! # Contract
//!
//! Implementations must guarantee, for every node `u < node_count()`:
//!
//! * `neighbors_iter(u)` yields neighbor ids in **strictly ascending**
//!   order, with no duplicates, no self-loop, and every id `< node_count()`;
//! * adjacency is symmetric: `v ∈ N(u)` iff `u ∈ N(v)`;
//! * `degree(u)` equals the iterator's length;
//! * `edge_count()` equals `Σ degree(u) / 2`.
//!
//! The provided common-neighbor methods rely on the sortedness contract:
//! they route through the size-adaptive dispatcher in [`crate::kernels`]
//! (merge / gallop / hub-bitset), which keeps motif counting at or below
//! the paper's `O(d_u + d_v)` per pair while staying bit-identical to the
//! plain merge.

use crate::edge::{Edge, NodeId};
use crate::graph::Graph;
use crate::kernels;
use crate::view::MaskedGraph;
use std::borrow::Cow;

/// Read-only access to a simple undirected graph with sorted adjacency.
pub trait NeighborAccess {
    /// Number of nodes; valid ids are `0..node_count()`.
    fn node_count(&self) -> usize;

    /// Number of undirected edges.
    fn edge_count(&self) -> usize;

    /// Degree of node `u`.
    fn degree(&self, u: NodeId) -> usize;

    /// Iterates the neighbors of `u` in strictly ascending order.
    fn neighbors_iter(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_;

    /// Whether the undirected edge `(u, v)` exists.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool;

    /// The sorted neighbor list of `u` as one contiguous slice, when the
    /// representation can provide it without allocating.
    ///
    /// Slice-backed stores (`Graph`, `tpp_store::CsrGraph`, a
    /// `tpp_store::DeltaView` with its merged-slice cache) return `Some`;
    /// purely iterator-based views return `None` and scans fall back to
    /// the merge iterators. Callers must treat the two paths as
    /// observationally identical: same ids, same ascending order.
    fn neighbors_slice(&self, u: NodeId) -> Option<&[NodeId]> {
        let _ = u;
        None
    }

    /// The sorted neighbor list of `u` as a slice: borrowed from
    /// [`NeighborAccess::neighbors_slice`] when the representation has one,
    /// collected from the iterator otherwise. For loops that need prefix
    /// sub-slices or a slice comparison rather than a stream.
    fn neighbors_cow(&self, u: NodeId) -> Cow<'_, [NodeId]> {
        match self.neighbors_slice(u) {
            Some(s) => Cow::Borrowed(s),
            None => Cow::Owned(self.neighbors_iter(u).collect()),
        }
    }

    /// Iterates all node ids.
    fn node_ids(&self) -> std::ops::Range<NodeId> {
        0..self.node_count() as NodeId
    }

    /// The packed hub-bitset row of `u`, when the representation carries a
    /// precomputed [`kernels::HubBitsets`] side structure **and** the row
    /// is still valid for `u`'s current adjacency.
    ///
    /// Defaults to `None` (always safe). `tpp_store::CsrGraph` overrides
    /// it once hub rows are built; `tpp_store::DeltaView` forwards clean
    /// nodes to the base and withholds rows for dirty ones, so overlay
    /// edits can never serve a stale row.
    fn hub_bits(&self, u: NodeId) -> Option<&[u64]> {
        let _ = u;
        None
    }

    /// Calls `f(w)` for each common neighbor `w` of `u` and `v`, ascending.
    ///
    /// Default implementation: the size-adaptive kernel dispatcher
    /// ([`kernels::intersect_with`]) when both endpoints expose
    /// [`NeighborAccess::neighbors_slice`] (the hot path for motif
    /// counting), otherwise the scalar merge of the two sorted neighbor
    /// streams. Overrides must preserve the ascending order.
    fn for_each_common_neighbor<F: FnMut(NodeId)>(&self, u: NodeId, v: NodeId, f: F) {
        if let (Some(a), Some(b)) = (self.neighbors_slice(u), self.neighbors_slice(v)) {
            kernels::intersect_with(a, b, self.hub_bits(u), self.hub_bits(v), f);
            return;
        }
        kernels::merge_iters(self.neighbors_iter(u), self.neighbors_iter(v), f);
    }

    /// Number of common neighbors of `u` and `v`.
    ///
    /// Default implementation: the count-only kernel dispatcher
    /// ([`kernels::count_with`]) on the slice path — no materialization,
    /// and the hub-AND case degenerates to a popcount sweep.
    fn common_neighbor_count(&self, u: NodeId, v: NodeId) -> usize {
        if let (Some(a), Some(b)) = (self.neighbors_slice(u), self.neighbors_slice(v)) {
            return kernels::count_with(a, b, self.hub_bits(u), self.hub_bits(v));
        }
        let mut n = 0;
        kernels::merge_iters(self.neighbors_iter(u), self.neighbors_iter(v), |_| n += 1);
        n
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
            for v in self.neighbors_iter(u) {
                if u < v {
                    out.push(Edge::new(u, v));
                }
            }
        }
        out
    }
}

/// Slice-to-slice sorted merge — a thin alias for
/// [`kernels::intersect_merge`], kept for API continuity. There is exactly
/// one scalar merge in the workspace ([`kernels::merge_iters`]); this and
/// the iterator fallback both route through it.
pub fn merge_sorted_slices<F: FnMut(NodeId)>(a: &[NodeId], b: &[NodeId], f: F) {
    kernels::intersect_merge(a, b, f);
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
    fn neighbors_iter(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors(u).iter().copied()
    }

    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        Graph::has_edge(self, u, v)
    }

    #[inline]
    fn neighbors_slice(&self, u: NodeId) -> Option<&[NodeId]> {
        Some(self.neighbors(u))
    }

    #[inline]
    fn for_each_common_neighbor<F: FnMut(NodeId)>(&self, u: NodeId, v: NodeId, f: F) {
        // The slice-based merge avoids the peekable-iterator overhead.
        Graph::for_each_common_neighbor(self, u, v, f);
    }
}

impl NeighborAccess for MaskedGraph<'_> {
    #[inline]
    fn node_count(&self) -> usize {
        MaskedGraph::node_count(self)
    }

    #[inline]
    fn edge_count(&self) -> usize {
        MaskedGraph::edge_count(self)
    }

    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        MaskedGraph::degree(self, u)
    }

    #[inline]
    fn neighbors_iter(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        MaskedGraph::neighbors(self, u)
    }

    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        MaskedGraph::has_edge(self, u, v)
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

    fn neighbors_iter(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        (**self).neighbors_iter(u)
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        (**self).has_edge(u, v)
    }

    fn neighbors_slice(&self, u: NodeId) -> Option<&[NodeId]> {
        (**self).neighbors_slice(u)
    }

    fn hub_bits(&self, u: NodeId) -> Option<&[u64]> {
        (**self).hub_bits(u)
    }

    fn for_each_common_neighbor<F: FnMut(NodeId)>(&self, u: NodeId, v: NodeId, f: F) {
        (**self).for_each_common_neighbor(u, v, f);
    }

    fn common_neighbor_count(&self, u: NodeId, v: NodeId) -> usize {
        (**self).common_neighbor_count(u, v)
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
    fn masked_graph_implements_the_contract() {
        let g = fixture();
        let view = MaskedGraph::new(&g, [Edge::new(1, 3)]);
        let (n, m, cn, edges) = generic_probe(&view);
        assert_eq!(n, 4);
        assert_eq!(m, 4);
        assert_eq!(cn, vec![2]);
        assert_eq!(edges.len(), 4);
        assert!(!edges.contains(&Edge::new(1, 3)));
    }

    #[test]
    fn reference_forwarding() {
        let g = fixture();
        let (n, m, _, _) = generic_probe(&&g);
        assert_eq!((n, m), (4, 5));
    }

    #[test]
    fn neighbors_slice_agrees_with_iterator() {
        let g = crate::generators::erdos_renyi_gnp(30, 0.25, 3);
        for u in 0..30u32 {
            let slice = g.neighbors_slice(u).expect("Graph is slice-backed");
            assert_eq!(slice, g.neighbors_iter(u).collect::<Vec<_>>().as_slice());
        }
        // A masked view is iterator-only: the default must stay None.
        let view = MaskedGraph::new(&g, []);
        assert!(view.neighbors_slice(0).is_none());
        // neighbors_cow borrows on the slice path and collects otherwise.
        for u in 0..30u32 {
            assert!(matches!(g.neighbors_cow(u), Cow::Borrowed(_)));
            assert_eq!(*view.neighbors_cow(u), *g.neighbors(u));
        }
    }

    #[test]
    fn slice_default_merge_matches_override() {
        // A wrapper exposing slices but not overriding the common-neighbor
        // merge: the trait default must take the slice path and agree.
        let g = crate::generators::erdos_renyi_gnp(40, 0.2, 11);
        struct SliceWrap<'a>(&'a Graph);
        impl NeighborAccess for SliceWrap<'_> {
            fn node_count(&self) -> usize {
                self.0.node_count()
            }
            fn edge_count(&self) -> usize {
                self.0.edge_count()
            }
            fn degree(&self, u: NodeId) -> usize {
                self.0.degree(u)
            }
            fn neighbors_iter(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
                self.0.neighbors(u).iter().copied()
            }
            fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
                self.0.has_edge(u, v)
            }
            fn neighbors_slice(&self, u: NodeId) -> Option<&[NodeId]> {
                Some(self.0.neighbors(u))
            }
        }
        let w = SliceWrap(&g);
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
        let g = crate::generators::erdos_renyi_gnp(40, 0.2, 9);
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
            fn neighbors_iter(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
                self.0.neighbors(u).iter().copied()
            }
            fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
                self.0.has_edge(u, v)
            }
            // no override: exercises the default merge
        }
        let w = Wrap(&g);
        for u in 0..10u32 {
            for v in (u + 1)..10 {
                assert_eq!(
                    w.common_neighbors_vec(u, v),
                    g.common_neighbors(u, v),
                    "({u},{v})"
                );
            }
        }
    }
}
