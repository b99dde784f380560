//! [`CsrShard`]: a node-range-restricted view of a [`CsrGraph`] snapshot.
//!
//! Sharding the snapshot by node range is how parallel evaluators split
//! work without handing each thread the whole neighbor array: a shard is
//! the subgraph induced on a contiguous node range, and — because CSR
//! neighbor slices are sorted — every shard-local adjacency list is one
//! **contiguous subslice** of the base array (no copy, no allocation).
//!
//! Two distinct uses are supported:
//!
//! * **Induced-subgraph scans** via [`NeighborAccess`]: the shard exposes
//!   only edges with *both* endpoints in its range. Shards therefore
//!   partition the intra-range edges; cross-shard edges belong to no
//!   shard's induced view and must be handled by a boundary pass when an
//!   exact global aggregate is required.
//! * **Ownership-based work splitting** via [`CsrShard::owns_edge`]: every
//!   canonical edge `(u < v)` is owned by exactly one shard (the one whose
//!   range contains `u`), so per-shard candidate scans cover each edge
//!   exactly once. This is the key/partition-range discipline the round
//!   engine in `tpp-core` uses to drive its per-thread workers.
//!
//! Shard boundaries come from [`CsrGraph::shard_ranges`], which balances
//! the adjacency payload (not node count) across shards.

use crate::CsrGraph;
use tpp_graph::{Edge, NeighborAccess, NodeId};

/// A range-restricted, zero-copy view over a [`CsrGraph`].
///
/// Node ids keep their global meaning: the view still reports the base's
/// `node_count()`, and nodes outside the range are simply isolated. This
/// keeps every id-indexed algorithm (motif counters, walk propagation)
/// valid over a shard without any id remapping.
#[derive(Debug, Clone, Copy)]
pub struct CsrShard<'a> {
    base: &'a CsrGraph,
    start: NodeId,
    end: NodeId,
}

impl<'a> CsrShard<'a> {
    /// Builds the shard for `range` (end-exclusive, clamped to the base's
    /// node space).
    #[must_use]
    pub fn new(base: &'a CsrGraph, range: std::ops::Range<NodeId>) -> Self {
        let n = base.node_count() as NodeId;
        let start = range.start.min(n);
        CsrShard {
            base,
            start,
            end: range.end.clamp(start, n),
        }
    }

    /// The underlying snapshot.
    #[must_use]
    pub fn base(&self) -> &'a CsrGraph {
        self.base
    }

    /// The owned node range (end-exclusive).
    #[must_use]
    pub fn node_range(&self) -> std::ops::Range<NodeId> {
        self.start..self.end
    }

    /// Whether this shard owns node `u`.
    #[inline]
    #[must_use]
    pub fn owns(&self, u: NodeId) -> bool {
        (self.start..self.end).contains(&u)
    }

    /// Whether this shard owns canonical edge `e` — ownership follows the
    /// lower endpoint, so every edge is owned by exactly one shard of a
    /// partition. Use this to split a candidate-edge list across shards.
    #[inline]
    #[must_use]
    pub fn owns_edge(&self, e: Edge) -> bool {
        self.owns(e.u())
    }

    /// Total base adjacency entries of the owned node range — the payload
    /// span [`CsrGraph::shard_ranges`] balances (a proxy for scan work).
    #[must_use]
    pub fn payload_span(&self) -> usize {
        (self.base.offsets()[self.end as usize] - self.base.offsets()[self.start as usize]) as usize
    }

    /// The in-range neighbors of `u` as a contiguous subslice of the base
    /// neighbor array (empty when `u` is outside the range).
    #[must_use]
    pub fn neighbors(&self, u: NodeId) -> &'a [NodeId] {
        if !self.owns(u) {
            return &[];
        }
        let all = self.base.neighbors(u);
        let lo = all.partition_point(|&v| v < self.start);
        let hi = all.partition_point(|&v| v < self.end);
        &all[lo..hi]
    }
}

impl NeighborAccess for CsrShard<'_> {
    fn node_count(&self) -> usize {
        self.base.node_count()
    }

    fn edge_count(&self) -> usize {
        // Each intra-range edge appears in both endpoints' clipped slices.
        let deg_sum: usize = (self.start..self.end)
            .map(|u| self.neighbors(u).len())
            .sum();
        deg_sum / 2
    }

    fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).len()
    }

    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        CsrShard::neighbors(self, u)
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.owns(u) && self.owns(v) && self.base.has_edge(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::Graph;

    fn fixture() -> CsrGraph {
        CsrGraph::from_graph(&tpp_graph::generators::holme_kim(300, 4, 0.4, 9))
    }

    #[test]
    fn shards_cover_the_node_space_in_order() {
        let csr = fixture();
        for parts in [1usize, 2, 3, 7, 16] {
            let shards = csr.shards(parts);
            assert!(!shards.is_empty() && shards.len() <= parts);
            assert_eq!(shards[0].node_range().start, 0);
            assert_eq!(
                shards.last().unwrap().node_range().end as usize,
                csr.node_count()
            );
            for w in shards.windows(2) {
                assert_eq!(w[0].node_range().end, w[1].node_range().start);
                assert!(w[0].node_range().start < w[0].node_range().end);
            }
        }
    }

    #[test]
    fn payload_spans_are_balanced() {
        let csr = fixture();
        let parts = 4;
        let shards = csr.shards(parts);
        let max_deg = (0..csr.node_count() as NodeId)
            .map(|u| csr.degree(u))
            .max()
            .unwrap();
        let ideal = csr.neighbor_array().len() / parts;
        for s in &shards {
            // Each span can miss the ideal by at most one node's degree
            // (plus integer-division rounding).
            assert!(
                s.payload_span() <= ideal + max_deg + parts,
                "span {} vs ideal {ideal} (max degree {max_deg})",
                s.payload_span()
            );
        }
        let covered: usize = shards.iter().map(CsrShard::payload_span).sum();
        assert_eq!(covered, csr.neighbor_array().len());
    }

    #[test]
    fn every_edge_owned_by_exactly_one_shard() {
        let csr = fixture();
        let edges = csr.collect_edges();
        let shards = csr.shards(5);
        for e in &edges {
            let owners = shards.iter().filter(|s| s.owns_edge(*e)).count();
            assert_eq!(owners, 1, "edge {e}");
        }
        // Ownership-split candidate lists concatenate back to the full set
        // in canonical order (contiguous ranges, ascending).
        let rejoined: Vec<Edge> = shards
            .iter()
            .flat_map(|s| edges.iter().filter(|e| s.owns_edge(**e)).copied())
            .collect();
        assert_eq!(rejoined, edges);
    }

    #[test]
    fn induced_view_matches_filtered_graph() {
        let csr = fixture();
        for shard in csr.shards(3) {
            // Reference: physically build the induced subgraph.
            let mut induced = Graph::new(csr.node_count());
            for e in csr.collect_edges() {
                if shard.owns(e.u()) && shard.owns(e.v()) {
                    induced.add_edge(e.u(), e.v());
                }
            }
            assert_eq!(shard.edge_count(), induced.edge_count());
            for u in 0..csr.node_count() as NodeId {
                assert_eq!(shard.neighbors(u), induced.neighbors(u), "node {u}");
                assert_eq!(NeighborAccess::degree(&shard, u), induced.degree(u));
                assert_eq!(
                    NeighborAccess::neighbors(&shard, u),
                    induced.neighbors(u),
                    "slice of {u}"
                );
            }
            assert_eq!(shard.collect_edges(), induced.edge_vec());
        }
    }

    #[test]
    fn out_of_range_nodes_are_isolated() {
        let csr = fixture();
        let shards = csr.shards(2);
        let (a, b) = (shards[0], shards[1]);
        let outside = b.node_range().start;
        assert_eq!(a.neighbors(outside), &[] as &[NodeId]);
        assert_eq!(NeighborAccess::degree(&a, outside), 0);
        assert!(!a.has_edge(0, outside));
        // Clamping: an over-wide range degrades to the full node space.
        let wide = CsrShard::new(&csr, 0..NodeId::MAX);
        assert_eq!(wide.node_range().end as usize, csr.node_count());
        assert_eq!(wide.edge_count(), csr.edge_count());
    }

    #[test]
    fn single_shard_is_the_whole_snapshot() {
        let csr = fixture();
        let shards = csr.shards(1);
        assert_eq!(shards.len(), 1);
        let s = shards[0];
        assert_eq!(s.edge_count(), csr.edge_count());
        assert_eq!(s.collect_edges(), csr.collect_edges());
        for u in 0..csr.node_count() as NodeId {
            assert_eq!(s.neighbors(u), csr.neighbors(u));
        }
    }
}
