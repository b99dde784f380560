//! The immutable compressed-sparse-row snapshot.
//!
//! A [`CsrGraph`] packs every adjacency list into one contiguous neighbor
//! array indexed by a per-node offset table — two allocations total, cache-
//! dense iteration, and zero per-node pointer chasing. It is the read
//! substrate the greedy evaluators score against; mutation happens in
//! [`crate::DeltaView`] overlays, never in the snapshot itself.

use crate::error::StoreError;
use crate::storage::CsrStorage;
use std::borrow::Cow;
use std::sync::OnceLock;
use tpp_exec::balanced_prefix_ranges;
use tpp_graph::{Edge, Graph, NeighborAccess, NodeId, Words};

/// An immutable CSR snapshot of a simple undirected graph.
///
/// Invariants (checked by [`CsrGraph::check_invariants`], enforced on
/// construction and on fully-verified [`crate::format`] loads):
///
/// * `offsets.len() == node_count + 1`, `offsets[0] == 0`, monotone
///   non-decreasing, `offsets[n] == neighbors.len()`;
/// * each per-node slice `neighbors[offsets[u]..offsets[u+1]]` is strictly
///   ascending (sorted, duplicate-free, no self-loop);
/// * adjacency is symmetric and `neighbors.len() == 2 * edge_count`.
///
/// The arrays live either on the heap (every in-memory build) or as
/// zero-copy windows into a memory-mapped snapshot file
/// ([`crate::format::load_mapped`]) — the backing is invisible to every
/// reader because all access goes through [`CsrGraph::offsets`] /
/// [`CsrGraph::neighbor_array`] slices.
///
/// The snapshot also keeps its upper-edge prefix
/// ([`NeighborAccess::upper_edge_prefix`]) once known: a snapshot load
/// fills it from the file's upper-prefix section, [`CsrGraph::from_access`]
/// counts it while copying, and any other snapshot computes it on first
/// use.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// The two CSR arrays, owned or mapped (see [`crate::storage`]).
    storage: CsrStorage,
    /// The upper-edge prefix, once loaded or computed.
    upper_prefix: OnceLock<Words>,
}

/// Equality is structural over the CSR arrays, so a mapped snapshot equals
/// the owned snapshot with the same arrays.
impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        self.offsets() == other.offsets() && self.neighbor_array() == other.neighbor_array()
    }
}

impl Eq for CsrGraph {}

impl CsrGraph {
    /// The owned-arrays constructor: wraps the two CSR arrays.
    fn from_arrays(offsets: Vec<u64>, neighbors: Vec<NodeId>) -> Self {
        CsrGraph::from_storage(CsrStorage::Owned { offsets, neighbors })
    }

    /// Wraps any storage backing **without validating** the structural
    /// invariants — the format layer's tiered-verification loaders are the
    /// only callers, and they decide per [`crate::format::VerifyMode`]
    /// how much of the payload to vouch for.
    pub(crate) fn from_storage(storage: CsrStorage) -> Self {
        CsrGraph {
            storage,
            upper_prefix: OnceLock::new(),
        }
    }

    /// Fills the upper-edge prefix slot: with a snapshot's own section,
    /// trusted as the loader's tier vouched for it, or with the prefix a
    /// copy counted.
    pub(crate) fn with_upper_prefix(self, prefix: Words) -> Self {
        CsrGraph {
            upper_prefix: OnceLock::from(prefix),
            ..self
        }
    }

    /// `true` when the arrays are zero-copy windows into a memory-mapped
    /// snapshot file, `false` for arrays held on the heap.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        self.storage_kind() == "mapped"
    }

    /// Human-readable backing name (`"mapped"`, `"heap"` for a snapshot
    /// file read without `mmap`, or `"owned"`), for status output like
    /// `tpp store info`.
    #[must_use]
    pub fn storage_kind(&self) -> &'static str {
        self.storage.kind()
    }

    /// Materializes any readable graph into an owned snapshot: one
    /// sequential pass that appends each node's sorted neighbor list to
    /// the packed array (one slice copy per node).
    ///
    /// This is the one routine behind every derived snapshot: a parsed
    /// text edge list, and the new graph of a delta (the next resident
    /// graph after a served update, the mutated original of an
    /// incremental protect). The paper's phase-1 graph and release are
    /// not copied: they stay [`crate::DeltaView`] overlays over the
    /// original.
    /// The [`NeighborAccess`] contract (sorted, duplicate-free, symmetric)
    /// is exactly the CSR invariant, so no re-validation is needed.
    ///
    /// The same pass counts each node's upper neighbours, so the copy
    /// carries its upper-edge prefix from the start: sampling on it reads
    /// that, and the prefix is allocated with, and lives as long as, the
    /// arrays it describes.
    #[must_use]
    pub fn from_access<G: NeighborAccess>(g: &G) -> Self {
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * g.edge_count());
        // The prefix ranks edges in `u32`, so a larger graph has none.
        let mut upper = u32::try_from(g.edge_count()).is_ok().then(|| {
            let mut upper = Vec::with_capacity(n + 1);
            upper.push(0u32);
            upper
        });
        offsets.push(0u64);
        for u in g.node_ids() {
            let nu = g.neighbors(u);
            neighbors.extend_from_slice(nu);
            offsets.push(neighbors.len() as u64);
            if let Some(upper) = &mut upper {
                let last = upper[upper.len() - 1];
                upper.push(last + (nu.len() - nu.partition_point(|&v| v < u)) as u32);
            }
        }
        let g = CsrGraph::from_arrays(offsets, neighbors);
        match upper {
            Some(upper) => g.with_upper_prefix(upper.into()),
            None => g,
        }
    }

    /// Snapshot of an adjacency-list [`Graph`] (single-threaded copy,
    /// [`CsrGraph::from_access`]).
    #[must_use]
    pub fn from_graph(g: &Graph) -> Self {
        Self::from_access(g)
    }

    /// Builds a snapshot from an edge list over `n` nodes. Duplicate edges
    /// are collapsed; the input order is irrelevant.
    ///
    /// # Errors
    /// Returns [`StoreError::InvalidEdge`] on an endpoint `>= n`. (Self-
    /// loops cannot be represented: [`Edge::new`] enforces `u() < v()` at
    /// construction, which also makes checking `v()` alone sufficient
    /// here.)
    pub fn from_edges(n: usize, edges: &[Edge]) -> Result<Self, StoreError> {
        for e in edges {
            if e.v() as usize >= n {
                return Err(StoreError::InvalidEdge {
                    u: e.u(),
                    v: e.v(),
                    nodes: n,
                });
            }
        }
        // Counting sort into CSR shape: degree pass, prefix sum, fill pass,
        // then per-node sort + dedup compaction.
        let mut degree = vec![0u64; n];
        for e in edges {
            degree[e.u() as usize] += 1;
            degree[e.v() as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut total = 0u64;
        for &d in &degree {
            total += d;
            offsets.push(total);
        }
        let mut neighbors = vec![0 as NodeId; total as usize];
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        for e in edges {
            neighbors[cursor[e.u() as usize] as usize] = e.v();
            cursor[e.u() as usize] += 1;
            neighbors[cursor[e.v() as usize] as usize] = e.u();
            cursor[e.v() as usize] += 1;
        }
        // Sort each slice and drop duplicate parallel edges in place.
        let mut write = 0usize;
        let mut fixed_offsets = Vec::with_capacity(n + 1);
        fixed_offsets.push(0u64);
        let mut scratch: Vec<NodeId> = Vec::new();
        for u in 0..n {
            let (lo, hi) = (offsets[u] as usize, offsets[u + 1] as usize);
            scratch.clear();
            scratch.extend_from_slice(&neighbors[lo..hi]);
            scratch.sort_unstable();
            scratch.dedup();
            for (i, &v) in scratch.iter().enumerate() {
                neighbors[write + i] = v;
            }
            write += scratch.len();
            fixed_offsets.push(write as u64);
        }
        neighbors.truncate(write);
        Ok(CsrGraph::from_arrays(fixed_offsets, neighbors))
    }

    /// Reconstructs a CSR graph from raw parts (the on-disk format loader).
    ///
    /// # Errors
    /// Returns [`StoreError::Corrupt`] if the invariants do not hold.
    pub fn from_raw_parts(offsets: Vec<u64>, neighbors: Vec<NodeId>) -> Result<Self, StoreError> {
        let g = CsrGraph::from_arrays(offsets, neighbors);
        g.validate()?;
        Ok(g)
    }

    /// The offset table (length `node_count() + 1`).
    #[inline]
    #[must_use]
    pub fn offsets(&self) -> &[u64] {
        self.storage.offsets()
    }

    /// The packed neighbor array (length `2 * edge_count()`).
    #[inline]
    #[must_use]
    pub fn neighbor_array(&self) -> &[NodeId] {
        self.storage.neighbors()
    }

    /// Number of nodes.
    #[inline]
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets().len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.neighbor_array().len() / 2
    }

    /// Sorted neighbor slice of `u`.
    #[inline]
    #[must_use]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let offsets = self.offsets();
        let lo = offsets[u as usize] as usize;
        let hi = offsets[u as usize + 1] as usize;
        &self.neighbor_array()[lo..hi]
    }

    /// Degree of `u`.
    #[inline]
    #[must_use]
    pub fn degree(&self, u: NodeId) -> usize {
        let offsets = self.offsets();
        (offsets[u as usize + 1] - offsets[u as usize]) as usize
    }

    /// Whether the undirected edge `(u, v)` exists (binary search from the
    /// lower-degree endpoint).
    #[inline]
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        // One offset-table fetch for the range checks, both degrees and
        // the search window (rectangle enumeration calls this per 2-path).
        let offsets = self.offsets();
        let (ui, vi) = (u as usize, v as usize);
        if ui + 1 >= offsets.len() || vi + 1 >= offsets.len() {
            return false;
        }
        let (u_span, v_span) = (offsets[ui]..offsets[ui + 1], offsets[vi]..offsets[vi + 1]);
        let (span, b) = if u_span.end - u_span.start <= v_span.end - v_span.start {
            (u_span, v)
        } else {
            (v_span, u)
        };
        self.neighbor_array()[span.start as usize..span.end as usize]
            .binary_search(&b)
            .is_ok()
    }

    /// Splits the node space into up to `parts` contiguous ranges balanced
    /// by **adjacency payload** (the per-range share of the neighbor
    /// array), not node count — on skewed degree distributions the hub
    /// shard would otherwise dwarf the rest.
    ///
    /// The ranges are non-empty, ascending, and cover `0..node_count()`
    /// exactly; fewer than `parts` ranges are returned when the graph has
    /// fewer nodes. `tpp store info --shards` reports this plan; the
    /// coverage index cuts its own shards by the same degree prefix.
    ///
    /// # Panics
    /// Panics if `parts == 0`.
    #[must_use]
    pub fn shard_ranges(&self, parts: usize) -> Vec<std::ops::Range<NodeId>> {
        balanced_prefix_ranges(self.offsets(), parts)
            .into_iter()
            .map(|r| r.start as NodeId..r.end as NodeId)
            .collect()
    }

    /// Materializes the snapshot back into an adjacency-list [`Graph`].
    #[must_use]
    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::new(self.node_count());
        for u in 0..self.node_count() as NodeId {
            for &v in self.neighbors(u) {
                if u < v {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    pub(crate) fn validate(&self) -> Result<(), StoreError> {
        let corrupt = |why: String| Err(StoreError::Corrupt(why));
        let offsets = self.offsets();
        let neighbors = self.neighbor_array();
        let Some(&first) = offsets.first() else {
            return corrupt("empty offset table".into());
        };
        if first != 0 {
            return corrupt(format!("offsets[0] = {first}, want 0"));
        }
        if *offsets.last().expect("nonempty") != neighbors.len() as u64 {
            return corrupt("offsets do not cover the neighbor array".into());
        }
        if !neighbors.len().is_multiple_of(2) {
            return corrupt("odd neighbor count in an undirected graph".into());
        }
        let n = self.node_count();
        for u in 0..n {
            let (lo, hi) = (offsets[u], offsets[u + 1]);
            if lo > hi {
                return corrupt(format!("offsets decrease at node {u}"));
            }
            if hi > neighbors.len() as u64 {
                return corrupt(format!("offset {hi} of node {u} exceeds payload"));
            }
            let slice = &neighbors[lo as usize..hi as usize];
            if !slice.windows(2).all(|w| w[0] < w[1]) {
                return corrupt(format!("neighbors of {u} not strictly sorted"));
            }
            for &v in slice {
                if v as usize >= n {
                    return corrupt(format!("neighbor {v} of {u} out of range"));
                }
                if v as usize == u {
                    return corrupt(format!("self-loop at {u}"));
                }
            }
        }
        // Symmetry: every (u, v) must appear as (v, u).
        for u in 0..n as NodeId {
            for &v in self.neighbors(u) {
                if self.neighbors(v).binary_search(&u).is_err() {
                    return corrupt(format!("edge ({u}, {v}) not symmetric"));
                }
            }
        }
        Ok(())
    }

    /// Asserts the structural invariants (test helper).
    ///
    /// # Panics
    /// Panics when the snapshot is corrupt.
    pub fn check_invariants(&self) {
        if let Err(e) = self.validate() {
            panic!("CSR invariant violation: {e}");
        }
    }
}

impl From<&Graph> for CsrGraph {
    fn from(g: &Graph) -> Self {
        CsrGraph::from_graph(g)
    }
}

impl NeighborAccess for CsrGraph {
    #[inline]
    fn node_count(&self) -> usize {
        CsrGraph::node_count(self)
    }

    #[inline]
    fn edge_count(&self) -> usize {
        CsrGraph::edge_count(self)
    }

    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        CsrGraph::degree(self, u)
    }

    #[inline]
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        CsrGraph::neighbors(self, u)
    }

    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        CsrGraph::has_edge(self, u, v)
    }

    /// The prefix a snapshot load filled in, else the one computed on the
    /// first call and kept.
    fn upper_edge_prefix(&self) -> Cow<'_, [u32]> {
        Cow::Borrowed(
            self.upper_prefix
                .get_or_init(|| tpp_graph::access::upper_edge_prefix(self).into()),
        )
    }

    /// The offset table.
    fn degree_prefix(&self) -> Option<&[u64]> {
        Some(self.offsets())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        Graph::from_edges([(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2)])
    }

    /// A node range's share of the neighbor array: the payload
    /// [`CsrGraph::shard_ranges`] balances.
    fn payload_span(csr: &CsrGraph, r: &std::ops::Range<NodeId>) -> usize {
        (csr.offsets()[r.end as usize] - csr.offsets()[r.start as usize]) as usize
    }

    #[test]
    fn shards_cover_the_node_space_in_order() {
        let csr = CsrGraph::from_graph(&tpp_graph::generators::holme_kim(300, 4, 0.4, 9));
        for parts in [1usize, 2, 3, 7, 16] {
            let ranges = csr.shard_ranges(parts);
            assert!(!ranges.is_empty() && ranges.len() <= parts);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end as usize, csr.node_count());
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                assert!(w[0].start < w[0].end);
            }
        }
    }

    #[test]
    fn payload_spans_are_balanced() {
        let csr = CsrGraph::from_graph(&tpp_graph::generators::holme_kim(300, 4, 0.4, 9));
        let parts = 4;
        let ranges = csr.shard_ranges(parts);
        let max_deg = (0..csr.node_count() as NodeId)
            .map(|u| csr.degree(u))
            .max()
            .unwrap();
        let ideal = csr.neighbor_array().len() / parts;
        for r in &ranges {
            // Each span can miss the ideal by at most one node's degree
            // (plus integer-division rounding).
            let span = payload_span(&csr, r);
            assert!(
                span <= ideal + max_deg + parts,
                "span {span} vs ideal {ideal} (max degree {max_deg})"
            );
        }
        let covered: usize = ranges.iter().map(|r| payload_span(&csr, r)).sum();
        assert_eq!(covered, csr.neighbor_array().len());
    }

    #[test]
    fn from_graph_round_trip() {
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        csr.check_invariants();
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 5);
        assert_eq!(csr.neighbors(0), &[1, 2, 3]);
        assert_eq!(csr.degree(2), 3);
        assert!(csr.has_edge(0, 2) && csr.has_edge(2, 0));
        assert!(!csr.has_edge(1, 3));
        assert_eq!(csr.to_graph(), g);
    }

    #[test]
    fn from_edges_sorts_and_dedups() {
        let edges = vec![
            Edge::new(3, 1),
            Edge::new(0, 2),
            Edge::new(1, 3), // duplicate of (3, 1)
            Edge::new(2, 1),
        ];
        let csr = CsrGraph::from_edges(4, &edges).unwrap();
        csr.check_invariants();
        assert_eq!(csr.edge_count(), 3);
        assert_eq!(csr.neighbors(1), &[2, 3]);
    }

    #[test]
    fn from_edges_rejects_bad_input() {
        assert!(matches!(
            CsrGraph::from_edges(2, &[Edge::new(0, 5)]),
            Err(StoreError::InvalidEdge { .. })
        ));
    }

    #[test]
    fn neighbor_access_agrees_with_graph() {
        let g = tpp_graph::generators::erdos_renyi_gnp(60, 0.15, 4);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.collect_edges(), g.edge_vec());
        for u in 0..60u32 {
            assert_eq!(NeighborAccess::degree(&csr, u), g.degree(u));
            for v in (u + 1)..60 {
                assert_eq!(
                    csr.common_neighbors_vec(u, v),
                    g.common_neighbors(u, v),
                    "({u},{v})"
                );
            }
        }
    }

    #[test]
    fn raw_parts_validation_catches_corruption() {
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        // unsorted neighbors
        let mut bad = csr.neighbor_array().to_vec();
        bad.swap(0, 1);
        assert!(CsrGraph::from_raw_parts(csr.offsets().to_vec(), bad).is_err());
        // broken symmetry: swap a neighbor to a node that doesn't point back
        let mut bad = csr.neighbor_array().to_vec();
        bad[0] = 3; // 0 already points at 3; creates duplicate/sortedness break
        assert!(CsrGraph::from_raw_parts(csr.offsets().to_vec(), bad).is_err());
        // offset table not covering payload
        let mut off = csr.offsets().to_vec();
        *off.last_mut().unwrap() -= 1;
        assert!(CsrGraph::from_raw_parts(off, csr.neighbor_array().to_vec()).is_err());
    }

    #[test]
    fn empty_and_isolated_nodes() {
        let g = Graph::new(3);
        let csr = CsrGraph::from_graph(&g);
        csr.check_invariants();
        assert_eq!(csr.node_count(), 3);
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(csr.degree(1), 0);
        assert!(!csr.has_edge(0, 1));
        assert_eq!(csr.to_graph(), g);
    }
}
