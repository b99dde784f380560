//! The core undirected simple-graph data structure.
//!
//! Design notes:
//! * Adjacency lists are **sorted** `Vec<NodeId>`. Edge membership is a
//!   binary search (`O(log d)`), common-neighbor enumeration is a linear
//!   merge of two sorted lists (`O(d_u + d_v)`) — the hot operation of every
//!   motif counter in this workspace.
//! * Edge insertion/removal keeps lists sorted (`O(d)` shift). TPP workloads
//!   are read-dominated: a handful of protector deletions versus millions of
//!   motif queries, so this trade is strongly favourable.
//! * The structure is a *simple* graph: no self-loops, no parallel edges,
//!   matching the social graphs used by the paper.

use crate::edge::{Edge, NodeId};
use crate::error::GraphError;
use serde::{Deserialize, Serialize};

/// An undirected simple graph over dense node ids `0..node_count()`.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    /// `adj[u]` is the sorted list of neighbors of `u`.
    adj: Vec<Vec<NodeId>>,
    /// Number of undirected edges.
    num_edges: usize,
}

impl Graph {
    /// Creates an empty graph with `n` isolated nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Builds a graph from an edge iterator, growing the node set to fit.
    /// Duplicate edges are ignored (the graph stays simple).
    ///
    /// # Panics
    /// Panics if any edge is a self-loop (via [`Edge::new`]).
    #[must_use]
    pub fn from_edges<I, E>(edges: I) -> Self
    where
        I: IntoIterator<Item = E>,
        E: Into<Edge>,
    {
        let mut g = Graph::new(0);
        for e in edges {
            let e = e.into();
            g.ensure_node(e.v());
            let _ = g.add_edge(e.u(), e.v());
        }
        g
    }

    /// Number of nodes (including isolated ones).
    #[inline]
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.num_edges
    }

    /// Returns `true` if the graph has no edges.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.num_edges == 0
    }

    /// Adds a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        (self.adj.len() - 1) as NodeId
    }

    /// Grows the node set so that `id` is a valid node.
    pub fn ensure_node(&mut self, id: NodeId) {
        let need = id as usize + 1;
        if self.adj.len() < need {
            self.adj.resize_with(need, Vec::new);
        }
    }

    /// Returns `true` if `n` is a valid node id.
    #[inline]
    #[must_use]
    pub fn contains_node(&self, n: NodeId) -> bool {
        (n as usize) < self.adj.len()
    }

    /// Adds the undirected edge `(u, v)`. Returns `true` if the edge was
    /// inserted, `false` if it already existed.
    ///
    /// # Panics
    /// Panics if `u == v` or either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert_ne!(u, v, "self-loop ({u}, {u}) is not allowed");
        assert!(
            self.contains_node(u) && self.contains_node(v),
            "edge ({u}, {v}) references a node outside 0..{}",
            self.adj.len()
        );
        let pos = match self.adj[u as usize].binary_search(&v) {
            Ok(_) => return false,
            Err(pos) => pos,
        };
        self.adj[u as usize].insert(pos, v);
        let pos = self.adj[v as usize]
            .binary_search(&u)
            .expect_err("adjacency lists out of sync");
        self.adj[v as usize].insert(pos, u);
        self.num_edges += 1;
        true
    }

    /// Fallible edge insertion for untrusted input (parsers, user API).
    ///
    /// # Errors
    /// Returns [`GraphError::SelfLoop`] or [`GraphError::NodeOutOfRange`].
    pub fn try_add_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if !self.contains_node(u) || !self.contains_node(v) {
            return Err(GraphError::NodeOutOfRange {
                node: u.max(v),
                nodes: self.adj.len(),
            });
        }
        Ok(self.add_edge(u, v))
    }

    /// Removes the undirected edge `(u, v)`. Returns `true` if it existed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.contains_node(u) || !self.contains_node(v) {
            return false;
        }
        let Ok(pos) = self.adj[u as usize].binary_search(&v) else {
            return false;
        };
        self.adj[u as usize].remove(pos);
        let pos = self.adj[v as usize]
            .binary_search(&u)
            .expect("adjacency lists out of sync");
        self.adj[v as usize].remove(pos);
        self.num_edges -= 1;
        true
    }

    /// Removes every edge in `edges`, returning how many were present.
    pub fn remove_edges<'a, I>(&mut self, edges: I) -> usize
    where
        I: IntoIterator<Item = &'a Edge>,
    {
        edges
            .into_iter()
            .filter(|e| self.remove_edge(e.u(), e.v()))
            .count()
    }

    /// Returns `true` if the undirected edge `(u, v)` exists.
    #[inline]
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if !self.contains_node(u) || !self.contains_node(v) {
            return false;
        }
        // Search from the lower-degree endpoint.
        let (a, b) = if self.adj[u as usize].len() <= self.adj[v as usize].len() {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a as usize].binary_search(&b).is_ok()
    }

    /// Returns `true` if the canonical edge exists.
    #[inline]
    #[must_use]
    pub fn contains(&self, e: Edge) -> bool {
        self.has_edge(e.u(), e.v())
    }

    /// Degree of node `u`.
    #[inline]
    #[must_use]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u as usize].len()
    }

    /// Sorted slice of neighbors of `u`.
    #[inline]
    #[must_use]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.adj[u as usize]
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.adj.len() as NodeId
    }

    /// Iterates over all edges in canonical `(u < v)` order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            let u = u as NodeId;
            nbrs.iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| Edge::new(u, v))
        })
    }

    /// Collects all edges into a vector (canonical order).
    #[must_use]
    pub fn edge_vec(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.num_edges);
        out.extend(self.edges());
        out
    }

    /// Common neighbors of `u` and `v` via sorted-list merge.
    #[must_use]
    pub fn common_neighbors(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.for_each_common_neighbor(u, v, |w| out.push(w));
        out
    }

    /// Calls `f(w)` for each common neighbor `w` of `u` and `v`
    /// (ascending order), without allocating. Routes through the
    /// size-adaptive kernel dispatcher.
    #[inline]
    pub fn for_each_common_neighbor<F: FnMut(NodeId)>(&self, u: NodeId, v: NodeId, f: F) {
        crate::kernels::intersect_with(&self.adj[u as usize], &self.adj[v as usize], f);
    }

    /// Number of common neighbors of `u` and `v` (count-only kernel,
    /// nothing materialized).
    #[must_use]
    pub fn common_neighbor_count(&self, u: NodeId, v: NodeId) -> usize {
        crate::kernels::count_with(&self.adj[u as usize], &self.adj[v as usize])
    }

    /// Sum of all degrees (`= 2 * edge_count`).
    #[must_use]
    pub fn degree_sum(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Maximum degree over all nodes (0 for an empty node set).
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The degree sequence, indexed by node id.
    #[must_use]
    pub fn degrees(&self) -> Vec<usize> {
        self.adj.iter().map(Vec::len).collect()
    }

    /// Induced subgraph on `nodes`; returns the subgraph and the mapping
    /// `new_id -> old_id`.
    #[must_use]
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut old_to_new = crate::hash::fast_map_with_capacity::<NodeId, NodeId>(nodes.len());
        let mut new_to_old = Vec::with_capacity(nodes.len());
        for &n in nodes {
            if let std::collections::hash_map::Entry::Vacant(e) = old_to_new.entry(n) {
                e.insert(new_to_old.len() as NodeId);
                new_to_old.push(n);
            }
        }
        let mut g = Graph::new(new_to_old.len());
        for (&old_u, &new_u) in &old_to_new {
            for &old_v in self.neighbors(old_u) {
                if let Some(&new_v) = old_to_new.get(&old_v) {
                    if new_u < new_v {
                        g.add_edge(new_u, new_v);
                    }
                }
            }
        }
        (g, new_to_old)
    }

    /// Asserts internal invariants (sortedness, symmetry, edge count).
    /// Used by tests and debug assertions; cost is `O(V + E log E)`.
    pub fn check_invariants(&self) {
        let mut dir_edges = 0usize;
        for (u, nbrs) in self.adj.iter().enumerate() {
            assert!(
                nbrs.windows(2).all(|w| w[0] < w[1]),
                "adjacency of {u} is not strictly sorted"
            );
            for &v in nbrs {
                assert_ne!(u as NodeId, v, "self-loop at {u}");
                assert!(
                    self.adj[v as usize].binary_search(&(u as NodeId)).is_ok(),
                    "edge ({u}, {v}) not symmetric"
                );
            }
            dir_edges += nbrs.len();
        }
        assert_eq!(dir_edges, 2 * self.num_edges, "edge count out of sync");
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Graph {{ nodes: {}, edges: {} }}",
            self.node_count(),
            self.edge_count()
        )
    }
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.adj == other.adj
    }
}
impl Eq for Graph {}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges([(0u32, 1u32), (1, 2), (0, 2)])
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_empty());
        assert_eq!(g.edges().count(), 0);
        g.check_invariants();
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = Graph::new(4);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0), "duplicate (reversed) edge ignored");
        assert!(g.add_edge(1, 2));
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(g.contains(Edge::new(2, 1)));
        g.check_invariants();
    }

    #[test]
    fn remove_edges() {
        let mut g = triangle();
        assert!(g.remove_edge(0, 2));
        assert!(!g.remove_edge(0, 2), "double removal is a no-op");
        assert_eq!(g.edge_count(), 2);
        assert!(!g.has_edge(0, 2));
        let removed = g.remove_edges(&[Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)]);
        assert_eq!(removed, 2);
        assert!(g.is_empty());
        g.check_invariants();
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges([(5u32, 1u32), (5, 9), (5, 3), (5, 0)]);
        assert_eq!(g.neighbors(5), &[0, 1, 3, 9]);
        assert_eq!(g.degree(5), 4);
        assert_eq!(g.degree(9), 1);
    }

    #[test]
    fn edges_iterator_canonical() {
        let g = triangle();
        let edges = g.edge_vec();
        assert_eq!(
            edges,
            vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(1, 2)]
        );
    }

    #[test]
    fn common_neighbors_merge() {
        //    0
        //   /|\
        //  1 2 3      and 4 adjacent to 1,2,3
        let g = Graph::from_edges([(0u32, 1u32), (0, 2), (0, 3), (4, 1), (4, 2), (4, 3)]);
        assert_eq!(g.common_neighbors(0, 4), vec![1, 2, 3]);
        assert_eq!(g.common_neighbor_count(0, 4), 3);
        assert_eq!(g.common_neighbors(1, 2), vec![0, 4]);
        // self-pair degenerates to the node's own neighbor set
        assert_eq!(g.common_neighbors(1, 1), g.neighbors(1).to_vec());
    }

    #[test]
    fn try_add_edge_errors() {
        let mut g = Graph::new(2);
        assert!(matches!(
            g.try_add_edge(0, 0),
            Err(GraphError::SelfLoop { node: 0 })
        ));
        assert!(matches!(
            g.try_add_edge(0, 9),
            Err(GraphError::NodeOutOfRange { node: 9, nodes: 2 })
        ));
        assert_eq!(g.try_add_edge(0, 1), Ok(true));
        assert_eq!(g.try_add_edge(0, 1), Ok(false));
    }

    #[test]
    fn ensure_node_grows() {
        let mut g = Graph::new(0);
        g.ensure_node(3);
        assert_eq!(g.node_count(), 4);
        g.ensure_node(1); // no shrink
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn from_edges_grows_and_dedups() {
        let g = Graph::from_edges([(0u32, 7u32), (7, 0), (1, 2)]);
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn induced_subgraph_maps_ids() {
        let g = triangle();
        let (sub, map) = g.induced_subgraph(&[0, 2]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert_eq!(map, vec![0, 2]);
        let (sub2, _) = g.induced_subgraph(&[0, 1, 2]);
        assert_eq!(sub2.edge_count(), 3);
    }

    #[test]
    fn degree_statistics() {
        let g = triangle();
        assert_eq!(g.degree_sum(), 6);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.degrees(), vec![2, 2, 2]);
    }

    #[test]
    fn clone_is_independent() {
        let g = triangle();
        let mut h = g.clone();
        h.remove_edge(0, 1);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(h.edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn add_edge_panics_on_self_loop() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn add_edge_panics_out_of_range() {
        let mut g = Graph::new(2);
        g.add_edge(0, 5);
    }
}
