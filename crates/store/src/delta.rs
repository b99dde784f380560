//! [`DeltaView`]: a copy-on-write overlay of edge deletions/additions over
//! any immutable snapshot.
//!
//! The greedy TPP evaluators ask thousands of "what if this edge were
//! gone?" questions per selection round. Cloning the graph per candidate is
//! `O(V + E)` each; mutate-and-restore works but bars sharing the base
//! across threads and is error-prone across early exits. A `DeltaView`
//! keeps the base untouched and records only the delta — `O(1)` setup,
//! `O(changed)` memory, and tentative deletions undo in `O(log changed)`.
//!
//! The view implements [`NeighborAccess`], so every motif counter and
//! link-prediction score in the workspace runs over it unchanged.
//!
//! ## The merged-slice cache
//!
//! [`NeighborAccess`] serves every neighbor list as one sorted slice, so
//! the view keeps, for each *dirty* node, the fully merged neighbor list
//! `(base \ removed) ∪ added` as one sorted `Vec` maintained incrementally
//! on every overlay mutation — and forwards *clean* nodes straight to the
//! base's slice. Repeated scans (a motif recount touches each endpoint
//! neighborhood once per target) therefore hit contiguous slices on both
//! paths, and the common-neighbor merge runs at full
//! [`CsrGraph`](crate::CsrGraph) speed. Views stack: a view over a view
//! reads the inner layer's slices as its base.

use tpp_graph::{Edge, FastMap, Graph, NeighborAccess, NodeId};

/// Per-node overlay state: sorted removed/added lists plus the merged-slice
/// cache for this node.
#[derive(Debug, Clone, Default)]
struct NodeDelta {
    /// Base neighbors masked out, ascending.
    removed: Vec<NodeId>,
    /// Non-base neighbors layered in, ascending.
    added: Vec<NodeId>,
    /// `(base \ removed) ∪ added`, ascending — kept in lockstep with the
    /// two lists so reads are one contiguous slice.
    merged: Vec<NodeId>,
}

impl NodeDelta {
    fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// A mutable delta of edge deletions/additions over an immutable base.
///
/// Edges the base owns can be deleted (masked); edges the base lacks can be
/// added. Deleting an overlay-added edge simply retracts the addition, and
/// re-adding an overlay-deleted edge retracts the deletion, so the delta
/// always stores the *net* difference from the base.
#[derive(Debug)]
pub struct DeltaView<'a, B: NeighborAccess> {
    base: &'a B,
    delta: FastMap<NodeId, NodeDelta>,
    /// Net edge-count change relative to the base.
    edge_delta: isize,
}

// Hand-written so cloning never demands `B: Clone` — the base is only ever
// borrowed, and per-worker view clones in the parallel round engine must
// work over arbitrary snapshot types.
impl<B: NeighborAccess> Clone for DeltaView<'_, B> {
    fn clone(&self) -> Self {
        DeltaView {
            base: self.base,
            delta: self.delta.clone(),
            edge_delta: self.edge_delta,
        }
    }
}

impl<'a, B: NeighborAccess> DeltaView<'a, B> {
    /// An empty overlay: the view is indistinguishable from `base`.
    #[must_use]
    pub fn new(base: &'a B) -> Self {
        DeltaView {
            base,
            delta: FastMap::default(),
            edge_delta: 0,
        }
    }

    /// The underlying snapshot.
    #[must_use]
    pub fn base(&self) -> &'a B {
        self.base
    }

    /// `true` when the view differs from the base.
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.delta.values().any(|d| !d.is_empty())
    }

    /// Number of edges deleted relative to the base.
    #[must_use]
    pub fn deleted_count(&self) -> usize {
        self.delta.values().map(|d| d.removed.len()).sum::<usize>() / 2
    }

    /// Number of edges added relative to the base.
    #[must_use]
    pub fn added_count(&self) -> usize {
        self.delta.values().map(|d| d.added.len()).sum::<usize>() / 2
    }

    /// Drops every overlay change, restoring the base view.
    pub fn clear(&mut self) {
        self.delta.clear();
        self.edge_delta = 0;
    }

    /// Deletes edge `e` from the view. Returns `true` if the edge was live
    /// (and is now gone); `false` when it was not present to begin with.
    pub fn delete_edge(&mut self, e: Edge) -> bool {
        let (u, v) = e.endpoints();
        if self.overlay_added(u, v) {
            // Retract an overlay addition.
            self.retract_added(u, v);
            self.retract_added(v, u);
            self.edge_delta -= 1;
            return true;
        }
        if !self.base.has_edge(u, v) || self.overlay_removed(u, v) {
            return false;
        }
        self.insert_removed(u, v);
        self.insert_removed(v, u);
        self.edge_delta -= 1;
        true
    }

    /// Adds edge `e` to the view. Returns `true` if the edge was absent
    /// (and is now live); `false` when it already existed.
    ///
    /// # Panics
    /// Panics on a self-loop or an endpoint outside the base node range
    /// (the overlay cannot grow the node set).
    pub fn add_edge(&mut self, e: Edge) -> bool {
        let (u, v) = e.endpoints();
        assert!(
            (u as usize) < self.base.node_count() && (v as usize) < self.base.node_count(),
            "edge ({u}, {v}) outside the snapshot's 0..{} node range",
            self.base.node_count()
        );
        if self.overlay_removed(u, v) {
            // Retract an overlay deletion.
            self.retract_removed(u, v);
            self.retract_removed(v, u);
            self.edge_delta += 1;
            return true;
        }
        if self.base.has_edge(u, v) || self.overlay_added(u, v) {
            return false;
        }
        self.insert_added(u, v);
        self.insert_added(v, u);
        self.edge_delta += 1;
        true
    }

    /// Undoes a prior [`delete_edge`](Self::delete_edge) (convenience alias
    /// for the restore half of tentative evaluation).
    pub fn restore_edge(&mut self, e: Edge) -> bool {
        self.add_edge(e)
    }

    /// Edges currently deleted relative to the base, canonical order.
    #[must_use]
    pub fn deleted_edges(&self) -> Vec<Edge> {
        let mut out: Vec<Edge> = self
            .delta
            .iter()
            .flat_map(|(&u, d)| {
                d.removed
                    .iter()
                    .filter(move |&&v| u < v)
                    .map(move |&v| Edge::new(u, v))
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Edges currently added relative to the base, canonical order.
    #[must_use]
    pub fn added_edges(&self) -> Vec<Edge> {
        let mut out: Vec<Edge> = self
            .delta
            .iter()
            .flat_map(|(&u, d)| {
                d.added
                    .iter()
                    .filter(move |&&v| u < v)
                    .map(move |&v| Edge::new(u, v))
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Materializes the view into an owned [`Graph`] (the one deliberate
    /// clone, for handing a result to the caller).
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

    // -- overlay bookkeeping ------------------------------------------------
    //
    // Every mutation keeps `merged` exact: O(log deg) search + O(deg) shift,
    // the same order as one scan of the node — paid once per mutation so
    // that every subsequent read is a contiguous slice. Entries whose net
    // delta returns to empty are dropped eagerly, keeping the map (and thus
    // per-worker view clones in the parallel engine) proportional to the
    // *live* delta, not to the history of tentative evaluations.

    fn overlay_removed(&self, u: NodeId, v: NodeId) -> bool {
        self.delta
            .get(&u)
            .is_some_and(|d| d.removed.binary_search(&v).is_ok())
    }

    fn overlay_added(&self, u: NodeId, v: NodeId) -> bool {
        self.delta
            .get(&u)
            .is_some_and(|d| d.added.binary_search(&v).is_ok())
    }

    /// The entry for `u`, with the merged-slice cache seeded from the base
    /// on first touch.
    fn entry(&mut self, u: NodeId) -> &mut NodeDelta {
        let base = self.base;
        self.delta.entry(u).or_insert_with(|| NodeDelta {
            removed: Vec::new(),
            added: Vec::new(),
            merged: base.neighbors(u).to_vec(),
        })
    }

    fn drop_if_clean(&mut self, u: NodeId) {
        if self.delta.get(&u).is_some_and(NodeDelta::is_empty) {
            self.delta.remove(&u);
        }
    }

    fn insert_removed(&mut self, u: NodeId, v: NodeId) {
        let d = self.entry(u);
        if let Err(pos) = d.removed.binary_search(&v) {
            d.removed.insert(pos, v);
            if let Ok(m) = d.merged.binary_search(&v) {
                d.merged.remove(m);
            }
        }
    }

    fn insert_added(&mut self, u: NodeId, v: NodeId) {
        let d = self.entry(u);
        if let Err(pos) = d.added.binary_search(&v) {
            d.added.insert(pos, v);
            if let Err(m) = d.merged.binary_search(&v) {
                d.merged.insert(m, v);
            }
        }
    }

    fn retract_removed(&mut self, u: NodeId, v: NodeId) {
        if let Some(d) = self.delta.get_mut(&u) {
            if let Ok(pos) = d.removed.binary_search(&v) {
                d.removed.remove(pos);
                if let Err(m) = d.merged.binary_search(&v) {
                    d.merged.insert(m, v);
                }
            }
        }
        self.drop_if_clean(u);
    }

    fn retract_added(&mut self, u: NodeId, v: NodeId) {
        if let Some(d) = self.delta.get_mut(&u) {
            if let Ok(pos) = d.added.binary_search(&v) {
                d.added.remove(pos);
                if let Ok(m) = d.merged.binary_search(&v) {
                    d.merged.remove(m);
                }
            }
        }
        self.drop_if_clean(u);
    }

    fn node_delta(&self, u: NodeId) -> Option<&NodeDelta> {
        self.delta.get(&u).filter(|d| !d.is_empty())
    }
}

impl<B: NeighborAccess> NeighborAccess for DeltaView<'_, B> {
    fn node_count(&self) -> usize {
        self.base.node_count()
    }

    fn edge_count(&self) -> usize {
        self.base
            .edge_count()
            .checked_add_signed(self.edge_delta)
            .expect("edge count underflow")
    }

    fn degree(&self, u: NodeId) -> usize {
        match self.node_delta(u) {
            None => self.base.degree(u),
            Some(d) => d.merged.len(),
        }
    }

    /// The merged cache for dirty nodes, the base's own slice for clean
    /// ones.
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        match self.node_delta(u) {
            Some(d) => &d.merged,
            None => self.base.neighbors(u),
        }
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        if self.overlay_removed(u, v) {
            return false;
        }
        self.base.has_edge(u, v) || self.overlay_added(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrGraph;

    fn diamond() -> Graph {
        Graph::from_edges([(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2)])
    }

    /// The view must agree with a physically mutated Graph on every query.
    fn assert_view_matches<B: NeighborAccess>(view: &DeltaView<'_, B>, oracle: &Graph) {
        assert_eq!(view.node_count(), oracle.node_count());
        assert_eq!(view.edge_count(), oracle.edge_count());
        for u in 0..oracle.node_count() as NodeId {
            assert_eq!(view.neighbors(u), oracle.neighbors(u), "neighbors of {u}");
            assert_eq!(NeighborAccess::degree(view, u), oracle.degree(u), "deg {u}");
        }
        for u in 0..oracle.node_count() as NodeId {
            for v in 0..oracle.node_count() as NodeId {
                assert_eq!(
                    view.has_edge(u, v),
                    oracle.has_edge(u, v),
                    "has_edge({u},{v})"
                );
            }
        }
        assert_eq!(view.to_graph(), *oracle);
    }

    #[test]
    fn tentative_delete_and_restore() {
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        let mut view = DeltaView::new(&csr);
        assert!(!view.is_dirty());

        assert!(view.delete_edge(Edge::new(0, 2)));
        assert!(!view.delete_edge(Edge::new(0, 2)), "already gone");
        let mut oracle = g.clone();
        oracle.remove_edge(0, 2);
        assert_view_matches(&view, &oracle);
        assert_eq!(view.deleted_edges(), vec![Edge::new(0, 2)]);

        assert!(view.restore_edge(Edge::new(0, 2)));
        assert!(!view.is_dirty(), "net delta is empty after restore");
        assert_view_matches(&view, &g);
    }

    #[test]
    fn additions_layer_over_the_base() {
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        let mut view = DeltaView::new(&csr);
        assert!(view.add_edge(Edge::new(1, 3)));
        assert!(!view.add_edge(Edge::new(1, 3)), "already live");
        assert!(!view.add_edge(Edge::new(0, 1)), "base edge already live");
        let mut oracle = g.clone();
        oracle.add_edge(1, 3);
        assert_view_matches(&view, &oracle);
        assert_eq!(view.added_edges(), vec![Edge::new(1, 3)]);

        // Deleting the overlay addition retracts it.
        assert!(view.delete_edge(Edge::new(1, 3)));
        assert!(!view.is_dirty());
    }

    #[test]
    fn mixed_delta_matches_mutated_graph() {
        let g = tpp_graph::generators::holme_kim(200, 4, 0.4, 5);
        let csr = CsrGraph::from_graph(&g);
        let mut view = DeltaView::new(&csr);
        let mut oracle = g.clone();

        // Apply an interleaved script of deletions and additions.
        let script_del: Vec<Edge> = g.edge_vec().into_iter().step_by(7).collect();
        for (i, e) in script_del.iter().enumerate() {
            assert_eq!(view.delete_edge(*e), oracle.remove_edge(e.u(), e.v()));
            if i % 3 == 0 {
                let add = Edge::new(e.u(), (e.v() + 1) % 200);
                if add.u() != add.v() {
                    assert_eq!(view.add_edge(add), oracle.add_edge(add.u(), add.v()));
                }
            }
        }
        assert_view_matches(&view, &oracle);
        assert_eq!(view.deleted_count(), view.deleted_edges().len());
        assert_eq!(view.added_count(), view.added_edges().len());

        view.clear();
        assert_view_matches(&view, &g);
    }

    #[test]
    fn works_over_plain_graph_bases_too() {
        let g = diamond();
        let mut view = DeltaView::new(&g);
        view.delete_edge(Edge::new(2, 3));
        let mut oracle = g.clone();
        oracle.remove_edge(2, 3);
        assert_view_matches(&view, &oracle);
    }

    #[test]
    #[should_panic(expected = "outside the snapshot")]
    fn add_outside_node_range_panics() {
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        let mut view = DeltaView::new(&csr);
        view.add_edge(Edge::new(0, 9));
    }

    #[test]
    fn merged_slice_tracks_every_mutation() {
        let g = tpp_graph::generators::holme_kim(120, 4, 0.4, 2);
        let csr = CsrGraph::from_graph(&g);
        let mut view = DeltaView::new(&csr);
        let mut oracle = g.clone();
        let check = |view: &DeltaView<'_, CsrGraph>, oracle: &Graph, what: &str| {
            for u in 0..oracle.node_count() as NodeId {
                assert_eq!(view.neighbors(u), oracle.neighbors(u), "{what}: node {u}");
            }
        };
        check(&view, &oracle, "clean view");
        for (i, e) in g.edge_vec().into_iter().step_by(5).enumerate() {
            view.delete_edge(e);
            oracle.remove_edge(e.u(), e.v());
            if i % 2 == 0 {
                // tentative evaluation shape: delete then restore
                view.restore_edge(e);
                oracle.add_edge(e.u(), e.v());
            }
            check(&view, &oracle, "after mutation");
        }
        // overlay additions are cached too
        let add = Edge::new(0, 119);
        if !oracle.has_edge(0, 119) {
            view.add_edge(add);
            oracle.add_edge(0, 119);
            check(&view, &oracle, "after addition");
        }
    }

    #[test]
    fn retracted_deltas_drop_their_cache_entries() {
        // The map must stay proportional to the *net* delta: a tentative
        // delete + restore leaves no residue, so per-round worker clones
        // in the parallel engine stay O(committed deletions).
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        let mut view = DeltaView::new(&csr);
        for _ in 0..10 {
            view.delete_edge(Edge::new(0, 2));
            view.restore_edge(Edge::new(0, 2));
        }
        assert!(!view.is_dirty());
        assert_eq!(view.delta.len(), 0, "no stale NodeDelta entries");
    }

    #[test]
    fn clean_nodes_forward_the_base_slice() {
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        let mut view = DeltaView::new(&csr);
        view.delete_edge(Edge::new(0, 2));
        // Node 1 is untouched: its slice must be the base's own storage.
        let base_ptr = csr.neighbors(1).as_ptr();
        assert_eq!(view.neighbors(1).as_ptr(), base_ptr);
        // Nodes 0 and 2 are dirty: served from the merged cache.
        assert_eq!(view.neighbors(0), &[1, 3]);
        assert_eq!(view.neighbors(2), &[1, 3]);
    }

    #[test]
    fn views_can_stack() {
        // A view over a view: the outer layer sees the inner delta as base.
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        let mut inner = DeltaView::new(&csr);
        inner.delete_edge(Edge::new(0, 1));
        let mut outer = DeltaView::new(&inner);
        outer.delete_edge(Edge::new(1, 2));
        let mut oracle = g.clone();
        oracle.remove_edge(0, 1);
        oracle.remove_edge(1, 2);
        assert_view_matches(&outer, &oracle);
    }
}
