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
//! ## Borrowed and owned bases
//!
//! The view holds its base **by value**, and the base is any
//! [`NeighborAccess`] type. A borrowed base (`DeltaView<&CsrGraph>`,
//! built by `DeltaView::new(&snapshot)`) is the short-lived form: a
//! per-candidate trial, an attack's as-released graph. A shared base
//! (`DeltaView<Arc<CsrGraph>>`) is the owning form: the paper's phase-1
//! release `G − T` and the published `G − T − P` are this overlay over
//! the original snapshot (`tpp_core::Release`), so neither is ever copied
//! — a release costs `O(Σ degree)` over the endpoints of the deleted
//! edges, whatever the graph's size. Both are one type; views stack
//! (`DeltaView<&DeltaView<B>>`), each layer reading the one below as its
//! base.
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
//! [`CsrGraph`](crate::CsrGraph) speed.
//!
//! ## The dirty-node table
//!
//! The dirty nodes' entries sit in one dense `Vec`, found through an
//! open-addressing table of slot numbers (Fibonacci hashing, linear
//! probing) kept at least [`CELLS_PER_DIRTY`] cells per dirty node. A read
//! hashes the node and loads one cell: an empty cell is the clean read —
//! one branch, then the base's own slice — and a dirty read follows the
//! slot to its merged slice with no hashing of keys or bucket search. The
//! table doubles with the delta and stops at twice the base's node count
//! rounded up to a power of two, so it is never more than `O(changed)`
//! cells below that bound and never more than `O(n)` at it: a trial view
//! with one deletion (two dirty nodes) holds 32 cells, a phase-1 release
//! with hundreds of dirty nodes a few thousand. Entries whose net delta
//! empties are dropped at once (backward-shift deletion), so the table
//! and a clone of the view stay proportional to the live delta.

use tpp_graph::{Edge, Graph, NeighborAccess, NodeId};

/// Table cells kept per dirty node: a clean read finds its first cell
/// taken (and pays one entry compare) at most once in this many reads.
const CELLS_PER_DIRTY: usize = 16;

/// Table size of an empty view: enough for one tentative deletion's two
/// endpoints at [`CELLS_PER_DIRTY`].
const MIN_CELLS: usize = 32;

/// An unused table cell.
const EMPTY: u32 = u32::MAX;

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
///
/// `B` is held by value: `&G` borrows a snapshot, `Arc<G>` shares one (see
/// the module docs). The view clones whenever its base does, which both
/// forms do in `O(1)`; the clone copies only the delta and its table.
#[derive(Debug, Clone)]
pub struct DeltaView<B: NeighborAccess> {
    base: B,
    /// The dirty nodes and their deltas, in no particular order.
    delta: Vec<(NodeId, NodeDelta)>,
    /// Open-addressing table over `delta`: a power-of-two number of cells,
    /// each [`EMPTY`] or the slot of the dirty node whose probe sequence
    /// passes through it.
    cells: Vec<u32>,
    /// `32 − log2(cells.len())`: the Fibonacci hash's shift.
    shift: u32,
    /// Net edge-count change relative to the base.
    edge_delta: isize,
}

impl<B: NeighborAccess> DeltaView<B> {
    /// An empty overlay: the view is indistinguishable from `base`.
    #[must_use]
    pub fn new(base: B) -> Self {
        DeltaView {
            base,
            delta: Vec::new(),
            cells: vec![EMPTY; MIN_CELLS],
            shift: 32 - MIN_CELLS.trailing_zeros(),
            edge_delta: 0,
        }
    }

    /// The underlying snapshot.
    #[must_use]
    pub fn base(&self) -> &B {
        &self.base
    }

    /// `true` when the view differs from the base.
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.delta.iter().any(|(_, d)| !d.is_empty())
    }

    /// Number of edges deleted relative to the base.
    #[must_use]
    pub fn deleted_count(&self) -> usize {
        self.delta
            .iter()
            .map(|(_, d)| d.removed.len())
            .sum::<usize>()
            / 2
    }

    /// Number of edges added relative to the base.
    #[must_use]
    pub fn added_count(&self) -> usize {
        self.delta.iter().map(|(_, d)| d.added.len()).sum::<usize>() / 2
    }

    /// Drops every overlay change, restoring the base view.
    pub fn clear(&mut self) {
        self.delta.clear();
        self.cells.fill(EMPTY);
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
        Self::upper_edges(self.delta.iter().map(|(u, d)| (*u, &d.removed)))
    }

    /// Edges currently added relative to the base, canonical order.
    #[must_use]
    pub fn added_edges(&self) -> Vec<Edge> {
        Self::upper_edges(self.delta.iter().map(|(u, d)| (*u, &d.added)))
    }

    /// The edges `(u, v)`, `u < v`, of per-node neighbour lists, sorted.
    fn upper_edges<'l>(lists: impl Iterator<Item = (NodeId, &'l Vec<NodeId>)>) -> Vec<Edge> {
        let mut out: Vec<Edge> = lists
            .flat_map(|(u, vs)| {
                vs.iter()
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
    // delta returns to empty are dropped eagerly, keeping the table (and
    // thus a view clone) proportional to the *live* delta, not to the
    // history of tentative evaluations.

    fn overlay_removed(&self, u: NodeId, v: NodeId) -> bool {
        self.node_delta(u)
            .is_some_and(|d| d.removed.binary_search(&v).is_ok())
    }

    fn overlay_added(&self, u: NodeId, v: NodeId) -> bool {
        self.node_delta(u)
            .is_some_and(|d| d.added.binary_search(&v).is_ok())
    }

    /// The first table cell of `u`'s probe sequence.
    #[inline]
    fn home(&self, u: NodeId) -> usize {
        (u.wrapping_mul(0x9E37_79B9) >> self.shift) as usize
    }

    /// The slot of `u` in `delta`, or `None` when `u` is clean.
    #[inline]
    fn slot(&self, u: NodeId) -> Option<usize> {
        let mask = self.cells.len() - 1;
        let mut at = self.home(u);
        loop {
            let cell = self.cells[at];
            if cell == EMPTY {
                return None;
            }
            if self.delta[cell as usize].0 == u {
                return Some(cell as usize);
            }
            at = (at + 1) & mask;
        }
    }

    /// Writes `slot` into the first free cell of `u`'s probe sequence.
    fn place(&mut self, u: NodeId, slot: usize) {
        let mask = self.cells.len() - 1;
        let mut at = self.home(u);
        while self.cells[at] != EMPTY {
            at = (at + 1) & mask;
        }
        self.cells[at] = slot as u32;
    }

    /// The entry for `u`, with the merged-slice cache seeded from the base
    /// and the table grown (or just written) on first touch.
    fn entry(&mut self, u: NodeId) -> &mut NodeDelta {
        let slot = match self.slot(u) {
            Some(slot) => slot,
            None => {
                let merged = self.base.neighbors(u).to_vec();
                self.delta.push((
                    u,
                    NodeDelta {
                        merged,
                        ..NodeDelta::default()
                    },
                ));
                let slot = self.delta.len() - 1;
                let cap =
                    (2 * self.base.node_count().next_power_of_two()).clamp(MIN_CELLS, 1 << 31);
                let want = (self.delta.len() * CELLS_PER_DIRTY).next_power_of_two();
                if want > self.cells.len() && self.cells.len() < cap {
                    self.rebuild(want.min(cap));
                } else {
                    self.place(u, slot);
                }
                slot
            }
        };
        &mut self.delta[slot].1
    }

    /// Re-places every entry into a table of `cells` cells.
    fn rebuild(&mut self, cells: usize) {
        self.cells = vec![EMPTY; cells];
        self.shift = 32 - cells.trailing_zeros();
        for slot in 0..self.delta.len() {
            self.place(self.delta[slot].0, slot);
        }
    }

    /// Drops `u`'s entry once its net delta is empty: its cell is emptied
    /// by backward shifting the probe run behind it, and the last entry
    /// moves into its slot.
    fn drop_if_clean(&mut self, u: NodeId) {
        let Some(slot) = self.slot(u) else {
            return;
        };
        if !self.delta[slot].1.is_empty() {
            return;
        }
        let mask = self.cells.len() - 1;
        let mut hole = self.home(u);
        while self.cells[hole] as usize != slot {
            hole = (hole + 1) & mask;
        }
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let cell = self.cells[at];
            if cell == EMPTY {
                break;
            }
            // The cell may fill the hole unless its home lies cyclically
            // in (hole, at]: then the hole is not on its probe sequence.
            let home = self.home(self.delta[cell as usize].0);
            let stays = if hole <= at {
                hole < home && home <= at
            } else {
                hole < home || home <= at
            };
            if !stays {
                self.cells[hole] = cell;
                hole = at;
            }
        }
        self.cells[hole] = EMPTY;
        let last = self.delta.len() - 1;
        self.delta.swap_remove(slot);
        if slot != last {
            let moved = self.delta[slot].0;
            let mut at = self.home(moved);
            while self.cells[at] as usize != last {
                at = (at + 1) & mask;
            }
            self.cells[at] = slot as u32;
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
        if let Some(slot) = self.slot(u) {
            let d = &mut self.delta[slot].1;
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
        if let Some(slot) = self.slot(u) {
            let d = &mut self.delta[slot].1;
            if let Ok(pos) = d.added.binary_search(&v) {
                d.added.remove(pos);
                if let Ok(m) = d.merged.binary_search(&v) {
                    d.merged.remove(m);
                }
            }
        }
        self.drop_if_clean(u);
    }

    #[inline]
    fn node_delta(&self, u: NodeId) -> Option<&NodeDelta> {
        self.slot(u).map(|slot| &self.delta[slot].1)
    }
}

impl<B: NeighborAccess> NeighborAccess for DeltaView<B> {
    fn node_count(&self) -> usize {
        self.base.node_count()
    }

    fn edge_count(&self) -> usize {
        self.base
            .edge_count()
            .checked_add_signed(self.edge_delta)
            .expect("edge count underflow")
    }

    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        match self.node_delta(u) {
            None => self.base.degree(u),
            Some(d) => d.merged.len(),
        }
    }

    /// The merged cache for dirty nodes, the base's own slice for clean
    /// ones.
    #[inline]
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        match self.node_delta(u) {
            Some(d) => &d.merged,
            None => self.base.neighbors(u),
        }
    }

    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        match self.node_delta(u) {
            None => self.base.has_edge(u, v),
            Some(d) => d.merged.binary_search(&v).is_ok(),
        }
    }

    /// The base's degree prefix: the overlay changes at most a few entries
    /// of it, which does not matter to a balance hint. The upper-edge
    /// prefix is not forwarded — the view's own edges decide it.
    fn degree_prefix(&self) -> Option<&[u64]> {
        self.base.degree_prefix()
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
    fn assert_view_matches<B: NeighborAccess>(view: &DeltaView<B>, oracle: &Graph) {
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
        let check = |view: &DeltaView<&CsrGraph>, oracle: &Graph, what: &str| {
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

    /// Every entry is found from its node, and no node has two.
    fn assert_table_consistent<B: NeighborAccess>(view: &DeltaView<B>) {
        for (slot, (u, d)) in view.delta.iter().enumerate() {
            assert_eq!(view.slot(*u), Some(slot), "entry of node {u} lost");
            assert!(!d.is_empty(), "clean entry of node {u} kept");
        }
        let live = view.cells.iter().filter(|&&c| c != EMPTY).count();
        assert_eq!(live, view.delta.len(), "one cell per entry");
    }

    #[test]
    fn dirty_table_survives_churn() {
        // Thousands of interleaved deletions, additions and retractions:
        // the table grows through several sizes, and a sliding window of
        // live deletions keeps nodes turning clean, so cells empty by
        // backward shifting all the time. Every read must still match a
        // mutated Graph, with one entry per node whose list differs from
        // the base.
        let g = tpp_graph::generators::holme_kim(300, 4, 0.4, 8);
        let csr = CsrGraph::from_graph(&g);
        let mut view = DeltaView::new(&csr);
        let mut oracle = g.clone();
        let edges = g.edge_vec();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut window = std::collections::VecDeque::new();
        for step in 0..8000 {
            let window_len = if step < 4000 { 400 } else { 12 };
            let touched = if step % 5 == 0 {
                let (u, v) = (next(300) as NodeId, next(300) as NodeId);
                if u == v {
                    continue;
                }
                let e = Edge::new(u, v);
                if oracle.has_edge(u, v) {
                    assert_eq!(view.delete_edge(e), oracle.remove_edge(u, v));
                } else {
                    assert_eq!(view.add_edge(e), oracle.add_edge(u, v));
                }
                e
            } else {
                let e = edges[next(edges.len())];
                if oracle.remove_edge(e.u(), e.v()) {
                    assert!(view.delete_edge(e));
                    window.push_back(e);
                }
                while window.len() > window_len {
                    let old = window.pop_front().expect("non-empty window");
                    if oracle.add_edge(old.u(), old.v()) {
                        assert!(view.restore_edge(old));
                    }
                }
                e
            };
            for x in [touched.u(), touched.v()] {
                assert_eq!(view.neighbors(x), oracle.neighbors(x), "step {step}");
            }
            assert_table_consistent(&view);
            if step % 1000 == 999 {
                assert_view_matches(&view, &oracle);
            }
        }
        assert_view_matches(&view, &oracle);
        let changed = (0..300u32)
            .filter(|&u| oracle.neighbors(u) != g.neighbors(u))
            .count();
        assert_eq!(view.delta.len(), changed);
        assert!(view.cells.len() <= 2 * 300usize.next_power_of_two());
        // Undo everything: the view is the base again, and empty.
        for e in view.added_edges() {
            assert!(view.delete_edge(e));
        }
        for e in view.deleted_edges() {
            assert!(view.restore_edge(e));
            assert_table_consistent(&view);
        }
        assert!(!view.is_dirty());
        assert_eq!(view.delta.len(), 0);
        assert!(view.cells.iter().all(|&c| c == EMPTY));
        assert_view_matches(&view, &g);
    }

    #[test]
    fn colliding_nodes_share_one_probe_run() {
        // Four dirty nodes whose probe sequences start in chosen cells of a
        // 64-cell table form one run — inside the table, or from its last
        // cells across the wrap to cell 0 — and a clean node homed in the
        // run must probe past it. Every order of retracting the three
        // added edges empties cells by backward shifting, so each entry
        // behind a hole either moves into it or, homed after the hole,
        // stays.
        let base = Graph::new(4096);
        let home64 = |u: NodeId| u.wrapping_mul(0x9E37_79B9) >> 26;
        for homes in [
            [6, 6, 6, 6],
            [63, 63, 63, 63],
            [62, 63, 0, 63],
            [63, 0, 0, 62],
        ] {
            let mut taken = Vec::new();
            for want in homes.into_iter().chain([homes[0]]) {
                let u = (0..4096)
                    .find(|&u| home64(u) == want && !taken.contains(&u))
                    .expect("64 nodes per home among 4096");
                taken.push(u);
            }
            let (c, clean) = (&taken[..4], taken[4]);
            let path = [
                Edge::new(c[0], c[1]),
                Edge::new(c[1], c[2]),
                Edge::new(c[2], c[3]),
            ];
            for order in [
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0],
            ] {
                let mut view = DeltaView::new(&base);
                let mut oracle = base.clone();
                for e in path {
                    assert!(view.add_edge(e));
                    oracle.add_edge(e.u(), e.v());
                    assert_table_consistent(&view);
                }
                assert_eq!(view.cells.len(), 64);
                assert_eq!(view.slot(clean), None);
                for i in order {
                    let e = path[i];
                    assert!(view.delete_edge(e));
                    oracle.remove_edge(e.u(), e.v());
                    assert_table_consistent(&view);
                    for &u in &taken {
                        assert_eq!(
                            view.neighbors(u),
                            oracle.neighbors(u),
                            "{homes:?} {order:?}"
                        );
                    }
                }
                assert!(!view.is_dirty());
                assert!(view.cells.iter().all(|&cell| cell == EMPTY));
            }
        }
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
