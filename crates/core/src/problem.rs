//! The TPP problem instance: a social graph plus its sensitive target links.
//!
//! Phase 1 of the paper's model deletes the targets `T` from the original
//! graph, and the greedy's protectors `P` are deleted from that release in
//! turn. Both graphs are one copy-on-write overlay, [`Release`], over the
//! shared original snapshot: building an instance costs `O(Σ degree)` over
//! the target endpoints and [`TppInstance::apply_protectors`] the same
//! over the protector endpoints, however large the graph. Neither ever
//! copies it, and the overlay's [`DeltaView::deleted_edges`] hands the
//! utility report the deleted set `T ∪ P` without a walk over both graphs.

use crate::error::TppError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use tpp_exec::Parallelism;
use tpp_graph::{Edge, Graph, NeighborAccess, NodeId};
use tpp_motif::{Motif, PartitionedCoverageIndex};
use tpp_store::{CsrGraph, DeltaView};

/// A graph [`TppInstance::new`] can take as its original: an
/// `Arc<CsrGraph>` (owned or mapped) is shared as is, a [`CsrGraph`] moves
/// in, and an adjacency-list [`Graph`] is copied into a snapshot once.
pub trait IntoSharedCsr {
    /// The graph as a shared snapshot.
    fn into_shared_csr(self) -> Arc<CsrGraph>;
}

impl IntoSharedCsr for Arc<CsrGraph> {
    fn into_shared_csr(self) -> Arc<CsrGraph> {
        self
    }
}

impl IntoSharedCsr for CsrGraph {
    fn into_shared_csr(self) -> Arc<CsrGraph> {
        Arc::new(self)
    }
}

impl IntoSharedCsr for Graph {
    fn into_shared_csr(self) -> Arc<CsrGraph> {
        Arc::new(CsrGraph::from_graph(&self))
    }
}

/// A release of the original graph: the original snapshot, shared, under
/// an overlay of deleted edges — `G − T` after phase 1, `G − T − P` once
/// protectors are applied. Its base is the original and its
/// [`DeltaView::deleted_edges`] are exactly the edges the release lacks.
pub type Release = DeltaView<Arc<CsrGraph>>;

/// A Target Privacy Preserving instance.
///
/// Construction performs **phase 1** of the paper's model: all target links
/// are removed from the edge list (`E ← E \ T`), producing the *released*
/// graph on which protectors are selected in phase 2. The original is a
/// shared CSR snapshot (a mapped snapshot stays mapped), and the released
/// graph is a [`Release`] overlay over it holding the target deletions.
#[derive(Debug, Clone)]
pub struct TppInstance {
    /// The phase-1 release; its base is the original.
    released: Release,
    targets: Vec<Edge>,
}

impl TppInstance {
    /// Builds an instance, validating the target set and running phase 1.
    ///
    /// # Errors
    /// [`TppError::NoTargets`] for an empty target set,
    /// [`TppError::DuplicateTarget`] for repeated targets, and
    /// [`TppError::TargetNotInGraph`] if a target is not an original edge.
    pub fn new(original: impl IntoSharedCsr, targets: Vec<Edge>) -> Result<Self, TppError> {
        if targets.is_empty() {
            return Err(TppError::NoTargets);
        }
        let mut released = DeltaView::new(original.into_shared_csr());
        for &t in &targets {
            if !released.base().has_edge(t.u(), t.v()) {
                return Err(TppError::TargetNotInGraph(t));
            }
            // An original edge the overlay no longer holds was deleted by
            // an earlier entry of the list.
            if !released.delete_edge(t) {
                return Err(TppError::DuplicateTarget(t));
            }
        }
        Ok(TppInstance { released, targets })
    }

    /// Samples `count` distinct target links uniformly from the graph's
    /// edges ("the targets are randomly sampled from the existing links of
    /// the original graph", §VI-C). Deterministic per seed.
    ///
    /// The draw is a Fisher–Yates shuffle of the `m` edge ranks (rank `r`
    /// is the `r`-th edge in canonical order), truncated to `count` and
    /// sorted — the same edges as shuffling the edge list itself, without
    /// materializing it. Each kept rank maps back to its edge by one binary
    /// search over the graph's upper-edge prefix
    /// ([`NeighborAccess::upper_edge_prefix`]) and one read of the owning
    /// node's list, so beyond the draw the work follows `count`, not the
    /// graph, when the prefix is kept (a snapshot's).
    ///
    /// # Panics
    /// Panics if `count` exceeds the number of edges, if the graph has
    /// more than `u32::MAX` edges, or if its upper-edge prefix does not
    /// fit its lists ([`Self::try_sample_targets`] reports that instead).
    #[must_use]
    pub fn sample_targets<G: NeighborAccess>(g: &G, count: usize, seed: u64) -> Vec<Edge> {
        Self::try_sample_targets(g, count, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::sample_targets`], with a prefix that does not fit the
    /// graph's lists reported as [`TppError::BadUpperEdgePrefix`]. Every
    /// node the walk maps a rank to is checked against its own list: its
    /// prefix span must be exactly its neighbours above it. A prefix that
    /// passes for every node it is asked about therefore yields real
    /// edges of the graph.
    ///
    /// # Errors
    /// [`TppError::BadUpperEdgePrefix`] naming the first rank or node the
    /// prefix places wrongly.
    ///
    /// # Panics
    /// Panics if `count` exceeds the number of edges, or if the graph has
    /// more than `u32::MAX` edges.
    pub fn try_sample_targets<G: NeighborAccess>(
        g: &G,
        count: usize,
        seed: u64,
    ) -> Result<Vec<Edge>, TppError> {
        let m = g.edge_count();
        assert!(count <= m, "cannot sample {count} targets from {m} edges");
        let Ok(m) = u32::try_from(m) else {
            panic!("cannot sample targets from {m} edges: more than u32::MAX edges");
        };
        let mut ranks: Vec<u32> = (0..m).collect();
        ranks.shuffle(&mut StdRng::seed_from_u64(seed));
        ranks.truncate(count);
        ranks.sort_unstable(); // canonical order for reproducible reports
        if ranks.is_empty() {
            return Ok(Vec::new());
        }
        let prefix = g.upper_edge_prefix();
        let n = g.node_count();
        let bad = |why: String| Err(TppError::BadUpperEdgePrefix(why));
        if prefix.len() != n + 1 {
            return bad(format!("{} entries for {n} nodes", prefix.len()));
        }
        let mut targets = Vec::with_capacity(count);
        for r in ranks {
            // The owner of rank r: the last node whose span starts at or
            // below it.
            let Some(u) = prefix.partition_point(|&p| p <= r).checked_sub(1) else {
                return bad(format!("rank {r} lies before node 0"));
            };
            let (first, end) = match prefix.get(u + 1) {
                Some(&end) if prefix[u] <= r && r < end => (prefix[u], end),
                _ => return bad(format!("no node spans rank {r}")),
            };
            let nu = g.neighbors(u as NodeId);
            let lower = nu.partition_point(|&v| v as usize <= u);
            if nu.len() - lower != (end - first) as usize {
                return bad(format!(
                    "node {u} spans {} ranks but has {} neighbours above it",
                    end - first,
                    nu.len() - lower
                ));
            }
            let v = nu[lower + (r - first) as usize];
            if v as usize <= u {
                return bad(format!("node {u}'s list is not sorted"));
            }
            targets.push(Edge::new(u as NodeId, v));
        }
        Ok(targets)
    }

    /// Convenience: sample targets and build the instance in one step.
    ///
    /// # Panics
    /// Panics if `count` is zero (an instance needs at least one target),
    /// or if `count` exceeds the edge count (see [`Self::sample_targets`]).
    #[must_use]
    pub fn with_random_targets(g: impl IntoSharedCsr, count: usize, seed: u64) -> Self {
        assert!(count > 0, "cannot build an instance from 0 random targets");
        let g = g.into_shared_csr();
        let targets = Self::sample_targets(&*g, count, seed);
        Self::new(g, targets).expect("sampled targets are valid by construction")
    }

    /// The original (pre-release) graph, including target links.
    #[must_use]
    pub fn original(&self) -> &CsrGraph {
        self.released.base()
    }

    /// The phase-1 graph: original minus all targets, as an overlay over
    /// the original. Protector selection and adversarial analysis both
    /// operate on this graph.
    #[must_use]
    pub fn released(&self) -> &Release {
        &self.released
    }

    /// The target links, in canonical order of declaration.
    #[must_use]
    pub fn targets(&self) -> &[Edge] {
        &self.targets
    }

    /// Number of targets `|T|`.
    #[must_use]
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Builds the motif coverage index on the released graph, as one shard
    /// on the calling thread.
    #[must_use]
    pub fn build_index(&self, motif: Motif) -> PartitionedCoverageIndex {
        PartitionedCoverageIndex::build_parallel(
            &self.released,
            &self.targets,
            motif,
            1,
            &Parallelism::sequential(),
        )
    }

    /// Initial total similarity `s(∅, T)` for a motif.
    #[must_use]
    pub fn initial_similarity(&self, motif: Motif) -> usize {
        tpp_motif::count_all_targets(&self.released, &self.targets, motif)
            .iter()
            .sum()
    }

    /// Applies a protector set: the final graph the releaser publishes
    /// (released graph minus the given protectors), as the phase-1
    /// overlay with the protectors also deleted — the original is not
    /// copied, and the result's [`DeltaView::deleted_edges`] are `T ∪ P`.
    /// Protectors that are not released edges are ignored.
    #[must_use]
    pub fn apply_protectors(&self, protectors: &[Edge]) -> Release {
        let mut release = self.released.clone();
        for &p in protectors {
            release.delete_edge(p);
        }
        release
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::generators::complete_graph;
    use tpp_graph::FastSet;

    /// The [`NeighborAccess`] contract `CsrGraph::check_invariants`
    /// checks on a snapshot, read through a release overlay: strictly
    /// ascending in-range lists without self-loops, symmetric, degrees
    /// equal to the list lengths, and the edge count their half-sum.
    fn assert_adjacency_contract<G: NeighborAccess>(g: &G) {
        let mut ends = 0;
        for u in g.node_ids() {
            let nu = g.neighbors(u);
            assert!(nu.windows(2).all(|w| w[0] < w[1]), "node {u} unsorted");
            assert_eq!(g.degree(u), nu.len(), "degree of {u}");
            for &v in nu {
                assert!(v != u && (v as usize) < g.node_count(), "{u} -> {v}");
                assert!(
                    g.neighbors(v).binary_search(&u).is_ok(),
                    "{u} -> {v} one-way"
                );
            }
            ends += nu.len();
        }
        assert_eq!(ends, 2 * g.edge_count());
    }

    #[test]
    fn phase1_removes_targets() {
        let g = complete_graph(5);
        let targets = vec![Edge::new(0, 1), Edge::new(2, 3)];
        let inst = TppInstance::new(g.clone(), targets.clone()).unwrap();
        assert_eq!(inst.original().edge_count(), 10);
        assert_eq!(inst.released().edge_count(), 8);
        assert!(!inst.released().has_edge(0, 1));
        assert!(!inst.released().has_edge(2, 3));
        assert_adjacency_contract(inst.released());
        assert_eq!(inst.released().deleted_edges(), targets);
        assert_eq!(inst.released().added_count(), 0);
        assert_eq!(inst.targets(), targets.as_slice());
        assert_eq!(inst.target_count(), 2);
    }

    #[test]
    fn rejects_bad_targets() {
        let g = complete_graph(4);
        assert_eq!(
            TppInstance::new(g.clone(), vec![]).unwrap_err(),
            TppError::NoTargets
        );
        assert_eq!(
            TppInstance::new(g.clone(), vec![Edge::new(0, 5)]).unwrap_err(),
            TppError::TargetNotInGraph(Edge::new(0, 5))
        );
        assert_eq!(
            TppInstance::new(g, vec![Edge::new(0, 1), Edge::new(1, 0)]).unwrap_err(),
            TppError::DuplicateTarget(Edge::new(0, 1))
        );
    }

    #[test]
    fn sampling_is_deterministic_and_distinct() {
        let g = complete_graph(10);
        let a = TppInstance::sample_targets(&g, 8, 42);
        let b = TppInstance::sample_targets(&g, 8, 42);
        assert_eq!(a, b);
        let set: FastSet<Edge> = a.iter().copied().collect();
        assert_eq!(set.len(), 8);
        assert!(a.iter().all(|t| g.contains(*t)));
        // Sampling reads the canonical edge order, so any representation
        // of the same graph draws the same targets.
        assert_eq!(
            TppInstance::sample_targets(&CsrGraph::from_graph(&g), 8, 42),
            a
        );
        let c = TppInstance::sample_targets(&g, 8, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn initial_similarity_matches_index() {
        let g = complete_graph(6);
        let inst = TppInstance::with_random_targets(g, 3, 7);
        for motif in Motif::ALL {
            let idx = inst.build_index(motif);
            assert_eq!(idx.total_similarity(), inst.initial_similarity(motif));
        }
    }

    #[test]
    fn apply_protectors_copies() {
        let g = complete_graph(4);
        let inst = TppInstance::new(g, vec![Edge::new(0, 1)]).unwrap();
        let out = inst.apply_protectors(&[Edge::new(2, 3), Edge::new(0, 2)]);
        assert_eq!(out.edge_count(), inst.released().edge_count() - 2);
        assert_adjacency_contract(&out);
        // The release is the original minus T ∪ P, sharing its base.
        assert_eq!(
            out.deleted_edges(),
            vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(2, 3)]
        );
        assert!(std::ptr::eq(out.base().as_ref(), inst.original()));
        // instance untouched
        assert!(inst.released().has_edge(2, 3));
    }

    /// The edge-list algorithm `sample_targets` replaced: collect every
    /// edge, shuffle, truncate, sort.
    fn reference_sample<G: NeighborAccess>(g: &G, count: usize, seed: u64) -> Vec<Edge> {
        let mut edges = g.collect_edges();
        edges.shuffle(&mut StdRng::seed_from_u64(seed));
        edges.truncate(count);
        edges.sort_unstable();
        edges
    }

    #[test]
    fn rank_sampling_matches_the_edge_list_shuffle() {
        use tpp_graph::generators::{barabasi_albert, erdos_renyi_gnp, holme_kim};
        let mut trailing = holme_kim(60, 3, 0.5, 9);
        for _ in 0..5 {
            trailing.add_node(); // isolated nodes after the last edge
        }
        let cases = [
            ("ba", barabasi_albert(300, 3, 1)),
            ("hk", holme_kim(300, 4, 0.5, 2)),
            ("er", erdos_renyi_gnp(120, 0.08, 3)),
            ("trailing isolated", trailing),
            ("single edge", Graph::from_edges([(3u32, 7u32)])),
        ];
        for (name, g) in &cases {
            let m = g.edge_count();
            for seed in 0..24u64 {
                for count in [0, 1, m.min(7), m / 2, m] {
                    let want = reference_sample(g, count, seed);
                    assert_eq!(
                        TppInstance::sample_targets(g, count, seed),
                        want,
                        "{name}: count {count}, seed {seed}"
                    );
                    assert_eq!(
                        TppInstance::sample_targets(&CsrGraph::from_graph(g), count, seed),
                        want,
                        "{name} as CSR: count {count}, seed {seed}"
                    );
                }
            }
        }
    }

    /// A graph that claims more edges than `u32` ranks can address; it is
    /// never read past its edge count.
    struct TooManyEdges;

    impl NeighborAccess for TooManyEdges {
        fn node_count(&self) -> usize {
            2
        }
        fn edge_count(&self) -> usize {
            u32::MAX as usize + 1
        }
        fn degree(&self, _: tpp_graph::NodeId) -> usize {
            unreachable!()
        }
        fn neighbors(&self, _: tpp_graph::NodeId) -> &[tpp_graph::NodeId] {
            &[]
        }
        fn has_edge(&self, _: tpp_graph::NodeId, _: tpp_graph::NodeId) -> bool {
            unreachable!()
        }
    }

    #[test]
    #[should_panic(expected = "more than u32::MAX edges")]
    fn sampling_beyond_u32_ranks_panics() {
        let _ = TppInstance::sample_targets(&TooManyEdges, 1, 0);
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sampling_too_many_panics() {
        let g = complete_graph(3);
        let _ = TppInstance::sample_targets(&g, 10, 0);
    }

    #[test]
    #[should_panic(expected = "cannot build an instance from 0 random targets")]
    fn zero_random_targets_panics() {
        let _ = TppInstance::with_random_targets(complete_graph(3), 0, 0);
    }
}
