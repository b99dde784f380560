//! The TPP problem instance: a social graph plus its sensitive target links.

use crate::error::TppError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tpp_graph::{Edge, FastSet, Graph};
use tpp_motif::{Motif, PartitionedCoverageIndex};

/// A Target Privacy Preserving instance.
///
/// Construction performs **phase 1** of the paper's model: all target links
/// are removed from the edge list (`E ← E \ T`), producing the *released*
/// graph on which protectors are selected in phase 2.
#[derive(Debug, Clone)]
pub struct TppInstance {
    original: Graph,
    released: Graph,
    targets: Vec<Edge>,
}

impl TppInstance {
    /// Builds an instance, validating the target set and running phase 1.
    ///
    /// # Errors
    /// [`TppError::NoTargets`] for an empty target set,
    /// [`TppError::DuplicateTarget`] for repeated targets, and
    /// [`TppError::TargetNotInGraph`] if a target is not an original edge.
    pub fn new(original: Graph, targets: Vec<Edge>) -> Result<Self, TppError> {
        if targets.is_empty() {
            return Err(TppError::NoTargets);
        }
        let mut seen: FastSet<Edge> = FastSet::default();
        for &t in &targets {
            if !original.contains(t) {
                return Err(TppError::TargetNotInGraph(t));
            }
            if !seen.insert(t) {
                return Err(TppError::DuplicateTarget(t));
            }
        }
        let mut released = original.clone();
        for &t in &targets {
            released.remove_edge(t.u(), t.v());
        }
        Ok(TppInstance {
            original,
            released,
            targets,
        })
    }

    /// Samples `count` distinct target links uniformly from the graph's
    /// edges ("the targets are randomly sampled from the existing links of
    /// the original graph", §VI-C). Deterministic per seed.
    ///
    /// # Panics
    /// Panics if `count` exceeds the number of edges.
    #[must_use]
    pub fn sample_targets(g: &Graph, count: usize, seed: u64) -> Vec<Edge> {
        let mut edges = g.edge_vec();
        assert!(
            count <= edges.len(),
            "cannot sample {count} targets from {} edges",
            edges.len()
        );
        let mut rng = StdRng::seed_from_u64(seed);
        edges.shuffle(&mut rng);
        edges.truncate(count);
        edges.sort_unstable(); // canonical order for reproducible reports
        edges
    }

    /// Convenience: sample targets and build the instance in one step.
    ///
    /// # Panics
    /// Panics if `count` exceeds the edge count (see [`Self::sample_targets`]).
    #[must_use]
    pub fn with_random_targets(g: Graph, count: usize, seed: u64) -> Self {
        let targets = Self::sample_targets(&g, count, seed);
        Self::new(g, targets).expect("sampled targets are valid by construction")
    }

    /// The original (pre-release) graph, including target links.
    #[must_use]
    pub fn original(&self) -> &Graph {
        &self.original
    }

    /// The phase-1 graph: original minus all targets. Protector selection
    /// and adversarial analysis both operate on this graph.
    #[must_use]
    pub fn released(&self) -> &Graph {
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

    /// Builds the motif coverage index on the released graph, as one shard.
    #[must_use]
    pub fn build_index(&self, motif: Motif) -> PartitionedCoverageIndex {
        PartitionedCoverageIndex::build(&self.released, &self.targets, motif, 1)
    }

    /// Initial total similarity `s(∅, T)` for a motif.
    #[must_use]
    pub fn initial_similarity(&self, motif: Motif) -> usize {
        tpp_motif::count_all_targets(&self.released, &self.targets, motif)
            .iter()
            .sum()
    }

    /// Applies a protector set: the final graph the releaser publishes
    /// (released graph minus the given protectors).
    #[must_use]
    pub fn apply_protectors(&self, protectors: &[Edge]) -> Graph {
        let mut g = self.released.clone();
        g.remove_edges(protectors);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::generators::complete_graph;

    #[test]
    fn phase1_removes_targets() {
        let g = complete_graph(5);
        let targets = vec![Edge::new(0, 1), Edge::new(2, 3)];
        let inst = TppInstance::new(g.clone(), targets.clone()).unwrap();
        assert_eq!(inst.original().edge_count(), 10);
        assert_eq!(inst.released().edge_count(), 8);
        assert!(!inst.released().contains(Edge::new(0, 1)));
        assert!(!inst.released().contains(Edge::new(2, 3)));
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
        // instance untouched
        assert!(inst.released().contains(Edge::new(2, 3)));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sampling_too_many_panics() {
        let g = complete_graph(3);
        let _ = TppInstance::sample_targets(&g, 10, 0);
    }
}
