//! Base statistics of an original graph: the half of the release report
//! (`clust` and `cn` of `G`) that depends on the original alone, kept so
//! that a resident graph is counted once and then patched, not recounted
//! per request.

use crate::clustering::{
    add_inserted_triangles, average_from_counts, coefficient, remove_deleted_triangles,
    triangle_counts,
};
use crate::core_number::{average_of, core_numbers, patch_core_numbers};
use tpp_graph::{Edge, NeighborAccess, Words};

/// Per-node triangle counts and core numbers of one graph, with their
/// two averages (`clust` and `cn`, bit-identical to
/// [`average_clustering`](crate::average_clustering) and
/// [`average_core_number`](crate::average_core_number) of that graph).
///
/// [`utility_loss_with`](crate::utility_loss_with) reads the original's
/// side of the report from here; [`BaseStats::patched`] carries the
/// statistics across an edge delta. Equality compares the averages bit
/// for bit. The arrays are [`Words`]: owned, or shared in place from the
/// snapshot file they were loaded from; clones share them.
#[derive(Debug, Clone)]
pub struct BaseStats {
    triangles: Words,
    cores: Words,
    clustering: f64,
    core_average: f64,
}

impl BaseStats {
    /// Counts `g`'s triangles and peels its cores from scratch.
    #[must_use]
    pub fn compute<G: NeighborAccess>(g: &G) -> Self {
        let triangles = triangle_counts(g);
        let cores = core_numbers(g);
        Self::from_parts(g, triangles, cores)
    }

    /// The statistics of `g` from per-node arrays computed elsewhere (a
    /// snapshot's base-statistics section, read in place), checked to fit
    /// `g`: one entry per node, no node closing more triangles than it has
    /// neighbour pairs, no core number above its degree. This is the one
    /// structural check of those arrays, at every verification tier, and
    /// it runs in the pass that computes the averages — exactly as
    /// [`BaseStats::compute`] computes them, so arrays equal to its own
    /// give a bit-identical result.
    ///
    /// # Errors
    /// A message naming the first array or node that does not fit `g`.
    pub fn from_arrays<G: NeighborAccess>(
        g: &G,
        triangles: impl Into<Words>,
        cores: impl Into<Words>,
    ) -> Result<Self, String> {
        let (triangles, cores) = (triangles.into(), cores.into());
        let n = g.node_count();
        if triangles.len() != n || cores.len() != n {
            return Err(format!(
                "{} triangle counts and {} core numbers for a {n}-node graph",
                triangles.len(),
                cores.len()
            ));
        }
        // The sums of `average_from_counts` and `average_of`, in node
        // order, beside the bound checks.
        let (mut clustering, mut core_total) = (0.0f64, 0u64);
        for (v, (&tri, &core)) in g.node_ids().zip(triangles.iter().zip(cores.iter())) {
            let d = g.degree(v) as u64;
            if u64::from(tri) > d * d.saturating_sub(1) / 2 || u64::from(core) > d {
                return Err(format!(
                    "node {v}: {tri} triangles and core number {core} do not fit degree {d}"
                ));
            }
            clustering += coefficient(f64::from(tri), d as usize);
            core_total += u64::from(core);
        }
        let per_node = |total: f64| if n == 0 { 0.0 } else { total / n as f64 };
        Ok(BaseStats {
            triangles,
            cores,
            clustering: per_node(clustering),
            core_average: per_node(core_total as f64),
        })
    }

    /// Wraps the per-node arrays of `g` with their averages.
    fn from_parts<G: NeighborAccess>(g: &G, triangles: Vec<u32>, cores: Vec<u32>) -> Self {
        BaseStats {
            clustering: average_from_counts(g, &triangles),
            core_average: average_of(&cores),
            triangles: triangles.into(),
            cores: cores.into(),
        }
    }

    /// The statistics of `after`, given that `self` describes `before`
    /// and `after = before − removed + added` on the same node set
    /// (`removed` edges of `before`, `added` non-edges of it), and whether
    /// the core numbers were re-peeled.
    ///
    /// Triangle counts move by ±1 per closed triangle: removals are
    /// walked on `before`, insertions on `after`, each triangle counted
    /// at its first changed edge. Core numbers of a removal-only delta
    /// are patched down by the h-index iteration; an insertion can raise
    /// a core far from its edge, so any insertion re-peels `after`.
    #[must_use]
    pub fn patched<G: NeighborAccess, H: NeighborAccess>(
        &self,
        before: &G,
        after: &H,
        removed: &[Edge],
        added: &[Edge],
    ) -> (Self, bool) {
        assert!(
            self.node_count() == before.node_count() && before.node_count() == after.node_count(),
            "BaseStats::patched: node counts {} / {} / {} differ",
            self.node_count(),
            before.node_count(),
            after.node_count()
        );
        let mut triangles = self.triangles.to_vec();
        remove_deleted_triangles(before, &mut triangles, removed);
        add_inserted_triangles(after, &mut triangles, added);
        let repeel = !added.is_empty();
        let cores = if repeel {
            core_numbers(after)
        } else {
            let mut cores = self.cores.to_vec();
            patch_core_numbers(after, &mut cores, removed);
            cores
        };
        (Self::from_parts(after, triangles, cores), repeel)
    }

    /// Number of nodes described.
    pub(crate) fn node_count(&self) -> usize {
        self.triangles.len()
    }

    /// Per-node triangle counts.
    #[must_use]
    pub fn triangles(&self) -> &[u32] {
        &self.triangles
    }

    /// Per-node core numbers.
    #[must_use]
    pub fn core_numbers(&self) -> &[u32] {
        &self.cores
    }

    /// `clust`: the average clustering coefficient over all nodes.
    #[must_use]
    pub fn average_clustering(&self) -> f64 {
        self.clustering
    }

    /// `cn`: the average core number over all nodes.
    #[must_use]
    pub fn average_core_number(&self) -> f64 {
        self.core_average
    }
}

impl PartialEq for BaseStats {
    fn eq(&self, other: &Self) -> bool {
        self.triangles == other.triangles
            && self.cores == other.cores
            && self.clustering.to_bits() == other.clustering.to_bits()
            && self.core_average.to_bits() == other.core_average.to_bits()
    }
}

impl Eq for BaseStats {}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::generators::complete_graph;
    use tpp_graph::Graph;

    #[test]
    fn compute_matches_the_metric_functions() {
        let g = tpp_graph::generators::holme_kim(90, 3, 0.5, 4);
        let base = BaseStats::compute(&g);
        assert_eq!(base.triangles(), triangle_counts(&g));
        assert_eq!(base.core_numbers(), core_numbers(&g));
        assert_eq!(
            base.average_clustering().to_bits(),
            crate::average_clustering(&g).to_bits()
        );
        assert_eq!(
            base.average_core_number().to_bits(),
            crate::average_core_number(&g).to_bits()
        );
    }

    #[test]
    fn inserted_edges_closing_a_triangle_among_themselves_count_it_once() {
        // A path 0-1-2 plus node 3 grows into K4: four added edges, and the
        // triangle (0, 2, 3) is made of added edges only.
        let mut before = Graph::new(4);
        before.add_edge(0, 1);
        before.add_edge(1, 2);
        let added = [
            Edge::new(0, 2),
            Edge::new(0, 3),
            Edge::new(1, 3),
            Edge::new(2, 3),
        ];
        let mut after = before.clone();
        for e in added {
            after.add_edge(e.u(), e.v());
        }
        let (patched, repeeled) = BaseStats::compute(&before).patched(&before, &after, &[], &added);
        assert_eq!(patched, BaseStats::compute(&complete_graph(4)));
        assert!(repeeled);
        let (back, repeeled) = patched.patched(&after, &before, &added, &[]);
        assert_eq!(back, BaseStats::compute(&before));
        assert!(!repeeled);
    }

    #[test]
    fn from_arrays_equals_compute_and_rejects_what_cannot_fit() {
        let g = tpp_graph::generators::holme_kim(90, 3, 0.5, 4);
        let base = BaseStats::compute(&g);
        let rebuilt =
            BaseStats::from_arrays(&g, base.triangles().to_vec(), base.core_numbers().to_vec());
        assert_eq!(rebuilt, Ok(base.clone()));
        let (tri, cores) = (base.triangles().to_vec(), base.core_numbers().to_vec());
        let err = BaseStats::from_arrays(&g, tri[1..].to_vec(), cores.clone()).unwrap_err();
        assert!(err.contains("89 triangle counts"), "{err}");
        let d = g.degree(5) as u32;
        let mut too_many = tri.clone();
        too_many[5] = d * (d - 1) / 2 + 1;
        let err = BaseStats::from_arrays(&g, too_many, cores.clone()).unwrap_err();
        assert!(err.starts_with("node 5:"), "{err}");
        let mut too_deep = cores;
        too_deep[5] = d + 1;
        let err = BaseStats::from_arrays(&g, tri, too_deep).unwrap_err();
        assert!(err.starts_with("node 5:"), "{err}");
    }

    #[test]
    #[should_panic(expected = "node counts")]
    fn patching_across_a_node_count_change_panics() {
        let (small, big) = (Graph::new(3), Graph::new(4));
        let _ = BaseStats::compute(&small).patched(&small, &big, &[], &[]);
    }
}
