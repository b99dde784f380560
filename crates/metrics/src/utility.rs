//! Graph-utility measurement and utility-loss-ratio reports (paper §VI,
//! Table II and the `ulr` definition).

use crate::{
    assortativity::assortativity,
    base::BaseStats,
    clustering::{average_clustering, average_from_counts, remove_deleted_triangles},
    community::louvain_modularity,
    core_number::{average_core_number, average_of, core_numbers, patch_core_numbers},
    paths::{average_path_length, sampled_path_length},
    spectral::second_largest_laplacian_eigenvalue,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use tpp_graph::{Edge, NeighborAccess};

/// The six utility metrics of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UtilityMetric {
    /// `l`: average shortest-path length.
    AvgPathLength,
    /// `clust`: average clustering coefficient.
    Clustering,
    /// `r`: degree assortativity.
    Assortativity,
    /// `cn`: average core number (k-shell).
    CoreNumber,
    /// `µ`: second-largest Laplacian eigenvalue.
    SecondEigenvalue,
    /// `Mod`: Newman modularity of detected communities.
    Modularity,
}

impl UtilityMetric {
    /// All metrics in Table II order.
    pub const ALL: [UtilityMetric; 6] = [
        UtilityMetric::AvgPathLength,
        UtilityMetric::Clustering,
        UtilityMetric::Assortativity,
        UtilityMetric::CoreNumber,
        UtilityMetric::SecondEigenvalue,
        UtilityMetric::Modularity,
    ];

    /// The paper's notation for the metric.
    #[must_use]
    pub fn notation(self) -> &'static str {
        match self {
            UtilityMetric::AvgPathLength => "l",
            UtilityMetric::Clustering => "clust",
            UtilityMetric::Assortativity => "r",
            UtilityMetric::CoreNumber => "cn",
            UtilityMetric::SecondEigenvalue => "mu",
            UtilityMetric::Modularity => "Mod",
        }
    }
}

impl fmt::Display for UtilityMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.notation())
    }
}

/// What to measure and how hard to work at it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UtilityConfig {
    /// Metrics to evaluate.
    pub metrics: Vec<UtilityMetric>,
    /// `None` = exact all-pairs path length; `Some(s)` = sample `s` BFS
    /// roots (for DBLP-scale graphs).
    pub path_sources: Option<usize>,
    /// Seed for the randomized components (sampling, eigensolver start
    /// vector, Louvain ordering).
    pub seed: u64,
}

impl UtilityConfig {
    /// All six metrics, exact computations — the Arenas-email protocol of
    /// Tables III and IV.
    #[must_use]
    pub fn full(seed: u64) -> Self {
        UtilityConfig {
            metrics: UtilityMetric::ALL.to_vec(),
            path_sources: None,
            seed,
        }
    }

    /// Clustering + core number only — the DBLP protocol of Table V
    /// ("many utility metrics such as the average path length and eigenvalue
    /// can't be efficiently computed on a general server").
    #[must_use]
    pub fn large_graph(seed: u64) -> Self {
        UtilityConfig {
            metrics: vec![UtilityMetric::Clustering, UtilityMetric::CoreNumber],
            path_sources: Some(64),
            seed,
        }
    }
}

/// Measured metric values for one graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UtilityValues {
    /// `(metric, value)` pairs in the order of the config.
    pub values: Vec<(UtilityMetric, f64)>,
}

impl UtilityValues {
    /// Looks up a metric's value.
    #[must_use]
    pub fn get(&self, metric: UtilityMetric) -> Option<f64> {
        self.values
            .iter()
            .find(|(m, _)| *m == metric)
            .map(|&(_, v)| v)
    }
}

/// Evaluates the configured metrics on `g`.
#[must_use]
pub fn compute_utility<G: NeighborAccess>(g: &G, config: &UtilityConfig) -> UtilityValues {
    let values = config
        .metrics
        .iter()
        .map(|&m| (m, metric_value(g, m, config)))
        .collect();
    UtilityValues { values }
}

/// [`compute_utility`] with `g`'s base statistics supplied: `clust` and
/// `cn` are read from `base`, every other metric is measured. When `base`
/// equals [`BaseStats::compute`] of `g` the values are bit-identical to
/// [`compute_utility`]'s ([`BaseStats::from_arrays`]); `base` is trusted
/// as given, like the snapshot section it is read from.
#[must_use]
pub fn compute_utility_with<G: NeighborAccess>(
    base: &BaseStats,
    g: &G,
    config: &UtilityConfig,
) -> UtilityValues {
    assert_eq!(
        base.node_count(),
        g.node_count(),
        "compute_utility_with: base statistics of another graph"
    );
    let values = config
        .metrics
        .iter()
        .map(|&m| {
            let value = match m {
                UtilityMetric::Clustering => base.average_clustering(),
                UtilityMetric::CoreNumber => base.average_core_number(),
                _ => metric_value(g, m, config),
            };
            (m, value)
        })
        .collect();
    UtilityValues { values }
}

/// One metric of `g` under `config`, from scratch.
fn metric_value<G: NeighborAccess>(g: &G, metric: UtilityMetric, config: &UtilityConfig) -> f64 {
    match metric {
        UtilityMetric::AvgPathLength => match config.path_sources {
            None => average_path_length(g).mean,
            Some(s) => sampled_path_length(g, s, config.seed).mean,
        },
        UtilityMetric::Clustering => average_clustering(g),
        UtilityMetric::Assortativity => assortativity(g).unwrap_or(0.0),
        UtilityMetric::CoreNumber => average_core_number(g),
        UtilityMetric::SecondEigenvalue => second_largest_laplacian_eigenvalue(g, config.seed),
        UtilityMetric::Modularity => louvain_modularity(g, config.seed),
    }
}

/// The edges of `original` missing from `released`, ascending in
/// canonical order — or `None` when `released` is not an edge subset of
/// `original` on the same node set (an added or rewired edge).
///
/// Compares the two graphs' per-node neighbour slices: equal slices cost
/// one memcmp, and a differing slice is walked as a sorted subsequence.
/// A degree check would not do, because a degree-preserving rewiring
/// keeps every degree.
fn deleted_edges<G: NeighborAccess, H: NeighborAccess>(
    original: &G,
    released: &H,
) -> Option<Vec<Edge>> {
    if original.node_count() != released.node_count() {
        return None;
    }
    let mut deleted = Vec::new();
    for u in original.node_ids() {
        let (before, after) = (original.neighbors(u), released.neighbors(u));
        if before == after {
            continue;
        }
        let mut kept = after.iter().peekable();
        for &v in before.iter() {
            if kept.next_if_eq(&&v).is_none() && u < v {
                deleted.push(Edge::new(u, v));
            }
        }
        if kept.next().is_some() {
            return None;
        }
    }
    Some(deleted)
}

/// `(average_clustering(original), average_clustering(released))`,
/// bit-identical to the two from-scratch calls, with the original's side
/// read from `base`. When `released` is `original` minus the edges
/// `deleted`, a copy of the base triangle counts is patched for the
/// deleted edges and re-summed with the released degrees; otherwise
/// (`None`) `released` is counted from scratch.
fn clustering_pair<G: NeighborAccess, H: NeighborAccess>(
    base: &BaseStats,
    original: &G,
    released: &H,
    deleted: Option<&[Edge]>,
) -> (f64, f64) {
    let before = base.average_clustering();
    let Some(deleted) = deleted else {
        return (before, average_clustering(released));
    };
    let mut counts = base.triangles().to_vec();
    remove_deleted_triangles(original, &mut counts, deleted);
    (before, average_from_counts(released, &counts))
}

/// `(average_core_number(original), average_core_number(released))` and
/// the number of h-index evaluations spent, bit-identical to the two
/// from-scratch calls, with the original's side read from `base`. When
/// `released` is `original` minus the edges `deleted`, a copy of the base
/// cores is patched down to the release's by [`patch_core_numbers`]
/// instead of peeling `released` again (checked against that peel in
/// debug builds); otherwise (`None`) `released` is peeled from scratch and
/// no evaluation is spent.
fn core_pair<H: NeighborAccess>(
    base: &BaseStats,
    released: &H,
    deleted: Option<&[Edge]>,
) -> (f64, f64, u64) {
    let before = base.average_core_number();
    let Some(deleted) = deleted else {
        return (before, average_core_number(released), 0);
    };
    let mut core = base.core_numbers().to_vec();
    let evaluations = patch_core_numbers(released, &mut core, deleted);
    debug_assert!(
        core == core_numbers(released),
        "h-index core patch differs from a peel of the release"
    );
    (before, average_of(&core), evaluations)
}

/// The paper's utility loss ratio for one metric:
/// `ulr(z, G, G') = |z(G) − z(G')| / |z(G)|`.
///
/// When `z(G) = 0` the ratio is defined as the absolute difference (so a
/// perturbation of an already-zero metric is still reported rather than
/// producing a division by zero).
#[must_use]
pub fn loss_ratio(original: f64, perturbed: f64) -> f64 {
    let diff = (original - perturbed).abs();
    if original.abs() < 1e-12 {
        diff
    } else {
        diff / original.abs()
    }
}

/// Per-metric and average utility loss between an original and a released
/// graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UtilityLossReport {
    /// `(metric, ulr)` pairs.
    pub per_metric: Vec<(UtilityMetric, f64)>,
    /// `ulr(G, G')`: mean loss ratio over all measured metrics.
    pub average: f64,
    /// `|D|`, the edges of the original missing from the release, or
    /// `None` when the release is not an edge subset of the original.
    pub deleted_edges: Option<usize>,
    /// Node evaluations of the h-index core patch; 0 when the release's
    /// cores were peeled from scratch (or `cn` was not measured).
    pub core_evaluations: u64,
}

impl UtilityLossReport {
    /// Average loss formatted as a percentage string like `1.95%`.
    #[must_use]
    pub fn average_percent(&self) -> String {
        format!("{:.2}%", self.average * 100.0)
    }
}

/// Measures both graphs under `config` and reports the loss ratios.
///
/// Every value equals, bit for bit, what [`compute_utility`] gives on
/// each graph, whatever their representations (the two are independent
/// type parameters: an adjacency-list original against a CSR release is
/// fine). Counts the original's triangles and peels its cores once
/// ([`BaseStats::compute`]), then reports through [`utility_loss_with`].
#[must_use]
pub fn utility_loss<G: NeighborAccess, H: NeighborAccess>(
    original: &G,
    released: &H,
    config: &UtilityConfig,
) -> UtilityLossReport {
    utility_loss_with(&BaseStats::compute(original), original, released, config)
}

/// [`utility_loss`] with the original's triangle counts and core numbers
/// supplied: `base` must equal [`BaseStats::compute`] of `original`
/// (checked in debug builds).
///
/// Clustering and core number are the metrics not recomputed twice: when
/// `released` only lacks the edges `D` of `original` (the paper's
/// `G − T − P`), `D` is derived once, the deleted edges' triangles are
/// patched out of a copy of the base counts, and a copy of the base core
/// numbers is patched down to the release's. Every other metric is
/// measured on both graphs from scratch.
#[must_use]
pub fn utility_loss_with<G: NeighborAccess, H: NeighborAccess>(
    base: &BaseStats,
    original: &G,
    released: &H,
    config: &UtilityConfig,
) -> UtilityLossReport {
    let deleted = deleted_edges(original, released);
    report(base, original, released, deleted.as_deref(), config)
}

/// [`utility_loss_with`] for a release known to be `original` minus
/// exactly the edges `deleted` (ascending, canonical): the deleted set an
/// overlay release already holds (`tpp_store::DeltaView::deleted_edges`
/// over the original, the paper's `T ∪ P`), so no walk over both graphs
/// derives it. Bit-identical to [`utility_loss_with`] on the same graphs;
/// the claim about `deleted` is checked against that walk in debug builds.
#[must_use]
pub fn utility_loss_deleting<G: NeighborAccess, H: NeighborAccess>(
    base: &BaseStats,
    original: &G,
    released: &H,
    deleted: &[Edge],
    config: &UtilityConfig,
) -> UtilityLossReport {
    debug_assert!(
        deleted_edges(original, released).as_deref() == Some(deleted),
        "utility_loss_deleting: the release is not the original minus `deleted`"
    );
    report(base, original, released, Some(deleted), config)
}

/// The loss report of [`utility_loss_with`], given `D` (`None` when the
/// release is not an edge subset of the original).
fn report<G: NeighborAccess, H: NeighborAccess>(
    base: &BaseStats,
    original: &G,
    released: &H,
    deleted: Option<&[Edge]>,
    config: &UtilityConfig,
) -> UtilityLossReport {
    assert_eq!(
        base.node_count(),
        original.node_count(),
        "utility_loss_with: base statistics of another graph"
    );
    debug_assert!(
        *base == BaseStats::compute(original),
        "utility_loss_with: stale base statistics"
    );
    let mut core_evaluations = 0;
    let per_metric: Vec<(UtilityMetric, f64)> = config
        .metrics
        .iter()
        .map(|&m| {
            let (a, b) = match m {
                UtilityMetric::Clustering => clustering_pair(base, original, released, deleted),
                UtilityMetric::CoreNumber => {
                    let (a, b, evaluations) = core_pair(base, released, deleted);
                    core_evaluations += evaluations;
                    (a, b)
                }
                _ => (
                    metric_value(original, m, config),
                    metric_value(released, m, config),
                ),
            };
            (m, loss_ratio(a, b))
        })
        .collect();
    let average = if per_metric.is_empty() {
        0.0
    } else {
        per_metric.iter().map(|&(_, v)| v).sum::<f64>() / per_metric.len() as f64
    };
    UtilityLossReport {
        per_metric,
        average,
        deleted_edges: deleted.map(<[Edge]>::len),
        core_evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::generators::holme_kim;

    #[test]
    fn loss_ratio_definition() {
        assert!((loss_ratio(2.0, 1.5) - 0.25).abs() < 1e-12);
        assert!((loss_ratio(-2.0, -1.0) - 0.5).abs() < 1e-12);
        assert_eq!(loss_ratio(0.0, 0.0), 0.0);
        assert!(
            (loss_ratio(0.0, 0.3) - 0.3).abs() < 1e-12,
            "zero-base fallback"
        );
    }

    #[test]
    fn identical_graphs_have_zero_loss() {
        let g = holme_kim(120, 3, 0.4, 2);
        let report = utility_loss(&g, &g, &UtilityConfig::full(7));
        assert_eq!(report.per_metric.len(), 6);
        for &(m, v) in &report.per_metric {
            assert!(v.abs() < 1e-9, "metric {m} loss {v} should be 0");
        }
        assert!(report.average.abs() < 1e-9);
    }

    #[test]
    fn deleting_edges_costs_utility() {
        let g = holme_kim(150, 4, 0.5, 3);
        let mut g2 = g.clone();
        let edges = g2.edge_vec();
        // Delete 20% of edges.
        for e in edges.iter().take(edges.len() / 5) {
            g2.remove_edge(e.u(), e.v());
        }
        let report = utility_loss(&g, &g2, &UtilityConfig::full(7));
        assert!(
            report.average > 0.01,
            "heavy deletion should show loss, got {}",
            report.average_percent()
        );
    }

    #[test]
    fn deleted_edges_finds_exactly_the_removed_edges() {
        let g = holme_kim(60, 3, 0.5, 4);
        assert_eq!(deleted_edges(&g, &g), Some(Vec::new()));
        let edges = g.edge_vec();
        let mut released = g.clone();
        let gone = [edges[40], edges[3], edges[17]];
        for e in gone {
            released.remove_edge(e.u(), e.v());
        }
        let mut expected = gone.to_vec();
        expected.sort_unstable();
        assert_eq!(deleted_edges(&g, &released), Some(expected));
    }

    #[test]
    fn deleted_edges_rejects_additions_rewirings_and_new_nodes() {
        let g = tpp_graph::generators::cycle_graph(6);
        let mut added = g.clone();
        added.add_edge(0, 3);
        assert_eq!(deleted_edges(&g, &added), None);
        // (0,1), (3,4) -> (0,4), (3,1): every degree stays 2.
        let mut rewired = g.clone();
        rewired.remove_edge(0, 1);
        rewired.remove_edge(3, 4);
        rewired.add_edge(0, 4);
        rewired.add_edge(3, 1);
        assert_eq!(rewired.degrees(), g.degrees());
        assert_eq!(deleted_edges(&g, &rewired), None);
        let mut grown = g.clone();
        grown.add_node();
        assert_eq!(deleted_edges(&g, &grown), None);
    }

    #[test]
    fn config_presets() {
        let full = UtilityConfig::full(0);
        assert_eq!(full.metrics.len(), 6);
        assert!(full.path_sources.is_none());
        let big = UtilityConfig::large_graph(0);
        assert_eq!(big.metrics.len(), 2);
    }

    #[test]
    fn values_lookup() {
        let g = tpp_graph::generators::complete_graph(5);
        let vals = compute_utility(&g, &UtilityConfig::full(1));
        assert!((vals.get(UtilityMetric::Clustering).unwrap() - 1.0).abs() < 1e-12);
        assert!((vals.get(UtilityMetric::AvgPathLength).unwrap() - 1.0).abs() < 1e-12);
        assert!((vals.get(UtilityMetric::CoreNumber).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn percent_formatting() {
        let report = UtilityLossReport {
            per_metric: vec![(UtilityMetric::Clustering, 0.0195)],
            average: 0.0195,
            deleted_edges: None,
            core_evaluations: 0,
        };
        assert_eq!(report.average_percent(), "1.95%");
    }
}
