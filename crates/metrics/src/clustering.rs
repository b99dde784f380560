//! Clustering coefficients (Table II metric `clust`).
//!
//! Per-node triangle counts come from one lower-id-oriented pass
//! (Schank & Wagner 2005, forward listing) that tests each candidate
//! third corner against bitset marks instead of merging sorted lists;
//! [`triangle_counts`] describes it. The removal and insertion walks
//! patch those counts across an edge delta.

use tpp_graph::{fast_set_with_capacity, Edge, FastSet, NeighborAccess, NodeId};

/// Local clustering coefficient of node `v`:
/// `|{(a, b) ∈ E : a, b ∈ Γ(v)}| / (d_v (d_v − 1) / 2)`.
/// Nodes with degree < 2 have coefficient 0 by convention.
#[must_use]
pub fn local_clustering<G: NeighborAccess>(g: &G, v: NodeId) -> f64 {
    coefficient(triangles_through(g, v) as f64, g.degree(v))
}

/// `links / (d (d − 1) / 2)`, or 0 when `d < 2`.
pub(crate) fn coefficient(links: f64, d: usize) -> f64 {
    if d < 2 {
        return 0.0;
    }
    links / (d * (d - 1) / 2) as f64
}

/// Number of edges among the neighbors of `v` (= triangles through `v`).
///
/// Computed as `Σ_{a ∈ Γ(v)} |Γ(v) ∩ Γ(a)| / 2` via the count-only
/// intersection kernels: each neighbor-neighbor edge `(a, b)` is seen from
/// both `a` and `b`, hence the halving. Replaces the old `O(d_v²)`
/// pairwise `has_edge` loop — the same result through the size-adaptive
/// merge/gallop dispatch instead of `d_v²/2` binary searches.
#[must_use]
pub fn triangles_through<G: NeighborAccess>(g: &G, v: NodeId) -> usize {
    g.neighbors(v)
        .iter()
        .map(|&a| g.common_neighbor_count(v, a))
        .sum::<usize>()
        / 2
}

/// Per-node triangle counts: `counts[v] == triangles_through(g, v)`.
///
/// Each edge is oriented toward its lower id (Schank & Wagner 2005), and
/// the lower-oriented adjacency (`m` entries, `u32` offsets) is built in
/// the same pass that counts: node `u`'s neighbours below it are copied
/// just before `u` is processed, and every `v < u` already has its lower
/// list. Every triangle `w < v < u` is found exactly once, from its
/// highest corner `u` through its middle corner `v`: the members of
/// `u`'s lower list are marked in an `n`-bit set, each `w` in the lower
/// list of each marked `v` is tested against the marks, and the marks are
/// cleared before the next node. A test is one bit read instead of a step
/// of a branchy merge, and the set is `n / 8` bytes. A node with fewer
/// than two lower neighbours closes no triangle as its highest corner
/// and is skipped.
///
/// A count never exceeds the edge count, so `u32` holds it for any graph
/// with fewer than 2³² edges.
#[must_use]
pub fn triangle_counts<G: NeighborAccess>(g: &G) -> Vec<u32> {
    assert!(
        u32::try_from(g.edge_count()).is_ok(),
        "triangle_counts: more than u32::MAX edges"
    );
    let n = g.node_count();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut below: Vec<NodeId> = Vec::with_capacity(g.edge_count());
    offsets.push(0u32);
    let mut marks = vec![0u64; n.div_ceil(64)];
    let mut counts = vec![0u32; n];
    for u in g.node_ids() {
        let start = below.len();
        below.extend(g.neighbors(u).iter().take_while(|&&v| v < u));
        offsets.push(below.len() as u32);
        let nu = &below[start..];
        if nu.len() < 2 {
            continue;
        }
        for &v in nu {
            marks[v as usize / 64] |= 1 << (v % 64);
        }
        // The least member's lower list lies below every mark: skip it.
        let mut at_u = 0u32;
        for &v in &nu[1..] {
            let lv = &below[offsets[v as usize] as usize..offsets[v as usize + 1] as usize];
            let mut found = 0u32;
            for &w in lv {
                if marks[w as usize / 64] & (1 << (w % 64)) != 0 {
                    counts[w as usize] += 1;
                    found += 1;
                }
            }
            at_u += found;
            counts[v as usize] += found;
        }
        counts[u as usize] += at_u;
        for &v in nu {
            marks[v as usize / 64] = 0;
        }
    }
    counts
}

/// Removes from `counts` (the [`triangle_counts`] of `original`) every
/// triangle that loses an edge in `deleted`, leaving the counts of
/// `original − deleted`.
///
/// Walks `deleted` in order; a common neighbour `w` of `(u, v)` still
/// closes a live triangle unless `(u, w)` or `(v, w)` went earlier in the
/// walk, so each destroyed triangle is subtracted exactly once, at its
/// first deleted edge. `O(Σ_{(u,v) ∈ deleted} d_u + d_v)`, and `original`
/// is only read.
pub(crate) fn remove_deleted_triangles<G: NeighborAccess>(
    original: &G,
    counts: &mut [u32],
    deleted: &[Edge],
) {
    let mut removed: FastSet<Edge> = fast_set_with_capacity(deleted.len());
    for &e in deleted {
        let (u, v) = e.endpoints();
        original.for_each_common_neighbor(u, v, |w| {
            if !removed.contains(&Edge::new(u, w)) && !removed.contains(&Edge::new(v, w)) {
                for x in [u, v, w] {
                    counts[x as usize] -= 1;
                }
            }
        });
        removed.insert(e);
    }
}

/// Adds to `counts` (the [`triangle_counts`] of `updated − added`) every
/// triangle of `updated` that holds an edge in `added`, leaving the
/// counts of `updated`: the mirror of [`remove_deleted_triangles`].
///
/// Walks `added` in order; a common neighbour `w` of `(u, v)` in
/// `updated` closes a new triangle, counted at its first added edge, so
/// `w` is skipped when `(u, w)` or `(v, w)` came earlier in the walk.
/// `O(Σ_{(u,v) ∈ added} d_u + d_v)`, and `updated` is only read.
pub(crate) fn add_inserted_triangles<G: NeighborAccess>(
    updated: &G,
    counts: &mut [u32],
    added: &[Edge],
) {
    let mut inserted: FastSet<Edge> = fast_set_with_capacity(added.len());
    for &e in added {
        let (u, v) = e.endpoints();
        updated.for_each_common_neighbor(u, v, |w| {
            if !inserted.contains(&Edge::new(u, w)) && !inserted.contains(&Edge::new(v, w)) {
                for x in [u, v, w] {
                    counts[x as usize] += 1;
                }
            }
        });
        inserted.insert(e);
    }
}

/// `clust` re-summed from per-node triangle `counts` and the degrees of
/// the graph `g` they describe: in node order, each node contributing
/// `t / (d (d − 1) / 2)` exactly as [`local_clustering`] does, so the
/// result is bit-identical to the per-node loop.
pub(crate) fn average_from_counts<G: NeighborAccess>(g: &G, counts: &[u32]) -> f64 {
    let n = g.node_count();
    if n == 0 {
        return 0.0;
    }
    let sum: f64 = g
        .node_ids()
        .map(|v| coefficient(f64::from(counts[v as usize]), g.degree(v)))
        .sum();
    sum / n as f64
}

/// Average clustering coefficient `clust = Σ_v clust_v / N` over **all**
/// nodes, exactly as defined in the paper (§VI, metric 2).
#[must_use]
pub fn average_clustering<G: NeighborAccess>(g: &G) -> f64 {
    average_from_counts(g, &triangle_counts(g))
}

/// Total number of triangles in the graph (each counted once).
#[must_use]
pub fn triangle_count<G: NeighborAccess>(g: &G) -> usize {
    // Each triangle is counted at all 3 of its corners.
    triangle_counts(g)
        .iter()
        .map(|&t| t as usize)
        .sum::<usize>()
        / 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::generators::{complete_graph, cycle_graph, path_graph, star_graph};

    #[test]
    fn complete_graph_is_fully_clustered() {
        let g = complete_graph(5);
        assert!((average_clustering(&g) - 1.0).abs() < 1e-12);
        assert_eq!(triangle_count(&g), 10); // C(5,3)
    }

    #[test]
    fn triangle_free_graphs() {
        assert_eq!(average_clustering(&path_graph(6)), 0.0);
        assert_eq!(average_clustering(&cycle_graph(6)), 0.0);
        assert_eq!(average_clustering(&star_graph(5)), 0.0);
        assert_eq!(triangle_count(&cycle_graph(6)), 0);
    }

    #[test]
    fn single_triangle_with_tail() {
        // triangle 0-1-2 plus pendant 3 attached to 0.
        let g = tpp_graph::Graph::from_edges([(0u32, 1u32), (1, 2), (0, 2), (0, 3)]);
        assert_eq!(triangles_through(&g, 0), 1);
        assert!((local_clustering(&g, 0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((local_clustering(&g, 1) - 1.0).abs() < 1e-12);
        assert_eq!(local_clustering(&g, 3), 0.0);
        // average: (1/3 + 1 + 1 + 0) / 4
        assert!((average_clustering(&g) - (1.0 / 3.0 + 2.0) / 4.0).abs() < 1e-12);
        assert_eq!(triangle_count(&g), 1);
    }

    #[test]
    fn kernel_count_matches_naive_pairwise_loop() {
        let g = tpp_graph::generators::holme_kim(150, 4, 0.5, 11);
        for v in 0..150u32 {
            let nbrs = g.neighbors(v);
            let mut naive = 0usize;
            for (i, &a) in nbrs.iter().enumerate() {
                for &b in &nbrs[i + 1..] {
                    if g.has_edge(a, b) {
                        naive += 1;
                    }
                }
            }
            assert_eq!(triangles_through(&g, v), naive, "node {v}");
        }
    }

    #[test]
    fn empty_graph_is_zero() {
        assert_eq!(average_clustering(&tpp_graph::Graph::new(0)), 0.0);
        assert_eq!(average_clustering(&tpp_graph::Graph::new(3)), 0.0);
    }
}
