//! Shared deterministic workload fixtures.
//!
//! The proptest suites and the `tpp-store` benches used to each carry
//! their own copy of "a seeded BA/ER graph with a deterministic target set
//! removed" — close enough to look interchangeable, different enough that
//! a bench regression and a proptest failure never reproduced each other's
//! workload. This module is the single source of those fixtures: every
//! function is a pure map from its seed arguments to a workload, so a
//! failing case can be replayed anywhere by quoting the arguments.
//!
//! Two shapes are provided:
//!
//! * **released workloads** — `(Graph, Vec<Edge>)` with the target edges
//!   already removed (phase 1 done), ready for index builds and commit
//!   benches;
//! * **instances** — a full [`TppInstance`] for the greedy algorithms.

use tpp_core::TppInstance;
use tpp_graph::{Edge, Graph};

/// Barabási–Albert released workload: `nodes` nodes with attachment `m`,
/// `target_count` hidden targets stride-sampled across the edge list
/// (sorted, deduplicated, then removed — phase 1). This is the shape of
/// the store benches' `ba_50k` workload at any scale.
#[must_use]
pub fn ba_released_workload(
    nodes: usize,
    m: usize,
    seed: u64,
    target_count: usize,
) -> (Graph, Vec<Edge>) {
    let mut g = tpp_graph::generators::barabasi_albert(nodes, m, seed);
    let all = g.edge_vec();
    let mut targets: Vec<Edge> = (0..target_count)
        .map(|i| all[(i * 499 + 7) % all.len()])
        .collect();
    targets.sort_unstable();
    targets.dedup();
    for t in &targets {
        g.remove_edge(t.u(), t.v());
    }
    (g, targets)
}

/// The exact `ba_50k` workload of the `commit_scaling` / `index_build`
/// benches: 50 000 nodes, `m = 4`, seed 17, 2 500 hidden targets (the
/// rectangle motif is what the benches count over it).
#[must_use]
pub fn ba_50k_rectangle() -> (Graph, Vec<Edge>) {
    ba_released_workload(50_000, 4, 17, 2_500)
}

/// Erdős–Rényi instance with seed-derived density — the greedy proptests'
/// workhorse: `p = 0.18 + (seed % 20) / 100`, `target_count` random
/// targets (capped by the edge supply, floored at 1) drawn with a
/// seed-derived RNG.
#[must_use]
pub fn er_instance(n: usize, seed: u64, target_count: usize) -> TppInstance {
    let p = 0.18 + (seed % 20) as f64 / 100.0;
    let g = tpp_graph::generators::erdos_renyi_gnp(n, p, seed);
    let tcount = target_count.min(g.edge_count());
    TppInstance::with_random_targets(g, tcount.max(1), seed ^ 0xBEEF)
}

/// Erdős–Rényi released workload with seed-derived density
/// (`p = 0.1 + (seed % 30) / 100`) and deterministically derived target
/// pairs (removed if present) — the motif proptests' shape. Always yields
/// at least one target.
#[must_use]
pub fn er_released_workload(n: usize, seed: u64, target_count: usize) -> (Graph, Vec<Edge>) {
    let p = 0.1 + (seed % 30) as f64 / 100.0;
    let mut g = tpp_graph::generators::erdos_renyi_gnp(n, p, seed);
    let mut targets = Vec::new();
    let mut a = 0u32;
    while targets.len() < target_count {
        let b = a + 1 + (seed % 3) as u32;
        if (b as usize) < n {
            let e = Edge::new(a, b);
            if !targets.contains(&e) {
                targets.push(e);
            }
        }
        a += 2;
        if a as usize >= n {
            break;
        }
    }
    assert!(!targets.is_empty(), "workload must have a target");
    for t in &targets {
        g.remove_edge(t.u(), t.v());
    }
    (g, targets)
}

/// Holme–Kim released workload (triangle-dense power law): the
/// partitioned-index unit fixture at parameterized scale, with three
/// fixed low-id target pairs removed.
#[must_use]
pub fn hk_released_workload(n: usize, seed: u64) -> (Graph, Vec<Edge>) {
    let mut g = tpp_graph::generators::holme_kim(n, 4, 0.5, seed);
    let targets = vec![Edge::new(0, 1), Edge::new(2, 5), Edge::new(3, 7)];
    for t in &targets {
        g.remove_edge(t.u(), t.v());
    }
    (g, targets)
}

/// The original graph of the hub workload: node 0 is adjacent to every
/// leaf `1..=leaves`, the leaves form a ring, and every third leaf `i`
/// (`i % 3 == 1`) has a chord to the leaf seven further round the ring.
fn hub_graph(leaves: usize) -> Graph {
    let leaves = leaves as u32;
    let next = |i: u32, step: u32| (i - 1 + step) % leaves + 1;
    let mut g = Graph::new(leaves as usize + 1);
    for i in 1..=leaves {
        g.add_edge(0, i);
        g.add_edge(i, next(i, 1));
        if i % 3 == 1 {
            g.add_edge(i, next(i, 7));
        }
    }
    g
}

/// The hub workload's targets: `(0, 1 + 3i)` for `i < target_count`.
fn hub_targets(leaves: usize, target_count: usize) -> Vec<Edge> {
    assert!(
        (1..=leaves / 3).contains(&target_count),
        "{target_count} targets need at least {} leaves",
        3 * target_count
    );
    (0..target_count as u32)
        .map(|i| Edge::new(0, 1 + 3 * i))
        .collect()
}

/// Hub released workload: a hub adjacent to all `leaves` leaves of a
/// chorded ring, with `target_count` hub links `(0, 1 + 3i)` hidden.
/// Every target's enumeration (and its predicted cost) reads the hub's
/// adjacency, so a few dozen targets over a few thousand leaves make an
/// index build heavy enough to be pooled, at every motif, while the
/// instances stay few: the fixture of the tests that pin pooled builds
/// and sweeps to the sequential ones.
///
/// # Panics
/// Panics if `target_count` is 0 or above `leaves / 3`.
#[must_use]
pub fn hub_released_workload(leaves: usize, target_count: usize) -> (Graph, Vec<Edge>) {
    let mut g = hub_graph(leaves);
    let targets = hub_targets(leaves, target_count);
    for t in &targets {
        g.remove_edge(t.u(), t.v());
    }
    (g, targets)
}

/// [`hub_released_workload`] as a full [`TppInstance`].
///
/// # Panics
/// Panics if `target_count` is 0 or above `leaves / 3`.
#[must_use]
pub fn hub_instance(leaves: usize, target_count: usize) -> TppInstance {
    TppInstance::new(hub_graph(leaves), hub_targets(leaves, target_count))
        .expect("hub targets are distinct hub links")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic_and_phase1_clean() {
        let (g1, t1) = ba_released_workload(500, 4, 17, 40);
        let (g2, t2) = ba_released_workload(500, 4, 17, 40);
        assert_eq!(g1, g2);
        assert_eq!(t1, t2);
        for t in &t1 {
            assert!(!g1.contains(*t), "target {t} survived phase 1");
        }
        let (g3, t3) = er_released_workload(20, 123, 3);
        assert!(!t3.is_empty());
        for t in &t3 {
            assert!(!g3.contains(*t));
        }
        let (g4, t4) = hk_released_workload(80, 11);
        assert_eq!(t4.len(), 3);
        for t in &t4 {
            assert!(!g4.contains(*t));
        }
    }

    #[test]
    fn er_instance_matches_seed_contract() {
        let a = er_instance(15, 42, 3);
        let b = er_instance(15, 42, 3);
        assert_eq!(a.original(), b.original());
        assert_eq!(a.released().deleted_edges(), b.released().deleted_edges());
        assert_eq!(a.targets(), b.targets());
        assert!(a.target_count() >= 1 && a.target_count() <= 3);
    }
}
