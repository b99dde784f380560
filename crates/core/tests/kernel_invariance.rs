//! Plan invariance under intersection-kernel selection.
//!
//! The size-adaptive kernels in `tpp_graph::kernels` (merge / gallop) are
//! pure read-path optimizations: both must yield the exact ascending
//! common-neighbor stream the scalar merge yields. This suite pins the
//! end-to-end consequence on a skewed instance where the gallop tier
//! fires: the greedy protection plans produced over a `CsrGraph` are
//! **bit-identical** at every thread count.

use tpp_core::{AlgorithmKind, CandidatePolicy, ProtectionPlan, RoundEngine, SnapshotOracle};
use tpp_exec::Parallelism;
use tpp_graph::{generators, kernels, Edge};
use tpp_motif::Motif;
use tpp_store::CsrGraph;

/// A skewed scale-free instance: BA growth on 400 nodes gives hubs past
/// `kernels::GALLOP_MIN_LARGE` neighbors, so the gallop tier fires during
/// the scans.
fn skewed_case(seed: u64) -> (CsrGraph, Vec<Edge>) {
    let g = generators::barabasi_albert(400, 4, seed);
    let csr = CsrGraph::from_graph(&g);
    // Targets: a handful of real edges incident to the highest-degree
    // node, plus one leafy edge — mixed tiers.
    let mut by_degree: Vec<u32> = (0..g.node_count() as u32).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let hub = by_degree[0];
    let mut targets: Vec<Edge> = g
        .neighbors(hub)
        .iter()
        .take(3)
        .map(|&v| Edge::new(hub, v))
        .collect();
    let leaf = *by_degree.last().unwrap();
    if let Some(&w) = g.neighbors(leaf).first() {
        let e = Edge::new(leaf, w);
        if !targets.contains(&e) {
            targets.push(e);
        }
    }
    (csr, targets)
}

fn run_plan(csr: &CsrGraph, targets: &[Edge], motif: Motif, threads: usize) -> ProtectionPlan {
    let oracle = SnapshotOracle::new(csr, targets, motif);
    let mut engine = RoundEngine::new(
        oracle,
        CandidatePolicy::SubgraphEdges,
        Parallelism::new(threads),
    );
    engine.run_global(4, 1);
    engine.into_global_plan(AlgorithmKind::SgbGreedy)
}

/// Threads 1/2/4 on skewed BA instances: one plan, and the gallop tier
/// is among the kernels that produced it.
#[test]
fn skewed_plans_are_bit_identical_at_every_thread_count() {
    // The only test in this binary, so the process-wide counters see
    // nothing but these runs.
    kernels::set_counting(true);
    let base = kernels::counts();
    for seed in [7u64, 191, 4242] {
        let (csr, targets) = skewed_case(seed);
        for motif in [Motif::Triangle, Motif::RecTri] {
            let reference = run_plan(&csr, &targets, motif, 1);
            reference.check_invariants();
            for threads in [1usize, 2, 4] {
                assert_eq!(
                    run_plan(&csr, &targets, motif, threads),
                    reference,
                    "seed {seed} motif {motif}: plan drifted at {threads} threads"
                );
            }
        }
    }
    let fired = kernels::counts().since(base);
    kernels::set_counting(false);
    assert!(fired.gallop > 0, "gallop never fired: {fired:?}");
    assert!(fired.merge > 0, "merge never fired: {fired:?}");
}
