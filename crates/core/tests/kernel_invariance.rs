//! Plan invariance under intersection-kernel selection.
//!
//! The size-adaptive kernels in `tpp_graph::kernels` (merge / gallop /
//! hub bitset) are pure read-path optimizations: every strategy must
//! yield the exact ascending common-neighbor stream the scalar merge
//! yields. This suite pins the end-to-end consequence — the greedy
//! protection plans produced over a `CsrGraph` are **bit-identical**
//! whether hub bitsets are built or not, at every thread count.

use tpp_core::{AlgorithmKind, CandidatePolicy, ProtectionPlan, RoundEngine, SnapshotOracle};
use tpp_exec::Parallelism;
use tpp_graph::{generators, Edge};
use tpp_motif::Motif;
use tpp_store::CsrGraph;

/// A skewed scale-free instance: BA growth gives real hubs so the
/// gallop and bitset tiers actually fire during the scans.
fn skewed_case(seed: u64) -> (CsrGraph, Vec<Edge>) {
    let g = generators::barabasi_albert(120, 4, seed);
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

/// Hub bitsets on vs off, threads 1/2/4: one plan, nine ways.
#[test]
fn plans_are_bit_identical_with_bitsets_on_and_off_at_every_thread_count() {
    for seed in [7u64, 191, 4242] {
        let (plain, targets) = skewed_case(seed);
        let hubbed = plain.clone();
        hubbed.ensure_hub_bitsets(16);
        assert!(hubbed.hub_bitsets().is_some());
        assert!(plain.hub_bitsets().is_none());

        for motif in [Motif::Triangle, Motif::RecTri] {
            let reference = run_plan(&plain, &targets, motif, 1);
            reference.check_invariants();
            for threads in [1usize, 2, 4] {
                let off = run_plan(&plain, &targets, motif, threads);
                let on = run_plan(&hubbed, &targets, motif, threads);
                assert_eq!(
                    off, reference,
                    "seed {seed} motif {motif}: plain plan drifted at {threads} threads"
                );
                assert_eq!(
                    on, reference,
                    "seed {seed} motif {motif}: hubbed plan drifted at {threads} threads"
                );
            }
        }
    }
}

/// The attack-side ranking primitive — per-pair similarity counts — is
/// also invariant, so attack rankings cannot drift either.
#[test]
fn pairwise_similarities_are_invariant_under_hub_bitsets() {
    let g = generators::barabasi_albert(200, 5, 99);
    let plain = CsrGraph::from_graph(&g);
    let hubbed = plain.clone();
    hubbed.ensure_hub_bitsets(32);
    for motif in [Motif::Triangle, Motif::Rectangle, Motif::RecTri] {
        for u in (0..200u32).step_by(17) {
            for v in (1..200u32).step_by(23) {
                if u == v {
                    continue;
                }
                assert_eq!(
                    tpp_motif::count_target_subgraphs(&plain, u, v, motif),
                    tpp_motif::count_target_subgraphs(&hubbed, u, v, motif),
                    "({u}, {v}) under {motif}"
                );
            }
        }
    }
}
