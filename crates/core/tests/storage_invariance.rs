//! Plan invariance under snapshot storage backing.
//!
//! A `CsrGraph` can hold its arrays on the heap (owned) or serve them
//! straight from a memory-mapped v2 snapshot file (zero-copy). The
//! backing is a pure storage decision: every read goes through the same
//! slice accessors, so the greedy protection plans (SGB and CELF), and
//! the motif counts underneath them, must be **bit-identical** on mapped
//! and owned snapshots — at every thread count and verification tier.

use tpp_core::{AlgorithmKind, CandidatePolicy, ProtectionPlan, RoundEngine, SnapshotOracle};
use tpp_exec::Parallelism;
use tpp_graph::{generators, Edge};
use tpp_motif::Motif;
use tpp_store::{format, CsrGraph, VerifyMode};

/// A skewed scale-free instance with hub-incident targets, saved to a v2
/// snapshot: returns the owned build, the mapped load, and the targets.
fn mapped_case(seed: u64, verify: VerifyMode) -> (CsrGraph, CsrGraph, Vec<Edge>) {
    let g = generators::barabasi_albert(120, 4, seed);
    let owned = CsrGraph::from_graph(&g);
    let path =
        std::env::temp_dir().join(format!("tpp-storage-inv-{}-{seed}.csr", std::process::id()));
    format::save(&owned, None, &path).unwrap();
    let mapped = format::load_mapped(&path, verify).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(mapped.is_mapped(), "case must exercise the mapped backing");
    assert!(!owned.is_mapped());

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
    (owned, mapped, targets)
}

fn sgb_plan(csr: &CsrGraph, targets: &[Edge], motif: Motif, threads: usize) -> ProtectionPlan {
    let oracle = SnapshotOracle::new(csr, targets, motif);
    let mut engine = RoundEngine::new(
        Box::new(oracle),
        CandidatePolicy::SubgraphEdges,
        Parallelism::new(threads),
    );
    engine.run_global(4, 1);
    engine.into_global_plan(AlgorithmKind::SgbGreedy)
}

fn celf_plan(csr: &CsrGraph, targets: &[Edge], motif: Motif, threads: usize) -> ProtectionPlan {
    let oracle = SnapshotOracle::new(csr, targets, motif);
    let mut engine = RoundEngine::new(
        Box::new(oracle),
        CandidatePolicy::SubgraphEdges,
        Parallelism::new(threads),
    );
    engine.run_global_lazy(4, 1);
    engine.into_global_plan(AlgorithmKind::CelfGreedy)
}

/// SGB and CELF over mapped vs. owned snapshots, threads 1/2/4: the plans
/// are one and the same.
#[test]
fn plans_are_bit_identical_on_mapped_and_owned_snapshots() {
    for seed in [7u64, 191, 4242] {
        let (owned, mapped, targets) = mapped_case(seed, VerifyMode::Header);
        assert_eq!(owned, mapped, "backings must hold identical snapshots");
        for motif in [Motif::Triangle, Motif::RecTri] {
            let sgb_ref = sgb_plan(&owned, &targets, motif, 1);
            let celf_ref = celf_plan(&owned, &targets, motif, 1);
            sgb_ref.check_invariants();
            celf_ref.check_invariants();
            for threads in [1usize, 2, 4] {
                assert_eq!(
                    sgb_plan(&mapped, &targets, motif, threads),
                    sgb_ref,
                    "seed {seed} motif {motif}: mapped SGB drifted at {threads} threads"
                );
                assert_eq!(
                    celf_plan(&mapped, &targets, motif, threads),
                    celf_ref,
                    "seed {seed} motif {motif}: mapped CELF drifted at {threads} threads"
                );
            }
        }
    }
}

/// The verification tier chosen at load time must not leak into results.
#[test]
fn verify_tier_never_changes_a_plan() {
    let (owned, _, targets) = mapped_case(99, VerifyMode::Full);
    let reference = sgb_plan(&owned, &targets, Motif::Triangle, 2);
    for verify in [VerifyMode::Full, VerifyMode::Header, VerifyMode::None] {
        let (_, mapped, _) = mapped_case(99, verify);
        assert_eq!(
            sgb_plan(&mapped, &targets, Motif::Triangle, 2),
            reference,
            "verify {verify:?}"
        );
    }
}

/// The similarity primitive underneath every plan — per-pair motif counts
/// — is storage-invariant too, so attack rankings cannot drift either.
#[test]
fn motif_counts_are_invariant_under_storage_backing() {
    let g = generators::barabasi_albert(200, 5, 99);
    let owned = CsrGraph::from_graph(&g);
    let path = std::env::temp_dir().join(format!("tpp-storage-motif-{}.csr", std::process::id()));
    format::save(&owned, None, &path).unwrap();
    let mapped = format::load_mapped(&path, VerifyMode::Header).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(mapped.is_mapped());
    for motif in [Motif::Triangle, Motif::Rectangle, Motif::RecTri] {
        for u in (0..200u32).step_by(17) {
            for v in (1..200u32).step_by(23) {
                if u == v {
                    continue;
                }
                assert_eq!(
                    tpp_motif::count_target_subgraphs(&owned, u, v, motif),
                    tpp_motif::count_target_subgraphs(&mapped, u, v, motif),
                    "({u}, {v}) under {motif}"
                );
            }
        }
    }
}
