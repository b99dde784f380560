//! Property-based correctness suite for the snapshot store: CSR round
//! trips, on-disk format round trips, and `DeltaView` equivalence against
//! a physically mutated `Graph` on random ER/BA graphs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tpp_graph::{generators, Edge, Graph, NeighborAccess, NodeId};
use tpp_motif::{count_target_subgraphs, Motif};
use tpp_store::{format, CsrGraph, DeltaView, GraphDelta, StoreError, VerifyMode};

/// The fully verified load of a snapshot file, with its header version.
fn load_verified(path: &std::path::Path) -> (CsrGraph, u32) {
    let (g, header, _) =
        format::load_mapped_observed(path, VerifyMode::Full, &tpp_obs::Recorder::disabled())
            .unwrap();
    (g, header.version)
}

/// The base-statistics section `tpp store build` writes for `g`.
fn base_of(g: &CsrGraph) -> format::BaseSection {
    format::BaseSection {
        triangles: tpp_metrics::clustering::triangle_counts(g).into(),
        cores: tpp_metrics::core_numbers(g).into(),
    }
}

/// Strategy: a random simple graph (alternating ER and BA families).
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (10usize..=60, 0u64..=5_000).prop_map(|(n, seed)| {
        if seed % 2 == 0 {
            generators::erdos_renyi_gnp(n, 0.12 + (seed % 10) as f64 / 50.0, seed)
        } else {
            generators::barabasi_albert(n, 3.min(n - 1).max(1), seed)
        }
    })
}

/// Every read the workspace performs must agree between two access paths.
fn assert_reads_agree<A: NeighborAccess, B: NeighborAccess>(a: &A, b: &B) {
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.edge_count(), b.edge_count());
    for u in 0..a.node_count() as NodeId {
        assert_eq!(a.degree(u), b.degree(u), "degree({u})");
        assert_eq!(a.neighbors(u), b.neighbors(u), "neighbors({u})");
    }
    assert_eq!(a.collect_edges(), b.collect_edges());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Graph → CsrGraph → Graph is the identity.
    #[test]
    fn csr_round_trips_graph(g in graph_strategy()) {
        let csr = CsrGraph::from_graph(&g);
        csr.check_invariants();
        prop_assert_eq!(csr.to_graph(), g.clone());
        assert_reads_agree(&csr, &g);
    }

    /// Building from a shuffled edge list matches building from the graph.
    #[test]
    fn csr_from_edges_matches(g in graph_strategy(), seed in 0u64..500) {
        let mut edges = g.edge_vec();
        // deterministic pseudo-shuffle
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..edges.len()).rev() {
            let j = rng.gen_range(0..=i);
            edges.swap(i, j);
        }
        let csr = CsrGraph::from_edges(g.node_count(), &edges).unwrap();
        prop_assert_eq!(csr, CsrGraph::from_graph(&g));
    }

    /// save → load round-trips bit-exactly through the binary format.
    #[test]
    fn format_round_trips(g in graph_strategy()) {
        let csr = CsrGraph::from_graph(&g);
        let mut bytes = Vec::new();
        format::write_snapshot(&csr, Some(&base_of(&csr)), &mut bytes).unwrap();
        let path = std::env::temp_dir()
            .join(format!("tpp-prop-round-trip-{}.csr", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let (back, _) = load_verified(&path);
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(csr, back);
    }

    /// Every load yields the same snapshot: current-format and legacy v1
    /// files, mapped at all three verify tiers — and all of them agree with
    /// the in-memory build on every read.
    #[test]
    fn mapped_owned_and_v1_loads_agree(g in graph_strategy()) {
        let csr = CsrGraph::from_graph(&g);
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let v3_path = dir.join(format!("tpp-prop-v3-{pid}.csr"));
        let v1_path = dir.join(format!("tpp-prop-v1-{pid}.csr"));
        format::save(&csr, Some(&base_of(&csr)), &v3_path).unwrap();
        {
            let mut w = std::io::BufWriter::new(std::fs::File::create(&v1_path).unwrap());
            format::write_snapshot_v1(&csr, &mut w).unwrap();
        }

        for verify in [VerifyMode::Full, VerifyMode::Header, VerifyMode::None] {
            let mapped = format::load_mapped(&v3_path, verify).unwrap();
            prop_assert!(mapped.is_mapped());
            prop_assert_eq!(&mapped, &csr);
            assert_reads_agree(&mapped, &g);
            // Overlays and shards run over the mapped backing unchanged.
            let view = DeltaView::new(&mapped);
            assert_reads_agree(&view, &g);
            let v1 = format::load_mapped(&v1_path, verify).unwrap();
            prop_assert!(v1.is_mapped(), "v1 is served through the mapping");
            prop_assert_eq!(&v1, &csr);
        }
        let (v1_full, version) = load_verified(&v1_path);
        prop_assert_eq!(version, 1);
        prop_assert_eq!(&v1_full, &csr);
        std::fs::remove_file(&v3_path).ok();
        std::fs::remove_file(&v1_path).ok();
    }

    /// A DeltaView over a snapshot, driven by a random deletion/addition
    /// script, agrees with a physically mutated Graph on every read and
    /// on triangle counts for a probe pair — and so does a second view
    /// stacked over the dirty first, driven by its own mixed script.
    #[test]
    fn delta_view_matches_mutated_graph(
        g in graph_strategy(),
        seed in 0u64..2_000,
        script_len in 1usize..40,
    ) {
        let csr = CsrGraph::from_graph(&g);
        let mut view = DeltaView::new(&csr);
        let mut oracle = g.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = g.node_count() as NodeId;
        prop_assume!(n >= 2);
        for _ in 0..script_len {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a == b {
                continue;
            }
            let e = Edge::new(a, b);
            if rng.gen_bool(0.6) {
                prop_assert_eq!(view.delete_edge(e), oracle.remove_edge(e.u(), e.v()));
            } else {
                prop_assert_eq!(view.add_edge(e), oracle.add_edge(e.u(), e.v()));
            }
        }
        oracle.check_invariants();
        assert_reads_agree(&view, &oracle);
        prop_assert_eq!(view.to_graph(), oracle.clone());
        prop_assert_eq!(
            view.deleted_count() as isize - view.added_count() as isize,
            g.edge_count() as isize - oracle.edge_count() as isize
        );

        // Motif counters over the view equal counters over the mutation.
        let (u, v) = (0, n - 1);
        for motif in [Motif::Triangle, Motif::Rectangle, Motif::RecTri] {
            prop_assert_eq!(
                count_target_subgraphs(&view, u, v, motif),
                count_target_subgraphs(&oracle, u, v, motif),
                "motif {} at ({}, {})", motif, u, v
            );
        }

        // Stacked: the outer layer reads the dirty inner view's slices.
        let mut outer = DeltaView::new(&view);
        let mut stacked = oracle.clone();
        for _ in 0..script_len {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a == b {
                continue;
            }
            let e = Edge::new(a, b);
            if rng.gen_bool(0.5) {
                prop_assert_eq!(outer.delete_edge(e), stacked.remove_edge(e.u(), e.v()));
            } else {
                prop_assert_eq!(outer.add_edge(e), stacked.add_edge(e.u(), e.v()));
            }
        }
        assert_reads_agree(&outer, &stacked);
        assert_reads_agree(&view, &oracle);
        prop_assert_eq!(CsrGraph::from_access(&outer).to_graph(), stacked.clone());
        for motif in [Motif::Triangle, Motif::Rectangle, Motif::RecTri] {
            prop_assert_eq!(
                count_target_subgraphs(&outer, u, v, motif),
                count_target_subgraphs(&stacked, u, v, motif),
                "stacked motif {} at ({}, {})", motif, u, v
            );
        }
    }

    /// A mixed add/remove overlay materialized by `from_access` equals the
    /// physically mutated Graph, and so does a `GraphDelta` of the same
    /// net edits, whether replayed as an overlay of the snapshot (the
    /// served-update path) or applied to the Graph (the `apply` wrapper).
    #[test]
    fn from_access_materializes_a_mixed_delta(
        g in graph_strategy(),
        seed in 0u64..2_000,
        script_len in 1usize..40,
    ) {
        let csr = CsrGraph::from_graph(&g);
        let mut view = DeltaView::new(&csr);
        let mut oracle = g.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = g.node_count() as NodeId;
        for _ in 0..script_len {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a == b {
                continue;
            }
            let e = Edge::new(a, b);
            if rng.gen_bool(0.5) {
                prop_assert_eq!(view.delete_edge(e), oracle.remove_edge(a, b));
            } else {
                prop_assert_eq!(view.add_edge(e), oracle.add_edge(a, b));
            }
        }
        let snap = CsrGraph::from_access(&view);
        snap.check_invariants();
        prop_assert_eq!(snap.to_graph(), oracle.clone());

        let mut text = String::new();
        for e in view.deleted_edges() {
            text.push_str(&format!("- {} {}\n", e.u(), e.v()));
        }
        for e in view.added_edges() {
            text.push_str(&format!("+ {} {}\n", e.u(), e.v()));
        }
        let delta = GraphDelta::parse(&text).unwrap();
        let over = delta.overlay(&csr).unwrap();
        prop_assert_eq!(CsrGraph::from_access(&over).to_graph(), oracle.clone());
        let applied = delta.apply(&g).unwrap();
        prop_assert_eq!(applied.graph, oracle);
        prop_assert_eq!(applied.removed, over.deleted_edges());
        prop_assert_eq!(applied.added, over.added_edges());
    }

    /// Deleting and restoring the same edges leaves the view exactly at
    /// the base (the tentative-evaluation invariant the oracles rely on).
    #[test]
    fn tentative_evaluation_is_traceless(g in graph_strategy(), seed in 0u64..500) {
        prop_assume!(g.edge_count() > 0);
        let csr = CsrGraph::from_graph(&g);
        let mut view = DeltaView::new(&csr);
        let edges = g.edge_vec();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let e = edges[rng.gen_range(0..edges.len())];
            prop_assert!(view.delete_edge(e));
            prop_assert!(view.restore_edge(e));
        }
        prop_assert!(!view.is_dirty());
        assert_reads_agree(&view, &g);
    }

    /// Common-neighbor merges agree across Graph, CsrGraph and DeltaView —
    /// the hot operation of every motif counter — and the count-only
    /// kernels agree with the materialized lists, all pinned against a
    /// naive set-intersection oracle.
    #[test]
    fn common_neighbors_agree(g in graph_strategy(), u in 0u32..60, v in 0u32..60) {
        prop_assume!((u as usize) < g.node_count() && (v as usize) < g.node_count());
        prop_assume!(u != v);
        let csr = CsrGraph::from_graph(&g);
        let view = DeltaView::new(&csr);
        // Naive HashSet oracle: order-insensitive ground truth, re-sorted.
        let nu: std::collections::HashSet<NodeId> = g.neighbors(u).iter().copied().collect();
        let mut expected: Vec<NodeId> = g
            .neighbors(v)
            .iter()
            .copied()
            .filter(|w| nu.contains(w))
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(g.common_neighbors(u, v), expected.clone());
        prop_assert_eq!(csr.common_neighbors_vec(u, v), expected.clone());
        prop_assert_eq!(view.common_neighbors_vec(u, v), expected.clone());
        for reader in [
            csr.common_neighbor_count(u, v),
            view.common_neighbor_count(u, v),
        ] {
            prop_assert_eq!(reader, expected.len());
        }
    }

    /// Adversarial degree skew: graft a full-range hub onto a random
    /// graph and check hub×leaf intersections (the gallop tier) on the
    /// snapshot and on a DeltaView whose hub is dirty, both against the
    /// `Graph` oracle.
    #[test]
    fn skewed_intersections_agree(g in graph_strategy(), seed in 0u64..500) {
        let mut g = g;
        let n = g.node_count() as NodeId;
        prop_assume!(n >= 4);
        // Node 0 becomes a hub adjacent to everything; node 1 stays leafy.
        for v in 1..n {
            g.add_edge(0, v);
        }
        let csr = CsrGraph::from_graph(&g);
        for v in 1..n {
            prop_assert_eq!(
                csr.common_neighbors_vec(0, v),
                g.common_neighbors(0, v),
                "hub x {}", v
            );
            prop_assert_eq!(
                csr.common_neighbor_count(0, v),
                g.common_neighbor_count(0, v)
            );
        }
        // Dirty the hub in an overlay: reads must still be exact.
        let mut rng = StdRng::seed_from_u64(seed);
        let w = rng.gen_range(1..n);
        let mut view = DeltaView::new(&csr);
        view.delete_edge(Edge::new(0, w));
        let mut oracle = g.clone();
        oracle.remove_edge(0, w);
        for v in 1..n {
            prop_assert_eq!(
                view.common_neighbors_vec(0, v),
                oracle.common_neighbors(0, v),
                "dirty hub x {}", v
            );
            prop_assert_eq!(
                view.common_neighbor_count(0, v),
                oracle.common_neighbor_count(0, v)
            );
        }
    }

    /// Shard ranges tile the node space in order, and their payload spans
    /// tile the neighbor array, for every shard count.
    #[test]
    fn shards_partition_nodes_and_edges(g in graph_strategy(), parts in 1usize..=8) {
        let csr = CsrGraph::from_graph(&g);
        let ranges = csr.shard_ranges(parts);
        prop_assert!(!ranges.is_empty() && ranges.len() <= parts);

        let mut cursor = 0u32;
        let mut payload = 0u64;
        for r in &ranges {
            prop_assert_eq!(r.start, cursor);
            prop_assert!(r.end > cursor);
            cursor = r.end;
            payload += csr.offsets()[r.end as usize] - csr.offsets()[r.start as usize];
        }
        prop_assert_eq!(cursor as usize, csr.node_count());
        prop_assert_eq!(payload as usize, 2 * csr.edge_count());
    }
}

#[test]
fn corrupted_snapshots_fail_by_tier_contract() {
    // Integration-level pin of the tiered-verification contract through
    // the public API: what each tier must catch, and what it may skip.
    let g = generators::holme_kim(120, 3, 0.3, 7);
    let csr = CsrGraph::from_graph(&g);
    let dir = std::env::temp_dir();
    let path = dir.join(format!("tpp-prop-corrupt-{}.csr", std::process::id()));
    format::save(&csr, Some(&base_of(&csr)), &path).unwrap();
    let good = std::fs::read(&path).unwrap();
    let every_tier = [VerifyMode::Full, VerifyMode::Header, VerifyMode::None];

    // Truncation: caught eagerly by the file-length cross-check.
    std::fs::write(&path, &good[..good.len() - 7]).unwrap();
    for verify in every_tier {
        assert!(format::load_mapped(&path, verify).is_err(), "{verify:?}");
    }

    // Nonzero header padding: caught eagerly everywhere.
    let mut bad = good.clone();
    bad[160] = 1; // inside the zero pad between section table and payload
    std::fs::write(&path, &bad).unwrap();
    for verify in every_tier {
        assert!(format::load_mapped(&path, verify).is_err(), "{verify:?}");
    }

    // Stored-checksum flip with an intact payload: only Full may object.
    let mut bad = good.clone();
    bad[32] ^= 0x80;
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(
        format::load_mapped(&path, VerifyMode::Full),
        Err(StoreError::ChecksumMismatch { .. })
    ));
    for verify in [VerifyMode::Header, VerifyMode::None] {
        assert_eq!(format::load_mapped(&path, verify).unwrap(), csr);
    }

    // Every byte of the upper-prefix section: Full and Header catch the
    // flip by its checksum; None loads the intact graph under the changed
    // prefix, and sampling every edge through it answers a named error
    // or real edges, never a panic.
    let (_, header, _) =
        format::load_mapped_observed(&path, VerifyMode::None, &tpp_obs::Recorder::disabled())
            .unwrap();
    let section = *header.section(format::SectionKind::UpperPrefix).unwrap();
    let m = csr.edge_count();
    for pos in section.offset as usize..(section.offset + section.length) as usize {
        let mut bad = good.clone();
        bad[pos] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        for verify in [VerifyMode::Full, VerifyMode::Header] {
            let err = format::load_mapped(&path, verify).unwrap_err();
            assert!(
                err.to_string().contains("upper-prefix section checksum"),
                "byte {pos} at {verify:?}: {err}"
            );
        }
        let trusted = format::load_mapped(&path, VerifyMode::None).unwrap();
        assert_eq!(trusted, csr, "byte {pos}");
        let sampled =
            std::panic::catch_unwind(|| tpp_core::TppInstance::try_sample_targets(&trusted, m, 1))
                .unwrap_or_else(|_| panic!("byte {pos}: sampling panicked"));
        if let Ok(edges) = sampled {
            assert!(edges.iter().all(|&e| g.contains(e)), "byte {pos}");
        }
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn arenas_scale_round_trip() {
    // One larger fixed case: the Arenas-email stand-in (1,133 nodes,
    // 5,451 edges) through the build, disk format, and back.
    let g = tpp_datasets::arenas_email_like(1);
    let csr = CsrGraph::from_graph(&g);
    csr.check_invariants();
    assert_eq!(csr.to_graph(), g);

    let path = std::env::temp_dir().join(format!("tpp-store-prop-{}.csr", std::process::id()));
    format::save(&csr, None, &path).unwrap();
    let (back, _) = load_verified(&path);
    std::fs::remove_file(&path).ok();
    assert_eq!(csr, back);
}
