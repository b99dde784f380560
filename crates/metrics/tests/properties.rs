//! Property tests pinning the base-statistics kernels and the utility-loss
//! report's incremental paths: the oriented triangle kernel counts what
//! the per-node loop counts and the level peel gives the cores of a
//! Batagelj–Zaveršnik bucket peel, on every backing and on id-reversed
//! graphs; the h-index core patch lands exactly on a peel of the release;
//! and `utility_loss(g, g − D)` is bit-identical to measuring both graphs
//! from scratch — for deletion sets of every shape, and for released graphs
//! that add or rewire edges (which take the recount path), and whichever
//! graph representation the two inputs use. Base statistics patched
//! across a sequence of edge deltas equal a recount of the result, and a
//! report read from them equals one that recounts. The base-statistics
//! section a streamed snapshot build stores equals a recount of the
//! graph it loads with.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tpp_graph::{generators, Edge, Graph, NeighborAccess, NodeId};
use tpp_metrics::clustering::{triangle_counts, triangles_through};
use tpp_metrics::core_number::patch_core_numbers;
use tpp_metrics::{
    compute_utility, core_numbers, loss_ratio, triangle_count, utility_loss, utility_loss_with,
    BaseStats, UtilityConfig,
};
use tpp_store::{format, BaseSection, CsrGraph, DeltaView, StreamConfig, VerifyMode};

/// One of three generator families, sized by `n` (graphs too small for
/// the attachment models fall back to G(n, p)).
fn random_graph(family: u8, n: usize, seed: u64) -> Graph {
    match family % 3 {
        _ if n <= 3 => generators::erdos_renyi_gnp(n, 0.5, seed),
        0 => generators::holme_kim(n, 3, 0.6, seed),
        1 => generators::erdos_renyi_gnp(n, 0.15, seed),
        _ => generators::barabasi_albert(n, 2, seed),
    }
}

/// `g` relabelled by `v ↦ n − 1 − v`: the attachment models' hubs, born
/// first, land at the highest ids, the worst case for an id orientation.
fn reversed(g: &Graph) -> Graph {
    let last = g.node_count().saturating_sub(1) as NodeId;
    let mut out = Graph::new(g.node_count());
    for e in g.edges() {
        out.add_edge(last - e.u(), last - e.v());
    }
    out
}

/// A `random_graph` of `n` nodes, id-reversed when `reverse` is set, with
/// `isolated` edgeless nodes appended after the last id.
fn test_graph(family: u8, n: usize, seed: u64, reverse: bool, isolated: usize) -> Graph {
    let g = random_graph(family, n, seed);
    let mut g = if reverse { reversed(&g) } else { g };
    for _ in 0..isolated {
        g.add_node();
    }
    g
}

/// The first few edges of `g` from a seeded offset, about one in `every`.
fn few_edges(g: &Graph, seed: u64, every: usize) -> Vec<Edge> {
    let edges = g.edge_vec();
    let start = lcg(seed)() as usize % edges.len().max(1);
    (0..edges.len())
        .step_by(every)
        .map(|i| edges[(start + i) % edges.len()])
        .take(4)
        .collect()
}

/// Core numbers by the linear-time bucket peel (Batagelj–Zaveršnik): nodes
/// sorted into degree buckets, each peeled node moving every neighbour of
/// higher degree one bucket down by a swap with that bucket's first node.
/// An independent reference for `core_numbers`' level-by-level peel.
fn core_numbers_by_bucket_peel<G: NeighborAccess>(g: &G) -> Vec<u32> {
    let n = g.node_count();
    let mut degree: Vec<u32> = g.node_ids().map(|u| g.degree(u) as u32).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0) as usize;
    // `bin_start[d]` = first index in `order` of a node with degree d.
    let mut bin_start = vec![0u32; max_deg + 2];
    for &d in &degree {
        bin_start[d as usize + 1] += 1;
    }
    for i in 1..bin_start.len() {
        bin_start[i] += bin_start[i - 1];
    }
    let mut pos = vec![0u32; n];
    let mut order = vec![0 as NodeId; n];
    let mut next = bin_start.clone();
    for v in g.node_ids() {
        let d = degree[v as usize] as usize;
        pos[v as usize] = next[d];
        order[next[d] as usize] = v;
        next[d] += 1;
    }
    for i in 0..n {
        let v = order[i];
        let dv = degree[v as usize];
        for &u in g.neighbors(v) {
            let du = degree[u as usize];
            if du > dv {
                let (pu, pw) = (pos[u as usize], bin_start[du as usize]);
                let w = order[pw as usize];
                order.swap(pu as usize, pw as usize);
                pos[u as usize] = pw;
                pos[w as usize] = pu;
                bin_start[du as usize] += 1;
                degree[u as usize] = du - 1;
            }
        }
    }
    degree
}

/// Asserts the oriented kernel's counts on `g` equal the per-node
/// `triangles_through` loop, and `triangle_count` their third.
fn assert_kernel_matches<G: NeighborAccess>(g: &G) -> Result<(), TestCaseError> {
    let counts = triangle_counts(g);
    prop_assert_eq!(counts.len(), g.node_count());
    let mut total = 0usize;
    for v in g.node_ids() {
        let through = triangles_through(g, v);
        prop_assert_eq!(counts[v as usize] as usize, through, "node {}", v);
        total += through;
    }
    prop_assert_eq!(triangle_count(g), total / 3);
    Ok(())
}

/// Deterministic pseudo-random stream from a seed (the shim has no
/// collection strategies, so the seed alone reproduces a case).
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    }
}

/// A deletion set of the given shape: 0 empty, 1 one edge, 2 a random
/// quarter of the edges, 3 every edge at one node (its whole star),
/// 4 every edge.
fn deletion_set(g: &Graph, shape: u8, seed: u64) -> Vec<Edge> {
    let edges = g.edge_vec();
    let mut next = lcg(seed);
    match shape % 5 {
        0 => Vec::new(),
        1 if !edges.is_empty() => vec![edges[next() as usize % edges.len()]],
        2 => edges
            .into_iter()
            .filter(|_| next().is_multiple_of(4))
            .collect(),
        3 if g.node_count() > 0 => {
            let u = (next() % g.node_count() as u64) as u32;
            g.neighbors(u).iter().map(|&v| Edge::new(u, v)).collect()
        }
        _ => edges,
    }
}

/// `g` minus the given edges.
fn without(g: &Graph, deleted: &[Edge]) -> Graph {
    let mut out = g.clone();
    for e in deleted {
        assert!(out.remove_edge(e.u(), e.v()), "{e} is not an edge");
    }
    out
}

/// Asserts the report equals the from-scratch pair bit for bit.
fn assert_matches_scratch(
    original: &Graph,
    released: &Graph,
    config: &UtilityConfig,
) -> Result<(), TestCaseError> {
    let report = utility_loss(original, released, config);
    let before = compute_utility(original, config);
    let after = compute_utility(released, config);
    prop_assert_eq!(report.per_metric.len(), config.metrics.len());
    let mut sum = 0.0;
    for (i, &(m, loss)) in report.per_metric.iter().enumerate() {
        let ((bm, a), (_, b)) = (before.values[i], after.values[i]);
        prop_assert_eq!(m, bm);
        let expected = loss_ratio(a, b);
        prop_assert_eq!(loss.to_bits(), expected.to_bits(), "metric {}", m);
        sum += expected;
    }
    let average = sum / config.metrics.len() as f64;
    prop_assert_eq!(report.average.to_bits(), average.to_bits());
    Ok(())
}

/// Asserts both presets' reports equal the from-scratch pair.
fn assert_presets_match(
    original: &Graph,
    released: &Graph,
    seed: u64,
) -> Result<(), TestCaseError> {
    assert_matches_scratch(original, released, &UtilityConfig::large_graph(seed))?;
    assert_matches_scratch(original, released, &UtilityConfig::full(seed))
}

/// The first node pair at or after a seeded offset that is not an edge.
fn some_non_edge(g: &Graph, seed: u64) -> Option<(u32, u32)> {
    let n = g.node_count() as u32;
    let start = (lcg(seed)() % u64::from(n.max(1))) as u32;
    (0..n)
        .map(|i| (start + i) % n)
        .flat_map(|a| (0..n).map(move |b| (a, b)))
        .find(|&(a, b)| a != b && !g.has_edge(a, b))
}

/// A degree-preserving double-edge swap `(a, b), (c, d) -> (a, d), (c, b)`
/// found by scanning edge pairs from a seeded offset.
fn some_swap(g: &Graph, seed: u64) -> Option<(Edge, Edge)> {
    let edges = g.edge_vec();
    let len = edges.len();
    let start = lcg(seed)() as usize % len.max(1);
    (0..len)
        .map(|i| edges[(start + i) % len])
        .flat_map(|e1| edges.iter().map(move |&e2| (e1, e2)))
        .find(|&(e1, e2)| {
            let ((a, b), (c, d)) = (e1.endpoints(), e2.endpoints());
            a != c && a != d && b != c && b != d && !g.has_edge(a, d) && !g.has_edge(c, b)
        })
}

/// Edges to insert into `g`, all non-edges of it: every missing pair
/// among a few nodes around a seeded centre (so that added edges close
/// triangles among themselves and with old edges), then a few random
/// pairs.
fn insertion_set(g: &Graph, seed: u64) -> Vec<Edge> {
    let n = g.node_count() as u64;
    let mut next = lcg(seed);
    let centre = (next() % n) as u32;
    let mut group: Vec<u32> = std::iter::once(centre)
        .chain(g.neighbors(centre).iter().copied().take(2))
        .chain((0..2).map(|_| (next() % n) as u32))
        .collect();
    group.sort_unstable();
    group.dedup();
    let mut added = Vec::new();
    for (i, &a) in group.iter().enumerate() {
        for &b in &group[i + 1..] {
            added.push(Edge::new(a, b));
        }
    }
    for _ in 0..3 {
        let (a, b) = ((next() % n) as u32, (next() % n) as u32);
        if a != b {
            added.push(Edge::new(a, b));
        }
    }
    added.sort_unstable();
    added.dedup();
    added.retain(|e| !g.has_edge(e.u(), e.v()));
    added
}

/// Asserts two base statistics are equal array for array and bit for bit.
fn assert_same_base(got: &BaseStats, want: &BaseStats) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.triangles(), want.triangles());
    prop_assert_eq!(got.core_numbers(), want.core_numbers());
    prop_assert_eq!(
        got.average_clustering().to_bits(),
        want.average_clustering().to_bits()
    );
    prop_assert_eq!(
        got.average_core_number().to_bits(),
        want.average_core_number().to_bits()
    );
    prop_assert!(got == want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The oriented kernel's per-node counts equal `triangles_through`,
    /// and `triangle_count` is their sum over three corners, on the
    /// generated ids and their reversal, over an adjacency list and a
    /// `DeltaView` with a few deletions.
    #[test]
    fn kernel_matches_per_node_triangles(
        family in 0u8..3,
        n in 0usize..80,
        seed in 0u64..5_000,
        reverse in 0u8..2,
    ) {
        let g = test_graph(family, n, seed, reverse == 1, 0);
        assert_kernel_matches(&g)?;
        let csr = CsrGraph::from_graph(&g);
        let mut view = DeltaView::new(&csr);
        for e in few_edges(&g, seed, 5) {
            prop_assert!(view.delete_edge(e));
        }
        assert_kernel_matches(&view)?;
    }

    /// The level peel's core numbers equal the bucket peel's on all three
    /// families, id-reversed or not, with isolated trailing nodes, through
    /// an adjacency list, a CSR snapshot, and a `DeltaView` over it with a
    /// few deletions.
    #[test]
    fn core_numbers_equal_bucket_peel(
        family in 0u8..3,
        n in 0usize..300,
        seed in 0u64..5_000,
        reverse in 0u8..2,
        isolated in 0usize..3,
    ) {
        let g = test_graph(family, n, seed, reverse == 1, isolated);
        let want = core_numbers_by_bucket_peel(&g);
        prop_assert_eq!(&core_numbers(&g), &want);
        let csr = CsrGraph::from_graph(&g);
        prop_assert_eq!(&core_numbers(&csr), &want);
        let deleted = few_edges(&g, seed, 7);
        let mut view = DeltaView::new(&csr);
        for &e in &deleted {
            prop_assert!(view.delete_edge(e));
        }
        prop_assert_eq!(
            core_numbers(&view),
            core_numbers_by_bucket_peel(&without(&g, &deleted))
        );
    }

    /// `utility_loss(g, g − D)` equals the from-scratch pair bit for bit,
    /// for every metric of both presets and every deletion-set shape, and
    /// reports `|D|`.
    #[test]
    fn deletion_report_matches_scratch(
        family in 0u8..3,
        n in 3usize..40,
        seed in 0u64..5_000,
        shape in 0u8..5,
    ) {
        let g = random_graph(family, n, seed);
        let deleted = deletion_set(&g, shape, seed);
        let released = without(&g, &deleted);
        assert_presets_match(&g, &released, seed)?;
        let report = utility_loss(&g, &released, &UtilityConfig::large_graph(seed));
        prop_assert_eq!(report.deleted_edges, Some(deleted.len()));
        prop_assert_eq!(report.core_evaluations == 0, deleted.is_empty());
    }

    /// The report reads both graphs through `NeighborAccess` alone: CSR
    /// snapshots of the pair, and a Graph original against a CSR release,
    /// give the Graph pair's report bit for bit on every metric.
    #[test]
    fn csr_inputs_match_graph_inputs(
        family in 0u8..3,
        n in 3usize..40,
        seed in 0u64..5_000,
        shape in 0u8..5,
    ) {
        let g = random_graph(family, n, seed);
        let released = without(&g, &deletion_set(&g, shape, seed));
        let (g_csr, released_csr) = (CsrGraph::from_graph(&g), CsrGraph::from_graph(&released));
        let config = UtilityConfig::full(seed);
        let want = utility_loss(&g, &released, &config);
        for got in [
            utility_loss(&g_csr, &released_csr, &config),
            utility_loss(&g, &released_csr, &config),
        ] {
            prop_assert_eq!(got.per_metric.len(), want.per_metric.len());
            for (&(m, a), &(wm, b)) in got.per_metric.iter().zip(&want.per_metric) {
                prop_assert_eq!(m, wm);
                prop_assert_eq!(a.to_bits(), b.to_bits(), "metric {}", m);
            }
            prop_assert_eq!(got.average.to_bits(), want.average.to_bits());
        }
    }

    /// A released graph that adds an edge, rewires two with every degree
    /// kept, or grows a node is not `g − D`: it is counted from scratch
    /// and still matches.
    #[test]
    fn non_subset_release_matches_scratch(
        family in 0u8..3,
        n in 6usize..40,
        seed in 0u64..5_000,
        mode in 0u8..3,
    ) {
        let g = random_graph(family, n, seed);
        let mut released = without(&g, &deletion_set(&g, 2, seed));
        match mode {
            0 => {
                let pair = some_non_edge(&released, seed);
                prop_assume!(pair.is_some());
                let (a, b) = pair.unwrap();
                released.add_edge(a, b);
            }
            1 => {
                let swap = some_swap(&released, seed);
                prop_assume!(swap.is_some());
                let (e1, e2) = swap.unwrap();
                let degrees = released.degrees();
                let ((a, b), (c, d)) = (e1.endpoints(), e2.endpoints());
                released.remove_edge(a, b);
                released.remove_edge(c, d);
                released.add_edge(a, d);
                released.add_edge(c, b);
                prop_assert_eq!(released.degrees(), degrees);
            }
            _ => {
                released.add_node();
            }
        }
        assert_presets_match(&g, &released, seed)?;
        // The added edges may re-add deleted ones, which leaves a subset.
        let subset = released.node_count() == g.node_count()
            && released.edge_vec().iter().all(|e| g.has_edge(e.u(), e.v()));
        let report = utility_loss(&g, &released, &UtilityConfig::large_graph(seed));
        if subset {
            prop_assert_eq!(report.deleted_edges, Some(g.edge_count() - released.edge_count()));
        } else {
            prop_assert_eq!(report.deleted_edges, None);
            prop_assert_eq!(report.core_evaluations, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Patching `core_numbers(g)` across a deletion set `D` gives
    /// `core_numbers(g − D)` element for element, for every family and
    /// deletion-set shape, on an adjacency-list and a CSR release alike;
    /// an empty `D` costs no evaluation. Few small random deletions
    /// cascade past their endpoints, hence the larger case count.
    #[test]
    fn core_patch_matches_peel(
        family in 0u8..3,
        n in 0usize..80,
        seed in 0u64..5_000,
        shape in 0u8..5,
    ) {
        let g = random_graph(family, n, seed);
        let deleted = deletion_set(&g, shape, seed);
        let released = without(&g, &deleted);
        let want = core_numbers(&released);
        let mut core = core_numbers(&g);
        let evaluations = patch_core_numbers(&released, &mut core, &deleted);
        prop_assert_eq!(&core, &want);
        prop_assert_eq!(evaluations == 0, deleted.is_empty());
        let mut core = core_numbers(&g);
        patch_core_numbers(&CsrGraph::from_graph(&released), &mut core, &deleted);
        prop_assert_eq!(&core, &want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Base statistics patched across a random sequence of removal-only,
    /// insertion-only and mixed deltas equal `BaseStats::compute` of each
    /// resulting graph (also with CSR inputs), re-peel exactly when the
    /// delta inserts, and give the reports of `utility_loss` bit for bit.
    #[test]
    fn base_stats_patch_matches_recompute(
        family in 0u8..3,
        n in 4usize..40,
        seed in 0u64..5_000,
        steps in 1usize..5,
    ) {
        let mut g = random_graph(family, n, seed);
        let mut base = BaseStats::compute(&g);
        let mut next = lcg(seed ^ 0xBA5E);
        for step in 0..steps as u64 {
            let step_seed = seed.wrapping_add(step * 7919);
            let kind = next() % 3;
            let removed = if kind == 1 {
                Vec::new()
            } else {
                deletion_set(&g, 1 + (next() % 4) as u8, step_seed)
            };
            let added = if kind == 0 {
                Vec::new()
            } else {
                insertion_set(&g, step_seed)
            };
            let mut after = without(&g, &removed);
            for e in &added {
                prop_assert!(after.add_edge(e.u(), e.v()), "{} is already an edge", e);
            }
            let want = BaseStats::compute(&after);
            let (patched, repeeled) = base.patched(&g, &after, &removed, &added);
            assert_same_base(&patched, &want)?;
            prop_assert_eq!(repeeled, !added.is_empty());
            let (g_csr, after_csr) = (CsrGraph::from_graph(&g), CsrGraph::from_graph(&after));
            let (csr_patched, _) = base.patched(&g_csr, &after_csr, &removed, &added);
            assert_same_base(&csr_patched, &want)?;

            let released = without(&after, &deletion_set(&after, (next() % 5) as u8, step_seed));
            for config in [UtilityConfig::large_graph(seed), UtilityConfig::full(seed)] {
                let got = utility_loss_with(&patched, &after, &released, &config);
                let scratch = utility_loss(&after, &released, &config);
                prop_assert_eq!(got.per_metric.len(), scratch.per_metric.len());
                for (&(m, a), &(wm, b)) in got.per_metric.iter().zip(&scratch.per_metric) {
                    prop_assert_eq!(m, wm);
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "metric {}", m);
                }
                prop_assert_eq!(got.average.to_bits(), scratch.average.to_bits());
                prop_assert_eq!(got.deleted_edges, scratch.deleted_edges);
                prop_assert_eq!(got.core_evaluations, scratch.core_evaluations);
            }
            g = after;
            base = patched;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The base-statistics section a streamed build writes (with the
    /// arrays `tpp store build` computes), loaded back at every tier and
    /// wrapped by `BaseStats::from_arrays`, equals `BaseStats::compute` of
    /// the loaded graph bit for bit, on all three families, id-reversed or
    /// not, with isolated trailing nodes.
    #[test]
    fn stored_base_section_equals_a_recount(
        family in 0u8..3,
        n in 0usize..80,
        seed in 0u64..5_000,
        reverse in 0u8..2,
        isolated in 0usize..3,
    ) {
        let g = test_graph(family, n, seed, reverse == 1, isolated);
        let dir = std::env::temp_dir().join(format!("tpp-metrics-section-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (edges, out) = (dir.join("g.txt"), dir.join("g.csr"));
        std::fs::write(&edges, tpp_graph::write_edge_list(&g)).unwrap();
        let base_stats = |g: &CsrGraph| BaseSection {
            triangles: triangle_counts(g).into(),
            cores: core_numbers(g).into(),
        };
        let obs = tpp_obs::Recorder::disabled();
        tpp_store::build_stream(&edges, &out, &StreamConfig::default(), &base_stats, &obs)
            .unwrap();
        for verify in [VerifyMode::Full, VerifyMode::Header, VerifyMode::None] {
            let (loaded, _, section) = format::load_mapped_observed(&out, verify, &obs).unwrap();
            let section = section.expect("a streamed build writes the section");
            let stored = BaseStats::from_arrays(&loaded, section.triangles, section.cores);
            assert_same_base(&stored.unwrap(), &BaseStats::compute(&loaded))?;
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
