//! Property-based tests for the motif machinery: the paper's Lemmas 1–4
//! (monotonicity and submodularity of the dissimilarity) checked on random
//! graphs, plus index/recount equivalence under arbitrary deletion orders.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tpp_bench::fixtures::er_released_workload;
use tpp_exec::Parallelism;
use tpp_graph::{Edge, Graph};
use tpp_motif::{count_all_targets, InstanceId, Motif, PartitionedCoverageIndex};

/// Strategy: a random simple graph with `n in 8..=24` nodes and
/// seed-derived edge probability, plus deterministic target pairs removed
/// up front — the shared workload from `tpp-bench::fixtures`.
fn instance_strategy() -> impl Strategy<Value = (Graph, Vec<Edge>)> {
    (8usize..=24, 0u64..=5_000, 1usize..=3)
        .prop_map(|(n, seed, tcount)| er_released_workload(n, seed, tcount))
}

fn total_similarity(g: &Graph, targets: &[Edge], motif: Motif) -> usize {
    count_all_targets(g, targets, motif).iter().sum()
}

/// The index built on a pool of `threads` workers (one: on the calling
/// thread, as every sequential caller builds it).
fn build_on(g: &Graph, targets: &[Edge], motif: Motif, threads: usize) -> PartitionedCoverageIndex {
    PartitionedCoverageIndex::build_parallel(g, targets, motif, 1, &Parallelism::new(threads))
}

/// Test-local reference index for the differential build tests: the
/// instances of `enumerate_target_subgraphs` numbered in target order,
/// each edge's ascending id list, and alive flags.
struct Reference {
    target_of: Vec<usize>,
    postings: BTreeMap<Edge, Vec<InstanceId>>,
    alive: Vec<bool>,
    target_count: usize,
}

impl Reference {
    fn new(g: &Graph, targets: &[Edge], motif: Motif) -> Self {
        let mut r = Reference {
            target_of: Vec::new(),
            postings: BTreeMap::new(),
            alive: Vec::new(),
            target_count: targets.len(),
        };
        for (ti, t) in targets.iter().enumerate() {
            for inst in tpp_motif::enumerate_target_subgraphs(g, t.u(), t.v(), motif, ti) {
                let id = r.alive.len() as InstanceId;
                for &e in inst.edges() {
                    r.postings.entry(e).or_default().push(id);
                }
                r.target_of.push(ti);
                r.alive.push(true);
            }
        }
        r
    }

    fn similarities(&self) -> Vec<usize> {
        let mut per_target = vec![0usize; self.target_count];
        for (id, &ti) in self.target_of.iter().enumerate() {
            if self.alive[id] {
                per_target[ti] += 1;
            }
        }
        per_target
    }

    fn all_candidate_edges(&self) -> Vec<Edge> {
        self.postings.keys().copied().collect()
    }

    fn alive_candidate_edges(&self) -> Vec<Edge> {
        let edges = self.postings.keys().copied();
        edges.filter(|&e| self.gain(e) > 0).collect()
    }

    fn alive_instance_ids(&self, p: Edge) -> Vec<InstanceId> {
        let ids = self.postings.get(&p).into_iter().flatten().copied();
        ids.filter(|&id| self.alive[id as usize]).collect()
    }

    fn gain(&self, p: Edge) -> usize {
        self.alive_instance_ids(p).len()
    }

    fn delete_edge(&mut self, p: Edge) -> usize {
        let ids = self.alive_instance_ids(p);
        for &id in &ids {
            self.alive[id as usize] = false;
        }
        ids.len()
    }
}

/// Asserts that `idx` reads exactly like `reference`: per-target
/// similarities, both candidate lists, and every candidate's gain and
/// alive-id list (posting order included).
fn assert_matches_reference(idx: &PartitionedCoverageIndex, reference: &Reference, what: &str) {
    assert_eq!(
        idx.similarities(),
        reference.similarities(),
        "{what} similarities"
    );
    assert_eq!(
        idx.all_candidate_edges(),
        reference.all_candidate_edges(),
        "{what} all candidates"
    );
    assert_eq!(
        idx.alive_candidate_edges(),
        reference.alive_candidate_edges(),
        "{what} alive candidates"
    );
    for p in reference.all_candidate_edges() {
        assert_eq!(idx.gain(p), reference.gain(p), "{what} gain({p})");
        assert_eq!(
            idx.alive_instance_ids(p),
            reference.alive_instance_ids(p),
            "{what} posting of {p}"
        );
    }
    idx.check_invariants();
}

/// Reference k-path enumerator: a whole-path depth-first search from `u`
/// that visits each interior node at most once and closes on `v`, the
/// independent oracle the library's half-path join is checked against.
/// Each path comes back as its sorted edge set.
fn k_paths_by_dfs(g: &Graph, u: u32, v: u32, k: usize) -> Vec<Vec<Edge>> {
    fn walk(g: &Graph, path: &mut Vec<u32>, v: u32, k: usize, out: &mut Vec<Vec<Edge>>) {
        let at = *path.last().expect("path starts at u");
        if path.len() == k {
            if g.contains(Edge::new(at, v)) {
                let mut edges: Vec<Edge> = path.windows(2).map(|w| Edge::new(w[0], w[1])).collect();
                edges.push(Edge::new(at, v));
                edges.sort_unstable();
                out.push(edges);
            }
            return;
        }
        for n in g.neighbors(at).to_vec() {
            if n == v || path.contains(&n) {
                continue;
            }
            path.push(n);
            walk(g, path, v, k, out);
            path.pop();
        }
    }
    let mut out = Vec::new();
    walk(g, &mut vec![u], v, k, &mut out);
    out.sort();
    out
}

/// The sorted edge sets of `enumerate_target_subgraphs` for one target.
fn instance_sets(g: &Graph, t: Edge, motif: Motif) -> Vec<Vec<Edge>> {
    let mut sets: Vec<Vec<Edge>> = tpp_motif::enumerate_target_subgraphs(g, t.u(), t.v(), motif, 0)
        .into_iter()
        .map(|inst| inst.edges().to_vec())
        .collect();
    sets.sort();
    sets
}

/// Strategy: a random Erdős–Rényi or Holme–Kim graph with its targets
/// removed (phase 1).
fn er_or_hk_strategy() -> impl Strategy<Value = (Graph, Vec<Edge>)> {
    (0u8..2, 8usize..=40, 0u64..=5_000, 1usize..=3).prop_map(|(model, n, seed, tcount)| {
        if model == 0 {
            er_released_workload(n.min(24), seed, tcount)
        } else {
            tpp_bench::fixtures::hk_released_workload(n.max(12), seed)
        }
    })
}

/// The paper's three motifs plus a generalized-path representative, so the
/// Lemma 1-4 properties are exercised on the extension too.
const MOTIFS: [Motif; 4] = [
    Motif::Triangle,
    Motif::Rectangle,
    Motif::RecTri,
    Motif::KPath(4),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lemma 1 / 3: deleting more edges never increases similarity.
    #[test]
    fn dissimilarity_is_monotone((g, targets) in instance_strategy(), pick in 0usize..1000) {
        for motif in MOTIFS {
            let edges = g.edge_vec();
            if edges.is_empty() { continue; }
            let before = total_similarity(&g, &targets, motif);
            // Delete a growing prefix of a deterministic edge permutation:
            // every prefix is a superset of the previous one.
            let mut g2 = g.clone();
            let mut last = before;
            for (i, e) in edges.iter().enumerate().take(1 + pick % edges.len()) {
                g2.remove_edge(e.u(), e.v());
                let now = total_similarity(&g2, &targets, motif);
                prop_assert!(now <= last, "motif {motif}: similarity rose at step {i}");
                last = now;
            }
        }
    }

    /// Lemma 2 / 4: marginal gains shrink as the deleted set grows
    /// (submodularity): for A ⊆ B and any p ∉ B,
    /// gain_A(p) >= gain_B(p).
    #[test]
    fn dissimilarity_is_submodular((g, targets) in instance_strategy(), split in 0usize..1000, probe in 0usize..1000) {
        for motif in MOTIFS {
            let edges = g.edge_vec();
            if edges.len() < 3 { continue; }
            let cut = 1 + split % (edges.len() - 2);
            let (a_set, rest) = edges.split_at(cut / 2);
            let b_extra = &rest[..(cut - cut / 2)];
            let p = rest[(cut - cut / 2) + probe % (rest.len() - (cut - cut / 2))];

            // Graph minus A.
            let mut ga = g.clone();
            for e in a_set { ga.remove_edge(e.u(), e.v()); }
            // Graph minus B = A ∪ extra.
            let mut gb = ga.clone();
            for e in b_extra { gb.remove_edge(e.u(), e.v()); }

            let gain = |base: &Graph| {
                let before = total_similarity(base, &targets, motif);
                let mut after_g = base.clone();
                after_g.remove_edge(p.u(), p.v());
                before - total_similarity(&after_g, &targets, motif)
            };
            prop_assert!(
                gain(&ga) >= gain(&gb),
                "motif {motif}: submodularity violated at p = {p}"
            );
        }
    }

    /// The incremental coverage index agrees with fresh recounts after any
    /// deletion sequence, built on one thread and on several.
    #[test]
    fn index_matches_recount_after_deletions((g, targets) in instance_strategy(), order in 0usize..1000) {
        for motif in MOTIFS {
            for threads in [1usize, 3] {
                let mut index = build_on(&g, &targets, motif, threads);
                let mut g2 = g.clone();
                let mut edges = g.edge_vec();
                if edges.is_empty() { continue; }
                let rot = order % edges.len();
                edges.rotate_left(rot);
                for e in edges.iter().take(6) {
                    index.delete_edge(*e);
                    g2.remove_edge(e.u(), e.v());
                    prop_assert_eq!(
                        index.total_similarity(),
                        total_similarity(&g2, &targets, motif),
                        "motif {} t{} diverged after deleting {}", motif, threads, e
                    );
                    index.check_invariants();
                }
            }
        }
    }

    /// Instance gains reported by the index equal physical recount deltas,
    /// built on one thread and on several.
    #[test]
    fn index_gain_equals_recount_delta((g, targets) in instance_strategy()) {
        for motif in MOTIFS {
            let before = total_similarity(&g, &targets, motif);
            for threads in [1usize, 3] {
                let index = build_on(&g, &targets, motif, threads);
                prop_assert_eq!(index.total_similarity(), before);
                for p in index.all_candidate_edges().into_iter().take(10) {
                    let mut g2 = g.clone();
                    g2.remove_edge(p.u(), p.v());
                    let after = total_similarity(&g2, &targets, motif);
                    prop_assert_eq!(index.gain(p), before - after);
                    // gain vector consistency
                    let v = index.gain_vector(p);
                    prop_assert_eq!(v.iter().sum::<usize>(), index.gain(p));
                }
            }
        }
    }

    /// Randomized delete sequences keep the index consistent with a
    /// **freshly built** sequential index on the mutated graph — for
    /// indexes built and committed on 1, 2 and 3 threads: total and
    /// per-target similarities, the O(1) gains, and the alive-candidate
    /// list all match a from-scratch build after every deletion.
    #[test]
    fn partitioned_index_matches_fresh_build_after_deletions(
        (g, targets) in instance_strategy(),
        order in 0usize..1000,
    ) {
        for motif in MOTIFS {
            let mut indexes: Vec<PartitionedCoverageIndex> = [1usize, 2, 3]
                .iter()
                .map(|&threads| {
                    let mut idx = build_on(&g, &targets, motif, threads);
                    idx.set_parallelism(Parallelism::new(threads));
                    idx
                })
                .collect();
            let mut g2 = g.clone();
            let mut edges = g.edge_vec();
            if edges.is_empty() { continue; }
            let rot = order % edges.len();
            edges.rotate_left(rot);
            for e in edges.iter().take(5) {
                let broken: Vec<usize> =
                    indexes.iter_mut().map(|idx| idx.delete_edge(*e)).collect();
                prop_assert!(broken.windows(2).all(|w| w[0] == w[1]),
                    "thread counts disagree on delete({})", e);
                g2.remove_edge(e.u(), e.v());
                let fresh = build_on(&g2, &targets, motif, 1);
                let idx = &indexes[0];
                prop_assert_eq!(idx.total_similarity(), fresh.total_similarity(),
                    "motif {} diverged after deleting {}", motif, e);
                prop_assert_eq!(idx.similarities(), fresh.similarities());
                prop_assert_eq!(idx.alive_candidate_edges(),
                    fresh.alive_candidate_edges(), "candidates after {}", e);
                for p in fresh.alive_candidate_edges() {
                    prop_assert_eq!(idx.gain(p), fresh.gain(p), "gain({}) stale", p);
                    prop_assert_eq!(
                        idx.alive_instance_ids(p).len(), idx.gain(p),
                        "gain set of {} out of sync", p);
                }
            }
        }
    }

    /// Differential build harness: the index build (span-local arenas,
    /// then one count, prefix sum and fill) equals a test-local reference
    /// enumeration — per-target similarities, both candidate lists, gains,
    /// and per-edge alive-instance-id lists, order included — across build
    /// threads {1, 2, 4}, and stays equal under a shared deletion
    /// sequence.
    #[test]
    fn parallel_build_is_bit_identical_to_sequential(
        (g, targets) in instance_strategy(),
        order in 0usize..1000,
    ) {
        let mut edges = g.edge_vec();
        if !edges.is_empty() {
            let rot = order % edges.len();
            edges.rotate_left(rot);
        }
        for motif in MOTIFS {
            for threads in [1usize, 2, 4] {
                let what = format!("{motif} t{threads}");
                let mut idx = build_on(&g, &targets, motif, threads);
                let mut reference = Reference::new(&g, &targets, motif);
                assert_matches_reference(&idx, &reference, &what);

                // A shared deletion sequence keeps both equal.
                for e in edges.iter().take(4) {
                    prop_assert_eq!(idx.delete_edge(*e), reference.delete_edge(*e));
                    assert_matches_reference(&idx, &reference, &format!("{what} -{e}"));
                }
            }
        }
    }

    /// Edge insertions — alone and interleaved with deletions — keep the
    /// index consistent with a **fresh build** on the mutated graph:
    /// totals, per-target similarities, the alive-candidate list, and every
    /// gain, for indexes built and updated on 1, 2 and 4 threads. (Instance ids legitimately differ — a
    /// re-discovered instance gets a fresh id — so equivalence is on
    /// counts, candidates, and gains.) `KPath(5)` joins the motifs because
    /// it is the one motif whose insertions skip the radius-1 target
    /// filter: a 5-path's middle edge sits two hops from both terminals.
    #[test]
    fn insert_then_query_matches_fresh_build(
        (g, targets) in instance_strategy(),
        order in 0usize..1000,
    ) {
        for motif in MOTIFS.into_iter().chain([Motif::KPath(5)]) {
            // Candidate insertions: non-edges that are not target links.
            let n = g.node_count() as u32;
            let mut non_edges = Vec::new();
            'scan: for u in 0..n {
                for v in (u + 1)..n {
                    let e = Edge::new(u, v);
                    if !g.contains(e) && !targets.contains(&e) {
                        non_edges.push(e);
                        if non_edges.len() == 3 { break 'scan; }
                    }
                }
            }
            let mut edges = g.edge_vec();
            if edges.is_empty() || non_edges.is_empty() { continue; }
            let rot = order % edges.len();
            edges.rotate_left(rot);

            for threads in [1usize, 2, 4] {
                let mut idx = build_on(&g, &targets, motif, threads);
                idx.set_parallelism(Parallelism::new(threads));
                let mut live = g.clone();
                // Interleave inserts (from the non-edge pool) with
                // deletes (from the rotated edge permutation).
                let mut ops = Vec::new();
                for i in 0..non_edges.len().min(edges.len()) {
                    ops.push((true, non_edges[i]));
                    ops.push((false, edges[i]));
                }
                for (is_insert, e) in ops {
                    if is_insert {
                        live.add_edge(e.u(), e.v());
                        idx.insert_edge(&live, e);
                    } else {
                        live.remove_edge(e.u(), e.v());
                        idx.delete_edge(e);
                    }
                    let fresh = build_on(&live, &targets, motif, threads);
                    prop_assert_eq!(
                        idx.total_similarity(), fresh.total_similarity(),
                        "{} t{} total diverged after {} of {}",
                        motif, threads,
                        if is_insert { "insert" } else { "delete" }, e);
                    prop_assert_eq!(idx.similarities(), fresh.similarities());
                    prop_assert_eq!(
                        idx.alive_candidate_edges(),
                        fresh.alive_candidate_edges(),
                        "{} t{} candidates diverged after {}",
                        motif, threads, e);
                    for p in fresh.alive_candidate_edges() {
                        prop_assert_eq!(
                            idx.gain(p), fresh.gain(p),
                            "{} t{} gain({}) stale", motif, threads, p);
                    }
                    idx.check_invariants();
                }
            }
        }
    }

    /// The flat index against a naive reference recounted from the live
    /// graph, for every motif (plus `KPath(5)`, whose insertions skip the
    /// radius-1 target filter) on ER and Holme–Kim graphs: random
    /// `delete_edges` batches interleaved with `insert_edge`, built at one
    /// and two threads, and once more after `compact`. Gains, gain vectors
    /// and splits, alive instance ids (as the instances they name), both
    /// candidate lists, similarities and the internal invariants agree
    /// after every step.
    #[test]
    fn flat_index_matches_naive_reference_under_batches_and_inserts(
        (g, targets) in er_or_hk_strategy(),
        step_count in 1usize..8,
        script in 0u64..1_000_000_000,
        threads in 1usize..=2,
    ) {
        // `(insert?, pick, batch size)` per step, drawn from `script`.
        let mut state = script;
        let steps: Vec<(bool, usize, usize)> = (0..step_count)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                let r = (state >> 16) as usize;
                (r.is_multiple_of(3), r / 3 % 10_000, 1 + r / 30_000 % 4)
            })
            .collect();
        for motif in MOTIFS.into_iter().chain([Motif::KPath(5)]) {
            let mut idx = PartitionedCoverageIndex::build_parallel(
                &g, &targets, motif, 1, &Parallelism::new(threads));
            let mut reference = LiveReference::new(&g, &targets, motif);
            assert_matches_live_reference(&idx, &reference, &format!("{motif} build"));
            let mut live = g.clone();
            for (i, &(insert, pick, batch)) in steps.iter().enumerate() {
                let what = format!("{motif} t{threads} step {i}");
                if insert {
                    let n = live.node_count() as u32;
                    let absent: Vec<Edge> = (0..n)
                        .flat_map(|u| ((u + 1)..n).map(move |v| Edge::new(u, v)))
                        .filter(|e| !live.contains(*e) && !targets.contains(e))
                        .collect();
                    if absent.is_empty() { continue; }
                    let e = absent[pick % absent.len()];
                    live.add_edge(e.u(), e.v());
                    let before = reference.alive.len();
                    reference.recount(&live, &targets, motif);
                    prop_assert_eq!(idx.insert_edge(&live, e), reference.alive.len() - before,
                        "{} discovered", what);
                } else {
                    let edges = live.edge_vec();
                    if edges.is_empty() { continue; }
                    let chosen: Vec<Edge> = (0..batch)
                        .map(|j| edges[(pick + j * 7919) % edges.len()])
                        .fold(Vec::new(), |mut acc, e| {
                            if !acc.contains(&e) { acc.push(e); }
                            acc
                        });
                    // The first edge in input order is charged for an
                    // instance several batch edges share.
                    let mut expect = Vec::new();
                    for e in &chosen {
                        let before = reference.alive.len();
                        reference.alive.retain(|(_, edges)| !edges.contains(e));
                        expect.push(before - reference.alive.len());
                        live.remove_edge(e.u(), e.v());
                    }
                    prop_assert_eq!(idx.delete_edges(&chosen), expect, "{} broken", what);
                    reference.recount(&live, &targets, motif);
                }
                assert_matches_live_reference(&idx, &reference, &what);
            }
            idx.compact();
            reference.ever = reference.alive_candidate_edges().into_iter().collect();
            assert_matches_live_reference(&idx, &reference, &format!("{motif} compacted"));
        }
    }

    /// The half-path join finds exactly the simple k-paths a whole-path
    /// DFS finds, for every `k ∈ 2..=5`; counting agrees with it; and
    /// `KPath(2)` / `KPath(3)` are `Triangle` / `Rectangle` instance for
    /// instance.
    #[test]
    fn kpath_join_equals_whole_path_dfs((g, targets) in er_or_hk_strategy()) {
        for &t in &targets {
            for k in 2u8..=5 {
                let motif = Motif::KPath(k);
                let joined = instance_sets(&g, t, motif);
                prop_assert_eq!(
                    &joined,
                    &k_paths_by_dfs(&g, t.u(), t.v(), k as usize),
                    "{} at target {}", motif, t
                );
                prop_assert_eq!(
                    tpp_motif::count_target_subgraphs(&g, t.u(), t.v(), motif),
                    joined.len(),
                    "{} count at target {}", motif, t
                );
            }
            prop_assert_eq!(
                instance_sets(&g, t, Motif::KPath(2)),
                instance_sets(&g, t, Motif::Triangle)
            );
            prop_assert_eq!(
                instance_sets(&g, t, Motif::KPath(3)),
                instance_sets(&g, t, Motif::Rectangle)
            );
        }
    }

    /// Every enumerated instance has the right arity and all its edges
    /// really exist; and no instance contains a target link.
    #[test]
    fn instances_are_well_formed((g, targets) in instance_strategy()) {
        for motif in MOTIFS {
            for (idx, t) in targets.iter().enumerate() {
                let instances =
                    tpp_motif::enumerate_target_subgraphs(&g, t.u(), t.v(), motif, idx);
                for inst in &instances {
                    prop_assert!(inst.matches_arity(motif));
                    for e in inst.edges() {
                        prop_assert!(g.contains(*e), "instance edge {e} missing");
                        prop_assert!(!targets.contains(e), "instance uses target {e}");
                    }
                }
            }
        }
    }
}

/// Naive reference for the flat index under deletions and insertions:
/// the alive instances are recounted from the live graph at every step,
/// and every edge that was ever in an instance is remembered.
struct LiveReference {
    /// Alive instances as `(target, sorted edges)`, recounted.
    alive: Vec<(usize, Vec<Edge>)>,
    /// Edges of every instance seen so far, alive or dead.
    ever: std::collections::BTreeSet<Edge>,
    target_count: usize,
}

impl LiveReference {
    fn new(g: &Graph, targets: &[Edge], motif: Motif) -> Self {
        let mut r = LiveReference {
            alive: Vec::new(),
            ever: std::collections::BTreeSet::new(),
            target_count: targets.len(),
        };
        r.recount(g, targets, motif);
        r
    }

    fn recount(&mut self, g: &Graph, targets: &[Edge], motif: Motif) {
        self.alive.clear();
        for (ti, t) in targets.iter().enumerate() {
            for inst in tpp_motif::enumerate_target_subgraphs(g, t.u(), t.v(), motif, ti) {
                let mut edges = inst.edges().to_vec();
                edges.sort_unstable();
                self.ever.extend(edges.iter().copied());
                self.alive.push((ti, edges));
            }
        }
        self.alive.sort();
    }

    fn holding(&self, p: Edge) -> Vec<(usize, Vec<Edge>)> {
        let all = self.alive.iter().filter(|(_, edges)| edges.contains(&p));
        all.cloned().collect()
    }

    fn gain_vector(&self, p: Edge) -> Vec<usize> {
        let mut v = vec![0usize; self.target_count];
        for (ti, _) in self.holding(p) {
            v[ti] += 1;
        }
        v
    }

    fn similarities(&self) -> Vec<usize> {
        let mut v = vec![0usize; self.target_count];
        for (ti, _) in &self.alive {
            v[*ti] += 1;
        }
        v
    }

    fn alive_candidate_edges(&self) -> Vec<Edge> {
        let edges = self
            .alive
            .iter()
            .flat_map(|(_, edges)| edges.iter().copied());
        let set: std::collections::BTreeSet<Edge> = edges.collect();
        set.into_iter().collect()
    }
}

/// Asserts that `idx` answers every query like `reference`; instance ids
/// are compared as the sets of instances they name.
fn assert_matches_live_reference(
    idx: &PartitionedCoverageIndex,
    reference: &LiveReference,
    what: &str,
) {
    idx.check_invariants();
    assert_eq!(
        idx.total_similarity(),
        reference.alive.len(),
        "{what} total"
    );
    assert_eq!(
        idx.similarities(),
        reference.similarities(),
        "{what} per target"
    );
    let candidates = reference.alive_candidate_edges();
    assert_eq!(
        idx.alive_candidate_edges(),
        candidates,
        "{what} alive candidates"
    );
    let ever: Vec<Edge> = reference.ever.iter().copied().collect();
    assert_eq!(idx.all_candidate_edges(), ever, "{what} all candidates");
    // Alive ids ascend, and `alive_instances` walks them in that order.
    let mut alive_ids: Vec<InstanceId> = candidates
        .iter()
        .flat_map(|&p| idx.alive_instance_ids(p))
        .collect();
    alive_ids.sort_unstable();
    alive_ids.dedup();
    let by_id: BTreeMap<InstanceId, (usize, Vec<Edge>)> =
        alive_ids.into_iter().zip(idx.alive_instances()).collect();
    assert_eq!(by_id.len(), reference.alive.len(), "{what} alive instances");
    for &p in reference
        .ever
        .iter()
        .chain(&[Edge::new(0, 1), Edge::new(1000, 1001)])
    {
        let v = reference.gain_vector(p);
        assert_eq!(idx.gain(p), v.iter().sum::<usize>(), "{what} gain({p})");
        assert_eq!(idx.gain_vector(p), v, "{what} gain_vector({p})");
        for t in 0..reference.target_count {
            let own = v[t];
            let cross = v.iter().sum::<usize>() - own;
            assert_eq!(
                idx.gain_split(p, t),
                (own, cross),
                "{what} gain_split({p}, {t})"
            );
        }
        let mut named: Vec<(usize, Vec<Edge>)> = idx
            .alive_instance_ids(p)
            .iter()
            .map(|id| by_id[id].clone())
            .collect();
        named.sort();
        assert_eq!(
            named,
            reference.holding(p),
            "{what} alive_instance_ids({p})"
        );
    }
}

/// [`build_on`], returning how many jobs the build dispatched on the pool.
fn build_counted(
    g: &Graph,
    targets: &[Edge],
    motif: Motif,
    threads: usize,
) -> (PartitionedCoverageIndex, u64) {
    let recorder = tpp_obs::Recorder::enabled();
    let exec = Parallelism::new(threads).attach_recorder(recorder.clone());
    let idx = PartitionedCoverageIndex::build_parallel(g, targets, motif, 1, &exec);
    (idx, recorder.stats().unwrap().exec.dispatches.get())
}

/// The differential build harness at a scale where the parallel paths are
/// real: every build is heavy enough to be pooled at every width above
/// one (the test fails if one runs inline), so the enumeration phase cuts
/// many spans, whose edge tables the fill merges. The BA workload is
/// skewed by preferential attachment; the hub workload shares its hub
/// links across every target's instances.
#[test]
fn parallel_build_matches_sequential_on_ba_workload() {
    let ba = tpp_bench::fixtures::ba_released_workload(6000, 6, 17, 1500);
    let hub = tpp_bench::fixtures::hub_released_workload(2400, 40);
    let cases: [(&str, _, &[Motif]); 2] = [
        ("ba", ba, &[Motif::Triangle, Motif::Rectangle]),
        (
            "hub",
            hub,
            &[
                Motif::Triangle,
                Motif::Rectangle,
                Motif::RecTri,
                Motif::KPath(5),
            ],
        ),
    ];
    for (name, (g, targets), motifs) in cases {
        for &motif in motifs {
            let reference = Reference::new(&g, &targets, motif);
            for threads in [1usize, 2, 4] {
                let what = format!("{name} {motif} t{threads}");
                let (idx, dispatches) = build_counted(&g, &targets, motif, threads);
                assert_eq!(
                    dispatches > 0,
                    threads > 1,
                    "{what}: {dispatches} dispatches"
                );
                assert_matches_reference(&idx, &reference, &what);
            }
        }
    }
}
