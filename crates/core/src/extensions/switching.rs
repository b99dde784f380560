//! Link switching as an (anti-)baseline — the paper's §VI-D shows the
//! dissimilarity under random switching is **not monotone**: the addition
//! half of a switch can mint fresh motif evidence for a hidden target.
//! This module makes that failure executable and measurable.
//!
//! Perturbations are evaluated over a [`DeltaView`] overlay of the released
//! graph: deletions/additions live in the overlay, motif recounts run over
//! the view, and the released graph is never cloned or mutated during
//! evaluation. The perturbed graph is materialized once, only for the
//! returned [`SwitchOutcome`]; the trial loop of [`backfire_rate`] shares
//! one immutable CSR snapshot across all trials and materializes nothing.

use crate::problem::TppInstance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tpp_exec::Parallelism;
use tpp_graph::{Edge, NeighborAccess, NodeId};
use tpp_motif::{count_all_targets, Motif};
use tpp_store::{CsrGraph, DeltaView};

/// Outcome of a random link-switching perturbation.
#[derive(Debug, Clone)]
pub struct SwitchOutcome {
    /// Edges deleted in step 1.
    pub deleted: Vec<Edge>,
    /// Edges added in step 2.
    pub added: Vec<Edge>,
    /// Total target similarity before switching.
    pub similarity_before: usize,
    /// Total target similarity after switching.
    pub similarity_after: usize,
    /// The perturbed graph.
    pub graph: CsrGraph,
}

impl SwitchOutcome {
    /// `true` when the switch *increased* the adversary's evidence —
    /// the monotonicity failure the paper warns about.
    #[must_use]
    pub fn backfired(&self) -> bool {
        self.similarity_after > self.similarity_before
    }
}

/// Applies the two-step random switch to an overlay view: delete `k`
/// random live links, then add `k` random links between unconnected pairs
/// (never a target). Returns the `(deleted, added)` script.
fn switch_on_view<B: NeighborAccess>(
    view: &mut DeltaView<B>,
    targets: &[Edge],
    k: usize,
    rng: &mut StdRng,
) -> (Vec<Edge>, Vec<Edge>) {
    // Step 1: delete k random existing links.
    let mut deleted = Vec::with_capacity(k);
    let mut edges = view.collect_edges();
    for _ in 0..k.min(edges.len()) {
        let i = rng.gen_range(0..edges.len());
        let e = edges.swap_remove(i);
        view.delete_edge(e);
        deleted.push(e);
    }

    // Step 2: add k random links between unconnected pairs.
    let n = view.node_count();
    let mut added = Vec::with_capacity(k);
    let mut guard = 0usize;
    while added.len() < k && guard < 1000 * k.max(8) {
        guard += 1;
        let a = rng.gen_range(0..n) as NodeId;
        let b = rng.gen_range(0..n) as NodeId;
        if a == b {
            continue;
        }
        let e = Edge::new(a, b);
        if view.has_edge(a, b) || targets.contains(&e) {
            continue;
        }
        view.add_edge(e);
        added.push(e);
    }
    (deleted, added)
}

/// Random link switching per the paper's two-step description: delete `k`
/// random existing links, then add `k` random links between unconnected
/// pairs. Target links are never re-added.
#[must_use]
pub fn random_switch(instance: &TppInstance, k: usize, motif: Motif, seed: u64) -> SwitchOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = instance.released();
    let similarity_before = count_all_targets(base, instance.targets(), motif)
        .iter()
        .sum();

    let mut view = DeltaView::new(base);
    let (deleted, added) = switch_on_view(&mut view, instance.targets(), k, &mut rng);

    let similarity_after = count_all_targets(&view, instance.targets(), motif)
        .iter()
        .sum();
    SwitchOutcome {
        deleted,
        added,
        similarity_before,
        similarity_after,
        graph: CsrGraph::from_access(&view),
    }
}

/// Runs `trials` independent random switches and returns how many backfired
/// (similarity increased) — an empirical estimate of the §VI-D failure rate.
///
/// All trials share the instance's [`crate::Release`]; each trial is an overlay that is dropped without ever
/// materializing a perturbed graph. Equivalent to
/// [`backfire_rate_parallel`] with one thread.
#[must_use]
pub fn backfire_rate(instance: &TppInstance, k: usize, motif: Motif, trials: u64) -> f64 {
    backfire_rate_parallel(instance, k, motif, trials, 1)
}

/// [`backfire_rate`] with the trial loop split across `threads` workers
/// (`0` = all available cores) via the round engine's partition-range
/// work splitting. Trials are seeded independently (`seed = trial index`),
/// so the estimate is bit-identical for every thread count.
#[must_use]
pub fn backfire_rate_parallel(
    instance: &TppInstance,
    k: usize,
    motif: Motif,
    trials: u64,
    threads: usize,
) -> f64 {
    let snapshot = instance.released();
    let before: usize = count_all_targets(snapshot, instance.targets(), motif)
        .iter()
        .sum();
    // One seed range per worker, streamed — memory stays O(threads), not
    // O(trials), so hundred-million-trial estimates don't materialize a
    // seed vector. Counting is order-independent, so the estimate is
    // bit-identical for every thread count. All ranges of this estimate
    // share one executor pool (spawned here, per call — repeated
    // estimates that want to amortize it can hold their own handle once
    // a &Parallelism-taking variant is needed).
    let exec = Parallelism::new(threads);
    let threads = exec.threads() as u64;
    let chunk = trials.div_ceil(threads).max(1);
    let ranges: Vec<(u64, u64)> = (0..threads)
        .map(|i| (i * chunk, ((i + 1) * chunk).min(trials)))
        .filter(|&(lo, hi)| lo < hi)
        .collect();
    // A trial makes `k` switches, then recounts every target.
    let weights = || {
        let trial: usize = (instance.targets().iter())
            .map(|t| tpp_motif::enumeration_cost(snapshot, t.u(), t.v(), motif))
            .sum::<usize>()
            + k;
        let weights: Vec<usize> = (ranges.iter())
            .map(|&(lo, hi)| trial.saturating_mul((hi - lo) as usize))
            .collect();
        Some(weights.into())
    };
    // The trials of one seed range that backfired.
    let backfires = |&(lo, hi): &(u64, u64)| {
        (lo..hi)
            .filter(|&seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut view = DeltaView::new(snapshot);
                switch_on_view(&mut view, instance.targets(), k, &mut rng);
                let after: usize = count_all_targets(&view, instance.targets(), motif)
                    .iter()
                    .sum();
                after > before
            })
            .count() as u64
    };
    let counts: Vec<u64> = exec.steal_spans(
        &ranges,
        weights,
        || (),
        |(), span| span.iter().map(backfires).sum(),
    );
    counts.iter().sum::<u64>() as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::generators::holme_kim;

    fn instance() -> TppInstance {
        let g = holme_kim(150, 4, 0.5, 8);
        TppInstance::with_random_targets(g, 6, 8)
    }

    #[test]
    fn switch_preserves_edge_count() {
        let inst = instance();
        let out = random_switch(&inst, 10, Motif::Triangle, 1);
        assert_eq!(out.deleted.len(), 10);
        assert_eq!(out.added.len(), 10);
        assert_eq!(out.graph.edge_count(), inst.released().edge_count());
        out.graph.check_invariants();
        // never resurrects a target
        for t in inst.targets() {
            assert!(!out.graph.has_edge(t.u(), t.v()));
        }
    }

    #[test]
    fn switching_sometimes_backfires() {
        // The §VI-D claim: there exist switches that increase evidence.
        let inst = instance();
        let rate = backfire_rate(&inst, 15, Motif::Triangle, 40);
        assert!(
            rate > 0.0,
            "expected at least one backfiring switch in 40 trials"
        );
    }

    #[test]
    fn greedy_never_backfires_by_construction() {
        // Contrast: pure deletion can only reduce evidence.
        let inst = instance();
        for seed in 0..20 {
            let plan = crate::baselines::random_deletion(&inst, 15, Motif::Triangle, seed);
            assert!(plan.final_similarity <= plan.initial_similarity);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = instance();
        let a = random_switch(&inst, 5, Motif::Triangle, 7);
        let b = random_switch(&inst, 5, Motif::Triangle, 7);
        assert_eq!(a.deleted, b.deleted);
        assert_eq!(a.added, b.added);
    }

    #[test]
    fn overlay_and_materialized_agree() {
        // The outcome's similarity numbers, recomputed on the materialized
        // graph, must equal the overlay recount used internally.
        let inst = instance();
        for seed in [0, 3, 9] {
            let out = random_switch(&inst, 12, Motif::Triangle, seed);
            let recount: usize = count_all_targets(&out.graph, inst.targets(), Motif::Triangle)
                .iter()
                .sum();
            assert_eq!(recount, out.similarity_after, "seed {seed}");
        }
    }

    #[test]
    fn backfire_rate_is_thread_invariant() {
        let inst = instance();
        let base = backfire_rate(&inst, 8, Motif::Triangle, 10);
        for threads in [2usize, 3, 0] {
            let par = backfire_rate_parallel(&inst, 8, Motif::Triangle, 10, threads);
            assert!((base - par).abs() < 1e-15, "x{threads}: {base} vs {par}");
        }
    }

    #[test]
    fn backfire_rate_matches_per_trial_outcomes() {
        // The snapshot-sharing fast path must agree with running each
        // trial through random_switch.
        let inst = instance();
        let trials = 12u64;
        let slow = (0..trials)
            .filter(|&s| random_switch(&inst, 8, Motif::Triangle, s).backfired())
            .count() as f64
            / trials as f64;
        let fast = backfire_rate(&inst, 8, Motif::Triangle, trials);
        assert!((slow - fast).abs() < 1e-12, "slow {slow} vs fast {fast}");
    }
}
