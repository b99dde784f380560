//! Incremental SGB re-protection against a graph delta.
//!
//! Given a prior [`ProtectionPlan`] computed on a base graph and a small
//! edge delta (removals + insertions), [`sgb_greedy_incremental`] re-runs
//! the deterministic greedy loop on the mutated graph while **memoizing
//! every candidate gain the delta provably did not touch** — only the
//! *delta-dirty* candidates (computed once by [`delta_dirty_edges`] via
//! localized through-enumeration, no full re-enumeration) are re-scored
//! per round. The repaired plan is **bit-identical** to a from-scratch
//! [`sgb_greedy`](super::sgb_greedy) run on the mutated graph, for every
//! thread count (pinned by proptest); only the work differs.
//!
//! The memoization logic itself lives in
//! [`RoundEngine::run_global_memoized`] — this module wires it to the
//! oracle construction and owns the dirty-set computation.

use super::GreedyConfig;
use crate::engine::RoundEngine;
use crate::oracle::oracle_for;
use crate::plan::{AlgorithmKind, ProtectionPlan, StepRecord};
use crate::problem::TppInstance;
use tpp_graph::{Edge, FastSet, NeighborAccess};
use tpp_motif::{collect_instance_edges_through, Motif};

/// The candidate edges whose gain sets an edge delta could have touched:
/// every edge of every motif instance through a removed delta edge
/// (enumerated on the **pre-delta** released graph, where the edge still
/// exists) or through an added delta edge (on the **post-delta** released
/// graph). Everything outside this set keeps the gain the prior run
/// recorded, round for round, while the committed picks match — the
/// invariant [`RoundEngine::run_global_memoized`] exploits.
///
/// Both graphs must have all targets removed (phase 1), `removed` must be
/// edges of `base_released`, and `added` edges of `mutated_released` —
/// the canonical net-delta lists of a `tpp_store::DeltaView` satisfy all
/// three by construction.
#[must_use]
pub fn delta_dirty_edges<G: NeighborAccess, H: NeighborAccess>(
    base_released: &G,
    mutated_released: &H,
    targets: &[Edge],
    motif: Motif,
    removed: &[Edge],
    added: &[Edge],
) -> FastSet<Edge> {
    let mut dirty = FastSet::default();
    for &r in removed {
        collect_instance_edges_through(base_released, targets, motif, r, &mut dirty);
    }
    for &a in added {
        collect_instance_edges_through(mutated_released, targets, motif, a, &mut dirty);
    }
    dirty
}

/// Runs SGB-Greedy on the **mutated** instance with gain memoization
/// against `prior_steps` (the step records of a completed SGB run on the
/// pre-delta graph) and the `dirty` candidate set of the delta (from
/// [`delta_dirty_edges`]).
///
/// The returned plan is bit-identical to
/// [`sgb_greedy(instance, k, config)`](super::sgb_greedy) — same
/// protectors, same step records, same similarities — but each round
/// re-scores only the dirty candidates while the plan tracks the prior
/// one, falling back to a full scan only for rounds the memoized bound
/// cannot decide. Re-scored vs memoized counts land in the config
/// recorder's `update` stats section.
#[must_use]
pub fn sgb_greedy_incremental(
    instance: &TppInstance,
    k: usize,
    prior_steps: &[StepRecord],
    dirty: &FastSet<Edge>,
    config: &GreedyConfig,
) -> ProtectionPlan {
    let exec = config.parallelism();
    let mut engine = RoundEngine::new(oracle_for(instance, config, &exec), config.candidates, exec);
    engine.run_global_memoized(k, prior_steps, dirty);
    engine.into_global_plan(AlgorithmKind::SgbGreedy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::sgb_greedy;
    use tpp_graph::Graph;
    use tpp_store::DeltaView;

    /// A seeded ER instance (the same shape as `tpp_bench::fixtures::
    /// er_instance`, restated locally: `tpp-bench` depends on this crate).
    fn er_instance(n: usize, seed: u64, target_count: usize) -> TppInstance {
        let p = 0.18 + (seed % 20) as f64 / 100.0;
        let g = tpp_graph::generators::erdos_renyi_gnp(n, p, seed);
        let tcount = target_count.min(g.edge_count());
        TppInstance::with_random_targets(g, tcount.max(1), seed ^ 0xBEEF)
    }

    /// Applies a small delta to `g` (remove `removals` non-target edges,
    /// add `additions` non-edges), returning the mutated graph and the
    /// canonical (removed, added) lists.
    fn mutate<G: NeighborAccess>(
        g: &G,
        targets: &[Edge],
        removals: usize,
        additions: usize,
    ) -> (Graph, Vec<Edge>, Vec<Edge>) {
        let mut view = DeltaView::new(g);
        let mut removed = 0usize;
        for e in g.collect_edges() {
            if removed == removals {
                break;
            }
            if !targets.contains(&e) && view.delete_edge(e) {
                removed += 1;
            }
        }
        let mut added = 0usize;
        'outer: for u in 0..g.node_count() as u32 {
            for v in (u + 1)..g.node_count() as u32 {
                if added == additions {
                    break 'outer;
                }
                let e = Edge::new(u, v);
                if !g.has_edge(u, v) && !targets.contains(&e) && view.add_edge(e) {
                    added += 1;
                }
            }
        }
        (view.to_graph(), view.deleted_edges(), view.added_edges())
    }

    #[test]
    fn incremental_plan_is_bit_identical_to_from_scratch() {
        let base = er_instance(20, 77, 3);
        let targets = base.targets().to_vec();
        for (removals, additions) in [(2, 0), (0, 2), (2, 2)] {
            let (mutated_released, removed, added) =
                mutate(base.released(), &targets, removals, additions);
            // Reconstruct the mutated instance from the original graph plus
            // the delta (targets re-inserted so phase 1 re-removes them).
            let mut mutated_original = mutated_released.clone();
            for t in &targets {
                mutated_original.add_edge(t.u(), t.v());
            }
            let mutated = TppInstance::new(mutated_original, targets.clone()).unwrap();
            for motif in tpp_motif::Motif::ALL {
                let cfg = GreedyConfig::scalable(motif);
                let prior = sgb_greedy(&base, 4, &cfg);
                let dirty = delta_dirty_edges(
                    base.released(),
                    mutated.released(),
                    &targets,
                    motif,
                    &removed,
                    &added,
                );
                let scratch = sgb_greedy(&mutated, 4, &cfg);
                for threads in [1usize, 2, 4] {
                    let inc = sgb_greedy_incremental(
                        &mutated,
                        4,
                        &prior.steps,
                        &dirty,
                        &cfg.clone().with_threads(threads),
                    );
                    assert_eq!(
                        scratch, inc,
                        "{motif} -{removals}/+{additions} x{threads} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_delta_memoizes_every_round() {
        let base = er_instance(18, 31, 3);
        let cfg = GreedyConfig::scalable(tpp_motif::Motif::Triangle);
        let prior = sgb_greedy(&base, 3, &cfg);
        let obs_cfg = GreedyConfig {
            obs: crate::algorithms::ObsConfig::enabled(),
            ..cfg.clone()
        };
        let inc = sgb_greedy_incremental(&base, 3, &prior.steps, &FastSet::default(), &obs_cfg);
        assert_eq!(prior, inc, "identity delta must reproduce the prior plan");
        let st = obs_cfg.obs.recorder.stats().unwrap();
        assert_eq!(st.update.candidates_rescored.get(), 0);
        assert!(st.update.candidates_memoized.get() > 0);
    }

    #[test]
    fn incremental_handles_deleted_prior_protector() {
        // Remove the prior plan's first pick itself: the memoized rounds
        // must diverge immediately and still match from-scratch exactly.
        let base = er_instance(20, 5, 3);
        let targets = base.targets().to_vec();
        let motif = tpp_motif::Motif::Triangle;
        let cfg = GreedyConfig::scalable(motif);
        let prior = sgb_greedy(&base, 4, &cfg);
        let p0 = prior.protectors[0];
        let mut view = DeltaView::new(base.released());
        assert!(view.delete_edge(p0));
        let mutated_released = view.to_graph();
        let mut mutated_original = mutated_released.clone();
        for t in &targets {
            mutated_original.add_edge(t.u(), t.v());
        }
        let mutated = TppInstance::new(mutated_original, targets.clone()).unwrap();
        let dirty = delta_dirty_edges(
            base.released(),
            mutated.released(),
            &targets,
            motif,
            &[p0],
            &[],
        );
        let scratch = sgb_greedy(&mutated, 4, &cfg);
        let inc = sgb_greedy_incremental(&mutated, 4, &prior.steps, &dirty, &cfg);
        assert_eq!(scratch, inc);
    }
}
