//! SGB-Greedy (Algorithm 1): Single-Global-Budget greedy protector
//! selection. Achieves a `1 − 1/e` approximation of the optimal protector
//! set (Theorem 3) because the dissimilarity is monotone submodular
//! (Lemmas 1–2).

use super::GreedyConfig;
use crate::engine::RoundEngine;
use crate::oracle::oracle_for;
use crate::plan::{AlgorithmKind, ProtectionPlan};
use crate::problem::TppInstance;

/// Runs SGB-Greedy with global budget `k`.
///
/// A pure strategy config on the [`RoundEngine`]: each round commits the
/// candidate with the highest dissimilarity gain `Δ_p` (ties broken toward
/// the canonically smallest edge) and stops early when no candidate breaks
/// any target subgraph. The rounds pop their picks from the engine's lazy
/// gain queue, so only stale heap tops are re-evaluated after one bound
/// sweep; `config.exec` shards that sweep without changing a single
/// pick.
#[must_use]
pub fn sgb_greedy(instance: &TppInstance, k: usize, config: &GreedyConfig) -> ProtectionPlan {
    sgb_greedy_batch(instance, k, 1, config)
}

/// Runs SGB-Greedy with global budget `k` in **batch-commit rounds**: each
/// round commits up to `j` picks whose gain sets are pairwise disjoint
/// (see [`RoundEngine::run_global`]), cutting the number of commits by up
/// to `j`× on instances with many non-interacting protectors.
///
/// `j = 1` produces plans bit-identical to [`sgb_greedy`]; larger `j`
/// keeps every accepted pick's recorded gain exact (disjointness makes the
/// scanned gains the realized ones) but may order picks differently than
/// the strictly sequential greedy would.
#[must_use]
pub fn sgb_greedy_batch(
    instance: &TppInstance,
    k: usize,
    j: usize,
    config: &GreedyConfig,
) -> ProtectionPlan {
    let exec = config.parallelism();
    let mut engine = RoundEngine::new(oracle_for(instance, config, &exec), config.candidates, exec);
    engine.run_global(k, j);
    engine.into_global_plan(AlgorithmKind::SgbGreedy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::Graph;
    use tpp_graph::{Edge, NeighborAccess};
    use tpp_motif::Motif;

    /// Shared-protector fixture: hub node 6 adjacent to everything, so
    /// edge (6, x) protectors cover instances of several targets at once.
    fn fixture() -> TppInstance {
        let g = tpp_graph::generators::complete_graph(7);
        let targets = vec![Edge::new(0, 1), Edge::new(2, 3)];
        TppInstance::new(g, targets).unwrap()
    }

    #[test]
    fn zero_budget_deletes_nothing() {
        let inst = fixture();
        let plan = sgb_greedy(&inst, 0, &GreedyConfig::scalable(Motif::Triangle));
        assert!(plan.protectors.is_empty());
        assert_eq!(plan.initial_similarity, plan.final_similarity);
        plan.check_invariants();
    }

    #[test]
    fn greedy_picks_highest_coverage_first() {
        // Two targets (0,1) and (0,2); protector (0,3) covers one triangle
        // of each; all other protectors cover exactly one.
        let g = Graph::from_edges([(0u32, 1u32), (0, 2), (0, 3), (3, 1), (3, 2), (4, 0), (4, 1)]);
        let inst = TppInstance::new(g, vec![Edge::new(0, 1), Edge::new(0, 2)]).unwrap();
        let plan = sgb_greedy(&inst, 1, &GreedyConfig::scalable(Motif::Triangle));
        assert_eq!(plan.protectors, vec![Edge::new(0, 3)]);
        assert_eq!(plan.steps[0].total_broken, 2);
        plan.check_invariants();
    }

    #[test]
    fn stops_when_gains_exhausted() {
        let inst = fixture();
        let plan = sgb_greedy(&inst, 10_000, &GreedyConfig::scalable(Motif::Triangle));
        assert!(plan.is_full_protection());
        assert!(plan.deletions() < 10_000, "early stop before budget");
        // Extra budget after full protection changes nothing.
        let plan2 = sgb_greedy(
            &inst,
            plan.deletions() + 5,
            &GreedyConfig::scalable(Motif::Triangle),
        );
        assert_eq!(plan.protectors, plan2.protectors);
    }

    #[test]
    fn plain_and_scalable_agree() {
        // Same picks regardless of evaluator/candidate policy: zero-gain
        // edges never win, and tie-breaking is canonical in both paths.
        let inst = fixture();
        for motif in Motif::ALL {
            let a = sgb_greedy(&inst, 6, &GreedyConfig::plain(motif));
            let b = sgb_greedy(&inst, 6, &GreedyConfig::scalable(motif));
            let c = sgb_greedy(&inst, 6, &GreedyConfig::indexed_all_edges(motif));
            let d = sgb_greedy(&inst, 6, &GreedyConfig::snapshot(motif));
            assert_eq!(a.protectors, b.protectors, "{motif}");
            assert_eq!(a.protectors, c.protectors, "{motif}");
            assert_eq!(a.protectors, d.protectors, "{motif} snapshot path");
            assert_eq!(a.final_similarity, b.final_similarity);
            assert_eq!(a.final_similarity, d.final_similarity);
            a.check_invariants();
            b.check_invariants();
            d.check_invariants();
        }
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let g = tpp_graph::generators::holme_kim(200, 4, 0.5, 6);
        let inst = TppInstance::with_random_targets(g, 8, 6);
        for motif in Motif::ALL {
            let seq = sgb_greedy(&inst, 12, &GreedyConfig::scalable(motif));
            for threads in [1, 2, 4, 7] {
                let config = GreedyConfig::scalable(motif).with_threads(threads);
                let par = sgb_greedy(&inst, 12, &config);
                assert_eq!(seq.protectors, par.protectors, "{motif} x{threads}");
                assert_eq!(seq.final_similarity, par.final_similarity);
            }
        }
    }

    #[test]
    fn full_protection_parallel() {
        let g = tpp_graph::generators::holme_kim(150, 4, 0.4, 2);
        let inst = TppInstance::with_random_targets(g, 6, 2);
        let config = GreedyConfig::scalable(Motif::Triangle).with_threads(4);
        let plan = sgb_greedy(&inst, usize::MAX, &config);
        assert!(plan.is_full_protection());
        plan.check_invariants();
    }

    #[test]
    fn trajectory_is_monotone_decreasing() {
        let inst = fixture();
        let plan = sgb_greedy(&inst, 8, &GreedyConfig::scalable(Motif::RecTri));
        let traj = plan.similarity_trajectory();
        assert!(traj.windows(2).all(|w| w[1] < w[0]), "every pick must help");
    }

    #[test]
    fn protectors_are_never_targets() {
        let inst = fixture();
        let plan = sgb_greedy(&inst, 20, &GreedyConfig::scalable(Motif::Triangle));
        for p in &plan.protectors {
            assert!(!inst.targets().contains(p));
            assert!(
                inst.released().has_edge(p.u(), p.v()),
                "protector must be a real edge"
            );
        }
    }

    #[test]
    fn greedy_matches_bruteforce_on_small_instance() {
        // Exhaustive optimum over all protector pairs; greedy must achieve
        // at least (1 - 1/e) of it (Theorem 3). On this instance it is
        // actually optimal.
        let inst = fixture();
        let idx = inst.build_index(Motif::Triangle);
        let cands = idx.all_candidate_edges();
        let k = 2;
        let mut opt = 0usize;
        for i in 0..cands.len() {
            for j in (i + 1)..cands.len() {
                let mut trial = inst.build_index(Motif::Triangle);
                let mut broken = 0;
                broken += trial.delete_edge(cands[i]);
                broken += trial.delete_edge(cands[j]);
                opt = opt.max(broken);
            }
        }
        let plan = sgb_greedy(&inst, k, &GreedyConfig::scalable(Motif::Triangle));
        let greedy_gain = plan.dissimilarity_gain();
        assert!(
            greedy_gain as f64 >= (1.0 - 1.0 / std::f64::consts::E) * opt as f64,
            "greedy {greedy_gain} below bound vs opt {opt}"
        );
    }
}
