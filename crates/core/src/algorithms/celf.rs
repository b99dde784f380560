//! CELF lazy greedy (Leskovec et al. 2007) — an ablation of SGB-Greedy
//! that exploits submodularity: a candidate's cached gain is an upper bound
//! on its current gain, so most candidates never need re-evaluation.
//! SGB-Greedy now pops its picks from the same lazy gain queue, so CELF
//! does the same work and produces *identical output* at `j = 1`; the two
//! differ only in how a batch round (`j > 1`) handles a conflicting pick.

use super::GreedyConfig;
use crate::engine::RoundEngine;
use crate::oracle::oracle_for;
use crate::plan::{AlgorithmKind, ProtectionPlan};
use crate::problem::TppInstance;

/// Runs the CELF lazy variant of SGB-Greedy with global budget `k`.
///
/// A strategy config on the [`RoundEngine`]'s lazy gain queue: one initial
/// bound sweep (inline on the index oracle, whose probes are count reads;
/// pooled on `config.exec` when its probes are worth a dispatch), then
/// incremental refreshes. The plan is bit-identical to
/// [`sgb_greedy`](crate::sgb_greedy) under the same config. All evaluators
/// are supported.
#[must_use]
pub fn celf_greedy(instance: &TppInstance, k: usize, config: &GreedyConfig) -> ProtectionPlan {
    celf_greedy_batch(instance, k, 1, config)
}

/// Runs the CELF + batch hybrid with global budget `k`: each lazy round
/// pops up to `j` fresh heap tops whose gain sets are pairwise disjoint
/// and commits them as one batch (see [`RoundEngine::run_global_lazy`]);
/// a conflicting top closes the round and is re-evaluated in the next
/// one, where [`sgb_greedy_batch`](crate::sgb_greedy_batch) sets it aside
/// and keeps filling the round.
///
/// `j = 1` produces plans bit-identical to [`celf_greedy`] (and therefore
/// to [`sgb_greedy`](crate::sgb_greedy)); larger `j` keeps every recorded
/// gain exact but may order picks differently than the strictly
/// sequential greedy would — the same trade as
/// [`sgb_greedy_batch`](crate::sgb_greedy_batch).
#[must_use]
pub fn celf_greedy_batch(
    instance: &TppInstance,
    k: usize,
    j: usize,
    config: &GreedyConfig,
) -> ProtectionPlan {
    let exec = config.parallelism();
    let mut engine = RoundEngine::new(oracle_for(instance, config, &exec), config.candidates, exec);
    engine.run_global_lazy(k, j);
    engine.into_global_plan(AlgorithmKind::CelfGreedy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StepRecord;
    use std::cmp::Reverse;
    use tpp_motif::Motif;

    /// Eager SGB, independent of the round engine: each round walks the
    /// oracle's candidates, commits the first maximum gain above 0 (ties
    /// to the smallest edge) and records the step.
    fn eager_sgb(instance: &TppInstance, k: usize, config: &GreedyConfig) -> ProtectionPlan {
        let exec = config.parallelism();
        let mut oracle = oracle_for(instance, config, &exec);
        let initial = oracle.total_similarity();
        let mut plan = ProtectionPlan {
            algorithm: AlgorithmKind::SgbGreedy,
            protectors: Vec::new(),
            initial_similarity: initial,
            final_similarity: initial,
            steps: Vec::new(),
            per_target: Vec::new(),
        };
        while plan.protectors.len() < k {
            let candidates = oracle.candidates(config.candidates);
            let best = (candidates.into_iter())
                .map(|p| (oracle.gain(p), Reverse(p)))
                .filter(|&(gain, _)| gain > 0)
                .max();
            let Some((gain, Reverse(p))) = best else {
                break;
            };
            let broken = oracle.commit(p);
            assert_eq!(broken, gain, "eager gain must realize");
            plan.protectors.push(p);
            plan.final_similarity = oracle.total_similarity();
            plan.steps.push(StepRecord {
                round: plan.steps.len(),
                protector: p,
                charged_target: None,
                own_broken: broken,
                total_broken: broken,
                similarity_after: plan.final_similarity,
            });
        }
        plan
    }

    #[test]
    fn celf_matches_sgb_exactly() {
        for seed in 0..5u64 {
            let g = tpp_graph::generators::erdos_renyi_gnp(30, 0.2, seed);
            let inst = TppInstance::with_random_targets(g, 4, seed);
            for motif in Motif::ALL {
                let cfg = GreedyConfig::scalable(motif);
                let sgb = eager_sgb(&inst, 8, &cfg);
                let celf = celf_greedy(&inst, 8, &cfg);
                assert_eq!(
                    sgb.protectors, celf.protectors,
                    "seed {seed} motif {motif}: divergent picks"
                );
                assert_eq!(sgb.final_similarity, celf.final_similarity);
            }
        }
    }

    #[test]
    fn celf_full_protection() {
        let g = tpp_graph::generators::complete_graph(8);
        let inst = TppInstance::with_random_targets(g, 3, 1);
        let plan = celf_greedy(&inst, usize::MAX, &GreedyConfig::scalable(Motif::Triangle));
        assert!(plan.is_full_protection());
        plan.check_invariants();
    }

    #[test]
    fn zero_budget() {
        let g = tpp_graph::generators::complete_graph(5);
        let inst = TppInstance::with_random_targets(g, 2, 3);
        let plan = celf_greedy(&inst, 0, &GreedyConfig::scalable(Motif::Triangle));
        assert!(plan.protectors.is_empty());
    }
}
