//! The paper's two baselines (§VI-A): RD (uniform random link deletion) and
//! RDT (random deletion restricted to target-subgraph edges).

use crate::oracle::{GainOracle, IndexOracle};
use crate::plan::{AlgorithmKind, ProtectionPlan, StepRecord};
use crate::problem::TppInstance;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tpp_graph::{Edge, NeighborAccess};
use tpp_motif::Motif;

/// RD: deletes `k` links drawn uniformly at random from the released edge
/// set. The weakest baseline — most deletions touch no target subgraph.
#[must_use]
pub fn random_deletion(
    instance: &TppInstance,
    k: usize,
    motif: Motif,
    seed: u64,
) -> ProtectionPlan {
    let mut pool = instance.released().collect_edges();
    let mut rng = StdRng::seed_from_u64(seed);
    pool.shuffle(&mut rng);
    pool.truncate(k);
    let oracle = IndexOracle::new(instance.released(), instance.targets(), motif);
    apply_fixed_deletions(oracle, pool, AlgorithmKind::RandomDeletion)
}

/// RDT: deletes `k` links drawn uniformly at random from the edges that
/// participate in at least one target subgraph ("randomly select k links
/// from many of the target subgraphs"). If fewer than `k` such edges exist,
/// all of them are deleted.
#[must_use]
pub fn random_deletion_from_subgraphs(
    instance: &TppInstance,
    k: usize,
    motif: Motif,
    seed: u64,
) -> ProtectionPlan {
    let oracle = IndexOracle::new(instance.released(), instance.targets(), motif);
    let mut pool = oracle.index().all_candidate_edges();
    let mut rng = StdRng::seed_from_u64(seed);
    pool.shuffle(&mut rng);
    pool.truncate(k);
    apply_fixed_deletions(oracle, pool, AlgorithmKind::RandomFromSubgraphs)
}

/// Deletes a predetermined edge list, recording the similarity trajectory
/// through the coverage index (the baselines never *compute* gains — they
/// only pay for deletions — so measured running time stays baseline-cheap).
fn apply_fixed_deletions(
    mut oracle: IndexOracle<'_>,
    deletions: Vec<Edge>,
    algorithm: AlgorithmKind,
) -> ProtectionPlan {
    let initial = oracle.total_similarity();
    let mut steps = Vec::with_capacity(deletions.len());
    for (round, &p) in deletions.iter().enumerate() {
        let broken = oracle.commit(p);
        steps.push(StepRecord {
            round,
            protector: p,
            charged_target: None,
            own_broken: broken,
            total_broken: broken,
            similarity_after: oracle.total_similarity(),
        });
    }
    ProtectionPlan {
        algorithm,
        protectors: deletions,
        initial_similarity: initial,
        final_similarity: oracle.total_similarity(),
        steps,
        per_target: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::generators::complete_graph;

    fn fixture() -> TppInstance {
        TppInstance::with_random_targets(complete_graph(10), 4, 7)
    }

    #[test]
    fn rd_deletes_exactly_k_random_edges() {
        let inst = fixture();
        let plan = random_deletion(&inst, 6, Motif::Triangle, 3);
        plan.check_invariants();
        assert_eq!(plan.deletions(), 6);
        for p in &plan.protectors {
            assert!(inst.released().has_edge(p.u(), p.v()));
        }
    }

    #[test]
    fn rdt_only_touches_subgraph_edges() {
        let inst = fixture();
        let index = inst.build_index(Motif::Triangle);
        let candidate_set: tpp_graph::FastSet<Edge> =
            index.all_candidate_edges().into_iter().collect();
        let plan = random_deletion_from_subgraphs(&inst, 8, Motif::Triangle, 5);
        plan.check_invariants();
        for p in &plan.protectors {
            assert!(candidate_set.contains(p), "{p} not a subgraph edge");
        }
    }

    #[test]
    fn rdt_truncates_to_pool_size() {
        let inst = fixture();
        let index = inst.build_index(Motif::Triangle);
        let pool = index.all_candidate_edges().len();
        let plan = random_deletion_from_subgraphs(&inst, pool + 100, Motif::Triangle, 5);
        assert_eq!(plan.deletions(), pool);
        assert!(plan.is_full_protection(), "deleting every subgraph edge");
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = fixture();
        let a = random_deletion(&inst, 5, Motif::Triangle, 9);
        let b = random_deletion(&inst, 5, Motif::Triangle, 9);
        assert_eq!(a.protectors, b.protectors);
        let c = random_deletion(&inst, 5, Motif::Triangle, 10);
        assert_ne!(a.protectors, c.protectors);
    }

    #[test]
    fn rdt_usually_beats_rd() {
        // Statistical, but deterministic for fixed seeds: averaged over
        // seeds, targeted random deletion breaks at least as many instances.
        let inst = fixture();
        let k = 5;
        let (mut rd_total, mut rdt_total) = (0usize, 0usize);
        for seed in 0..20 {
            rd_total += random_deletion(&inst, k, Motif::Triangle, seed).dissimilarity_gain();
            rdt_total += random_deletion_from_subgraphs(&inst, k, Motif::Triangle, seed)
                .dissimilarity_gain();
        }
        assert!(
            rdt_total > rd_total,
            "RDT {rdt_total} should beat RD {rd_total} on average"
        );
    }
}
