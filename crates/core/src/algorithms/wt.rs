//! WT-Greedy (Algorithm 3): Within-Target greedy protector selection for
//! the Multi-Local-Budget problem. Targets are satisfied one after another;
//! the guarantee is `1 − e^{−(1−1/e)} ≈ 0.46` (Theorem 5).

use super::GreedyConfig;
use crate::engine::RoundEngine;
use crate::error::TppError;
use crate::oracle::oracle_for;
use crate::plan::{AlgorithmKind, ProtectionPlan};
use crate::problem::TppInstance;

/// Runs WT-Greedy with per-target budgets `budgets[t]`.
///
/// A strategy config on the [`RoundEngine`]: targets are processed in
/// declaration order, each spending its whole sub-budget through a lazy
/// gain queue that opens *only* the current target — the engine maximizes
/// the paper's `Δ_t^p = own + cross / C` (lexicographic `(own, cross)`:
/// own-target instance breaks dominate, cross-target assistance
/// tie-breaks). A globally exhausted round (no candidate breaks anything
/// anywhere) terminates the whole run, mirroring the paper's `return`.
///
/// # Errors
/// [`TppError::BudgetArityMismatch`] if `budgets.len() != |T|`.
pub fn wt_greedy(
    instance: &TppInstance,
    budgets: &[usize],
    config: &GreedyConfig,
) -> Result<ProtectionPlan, TppError> {
    wt_greedy_batch(instance, budgets, 1, config)
}

/// Runs WT-Greedy in **batch-commit rounds**: while a target's sub-budget
/// lasts, each round commits up to `min(j, remaining)` disjoint-gain-set
/// picks charged to the current target, popped from that target's lazy
/// gain queue (see [`RoundEngine::run_within_target`]).
///
/// `j = 1` produces plans bit-identical to [`wt_greedy`]. A round that
/// commits nothing means no candidate breaks anything anywhere — global
/// exhaustion terminates the whole run, mirroring the sequential loop.
///
/// # Errors
/// [`TppError::BudgetArityMismatch`] if `budgets.len() != |T|`.
pub fn wt_greedy_batch(
    instance: &TppInstance,
    budgets: &[usize],
    j: usize,
    config: &GreedyConfig,
) -> Result<ProtectionPlan, TppError> {
    if budgets.len() != instance.target_count() {
        return Err(TppError::BudgetArityMismatch {
            budgets: budgets.len(),
            targets: instance.target_count(),
        });
    }
    let exec = config.parallelism();
    let mut engine = RoundEngine::new(oracle_for(instance, config, &exec), config.candidates, exec);
    engine.run_within_target(budgets, j);
    Ok(engine.into_targeted_plan(AlgorithmKind::WtGreedy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::Edge;
    use tpp_graph::Graph;
    use tpp_motif::Motif;

    fn fixture() -> TppInstance {
        let g = Graph::from_edges([(0u32, 1u32), (0, 2), (0, 3), (3, 1), (3, 2), (0, 4), (4, 1)]);
        TppInstance::new(g, vec![Edge::new(0, 1), Edge::new(0, 2)]).unwrap()
    }

    #[test]
    fn processes_targets_in_order() {
        let inst = fixture();
        let plan = wt_greedy(&inst, &[1, 1], &GreedyConfig::scalable(Motif::Triangle)).unwrap();
        plan.check_invariants();
        // first step charged to target 0, second (if any) to target 1
        assert_eq!(plan.steps[0].charged_target, Some(0));
        if let Some(s) = plan.steps.get(1) {
            assert_eq!(s.charged_target, Some(1));
        }
    }

    #[test]
    fn own_gain_dominates_for_current_target() {
        let inst = fixture();
        // Target 0's candidates: (0,3)/(3,1) break the shared triangle
        // (own 1, cross 1 via (0,3)); (0,4)/(4,1) break the private one
        // (own 1, cross 0). Lexicographic picks (0,3): own equal, cross 1.
        let plan = wt_greedy(&inst, &[1, 0], &GreedyConfig::scalable(Motif::Triangle)).unwrap();
        assert_eq!(plan.protectors, vec![Edge::new(0, 3)]);
        assert_eq!(plan.steps[0].own_broken, 1);
        assert_eq!(plan.steps[0].total_broken, 2);
    }

    #[test]
    fn budget_arity_checked() {
        let inst = fixture();
        assert!(wt_greedy(&inst, &[1, 2, 3], &GreedyConfig::scalable(Motif::Triangle)).is_err());
    }

    #[test]
    fn within_target_never_exceeds_sub_budget() {
        let inst = fixture();
        let plan = wt_greedy(&inst, &[2, 1], &GreedyConfig::scalable(Motif::Triangle)).unwrap();
        assert!(plan.per_target[0].len() <= 2);
        assert!(plan.per_target[1].len() <= 1);
    }

    #[test]
    fn global_exhaustion_stops_early() {
        let inst = fixture();
        let plan = wt_greedy(&inst, &[50, 50], &GreedyConfig::scalable(Motif::Triangle)).unwrap();
        assert!(plan.is_full_protection());
        assert!(plan.deletions() <= 4);
    }

    #[test]
    fn evaluators_agree() {
        let inst = fixture();
        for motif in [Motif::Triangle, Motif::RecTri] {
            let a = wt_greedy(&inst, &[1, 2], &GreedyConfig::plain(motif)).unwrap();
            let b = wt_greedy(&inst, &[1, 2], &GreedyConfig::scalable(motif)).unwrap();
            assert_eq!(a.protectors, b.protectors, "{motif}");
        }
    }

    #[test]
    fn wt_never_beats_ct_or_sgb_on_shared_budget() {
        // The ordering SGB >= CT >= WT illustrated by the paper's Fig. 2.
        use crate::algorithms::{ct_greedy, sgb_greedy};
        let inst = fixture();
        let cfg = GreedyConfig::scalable(Motif::Triangle);
        let budgets = [1usize, 1];
        let k: usize = budgets.iter().sum();
        let sgb = sgb_greedy(&inst, k, &cfg);
        let ct = ct_greedy(&inst, &budgets, &cfg).unwrap();
        let wt = wt_greedy(&inst, &budgets, &cfg).unwrap();
        assert!(sgb.dissimilarity_gain() >= ct.dissimilarity_gain());
        assert!(ct.dissimilarity_gain() >= wt.dissimilarity_gain());
    }
}
