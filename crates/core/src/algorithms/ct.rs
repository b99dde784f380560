//! CT-Greedy (Algorithm 2): Cross-Target greedy protector selection for the
//! Multi-Local-Budget problem. An instance of submodular maximization over a
//! partition matroid, guaranteeing a `1/2` approximation (Theorem 4).

use super::GreedyConfig;
use crate::engine::RoundEngine;
use crate::error::TppError;
use crate::oracle::oracle_for;
use crate::plan::{AlgorithmKind, ProtectionPlan};
use crate::problem::TppInstance;

/// Runs CT-Greedy with per-target budgets `budgets[t]`.
///
/// A strategy config on the [`RoundEngine`]: every round opens the targets
/// with remaining budget, and the engine's lazy gain queue maximizes the
/// paper's `Δ_t^p = own + cross / C` over all `(target, protector)` pairs —
/// realized as the exact lexicographic order `(own, cross)` (equivalent
/// for any `C > max cross`, and immune to floating-point rounding). The
/// pick is charged to the chosen target's budget; the deletion itself
/// helps every target globally.
///
/// # Errors
/// [`TppError::BudgetArityMismatch`] if `budgets.len() != |T|`.
pub fn ct_greedy(
    instance: &TppInstance,
    budgets: &[usize],
    config: &GreedyConfig,
) -> Result<ProtectionPlan, TppError> {
    ct_greedy_batch(instance, budgets, 1, config)
}

/// Runs CT-Greedy in **batch-commit rounds**: each round commits up to
/// `j` picks whose gain sets are pairwise disjoint and whose charged
/// targets have budget room, popped from the one lazy gain queue of
/// [`RoundEngine::run_cross_target`] — cutting the number of commits by up
/// to `j`× on instances with many non-interacting protectors.
///
/// `j = 1` produces plans bit-identical to [`ct_greedy`]; larger `j` keeps
/// every accepted pick's recorded `(own, cross)` split exact (disjointness
/// makes the cached vectors the realized ones) but may order picks
/// differently than the strictly sequential greedy would.
///
/// # Errors
/// [`TppError::BudgetArityMismatch`] if `budgets.len() != |T|`.
pub fn ct_greedy_batch(
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
    engine.run_cross_target(budgets, j);
    Ok(engine.into_targeted_plan(AlgorithmKind::CtGreedy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::Edge;
    use tpp_graph::Graph;
    use tpp_motif::Motif;

    /// A fixture with one "shared" protector helping two targets and
    /// private protectors helping one each.
    fn fixture() -> TppInstance {
        // targets (0,1) and (0,2); node 3 adjacent to 0,1,2 (shared);
        // node 4 adjacent to 0,1 (private to target (0,1)).
        let g = Graph::from_edges([(0u32, 1u32), (0, 2), (0, 3), (3, 1), (3, 2), (0, 4), (4, 1)]);
        TppInstance::new(g, vec![Edge::new(0, 1), Edge::new(0, 2)]).unwrap()
    }

    #[test]
    fn respects_per_target_budgets() {
        let inst = fixture();
        let plan = ct_greedy(&inst, &[1, 1], &GreedyConfig::scalable(Motif::Triangle)).unwrap();
        plan.check_invariants();
        assert!(plan.per_target[0].len() <= 1);
        assert!(plan.per_target[1].len() <= 1);
        assert_eq!(plan.deletions(), plan.per_target.iter().map(Vec::len).sum());
    }

    #[test]
    fn budget_arity_checked() {
        let inst = fixture();
        let err = ct_greedy(&inst, &[1], &GreedyConfig::scalable(Motif::Triangle)).unwrap_err();
        assert_eq!(
            err,
            TppError::BudgetArityMismatch {
                budgets: 1,
                targets: 2
            }
        );
    }

    #[test]
    fn own_gain_dominates_cross_gain() {
        // The paper's §V-B point: a pick breaking 2 own + 2 cross beats one
        // breaking 1 own + 4 cross. Construct: target 0 has two triangles
        // sharing edge (0, 9); a rival edge breaks 1 own + many cross.
        let g = Graph::from_edges([
            (0u32, 1u32), // target 0 = (0, 1)
            (0, 9),
            (9, 1), // triangle A via 9
            (0, 8),
            (8, 1), // triangle B via 8
            (8, 9), // extra edge (noise)
        ]);
        let inst = TppInstance::new(g, vec![Edge::new(0, 1)]).unwrap();
        let plan = ct_greedy(&inst, &[1], &GreedyConfig::scalable(Motif::Triangle)).unwrap();
        // With one target everything is "own": the best single edge breaks 1
        // (no edge is shared between the two triangles).
        assert_eq!(plan.steps[0].own_broken, 1);
        plan.check_invariants();
    }

    #[test]
    fn zero_budget_targets_are_skipped_but_still_helped() {
        let inst = fixture();
        // Only target 0 has budget; the shared protector (0, 3) should be
        // picked (own 1, cross 1) and break target 1's instance as a side
        // effect.
        let plan = ct_greedy(&inst, &[1, 0], &GreedyConfig::scalable(Motif::Triangle)).unwrap();
        assert_eq!(plan.per_target[1].len(), 0);
        assert_eq!(plan.protectors, vec![Edge::new(0, 3)]);
        assert_eq!(plan.steps[0].own_broken, 1);
        assert_eq!(plan.steps[0].total_broken, 2, "cross-target side effect");
    }

    #[test]
    fn charged_targets_recorded() {
        let inst = fixture();
        let plan = ct_greedy(&inst, &[2, 2], &GreedyConfig::scalable(Motif::Triangle)).unwrap();
        for step in &plan.steps {
            let t = step.charged_target.expect("CT always charges a target");
            assert!(t < 2);
            assert!(plan.per_target[t].contains(&step.protector));
        }
    }

    #[test]
    fn evaluators_agree() {
        let inst = fixture();
        for motif in [Motif::Triangle, Motif::RecTri] {
            let a = ct_greedy(&inst, &[2, 1], &GreedyConfig::plain(motif)).unwrap();
            let b = ct_greedy(&inst, &[2, 1], &GreedyConfig::scalable(motif)).unwrap();
            assert_eq!(a.protectors, b.protectors, "{motif}");
            assert_eq!(a.per_target, b.per_target, "{motif}");
        }
    }

    #[test]
    fn stops_at_zero_gain_even_with_budget_left() {
        let inst = fixture();
        let plan = ct_greedy(&inst, &[100, 100], &GreedyConfig::scalable(Motif::Triangle)).unwrap();
        assert!(plan.is_full_protection());
        assert!(plan.deletions() < 200);
    }
}
