//! End-to-end pipeline test spanning every crate: generate a social graph,
//! sample targets, protect with each algorithm, verify the released graph
//! physically, and measure the utility cost.

use tpp::prelude::*;

fn instance() -> TppInstance {
    let g = tpp::graph::generators::holme_kim(400, 5, 0.5, 11);
    TppInstance::with_random_targets(g, 8, 11)
}

#[test]
fn every_algorithm_round_trips_through_the_release() {
    let inst = instance();
    for motif in [Motif::Triangle, Motif::Rectangle, Motif::RecTri] {
        let cfg = GreedyConfig::scalable(motif);
        let budgets = divide_budget(BudgetDivision::Tbd, 10, &inst, motif);
        let plans = vec![
            sgb_greedy(&inst, 10, &cfg),
            celf_greedy(&inst, 10, &cfg),
            ct_greedy(&inst, &budgets, &cfg).unwrap(),
            wt_greedy(&inst, &budgets, &cfg).unwrap(),
            random_deletion(&inst, 10, motif, 5),
            random_deletion_from_subgraphs(&inst, 10, motif, 5),
        ];
        for plan in plans {
            plan.check_invariants();
            // independent recount on the physically released graph
            let recount = tpp::core::verify_plan(&inst, &plan, motif);
            assert_eq!(recount, plan.final_similarity, "{motif} {}", plan.algorithm);
            // released graph structure is coherent
            let released = inst.apply_protectors(&plan.protectors);
            tpp_store::CsrGraph::from_access(&released).check_invariants();
            assert_eq!(
                released.edge_count(),
                inst.released().edge_count() - plan.deletions()
            );
        }
    }
}

#[test]
fn full_protection_is_reachable_and_verifiable() {
    let inst = instance();
    for motif in [Motif::Triangle, Motif::RecTri] {
        let (k_star, plan) = critical_budget(&inst, motif);
        assert!(plan.is_full_protection());
        assert_eq!(k_star, plan.deletions());
        let released = inst.apply_protectors(&plan.protectors);
        // physically recount: no motif instance survives for any target
        for t in inst.targets() {
            assert_eq!(
                tpp::motif::count_target_subgraphs(&released, t.u(), t.v(), motif),
                0,
                "{motif}: target {t} still has evidence"
            );
        }
    }
}

#[test]
fn protection_costs_little_utility() {
    let inst = instance();
    let (_, plan) = critical_budget(&inst, Motif::Triangle);
    let released = inst.apply_protectors(&plan.protectors);
    let report = utility_loss(inst.original(), &released, &UtilityConfig::full(1));
    assert!(
        report.average < 0.15,
        "full protection should be cheap, got {}",
        report.average_percent()
    );
}

#[test]
fn greedy_budget_efficiency_ordering() {
    // At the same spent budget, SGB >= CT >= WT in broken evidence,
    // mirroring the paper's Fig. 2 example and Fig. 3 curves.
    let inst = instance();
    let motif = Motif::Triangle;
    let cfg = GreedyConfig::scalable(motif);
    let budgets = divide_budget(BudgetDivision::Tbd, 12, &inst, motif);
    let spendable: usize = budgets.iter().sum();
    let sgb = sgb_greedy(&inst, spendable, &cfg);
    let ct = ct_greedy(&inst, &budgets, &cfg).unwrap();
    let wt = wt_greedy(&inst, &budgets, &cfg).unwrap();
    assert!(sgb.dissimilarity_gain() >= ct.dissimilarity_gain());
    assert!(ct.dissimilarity_gain() >= wt.dissimilarity_gain());
}

#[test]
fn datasets_feed_the_pipeline() {
    // The dataset substitutes work end-to-end at their unit-test scales.
    let arenas = tpp::datasets::arenas_email_like(5);
    let inst = TppInstance::with_random_targets(arenas, 10, 5);
    let plan = sgb_greedy(&inst, 15, &GreedyConfig::scalable(Motif::Triangle));
    assert!(plan.dissimilarity_gain() > 0);

    let dblp = tpp::datasets::dblp_like(tpp::datasets::DblpScale::Tiny, 5);
    let inst = TppInstance::with_random_targets(dblp, 10, 5);
    let plan = sgb_greedy(&inst, 15, &GreedyConfig::scalable(Motif::Rectangle));
    plan.check_invariants();
}
