//! Property-based tests for the TPP algorithms: feasibility invariants,
//! approximation bounds against brute force, CELF/SGB equivalence, and
//! budget-division laws on random instances.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tpp_bench::fixtures::{er_instance, hub_instance};
use tpp_core::{
    celf_greedy, celf_greedy_batch, critical_budget, ct_greedy, ct_greedy_batch, divide_budget,
    random_deletion, random_deletion_from_subgraphs, sgb_greedy, sgb_greedy_batch, verify_plan,
    wt_greedy, wt_greedy_batch, AlgorithmKind, BudgetDivision, CandidatePolicy, GainOracle,
    GreedyConfig, IndexOracle, ProtectionPlan, SnapshotOracle, StepRecord, TppInstance,
    DEFAULT_INDEX_PARTITIONS,
};
use tpp_exec::Parallelism;
use tpp_graph::{Edge, FastSet, NeighborAccess};
use tpp_motif::{Motif, PartitionedCoverageIndex};
use tpp_obs::Recorder;
use tpp_store::CsrGraph;

fn instance_strategy() -> impl Strategy<Value = TppInstance> {
    // The shared seeded-ER workload from tpp-bench::fixtures — quoting the
    // (n, seed, tcount) triple reproduces a failing case anywhere.
    (10usize..=22, 0u64..=5_000, 2usize..=4)
        .prop_map(|(n, seed, tcount)| er_instance(n, seed, tcount))
}

fn check_feasible(instance: &TppInstance, plan: &tpp_core::ProtectionPlan, motif: Motif) {
    plan.check_invariants();
    // protectors are distinct real edges and never targets
    let seen: FastSet<Edge> = plan.protectors.iter().copied().collect();
    assert_eq!(seen.len(), plan.protectors.len());
    for p in &plan.protectors {
        assert!(instance.released().has_edge(p.u(), p.v()));
        assert!(!instance.targets().contains(p));
    }
    // bookkeeping matches a physical recount
    let _ = verify_plan(instance, plan, motif);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Phase 1 (`G − T`) and the release (`G − T − P`), built as overlays
    /// over the original, equal the adjacency-list path: clone the graph,
    /// then remove the edges. The protector list mixes a greedy
    /// plan, a spread of released edges, repeats and the (already absent)
    /// targets.
    #[test]
    fn derived_snapshots_match_the_graph_path(
        instance in instance_strategy(),
        k in 0usize..=4,
        stride in 2usize..=9,
    ) {
        let mut phase1 = instance.original().to_graph();
        for t in instance.targets() {
            prop_assert!(phase1.remove_edge(t.u(), t.v()));
        }
        CsrGraph::from_access(instance.released()).check_invariants();
        prop_assert_eq!(instance.released().to_graph(), phase1.clone());

        let plan = sgb_greedy(&instance, k, &GreedyConfig::scalable(Motif::Triangle));
        let mut protectors = plan.protectors.clone();
        protectors.extend(phase1.edge_vec().into_iter().step_by(stride));
        protectors.extend_from_slice(&plan.protectors);
        protectors.extend_from_slice(instance.targets());
        let release = instance.apply_protectors(&protectors);
        CsrGraph::from_access(&release).check_invariants();
        let mut expected = phase1;
        expected.remove_edges(&protectors);
        prop_assert_eq!(release.to_graph(), expected);
    }

    /// SGB plans are feasible and achieve at least (1 - 1/e) of the brute
    /// force optimum for k = 2 (Theorem 3).
    #[test]
    fn sgb_is_feasible_and_near_optimal(instance in instance_strategy()) {
        let motif = Motif::Triangle;
        let cfg = GreedyConfig::scalable(motif);
        let k = 2usize;
        let plan = sgb_greedy(&instance, k, &cfg);
        check_feasible(&instance, &plan, motif);
        prop_assert!(plan.deletions() <= k);

        // brute-force optimum over all pairs of candidate edges
        let index = instance.build_index(motif);
        let cands = index.all_candidate_edges();
        let mut opt = 0usize;
        for i in 0..cands.len() {
            for j in i + 1..cands.len() {
                let mut trial = instance.build_index(motif);
                let broken = trial.delete_edge(cands[i]) + trial.delete_edge(cands[j]);
                opt = opt.max(broken);
            }
        }
        // also allow k = 1 optima (deleting fewer can't be better here, but
        // keep the bound safe when fewer than 2 candidates exist)
        for &c in &cands {
            let mut trial = instance.build_index(motif);
            opt = opt.max(trial.delete_edge(c));
        }
        let bound = (1.0 - 1.0 / std::f64::consts::E) * opt as f64;
        prop_assert!(
            plan.dissimilarity_gain() as f64 >= bound - 1e-9,
            "greedy {} < (1-1/e) * {}", plan.dissimilarity_gain(), opt
        );
    }

    /// CELF and SGB produce identical plans, equal to the eager
    /// full-scan greedy for every motif (lazy evaluation is exact).
    #[test]
    fn celf_equals_sgb(instance in instance_strategy(), k in 1usize..=6) {
        for motif in Motif::ALL {
            let cfg = GreedyConfig::scalable(motif);
            let a = sgb_greedy(&instance, k, &cfg);
            let b = celf_greedy(&instance, k, &cfg);
            let eager = NaiveGreedy::sgb(&instance, k, motif, AlgorithmKind::SgbGreedy);
            prop_assert_eq!(&a.protectors, &b.protectors, "motif {}", motif);
            prop_assert_eq!(&eager.protectors, &a.protectors, "motif {}", motif);
            prop_assert_eq!(a.final_similarity, b.final_similarity);
        }
    }

    /// CT and WT respect every per-target budget and stay feasible, under
    /// both division strategies.
    #[test]
    fn local_budget_algorithms_are_feasible(instance in instance_strategy(), k in 1usize..=8) {
        let motif = Motif::Triangle;
        let cfg = GreedyConfig::scalable(motif);
        for division in [BudgetDivision::Tbd, BudgetDivision::Dbd] {
            let budgets = divide_budget(division, k, &instance, motif);
            prop_assert_eq!(budgets.len(), instance.target_count());
            prop_assert!(budgets.iter().sum::<usize>() <= k);

            let ct = ct_greedy(&instance, &budgets, &cfg).unwrap();
            check_feasible(&instance, &ct, motif);
            for (t, pt) in ct.per_target.iter().enumerate() {
                prop_assert!(pt.len() <= budgets[t], "CT budget overrun at {t}");
            }

            let wt = wt_greedy(&instance, &budgets, &cfg).unwrap();
            check_feasible(&instance, &wt, motif);
            for (t, pt) in wt.per_target.iter().enumerate() {
                prop_assert!(pt.len() <= budgets[t], "WT budget overrun at {t}");
            }
        }
    }

    /// With the same total budget, SGB's global optimization is never worse
    /// than CT, which is never worse than WT (the Fig. 2 ordering holds for
    /// the realized dissimilarity gains in aggregate).
    #[test]
    fn sgb_dominates_local_budget_variants(instance in instance_strategy(), k in 1usize..=6) {
        let motif = Motif::Triangle;
        let cfg = GreedyConfig::scalable(motif);
        let budgets = divide_budget(BudgetDivision::Tbd, k, &instance, motif);
        let spent: usize = budgets.iter().sum();
        // SGB with the *actually spendable* budget for a fair comparison.
        let sgb = sgb_greedy(&instance, spent, &cfg);
        let ct = ct_greedy(&instance, &budgets, &cfg).unwrap();
        prop_assert!(
            sgb.dissimilarity_gain() >= ct.dissimilarity_gain(),
            "SGB {} < CT {}", sgb.dissimilarity_gain(), ct.dissimilarity_gain()
        );
    }

    /// Baselines are feasible; RDT only deletes subgraph edges.
    #[test]
    fn baselines_are_feasible(instance in instance_strategy(), k in 1usize..=6, seed in 0u64..100) {
        let motif = Motif::Triangle;
        let rd = random_deletion(&instance, k, motif, seed);
        check_feasible(&instance, &rd, motif);
        let rdt = random_deletion_from_subgraphs(&instance, k, motif, seed);
        check_feasible(&instance, &rdt, motif);
        let index = instance.build_index(motif);
        let pool: FastSet<Edge> = index.all_candidate_edges().into_iter().collect();
        for p in &rdt.protectors {
            prop_assert!(pool.contains(p));
        }
    }

    /// The critical budget achieves full protection with every deletion
    /// contributing, and the greedy similarity at k* is exactly zero.
    #[test]
    fn critical_budget_is_exact(instance in instance_strategy()) {
        for motif in Motif::ALL {
            let (k_star, plan) = critical_budget(&instance, motif);
            prop_assert!(plan.is_full_protection());
            prop_assert_eq!(k_star, plan.deletions());
            // every step broke something (greedy never wastes deletions)
            prop_assert!(plan.steps.iter().all(|s| s.total_broken > 0));
        }
    }

    /// Budget division: TBD weights by |W_t|; a target with zero evidence
    /// gets zero budget under both strategies.
    #[test]
    fn budget_division_laws(instance in instance_strategy(), k in 0usize..=10) {
        let motif = Motif::Triangle;
        let counts = tpp_motif::count_all_targets(
            instance.released(), instance.targets(), motif);
        for division in [BudgetDivision::Tbd, BudgetDivision::Dbd] {
            let budgets = divide_budget(division, k, &instance, motif);
            for (t, &b) in budgets.iter().enumerate() {
                prop_assert!(b <= counts[t], "k_t must be capped by |W_t|");
            }
        }
    }
}

/// The restricted-candidate config for each oracle kind.
fn evaluator_configs(motif: Motif) -> [GreedyConfig; 2] {
    [GreedyConfig::scalable(motif), GreedyConfig::snapshot(motif)]
}

/// A test-local naive greedy, independent of the round engine: each round
/// scores the sorted candidates with plain loops, keeps the first strict
/// maximum and commits it. An SGB round scores `(gain, 0)`; a CT/WT round
/// charges each candidate to the first open target maximizing its
/// `(own, cross)` split. The single-pick rounds run over the recount
/// oracle; the batch rounds need gain sets and run over the index.
struct NaiveGreedy<'a> {
    oracle: Box<dyn GainOracle + 'a>,
    plan: ProtectionPlan,
}

impl<'a> NaiveGreedy<'a> {
    fn new(instance: &'a TppInstance, motif: Motif, algorithm: AlgorithmKind) -> Self {
        let oracle = SnapshotOracle::new(instance.released(), instance.targets(), motif);
        NaiveGreedy::over(instance, Box::new(oracle), algorithm)
    }

    fn over(
        instance: &'a TppInstance,
        oracle: Box<dyn GainOracle + 'a>,
        algorithm: AlgorithmKind,
    ) -> Self {
        let similarity = oracle.total_similarity();
        let per_target = match algorithm {
            AlgorithmKind::CtGreedy | AlgorithmKind::WtGreedy => {
                vec![Vec::new(); instance.target_count()]
            }
            _ => Vec::new(),
        };
        NaiveGreedy {
            oracle,
            plan: ProtectionPlan {
                algorithm,
                protectors: Vec::new(),
                initial_similarity: similarity,
                final_similarity: similarity,
                steps: Vec::new(),
                per_target,
            },
        }
    }

    fn charged(&self, t: usize) -> usize {
        self.plan.per_target[t].len()
    }

    /// One round over the `open` targets (`None`: an SGB round). Returns
    /// `false` when no candidate breaks anything.
    fn round(&mut self, open: Option<&[usize]>) -> bool {
        let mut candidates = self.oracle.candidates(CandidatePolicy::SubgraphEdges);
        candidates.sort_unstable();
        let mut best: Option<((usize, usize), Option<usize>, Edge)> = None;
        for p in candidates {
            let v = self.oracle.gain_vector(p);
            let total: usize = v.iter().sum();
            if total == 0 {
                continue;
            }
            let mut charge: Option<((usize, usize), Option<usize>)> = None;
            match open {
                None => charge = Some(((total, 0), None)),
                Some(open) => {
                    for &t in open {
                        let key = (v[t], total - v[t]);
                        if charge.is_none_or(|(k, _)| key > k) {
                            charge = Some((key, Some(t)));
                        }
                    }
                }
            }
            let Some((key, target)) = charge else {
                continue;
            };
            if best.is_none_or(|(k, ..)| key > k) {
                best = Some((key, target, p));
            }
        }
        let Some(((own, cross), target, p)) = best else {
            return false;
        };
        self.commit(p, target, own, own + cross);
        true
    }

    /// Commits `p`, checks that it breaks `gain` instances and records the
    /// step.
    fn commit(&mut self, p: Edge, target: Option<usize>, own: usize, gain: usize) {
        let broken = self.oracle.commit(p);
        assert_eq!(broken, gain, "naive gain must realize");
        if let Some(t) = target {
            self.plan.per_target[t].push(p);
        }
        self.plan.protectors.push(p);
        self.plan.final_similarity = self.oracle.total_similarity();
        self.plan.steps.push(StepRecord {
            round: self.plan.steps.len(),
            protector: p,
            charged_target: target,
            own_broken: own,
            total_broken: broken,
            similarity_after: self.plan.final_similarity,
        });
    }

    fn sgb(
        instance: &'a TppInstance,
        k: usize,
        motif: Motif,
        kind: AlgorithmKind,
    ) -> ProtectionPlan {
        let mut naive = NaiveGreedy::new(instance, motif, kind);
        while naive.plan.protectors.len() < k && naive.round(None) {}
        naive.plan
    }

    /// One batch round as a scan-and-sort over the index: score every
    /// candidate (`(gain, 0)` in an SGB round, `open = None`; in a CT/WT
    /// round the `(own, cross)` split charged to the first `open` target
    /// maximizing it), sort by `(split desc, edge asc)`, and accept the
    /// picks whose gain sets are pairwise disjoint and whose charged target
    /// has room left (a conflict skips the candidate; `16 × room` conflicts
    /// close the round), then commit them in order. `open` lists
    /// `(target, remaining budget)` pairs. Returns the number committed.
    fn scan_and_sort_round(&mut self, open: Option<&[(usize, usize)]>, room: usize) -> usize {
        let mut ranked: Vec<((usize, usize), Option<usize>, Edge)> = Vec::new();
        for p in self.oracle.candidates(CandidatePolicy::SubgraphEdges) {
            let v = self.oracle.gain_vector(p);
            let total: usize = v.iter().sum();
            if total == 0 {
                continue;
            }
            let Some(open) = open else {
                ranked.push(((total, 0), None, p));
                continue;
            };
            let mut charge: Option<((usize, usize), usize)> = None;
            for &(t, _) in open {
                let key = (v[t], total - v[t]);
                if charge.is_none_or(|(k, _)| key > k) {
                    charge = Some((key, t));
                }
            }
            if let Some((key, t)) = charge {
                ranked.push((key, Some(t), p));
            }
        }
        ranked.sort_unstable_by_key(|&(key, _, p)| (std::cmp::Reverse(key), p));
        let mut left: Vec<usize> = vec![0; self.oracle.target_count()];
        for &(t, remaining) in open.unwrap_or_default() {
            left[t] = remaining;
        }
        let mut picks: Vec<((usize, usize), Option<usize>, Edge)> = Vec::new();
        let mut claimed = FastSet::default();
        let mut conflicts_left = 16 * room;
        for (key, target, p) in ranked {
            if picks.len() == room {
                break;
            }
            if target.is_some_and(|t| left[t] == 0) {
                continue;
            }
            let ids = self
                .oracle
                .gain_set(p)
                .expect("the index enumerates gain sets");
            if !picks.is_empty() && ids.iter().any(|id| claimed.contains(id)) {
                conflicts_left -= 1;
                if conflicts_left == 0 {
                    break;
                }
                continue;
            }
            claimed.extend(ids);
            if let Some(t) = target {
                left[t] -= 1;
            }
            picks.push((key, target, p));
        }
        for &((own, cross), target, p) in &picks {
            self.commit(p, target, own, own + cross);
        }
        picks.len()
    }

    /// SGB with up to `j` picks per round, each round a scan-and-sort.
    fn sgb_batch(instance: &'a TppInstance, k: usize, j: usize, motif: Motif) -> ProtectionPlan {
        let oracle = IndexOracle::new(instance.released(), instance.targets(), motif);
        let mut naive = NaiveGreedy::over(instance, Box::new(oracle), AlgorithmKind::SgbGreedy);
        while naive.plan.protectors.len() < k {
            let room = j.min(k - naive.plan.protectors.len());
            if naive.scan_and_sort_round(None, room) == 0 {
                break;
            }
        }
        naive.plan
    }

    /// CT with up to `j` picks per round, each round a scan-and-sort over
    /// every target with budget left.
    fn ct_batch(
        instance: &'a TppInstance,
        budgets: &[usize],
        j: usize,
        motif: Motif,
    ) -> ProtectionPlan {
        let oracle = IndexOracle::new(instance.released(), instance.targets(), motif);
        let mut naive = NaiveGreedy::over(instance, Box::new(oracle), AlgorithmKind::CtGreedy);
        loop {
            let open: Vec<(usize, usize)> = (0..budgets.len())
                .map(|t| (t, budgets[t].saturating_sub(naive.charged(t))))
                .filter(|&(_, remaining)| remaining > 0)
                .collect();
            if open.is_empty() || naive.scan_and_sort_round(Some(&open), j) == 0 {
                break naive.plan;
            }
        }
    }

    /// WT with up to `min(j, remaining)` picks per round, each round a
    /// scan-and-sort over the current target alone.
    fn wt_batch(
        instance: &'a TppInstance,
        budgets: &[usize],
        j: usize,
        motif: Motif,
    ) -> ProtectionPlan {
        let oracle = IndexOracle::new(instance.released(), instance.targets(), motif);
        let mut naive = NaiveGreedy::over(instance, Box::new(oracle), AlgorithmKind::WtGreedy);
        'targets: for (t, &budget) in budgets.iter().enumerate() {
            while naive.charged(t) < budget {
                let remaining = budget - naive.charged(t);
                if naive.scan_and_sort_round(Some(&[(t, remaining)]), j.min(remaining)) == 0 {
                    break 'targets;
                }
            }
        }
        naive.plan
    }

    fn ct(instance: &'a TppInstance, budgets: &[usize], motif: Motif) -> ProtectionPlan {
        let mut naive = NaiveGreedy::new(instance, motif, AlgorithmKind::CtGreedy);
        loop {
            let open: Vec<usize> = (0..budgets.len())
                .filter(|&t| naive.charged(t) < budgets[t])
                .collect();
            if open.is_empty() || !naive.round(Some(&open)) {
                break naive.plan;
            }
        }
    }

    fn wt(instance: &'a TppInstance, budgets: &[usize], motif: Motif) -> ProtectionPlan {
        let mut naive = NaiveGreedy::new(instance, motif, AlgorithmKind::WtGreedy);
        'targets: for (t, &budget) in budgets.iter().enumerate() {
            while naive.charged(t) < budget {
                if !naive.round(Some(&[t])) {
                    break 'targets;
                }
            }
        }
        naive.plan
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The round engine's core contract: plans are **bit-identical**
    /// across `threads ∈ {1, 2, 4}` for every oracle kind — the full
    /// plan (protectors, steps, similarities), not just the pick set —
    /// and the oracles agree with each other on the same config.
    #[test]
    fn engine_plans_are_thread_and_oracle_invariant(
        instance in instance_strategy(),
        k in 1usize..=4,
    ) {
        engine_plans_are_thread_and_oracle_invariant_on(&instance, k)?;
    }

    /// The batch-commit acceptance contract: SGB at `j = 1` produces
    /// plans **bit-identical** to the naive sequential greedy for every
    /// oracle kind and `threads ∈ {1, 2, 4}`; and for `j > 1` the batch
    /// plan is still feasible, exact per step, and reaches the same final
    /// similarity when both spend the full candidate supply.
    #[test]
    fn batch_of_one_is_bit_identical_to_sequential(
        instance in instance_strategy(),
        k in 1usize..=5,
    ) {
        batch_of_one_is_bit_identical_to_sequential_on(&instance, k)?;
    }

    /// SGB batch rounds (`j > 1`) commit exactly the picks of a
    /// scan-and-sort round: the whole plan equals the naive batch greedy,
    /// for every thread count. Rectangles on the larger instances give
    /// the batches gain-set conflicts to skip.
    #[test]
    fn sgb_batches_equal_the_scan_and_sort_round(
        n in 20usize..=40,
        seed in 0u64..=5_000,
        tcount in 4usize..=10,
        k in 1usize..=8,
    ) {
        sgb_batches_equal_the_scan_and_sort_round_on(&er_instance(n, seed, tcount), k)?;
    }

    /// CT and WT batch rounds (`j > 1`) commit exactly the picks of a
    /// scan-and-sort round: the whole plan (steps and `per_target` too)
    /// equals the naive batch greedy under both budget divisions, for
    /// every thread count.
    #[test]
    fn targeted_batches_equal_the_scan_and_sort_round(
        n in 20usize..=40,
        seed in 0u64..=5_000,
        tcount in 4usize..=10,
        k in 1usize..=8,
    ) {
        targeted_batches_equal_the_scan_and_sort_round_on(&er_instance(n, seed, tcount), k)?;
    }

    /// Thread-invariance holds for the targeted (CT) rounds and the CELF
    /// lazy queue too, for every oracle kind.
    #[test]
    fn targeted_and_lazy_rounds_are_thread_invariant(
        instance in instance_strategy(),
        k in 1usize..=4,
    ) {
        targeted_and_lazy_rounds_are_thread_invariant_on(&instance, k)?;
    }

    /// Batch-of-one rounds are bit-identical to the naive sequential
    /// greedy for the targeted (CT/WT) and lazy (CELF) strategies too —
    /// the whole plan (protectors, steps, `per_target`), for every motif,
    /// every oracle kind and `threads ∈ {1, 2, 4}`.
    #[test]
    fn targeted_and_lazy_batch_of_one_is_bit_identical(
        instance in instance_strategy(),
        k in 1usize..=5,
    ) {
        targeted_and_lazy_batch_of_one_is_bit_identical_on(&instance, k)?;
    }

    /// The observability contract: enabling stats collection never changes
    /// a plan. For every oracle kind, strategy shape (eager, batched,
    /// targeted, lazy), and `threads ∈ {1, 2, 4}`, the plan produced with
    /// an enabled recorder is **bit-identical** to the
    /// `Recorder::disabled()` plan — telemetry is read-only on the run.
    #[test]
    fn stats_collection_never_changes_plans(
        instance in instance_strategy(),
        k in 1usize..=4,
    ) {
        stats_collection_never_changes_plans_on(&instance, k)?;
    }

    /// `j > 1` batched targeted/lazy rounds: every per-step record stays
    /// exact (disjointness-verified batches), budgets are respected, and
    /// with exhaustive budgets the batched strategies reach exactly the
    /// sequential strategies' protection level — the batched rounds are a
    /// greedy-feasible commit order, never a lossy approximation.
    #[test]
    fn batched_plans_match_sequential_outcomes(
        instance in instance_strategy(),
        k in 1usize..=6,
    ) {
        let motif = Motif::Triangle;
        let cfg = GreedyConfig::scalable(motif);
        let budgets = divide_budget(BudgetDivision::Tbd, k, &instance, motif);
        let generous = vec![usize::MAX / 2; instance.target_count()];
        let ct_full = ct_greedy(&instance, &generous, &cfg).unwrap();
        let wt_full = wt_greedy(&instance, &generous, &cfg).unwrap();
        let celf_full = celf_greedy(&instance, usize::MAX, &cfg);
        for j in [2usize, 8] {
            // Limited budgets: feasibility and per-step exactness.
            let ct = ct_greedy_batch(&instance, &budgets, j, &cfg).unwrap();
            check_feasible(&instance, &ct, motif);
            for (t, pt) in ct.per_target.iter().enumerate() {
                prop_assert!(pt.len() <= budgets[t], "CT batch j={j} budget overrun at {t}");
            }
            let wt = wt_greedy_batch(&instance, &budgets, j, &cfg).unwrap();
            check_feasible(&instance, &wt, motif);
            for (t, pt) in wt.per_target.iter().enumerate() {
                prop_assert!(pt.len() <= budgets[t], "WT batch j={j} budget overrun at {t}");
            }
            let celf = celf_greedy_batch(&instance, k, j, &cfg);
            check_feasible(&instance, &celf, motif);
            prop_assert!(celf.deletions() <= k);
            // Exhaustive budgets: same protection level as sequential.
            let ct_b = ct_greedy_batch(&instance, &generous, j, &cfg).unwrap();
            prop_assert_eq!(ct_full.final_similarity, ct_b.final_similarity);
            let wt_b = wt_greedy_batch(&instance, &generous, j, &cfg).unwrap();
            prop_assert_eq!(wt_full.final_similarity, wt_b.final_similarity);
            let celf_b = celf_greedy_batch(&instance, usize::MAX, j, &cfg);
            prop_assert_eq!(celf_full.final_similarity, celf_b.final_similarity);
        }
    }

    /// The incremental-repair contract on random instances and deltas: a
    /// pre-delta coverage index, patched by `delete_edge` per removal and
    /// `insert_edge` per addition (each over the graph as it stands after
    /// that insertion) and handed to the greedy as its index seed, gives
    /// SGB and CELF plans **bit-identical** to from-scratch runs on the
    /// mutated instance, for `threads ∈ {1, 2, 4}`. With `drop_pick == 1`
    /// the delta also deletes the prior plan's first protector.
    #[test]
    fn incremental_repair_is_bit_identical_to_from_scratch(
        instance in instance_strategy(),
        k in 1usize..=4,
        removals in 0usize..=2,
        additions in 0usize..=2,
        drop_pick in 0u8..2,
    ) {
        let targets = instance.targets().to_vec();
        let base = instance.released().to_graph();
        for motif in [Motif::Triangle, Motif::Rectangle] {
            let cfg = GreedyConfig::scalable(motif);
            let prior = sgb_greedy(&instance, k, &cfg);
            // Small non-target delta against the released graph.
            let mut removed: Vec<Edge> = prior
                .protectors
                .first()
                .filter(|_| drop_pick == 1)
                .copied()
                .into_iter()
                .collect();
            let want = removed.len() + removals;
            for e in base.edge_vec() {
                if removed.len() == want { break; }
                if !removed.contains(&e) { removed.push(e); }
            }
            let mut added = Vec::new();
            'outer: for u in 0..base.node_count() as u32 {
                for v in (u + 1)..base.node_count() as u32 {
                    if added.len() == additions { break 'outer; }
                    let e = Edge::new(u, v);
                    if !base.contains(e) && !targets.contains(&e) { added.push(e); }
                }
            }
            let mut index = PartitionedCoverageIndex::build_parallel(
                &base, &targets, motif, DEFAULT_INDEX_PARTITIONS, &Parallelism::sequential());
            let mut work = base.clone();
            for &e in &removed {
                work.remove_edge(e.u(), e.v());
                index.delete_edge(e);
            }
            for &e in &added {
                work.add_edge(e.u(), e.v());
                index.insert_edge(&work, e);
            }
            // Rebuild the mutated instance from original = released +
            // targets, so phase 1 re-removes the same target edges.
            let mut mutated_original = work.clone();
            for t in &targets {
                mutated_original.add_edge(t.u(), t.v());
            }
            let mutated = TppInstance::new(mutated_original, targets.clone()).unwrap();
            let seed = std::sync::Arc::new(index);
            let sgb = sgb_greedy(&mutated, k, &cfg);
            let celf = celf_greedy(&mutated, k, &cfg);
            for threads in [1usize, 2, 4] {
                let seeded = cfg
                    .clone()
                    .with_threads(threads)
                    .with_index_seed(seed.clone())
                    .with_obs(Recorder::enabled());
                prop_assert_eq!(&sgb, &sgb_greedy(&mutated, k, &seeded),
                    "{} sgb -{}/+{} x{} diverged", motif, removed.len(), added.len(), threads);
                prop_assert_eq!(&celf, &celf_greedy(&mutated, k, &seeded),
                    "{} celf -{}/+{} x{} diverged", motif, removed.len(), added.len(), threads);
                let builds = seeded.recorder.stats().unwrap().index.builds.get();
                prop_assert_eq!(builds, 0, "the patched seed was not taken");
            }
        }
    }
}

/// The body of the `engine_plans_are_thread_and_oracle_invariant` property.
fn engine_plans_are_thread_and_oracle_invariant_on(
    instance: &TppInstance,
    k: usize,
) -> Result<(), TestCaseError> {
    let motif = Motif::Triangle;
    let mut reference: Option<tpp_core::ProtectionPlan> = None;
    for cfg in evaluator_configs(motif) {
        let base = sgb_greedy(instance, k, &cfg.clone().with_threads(1));
        for threads in [2usize, 4] {
            let par = sgb_greedy(instance, k, &cfg.clone().with_threads(threads));
            prop_assert_eq!(&base, &par, "sgb {:?} x{} diverged", cfg.evaluator, threads);
        }
        // Cross-oracle agreement on the restricted candidate set.
        match &reference {
            None => reference = Some(base),
            Some(r) => {
                prop_assert_eq!(
                    &r.protectors,
                    &base.protectors,
                    "oracle {:?} picks diverged",
                    cfg.evaluator
                );
                prop_assert_eq!(r.final_similarity, base.final_similarity);
            }
        }
    }
    Ok(())
}

/// The body of the `batch_of_one_is_bit_identical_to_sequential` property.
fn batch_of_one_is_bit_identical_to_sequential_on(
    instance: &TppInstance,
    k: usize,
) -> Result<(), TestCaseError> {
    let motif = Motif::Triangle;
    let naive = NaiveGreedy::sgb(instance, k, motif, AlgorithmKind::SgbGreedy);
    for cfg in evaluator_configs(motif) {
        for threads in [1usize, 2, 4] {
            let batch = sgb_greedy_batch(instance, k, 1, &cfg.clone().with_threads(threads));
            prop_assert_eq!(
                &naive,
                &batch,
                "sgb j=1 {:?} x{} diverged from the naive greedy",
                cfg.evaluator,
                threads
            );
        }
    }
    // j > 1: disjointness-verified batches stay exact and feasible.
    let cfg = GreedyConfig::scalable(motif);
    let full_seq = sgb_greedy(instance, usize::MAX, &cfg);
    for j in [2usize, 3] {
        // Exhaustive budgets protect fully, batched or not.
        let full_batch = sgb_greedy_batch(instance, usize::MAX, j, &cfg);
        prop_assert_eq!(full_seq.final_similarity, full_batch.final_similarity);
        for threads in [1usize, 2] {
            let plan = sgb_greedy_batch(instance, k, j, &cfg.clone().with_threads(threads));
            check_feasible(instance, &plan, motif);
            prop_assert!(plan.deletions() <= k);
        }
    }
    Ok(())
}

/// The body of the `sgb_batches_equal_the_scan_and_sort_round` property.
fn sgb_batches_equal_the_scan_and_sort_round_on(
    instance: &TppInstance,
    k: usize,
) -> Result<(), TestCaseError> {
    for motif in [Motif::Triangle, Motif::Rectangle] {
        let cfg = GreedyConfig::scalable(motif);
        for j in [2usize, 3, 8] {
            let naive = NaiveGreedy::sgb_batch(instance, k, j, motif);
            for threads in [1usize, 2] {
                let plan = sgb_greedy_batch(instance, k, j, &cfg.clone().with_threads(threads));
                prop_assert_eq!(&naive, &plan, "sgb {} j={} x{} diverged", motif, j, threads);
            }
        }
    }
    Ok(())
}

/// The body of the `targeted_batches_equal_the_scan_and_sort_round` property.
fn targeted_batches_equal_the_scan_and_sort_round_on(
    instance: &TppInstance,
    k: usize,
) -> Result<(), TestCaseError> {
    for motif in [Motif::Triangle, Motif::Rectangle] {
        let cfg = GreedyConfig::scalable(motif);
        for division in [BudgetDivision::Tbd, BudgetDivision::Dbd] {
            let budgets = divide_budget(division, k, instance, motif);
            for j in [2usize, 3, 8] {
                let ct_naive = NaiveGreedy::ct_batch(instance, &budgets, j, motif);
                let wt_naive = NaiveGreedy::wt_batch(instance, &budgets, j, motif);
                for threads in [1usize, 2] {
                    let tcfg = cfg.clone().with_threads(threads);
                    let ct = ct_greedy_batch(instance, &budgets, j, &tcfg).unwrap();
                    prop_assert_eq!(
                        &ct_naive,
                        &ct,
                        "ct {} {:?} j={} x{} diverged",
                        motif,
                        division,
                        j,
                        threads
                    );
                    let wt = wt_greedy_batch(instance, &budgets, j, &tcfg).unwrap();
                    prop_assert_eq!(
                        &wt_naive,
                        &wt,
                        "wt {} {:?} j={} x{} diverged",
                        motif,
                        division,
                        j,
                        threads
                    );
                }
            }
        }
    }
    Ok(())
}

/// The body of the `targeted_and_lazy_rounds_are_thread_invariant` property.
fn targeted_and_lazy_rounds_are_thread_invariant_on(
    instance: &TppInstance,
    k: usize,
) -> Result<(), TestCaseError> {
    let motif = Motif::Triangle;
    let budgets = divide_budget(BudgetDivision::Tbd, k, instance, motif);
    let eager = NaiveGreedy::sgb(instance, k, motif, AlgorithmKind::SgbGreedy);
    for cfg in evaluator_configs(motif) {
        let ct_base = ct_greedy(instance, &budgets, &cfg.clone().with_threads(1)).unwrap();
        let celf_base = celf_greedy(instance, k, &cfg.clone().with_threads(1));
        for threads in [2usize, 4] {
            let ct_par = ct_greedy(instance, &budgets, &cfg.clone().with_threads(threads)).unwrap();
            prop_assert_eq!(
                &ct_base,
                &ct_par,
                "ct {:?} x{} diverged",
                cfg.evaluator,
                threads
            );
            let celf_par = celf_greedy(instance, k, &cfg.clone().with_threads(threads));
            prop_assert_eq!(
                &celf_base,
                &celf_par,
                "celf {:?} x{} diverged",
                cfg.evaluator,
                threads
            );
        }
        // CELF must still equal eager SGB under the same config.
        prop_assert_eq!(&eager.protectors, &celf_base.protectors);
    }
    Ok(())
}

/// The body of the `targeted_and_lazy_batch_of_one_is_bit_identical` property.
fn targeted_and_lazy_batch_of_one_is_bit_identical_on(
    instance: &TppInstance,
    k: usize,
) -> Result<(), TestCaseError> {
    for motif in Motif::ALL {
        let budgets = divide_budget(BudgetDivision::Tbd, k, instance, motif);
        let ct_seq = NaiveGreedy::ct(instance, &budgets, motif);
        let wt_seq = NaiveGreedy::wt(instance, &budgets, motif);
        let celf_seq = NaiveGreedy::sgb(instance, k, motif, AlgorithmKind::CelfGreedy);
        for cfg in evaluator_configs(motif) {
            for threads in [1usize, 2, 4] {
                let tcfg = cfg.clone().with_threads(threads);
                let ct_b = ct_greedy_batch(instance, &budgets, 1, &tcfg).unwrap();
                prop_assert_eq!(
                    &ct_seq,
                    &ct_b,
                    "ct batch(1) {} {:?} x{} diverged",
                    motif,
                    cfg.evaluator,
                    threads
                );
                let wt_b = wt_greedy_batch(instance, &budgets, 1, &tcfg).unwrap();
                prop_assert_eq!(
                    &wt_seq,
                    &wt_b,
                    "wt batch(1) {} {:?} x{} diverged",
                    motif,
                    cfg.evaluator,
                    threads
                );
                let celf_b = celf_greedy_batch(instance, k, 1, &tcfg);
                prop_assert_eq!(
                    &celf_seq,
                    &celf_b,
                    "celf batch(1) {} {:?} x{} diverged",
                    motif,
                    cfg.evaluator,
                    threads
                );
            }
        }
    }
    Ok(())
}

/// The body of the `stats_collection_never_changes_plans` property.
fn stats_collection_never_changes_plans_on(
    instance: &TppInstance,
    k: usize,
) -> Result<(), TestCaseError> {
    let motif = Motif::Triangle;
    let budgets = divide_budget(BudgetDivision::Tbd, k, instance, motif);
    for cfg in evaluator_configs(motif) {
        for threads in [1usize, 2, 4] {
            let plain = cfg.clone().with_threads(threads);
            let obs = plain.clone().with_obs(Recorder::enabled());
            prop_assert_eq!(
                sgb_greedy(instance, k, &plain),
                sgb_greedy(instance, k, &obs),
                "sgb {:?} x{} diverged under stats",
                cfg.evaluator,
                threads
            );
            prop_assert_eq!(
                sgb_greedy_batch(instance, k, 3, &plain),
                sgb_greedy_batch(instance, k, 3, &obs),
                "sgb batch {:?} x{} diverged under stats",
                cfg.evaluator,
                threads
            );
            prop_assert_eq!(
                ct_greedy(instance, &budgets, &plain).unwrap(),
                ct_greedy(instance, &budgets, &obs).unwrap(),
                "ct {:?} x{} diverged under stats",
                cfg.evaluator,
                threads
            );
            prop_assert_eq!(
                celf_greedy_batch(instance, k, 2, &plain),
                celf_greedy_batch(instance, k, 2, &obs),
                "celf batch {:?} x{} diverged under stats",
                cfg.evaluator,
                threads
            );
            // The observed run actually recorded: the engine counted
            // its committed rounds (unless nothing was committable).
            let recorder = &obs.recorder;
            let st = recorder.stats().expect("enabled recorder has stats");
            let plan = sgb_greedy(instance, k, &obs);
            prop_assert!(
                st.round.rounds.get() > 0 || plan.deletions() == 0,
                "enabled recorder saw no rounds"
            );
        }
    }
    Ok(())
}

/// The thread-invariance properties' fixed case: a hub linked to every
/// leaf of a chorded ring, 4 hub links hidden. Every run over it
/// dispatches on a pool wider than one (checked here, for each of
/// `motifs` and each oracle kind, so a fixture that fell below the
/// pooling threshold fails loudly), while its proptest instances are all
/// small enough to run inline.
fn pooled_instance(motifs: &[Motif]) -> TppInstance {
    let instance = hub_instance(17_000, 4);
    for &motif in motifs {
        for cfg in evaluator_configs(motif) {
            for threads in [2usize, 4] {
                let recorder = Recorder::enabled();
                let cfg = cfg.clone().with_threads(threads).with_obs(recorder.clone());
                let _ = sgb_greedy(&instance, 1, &cfg);
                let dispatches = recorder.stats().unwrap().exec.dispatches.get();
                assert!(
                    dispatches > 0,
                    "{motif} {:?} x{threads} ran inline",
                    cfg.evaluator
                );
            }
        }
    }
    instance
}

#[test]
fn engine_plans_are_thread_and_oracle_invariant_on_a_pooled_instance() {
    let instance = pooled_instance(&[Motif::Triangle]);
    engine_plans_are_thread_and_oracle_invariant_on(&instance, 4).unwrap();
}

#[test]
fn batch_of_one_is_bit_identical_to_sequential_on_a_pooled_instance() {
    let instance = pooled_instance(&[Motif::Triangle]);
    batch_of_one_is_bit_identical_to_sequential_on(&instance, 5).unwrap();
}

#[test]
fn sgb_batches_equal_the_scan_and_sort_round_on_a_pooled_instance() {
    let instance = pooled_instance(&[Motif::Triangle, Motif::Rectangle]);
    sgb_batches_equal_the_scan_and_sort_round_on(&instance, 8).unwrap();
}

#[test]
fn targeted_batches_equal_the_scan_and_sort_round_on_a_pooled_instance() {
    let instance = pooled_instance(&[Motif::Triangle, Motif::Rectangle]);
    targeted_batches_equal_the_scan_and_sort_round_on(&instance, 8).unwrap();
}

#[test]
fn targeted_and_lazy_rounds_are_thread_invariant_on_a_pooled_instance() {
    let instance = pooled_instance(&[Motif::Triangle]);
    targeted_and_lazy_rounds_are_thread_invariant_on(&instance, 4).unwrap();
}

#[test]
fn targeted_and_lazy_batch_of_one_is_bit_identical_on_a_pooled_instance() {
    let instance = pooled_instance(&[Motif::Triangle, Motif::Rectangle, Motif::RecTri]);
    targeted_and_lazy_batch_of_one_is_bit_identical_on(&instance, 3).unwrap();
}

#[test]
fn stats_collection_never_changes_plans_on_a_pooled_instance() {
    let instance = pooled_instance(&[Motif::Triangle]);
    stats_collection_never_changes_plans_on(&instance, 4).unwrap();
}

/// The rank walk `sample_targets` ran before the upper-edge prefix: the
/// same draw, then one pass over every node in id order, each owning as
/// many consecutive ranks as it has neighbours above it.
fn dense_walk_sample<G: NeighborAccess>(g: &G, count: usize, seed: u64) -> Vec<Edge> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut ranks: Vec<u32> = (0..g.edge_count() as u32).collect();
    ranks.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
    ranks.truncate(count);
    ranks.sort_unstable();
    let mut ranks = ranks.into_iter().peekable();
    let mut targets = Vec::with_capacity(count);
    let mut first = 0u32;
    for u in g.node_ids() {
        let nu = g.neighbors(u);
        let upper = &nu[nu.partition_point(|&v| v < u)..];
        let end = first + upper.len() as u32;
        while let Some(r) = ranks.next_if(|&r| r < end) {
            targets.push(Edge::new(u, upper[(r - first) as usize]));
        }
        first = end;
    }
    targets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sampling through the upper-edge prefix equals the dense walk on
    /// random HK and ER graphs with isolated trailing nodes (and, in both
    /// families, nodes without an upper edge), for one, half and all
    /// edges: on the adjacency-list graph and a CSR snapshot (prefix
    /// computed), a snapshot file loaded at every tier (prefix read from
    /// its section) and a release overlay (prefix of its own edges).
    #[test]
    fn prefix_walk_equals_the_dense_walk(
        family in 0u8..2,
        n in 5usize..70,
        graph_seed in 0u64..10_000,
        trailing in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let mut g = if family == 0 {
            tpp_graph::generators::holme_kim(n, 2, 0.4, graph_seed)
        } else {
            tpp_graph::generators::erdos_renyi_gnp(n, 0.15, graph_seed)
        };
        for _ in 0..trailing {
            g.add_node();
        }
        let m = g.edge_count();
        prop_assume!(m > 0);
        let csr = CsrGraph::from_graph(&g);
        let path = std::env::temp_dir().join(format!(
            "tpp-core-prefix-walk-{}-{graph_seed}-{seed}.csr",
            std::process::id()
        ));
        tpp_store::format::save(&csr, None, &path).unwrap();
        let loaded: Vec<CsrGraph> = [
            tpp_store::VerifyMode::Full,
            tpp_store::VerifyMode::Header,
            tpp_store::VerifyMode::None,
        ]
        .into_iter()
        .map(|verify| tpp_store::format::load_mapped(&path, verify).unwrap())
        .collect();
        std::fs::remove_file(&path).ok();
        let release = TppInstance::with_random_targets(csr.clone(), m.div_ceil(4), seed);
        for count in [1, m / 2, m] {
            let want = dense_walk_sample(&g, count, seed);
            prop_assert_eq!(&TppInstance::sample_targets(&g, count, seed), &want);
            prop_assert_eq!(&TppInstance::sample_targets(&csr, count, seed), &want);
            for snapshot in &loaded {
                prop_assert_eq!(&TppInstance::sample_targets(snapshot, count, seed), &want);
            }
            let released = release.released();
            let count = count.min(released.edge_count());
            prop_assert_eq!(
                TppInstance::sample_targets(released, count, seed),
                dense_walk_sample(released, count, seed)
            );
        }
    }
}
