//! Katz-aware protector selection — the paper's §VII future-work item (1):
//! "more TPP mechanisms against kinds of other link predictions (e.g. Katz
//! index based prediction)".
//!
//! The truncated-Katz score of a hidden pair is a weighted count of walks,
//! which motif deletion reduces but never provably submodularly (walk
//! counts interact through shared edges with non-unit multiplicity). This
//! module therefore implements a *documented heuristic*: greedy deletion of
//! the candidate edge whose removal most reduces the summed truncated-Katz
//! score of all targets. No approximation guarantee is claimed — matching
//! the paper's framing of Katz defense as open.

use crate::plan::{AlgorithmKind, ProtectionPlan, StepRecord};
use crate::problem::TppInstance;
use std::borrow::Cow;
use tpp_exec::Parallelism;
use tpp_graph::{Edge, FastSet, NeighborAccess};
use tpp_motif::Motif;
use tpp_store::DeltaView;

/// Parameters of the Katz attacker being defended against.
#[derive(Debug, Clone, Copy)]
pub struct KatzDefenseConfig {
    /// Walk attenuation factor.
    pub beta: f64,
    /// Truncation length (walks up to this many hops are counted).
    pub max_len: usize,
    /// Worker threads for the per-round candidate scan (`0` = all
    /// available cores); each worker evaluates on a private overlay clone.
    /// Picks are identical for every value.
    pub threads: usize,
}

impl Default for KatzDefenseConfig {
    fn default() -> Self {
        KatzDefenseConfig {
            beta: 0.05,
            max_len: 4,
            threads: 1,
        }
    }
}

/// Truncated-Katz score of pair `(u, v)`: `Σ_{ℓ=1..L} β^ℓ · walks_ℓ(u,v)`,
/// computed by propagating walk counts from `u`.
#[must_use]
pub fn katz_pair_score<G: NeighborAccess>(
    g: &G,
    u: u32,
    v: u32,
    config: &KatzDefenseConfig,
) -> f64 {
    let n = g.node_count();
    let mut walks = vec![0.0f64; n];
    let mut next = vec![0.0f64; n];
    walks[u as usize] = 1.0;
    let mut score = 0.0;
    let mut beta_pow = 1.0;
    for _ in 0..config.max_len {
        beta_pow *= config.beta;
        next.iter_mut().for_each(|x| *x = 0.0);
        for a in g.node_ids() {
            let w = walks[a as usize];
            if w == 0.0 {
                continue;
            }
            for &b in g.neighbors(a) {
                next[b as usize] += w;
            }
        }
        std::mem::swap(&mut walks, &mut next);
        score += beta_pow * walks[v as usize];
    }
    score
}

/// Summed Katz score over all targets — the quantity the heuristic drives
/// down.
#[must_use]
pub fn total_katz_exposure<G: NeighborAccess>(
    g: &G,
    targets: &[Edge],
    config: &KatzDefenseConfig,
) -> f64 {
    targets
        .iter()
        .map(|t| katz_pair_score(g, t.u(), t.v(), config))
        .sum()
}

/// Greedy Katz-defense: deletes up to `k` edges, each round removing the
/// candidate with the largest reduction in [`total_katz_exposure`].
///
/// Candidates are restricted to edges participating in short path motifs
/// between target endpoints (`KPath(2..=min(L,4))` instance edges) — the
/// only edges that can carry dominant walk mass at small `β`.
///
/// The returned plan records the *motif* similarity trajectory for the
/// Triangle pattern so it remains comparable with the other algorithms; the
/// Katz exposure before/after is returned alongside.
#[must_use]
pub fn katz_defense_greedy(
    instance: &TppInstance,
    k: usize,
    config: &KatzDefenseConfig,
) -> (ProtectionPlan, f64, f64) {
    // Zero-clone evaluation: tentative deletions are overlay entries over
    // the borrowed released graph; the base is never copied or mutated.
    let mut g = DeltaView::new(instance.released());
    let initial_exposure = total_katz_exposure(&g, instance.targets(), config);

    // Candidate pool: edges of short-path instances between the endpoints.
    let mut pool: FastSet<Edge> = FastSet::default();
    let max_k = (config.max_len.min(4)) as u8;
    for (idx, t) in instance.targets().iter().enumerate() {
        for kk in 2..=max_k {
            for inst in
                tpp_motif::enumerate_target_subgraphs(&g, t.u(), t.v(), Motif::KPath(kk), idx)
            {
                pool.extend(inst.edges().iter().copied());
            }
        }
    }
    let mut candidates: Vec<Edge> = pool.into_iter().collect();
    candidates.sort_unstable();

    // Motif-similarity bookkeeping for the audit trail.
    let mut motif_index = instance.build_index(Motif::Triangle);
    let initial_similarity = motif_index.total_similarity();

    let mut protectors = Vec::new();
    let mut steps = Vec::new();
    let mut exposure = initial_exposure;
    // One persistent executor pool for every round's scan (spawn-once
    // workers, like the round engine). Katz evaluation cost is uniform
    // across candidates: every probe propagates walk counts from each
    // target over every node and adjacency entry, `max_len` times.
    let exec = Parallelism::new(config.threads);
    let probe = (instance.targets().len())
        .saturating_mul(config.max_len)
        .saturating_mul(g.node_count() + 2 * g.edge_count());
    for round in 0..k {
        // Same scan machinery as the motif engine: each worker clones the
        // committed overlay (the base graph is shared, never copied) and
        // evaluates a contiguous candidate range; first maximizer wins.
        // The comparator must be a strict total order (plain `>` on the
        // finite reductions) — an epsilon band is not transitive, and a
        // non-transitive comparator would let the chunked reduce pick a
        // different edge than the sequential scan.
        let best = sharded_argmax(
            &candidates,
            &exec,
            || Some(vec![probe.max(1); candidates.len()].into()),
            || g.clone(),
            |view, p| {
                if !view.delete_edge(p) {
                    return None;
                }
                let after = total_katz_exposure(view, instance.targets(), config);
                view.restore_edge(p);
                Some(exposure - after)
            },
            |a, b| *a > *b,
        );
        let Some((reduction, p)) = best else { break };
        if reduction <= 1e-15 {
            break;
        }
        g.delete_edge(p);
        exposure -= reduction;
        let broken = motif_index.delete_edge(p);
        protectors.push(p);
        steps.push(StepRecord {
            round,
            protector: p,
            charged_target: None,
            own_broken: broken,
            total_broken: broken,
            similarity_after: motif_index.total_similarity(),
        });
    }

    let plan = ProtectionPlan {
        algorithm: AlgorithmKind::SgbGreedy,
        protectors,
        initial_similarity,
        final_similarity: motif_index.total_similarity(),
        steps,
        per_target: Vec::new(),
    };
    (plan, initial_exposure, exposure)
}

/// First-maximizer-wins argmax over `items`, scanned by `exec`'s workers
/// under work stealing ([`Parallelism::steal_spans`]: contiguous
/// weight-balanced spans claimed through one atomic cursor, or one inline
/// span when the job is too light to pay for a dispatch). `weights` states
/// each item's cost as `steal_spans` takes it.
///
/// Each worker builds one private context with `make_ctx` (reused across
/// every span it claims), scores spans left-to-right with `eval` (`None`
/// skips an item), and keeps the first strict maximum under
/// `better(new, best)`; span maxima reduce in span order. The result is
/// therefore **identical to a sequential left-to-right scan** for every
/// thread count and claim interleaving.
fn sharded_argmax<'w, T, C, S, W, M, E, B>(
    items: &[T],
    exec: &Parallelism,
    weights: W,
    make_ctx: M,
    eval: E,
    better: B,
) -> Option<(S, T)>
where
    T: Copy + Send + Sync,
    S: Send,
    W: FnOnce() -> Option<Cow<'w, [usize]>>,
    M: Fn() -> C + Sync,
    E: Fn(&mut C, T) -> Option<S> + Sync,
    B: Fn(&S, &S) -> bool + Sync,
{
    let span_best = exec.steal_spans(items, weights, &make_ctx, |ctx, span| {
        first_max(
            span.iter()
                .filter_map(|&item| eval(ctx, item).map(|s| (s, item))),
            &better,
        )
    });
    // Canonical-order reduce over the span-ordered maxima.
    first_max(span_best.into_iter().flatten(), &better)
}

/// The first strict maximum of `scored` under `better(new, best)` — the
/// canonical tie-break every span scan and the span reduce share.
fn first_max<S, T>(
    scored: impl IntoIterator<Item = (S, T)>,
    better: &impl Fn(&S, &S) -> bool,
) -> Option<(S, T)> {
    scored.into_iter().fold(None, |best, next| match best {
        Some(b) if !better(&next.0, &b.0) => Some(b),
        _ => Some(next),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::generators::holme_kim;

    fn instance() -> TppInstance {
        let g = holme_kim(120, 4, 0.5, 3);
        TppInstance::with_random_targets(g, 4, 3)
    }

    #[test]
    fn exposure_decreases_monotonically() {
        let inst = instance();
        let cfg = KatzDefenseConfig::default();
        let (plan, before, after) = katz_defense_greedy(&inst, 8, &cfg);
        assert!(after <= before);
        assert!(!plan.protectors.is_empty());
        plan.check_invariants();
        // Physically verify the exposure claim.
        let released = inst.apply_protectors(&plan.protectors);
        let recount = total_katz_exposure(&released, inst.targets(), &cfg);
        assert!((recount - after).abs() < 1e-9);
    }

    #[test]
    fn beats_random_deletion_at_equal_budget() {
        let inst = instance();
        let cfg = KatzDefenseConfig::default();
        let k = 6;
        let (_, before, after) = katz_defense_greedy(&inst, k, &cfg);
        // random baseline averaged over seeds
        let mut random_after = 0.0;
        let trials = 10;
        for seed in 0..trials {
            let plan = crate::baselines::random_deletion(&inst, k, Motif::Triangle, seed);
            let released = inst.apply_protectors(&plan.protectors);
            random_after += total_katz_exposure(&released, inst.targets(), &cfg);
        }
        random_after /= f64::from(trials as u32);
        assert!(
            after < random_after,
            "katz-greedy {after} should beat random {random_after} (from {before})"
        );
    }

    #[test]
    fn picks_are_thread_invariant() {
        // The scan comparator is a strict total order, so the chunked
        // reduce must reproduce the sequential pick sequence exactly —
        // including the f64 exposure bookkeeping, which follows the same
        // arithmetic sequence regardless of which worker evaluated a
        // candidate.
        let inst = instance();
        let (base_plan, base_before, base_after) =
            katz_defense_greedy(&inst, 5, &KatzDefenseConfig::default());
        for threads in [2usize, 4] {
            let cfg = KatzDefenseConfig {
                threads,
                ..Default::default()
            };
            let (plan, before, after) = katz_defense_greedy(&inst, 5, &cfg);
            assert_eq!(base_plan.protectors, plan.protectors, "x{threads}");
            assert_eq!(base_before.to_bits(), before.to_bits(), "x{threads}");
            assert_eq!(base_after.to_bits(), after.to_bits(), "x{threads}");
        }
    }

    #[test]
    fn zero_budget_no_op() {
        let inst = instance();
        let cfg = KatzDefenseConfig::default();
        let (plan, before, after) = katz_defense_greedy(&inst, 0, &cfg);
        assert!(plan.protectors.is_empty());
        assert_eq!(before, after);
    }

    #[test]
    fn katz_pair_score_matches_linkpred_semantics() {
        // Independent mini-check: one edge, beta^1 contribution only at L=1.
        let g = tpp_graph::generators::path_graph(2);
        let cfg = KatzDefenseConfig {
            beta: 0.3,
            max_len: 1,
            threads: 1,
        };
        assert!((katz_pair_score(&g, 0, 1, &cfg) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn sharded_argmax_matches_sequential_scan_exactly() {
        // Scores with many ties: first maximizer must win at every
        // thread count, including ones that don't divide the length.
        let items: Vec<Edge> = (0..97u32).map(|i| Edge::new(i, i + 1)).collect();
        let score = |e: &Edge| usize::from(e.u() % 7 == 3);
        let seq =
            items
                .iter()
                .map(|e| (score(e), *e))
                .fold(None::<(usize, Edge)>, |best, (s, e)| {
                    if best.is_none_or(|(b, _)| s > b) {
                        Some((s, e))
                    } else {
                        best
                    }
                });
        for threads in [1usize, 2, 3, 4, 8, 16] {
            let exec = Parallelism::new(threads);
            let got = sharded_argmax(
                &items,
                &exec,
                || None,
                || (),
                |(), e| Some(score(&e)),
                |a, b| a > b,
            );
            assert_eq!(got, seq, "threads = {threads}");
        }
        // Weighted splitting must not change the winner either.
        let weights: Vec<usize> = items.iter().map(|e| 1 + e.u() as usize % 5).collect();
        let got = sharded_argmax(
            &items,
            &Parallelism::new(4),
            || Some(Cow::from(&weights)),
            || (),
            |(), e| Some(score(&e)),
            |a, b| a > b,
        );
        assert_eq!(got, seq);
    }

    #[test]
    fn sharded_argmax_skips_none_scores() {
        let items: Vec<Edge> = (0..10u32).map(|i| Edge::new(i, i + 1)).collect();
        let exec = Parallelism::new(3);
        let none_at_all = sharded_argmax(
            &items,
            &exec,
            || None,
            || (),
            |(), _| None::<usize>,
            |a, b| a > b,
        );
        assert_eq!(none_at_all, None);
        assert_eq!(
            sharded_argmax::<Edge, (), usize, _, _, _, _>(
                &[],
                &exec,
                || None,
                || (),
                |(), _| Some(1),
                |a, b| a > b
            ),
            None
        );
    }
}
