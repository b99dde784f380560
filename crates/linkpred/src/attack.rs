//! Adversarial link-prediction attack simulation (the paper's threat model,
//! §III-B): the attacker holds the released graph and scores hidden pairs.
//!
//! The paper argues qualitatively that full protection drives subgraph-based
//! predictors to zero; this module quantifies attack success before/after
//! protection with standard link-prediction measures (AUC, precision@k).

use crate::scores::SimilarityIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use tpp_exec::Parallelism;
use tpp_graph::{Edge, NeighborAccess, NodeId};
use tpp_motif::{count_target_subgraphs, Motif};

/// A scoring strategy for a candidate missing link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Attacker {
    /// One of the classic similarity indices.
    Index(SimilarityIndex),
    /// Motif-instance counting — exactly the evidence TPP minimizes.
    MotifCount(Motif),
    /// Truncated Katz walk-counting with `(beta, max_len)`.
    Katz(f64, usize),
}

impl Attacker {
    /// Scores the candidate pair `(u, v)` against the released graph.
    #[must_use]
    pub fn score<G: NeighborAccess>(&self, g: &G, u: NodeId, v: NodeId) -> f64 {
        match *self {
            Attacker::Index(idx) => idx.score(g, u, v),
            Attacker::MotifCount(motif) => count_target_subgraphs(g, u, v, motif) as f64,
            Attacker::Katz(beta, len) => crate::katz::katz_score(g, u, v, beta, len),
        }
    }

    /// Human-readable name for reports.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Attacker::Index(idx) => idx.name().to_string(),
            Attacker::MotifCount(m) => format!("motif-{m}"),
            Attacker::Katz(beta, len) => format!("katz(beta={beta},len={len})"),
        }
    }
}

/// Result of simulating one attacker against one released graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttackOutcome {
    /// Attacker description.
    pub attacker: String,
    /// AUC: probability a random hidden target outranks a random non-edge
    /// (0.5 = blind guessing, 1.0 = perfect inference).
    pub auc: f64,
    /// Fraction of the top-`|T|` ranked candidates that are true targets.
    pub precision_at_t: f64,
    /// Scores assigned to the hidden targets, in target order.
    pub target_scores: Vec<f64>,
    /// Mean target score (0 for all targets = full protection against this
    /// attacker, for score functions that vanish without evidence).
    pub mean_target_score: f64,
}

impl AttackOutcome {
    /// `true` when every hidden target scored exactly zero.
    #[must_use]
    pub fn targets_fully_hidden(&self) -> bool {
        self.target_scores.iter().all(|&s| s == 0.0)
    }
}

/// Samples `count` node pairs that are neither edges of `g` nor listed in
/// `exclude` (e.g. the hidden targets themselves).
#[must_use]
pub fn sample_non_edges<G: NeighborAccess>(
    g: &G,
    count: usize,
    exclude: &[Edge],
    seed: u64,
) -> Vec<Edge> {
    let n = g.node_count();
    assert!(n >= 2, "need at least two nodes to sample non-edges");
    let excluded: tpp_graph::FastSet<Edge> = exclude.iter().copied().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    let mut seen: tpp_graph::FastSet<Edge> = tpp_graph::FastSet::default();
    let mut guard = 0usize;
    while out.len() < count {
        guard += 1;
        assert!(
            guard < 1000 * count.max(16),
            "graph too dense to sample {count} non-edges"
        );
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        if u == v {
            continue;
        }
        let e = Edge::new(u, v);
        if g.has_edge(u, v) || excluded.contains(&e) || seen.contains(&e) {
            continue;
        }
        seen.insert(e);
        out.push(e);
    }
    out
}

/// Scores every pair in `pairs` against `g`, in pair order, through
/// [`Parallelism::steal_spans`]: a pair weighs `deg(u) + deg(v) + 1`
/// adjacency entries, the dominant cost factor for every attacker kind,
/// so a scoring too small to pay for a dispatch runs inline and a larger
/// one is cut into weight-balanced spans claimed work-stealing. The
/// per-span results are flattened **in span order**, so the score vector
/// is bit-identical at every thread count.
fn score_pairs<G: NeighborAccess + Sync>(
    g: &G,
    pairs: &[Edge],
    attacker: Attacker,
    exec: &Parallelism,
) -> Vec<f64> {
    let stats = exec.recorder().stats();
    let t0 = stats.map(|_| Instant::now());
    let weights = || {
        let weights: Vec<usize> = (pairs.iter())
            .map(|e| g.degree(e.u()) + g.degree(e.v()) + 1)
            .collect();
        Some(weights.into())
    };
    let scores = exec
        .steal_spans(
            pairs,
            weights,
            || (),
            |(), span| {
                span.iter()
                    .map(|e| attacker.score(g, e.u(), e.v()))
                    .collect::<Vec<f64>>()
            },
        )
        .concat();
    if let (Some(t0), Some(st)) = (t0, stats) {
        st.attack.pairs_scored.add(pairs.len() as u64);
        st.attack.score_ns.add_duration(t0.elapsed());
    }
    scores
}

/// Simulates `attacker` on the released graph `g`: targets (true hidden
/// links) are scored against `negatives` (non-links) and ranked.
/// Sequential reference entry point — delegates to
/// [`evaluate_attack_on`] with a sequential executor.
#[must_use]
pub fn evaluate_attack<G: NeighborAccess + Sync>(
    g: &G,
    targets: &[Edge],
    negatives: &[Edge],
    attacker: Attacker,
) -> AttackOutcome {
    evaluate_attack_on(g, targets, negatives, attacker, &Parallelism::sequential())
}

/// Like [`evaluate_attack`], with pair scoring sharded across `exec`'s
/// workers. Rankings (and the whole outcome) are **bit-identical** for
/// every thread count: span-ordered reduction makes the score vectors
/// equal to the sequential scan's, and the AUC / precision ranking logic
/// runs on those vectors sequentially. When `exec` carries an enabled
/// recorder, the attack section counts evaluations, pairs scored, and
/// scoring wall time.
#[must_use]
pub fn evaluate_attack_on<G: NeighborAccess + Sync>(
    g: &G,
    targets: &[Edge],
    negatives: &[Edge],
    attacker: Attacker,
    exec: &Parallelism,
) -> AttackOutcome {
    if let Some(st) = exec.recorder().stats() {
        st.attack.evaluations.inc();
    }
    let target_scores: Vec<f64> = score_pairs(g, targets, attacker, exec);
    let negative_scores: Vec<f64> = score_pairs(g, negatives, attacker, exec);

    // AUC by exhaustive pair comparison (sizes here are small).
    let mut wins = 0.0f64;
    for &ts in &target_scores {
        for &ns in &negative_scores {
            if ts > ns {
                wins += 1.0;
            } else if (ts - ns).abs() < 1e-15 {
                wins += 0.5;
            }
        }
    }
    let auc = if target_scores.is_empty() || negative_scores.is_empty() {
        0.5
    } else {
        wins / (target_scores.len() * negative_scores.len()) as f64
    };

    // precision@|T|: rank all candidates together, descending score; ties
    // are broken pessimistically (non-targets first) so full protection
    // cannot luck into precision.
    let k = targets.len();
    let mut ranked: Vec<(f64, bool)> = target_scores
        .iter()
        .map(|&s| (s, true))
        .chain(negative_scores.iter().map(|&s| (s, false)))
        .collect();
    ranked.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.1.cmp(&b.1)) // false (non-target) before true
    });
    let hits = ranked.iter().take(k).filter(|&&(_, t)| t).count();
    let precision_at_t = if k == 0 { 0.0 } else { hits as f64 / k as f64 };

    let mean_target_score = if target_scores.is_empty() {
        0.0
    } else {
        target_scores.iter().sum::<f64>() / target_scores.len() as f64
    };
    AttackOutcome {
        attacker: attacker.name(),
        auc,
        precision_at_t,
        target_scores,
        mean_target_score,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::generators::holme_kim;

    /// Build a released graph where targets still have strong triangle
    /// evidence, plus a protected version with the evidence destroyed.
    fn scenario() -> (Graph, Graph, Vec<Edge>) {
        let mut g = holme_kim(300, 4, 0.6, 21);
        // pick targets that have common neighbors (inferable links)
        let mut targets = Vec::new();
        for e in g.edge_vec() {
            if g.common_neighbor_count(e.u(), e.v()) >= 2 {
                targets.push(e);
                if targets.len() == 10 {
                    break;
                }
            }
        }
        assert_eq!(targets.len(), 10, "fixture needs 10 inferable targets");
        for t in &targets {
            g.remove_edge(t.u(), t.v());
        }
        // naive full protection: delete every edge incident to a common
        // neighbor of each target (crude but guarantees zero CN evidence).
        let mut protected = g.clone();
        for t in &targets {
            let commons = protected.common_neighbors(t.u(), t.v());
            for w in commons {
                protected.remove_edge(t.u(), w);
            }
        }
        (g, protected, targets)
    }

    #[test]
    fn attack_succeeds_without_protection() {
        let (released, _, targets) = scenario();
        let negatives = sample_non_edges(&released, 200, &targets, 5);
        let outcome = evaluate_attack(
            &released,
            &targets,
            &negatives,
            Attacker::Index(SimilarityIndex::CommonNeighbors),
        );
        assert!(
            outcome.auc > 0.8,
            "CN attack should work, auc = {}",
            outcome.auc
        );
        assert!(outcome.mean_target_score > 0.5);
    }

    #[test]
    fn full_protection_defeats_triangle_attackers() {
        let (_, protected, targets) = scenario();
        let negatives = sample_non_edges(&protected, 200, &targets, 5);
        for idx in SimilarityIndex::TRIANGLE_BASED {
            let outcome = evaluate_attack(&protected, &targets, &negatives, Attacker::Index(idx));
            assert!(
                outcome.targets_fully_hidden(),
                "{idx}: target scores {:?}",
                outcome.target_scores
            );
            assert!(outcome.auc <= 0.55, "{idx}: auc = {}", outcome.auc);
        }
    }

    #[test]
    fn motif_attacker_matches_similarity_semantics() {
        let (released, _, targets) = scenario();
        let attacker = Attacker::MotifCount(Motif::Triangle);
        let t = targets[0];
        let score = attacker.score(&released, t.u(), t.v());
        assert_eq!(
            score,
            released.common_neighbor_count(t.u(), t.v()) as f64,
            "triangle motif count == common neighbor count"
        );
    }

    #[test]
    fn sample_non_edges_respects_constraints() {
        let g = holme_kim(100, 3, 0.2, 2);
        let exclude = vec![Edge::new(0, 99)];
        let sampled = sample_non_edges(&g, 50, &exclude, 7);
        assert_eq!(sampled.len(), 50);
        for e in &sampled {
            assert!(!g.contains(*e), "sampled an existing edge {e}");
            assert_ne!(*e, exclude[0], "sampled an excluded pair");
        }
        // distinct
        let set: std::collections::HashSet<_> = sampled.iter().collect();
        assert_eq!(set.len(), 50);
    }

    #[test]
    fn precision_tie_break_is_pessimistic() {
        // All scores zero: precision must be 0, not a lucky 50%.
        let g = Graph::new(10);
        let targets = vec![Edge::new(0, 1), Edge::new(2, 3)];
        let negatives = vec![Edge::new(4, 5), Edge::new(6, 7)];
        let outcome = evaluate_attack(
            &g,
            &targets,
            &negatives,
            Attacker::Index(SimilarityIndex::CommonNeighbors),
        );
        assert_eq!(outcome.precision_at_t, 0.0);
        assert_eq!(outcome.auc, 0.5);
        assert!(outcome.targets_fully_hidden());
    }

    #[test]
    fn parallel_attack_rankings_are_bit_identical_across_threads() {
        let (released, _, targets) = scenario();
        let negatives = sample_non_edges(&released, 200, &targets, 5);
        for attacker in [
            Attacker::Index(SimilarityIndex::CommonNeighbors),
            Attacker::Index(SimilarityIndex::AdamicAdar),
            Attacker::MotifCount(Motif::Triangle),
            Attacker::Katz(0.05, 3),
        ] {
            let base = evaluate_attack(&released, &targets, &negatives, attacker);
            for threads in [1usize, 2, 4] {
                let exec = Parallelism::new(threads);
                let par = evaluate_attack_on(&released, &targets, &negatives, attacker, &exec);
                // Bit-identical, not approximately equal: the span-ordered
                // reduce must reproduce the sequential score vector exactly.
                assert_eq!(
                    base.target_scores,
                    par.target_scores,
                    "{} x{threads}",
                    attacker.name()
                );
                assert_eq!(base.auc.to_bits(), par.auc.to_bits());
                assert_eq!(base.precision_at_t.to_bits(), par.precision_at_t.to_bits());
                assert_eq!(
                    base.mean_target_score.to_bits(),
                    par.mean_target_score.to_bits()
                );
            }
        }
    }

    #[test]
    fn recorder_counts_attack_evaluations() {
        let (released, _, targets) = scenario();
        let negatives = sample_non_edges(&released, 50, &targets, 9);
        let obs = tpp_obs::Recorder::enabled();
        let exec = Parallelism::new(2).attach_recorder(obs.clone());
        let outcome = evaluate_attack_on(
            &released,
            &targets,
            &negatives,
            Attacker::Index(SimilarityIndex::CommonNeighbors),
            &exec,
        );
        assert!(outcome.auc > 0.0);
        let st = obs.stats().unwrap();
        assert_eq!(st.attack.evaluations.get(), 1);
        assert_eq!(
            st.attack.pairs_scored.get(),
            (targets.len() + negatives.len()) as u64
        );
    }

    #[test]
    fn katz_attacker_sees_longer_paths() {
        // Path 0-2-3-1: no common neighbors but a 3-walk connects 0 and 1.
        let g = Graph::from_edges([(0u32, 2u32), (2, 3), (3, 1)]);
        let cn = Attacker::Index(SimilarityIndex::CommonNeighbors).score(&g, 0, 1);
        let katz = Attacker::Katz(0.1, 4).score(&g, 0, 1);
        assert_eq!(cn, 0.0);
        assert!(katz > 0.0, "katz should see the 3-hop path");
    }

    use tpp_graph::Graph;
}
