//! Gain oracles: how the greedy algorithms evaluate `Δ_p`.
//!
//! Two implementations back the same greedy loops:
//!
//! * [`IndexOracle`] — the scalable path: a [`PartitionedCoverageIndex`]
//!   built once, with incremental deletion. Candidate edges
//!   can be restricted to target-subgraph edges (Lemma 5), giving the
//!   paper's `-R` algorithms.
//! * [`SnapshotOracle`] — the paper-faithful plain path: every gain is a
//!   fresh motif recount of all targets with the candidate deleted. This is
//!   what makes the plain algorithms ~20× slower in Fig. 5 and week-long on
//!   DBLP — kept both for fidelity and as an ablation baseline. Candidate
//!   evaluation stacks a fresh [`tpp_store::DeltaView`] holding the one
//!   tentative deletion over the committed view, so setup is `O(1)` and
//!   neither the base nor the committed view is cloned or mutated.
//!
//! Every gain query is a `&self` read of the committed state, so the round
//! engine's scan workers share one oracle and score candidates
//! concurrently between two commits. The greedy drivers hand the engine
//! the one oracle their [`GreedyConfig`](crate::GreedyConfig) selects, as
//! a `Box<dyn GainOracle + Sync>`.

use crate::problem::Release;
use tpp_exec::Parallelism;
use tpp_graph::{Edge, FastSet, NeighborAccess};
use tpp_motif::{count_target_subgraphs, InstanceId, Motif, PartitionedCoverageIndex};
use tpp_store::DeltaView;

/// Candidate-set policy (Lemma 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidatePolicy {
    /// Every remaining edge of the released graph is a candidate — the
    /// plain SGB/CT/WT algorithms.
    AllEdges,
    /// Only edges participating in alive target subgraphs — the `-R`
    /// scalable variants.
    SubgraphEdges,
}

/// Uniform interface over gain evaluation strategies.
///
/// Gain queries (`gain`, `gain_vector`, `gain_set`) only read the committed
/// state: any number of threads may ask them through one shared reference
/// between two commits.
pub trait GainOracle {
    /// Current total similarity `s(P, T)`.
    fn total_similarity(&self) -> usize;
    /// `Δ_p`: total instances a deletion of `p` would break right now.
    fn gain(&self, p: Edge) -> usize;
    /// Per-target broken-instance counts for deleting `p` (one entry per
    /// target). `gain(p) = gain_vector(p).sum()`.
    fn gain_vector(&self, p: Edge) -> Vec<usize>;
    /// Candidate protector edges under `policy`, sorted canonically.
    fn candidates(&self, policy: CandidatePolicy) -> Vec<Edge>;
    /// Permanently deletes `p`; returns the realized gain.
    fn commit(&mut self, p: Edge) -> usize;
    /// Permanently deletes a batch of edges; returns the per-edge realized
    /// gains in input order. The default commits one edge at a time; the
    /// index oracle passes the batch to the index in one call (same
    /// result).
    fn commit_batch(&mut self, edges: &[Edge]) -> Vec<usize> {
        edges.iter().map(|&e| self.commit(e)).collect()
    }
    /// The ids of the alive instances `p` would break — its current gain
    /// set — when the oracle can enumerate them cheaply. `None` means the
    /// oracle cannot, in which case the engine's batch-commit mode treats
    /// every pair of candidates as conflicting and falls back to
    /// sequential (single-pick) commits.
    fn gain_set(&self, p: Edge) -> Option<Vec<InstanceId>> {
        let _ = p;
        None
    }
    /// Hands the oracle the engine's executor handle, so that commits
    /// report to the run's recorder. Never changes a result; the default
    /// ignores it.
    fn set_parallelism(&mut self, exec: &Parallelism) {
        let _ = exec;
    }
    /// Number of targets.
    fn target_count(&self) -> usize;
    /// Predicted cost of one `probe` of each of `candidates`, in entries
    /// read — one adjacency or posting entry is 1, the unit of
    /// [`Parallelism::steal_spans`] weights — or `None` when every such
    /// probe costs 1 (a count read). The round engine's bound sweep passes
    /// them to `steal_spans`, where they balance the spans and decide
    /// whether the sweep is worth a dispatch; no gain depends on them. The
    /// default: every probe costs 1.
    fn probe_costs(&self, candidates: &[Edge], probe: Probe) -> Option<Vec<usize>> {
        let _ = (candidates, probe);
        None
    }
}

/// Which gain read a bound-sweep probe makes, for
/// [`GainOracle::probe_costs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// [`GainOracle::gain`]: the total (SGB, CELF).
    Total,
    /// [`GainOracle::gain_vector`]: the per-target split (CT, WT).
    Split,
}

/// The `parts` argument every [`IndexOracle`] passes to
/// [`PartitionedCoverageIndex::build_parallel`], where it has no effect
/// (the index is flat). Callers that build a [`PartitionedCoverageIndex`]
/// for [`IndexOracle::from_prebuilt`] pass it too.
pub const DEFAULT_INDEX_PARTITIONS: usize = 8;

/// Incremental oracle over a [`PartitionedCoverageIndex`] and the borrowed
/// [`Release`] it was built over. A commit walks the deleted edge's
/// posting and decrements the counts of the instances it kills. The
/// graph is never copied: `AllEdges` candidates are the released edges
/// minus the committed deletions.
pub struct IndexOracle<'a> {
    index: PartitionedCoverageIndex,
    released: &'a Release,
    /// Edges committed so far.
    deleted: FastSet<Edge>,
}

impl<'a> IndexOracle<'a> {
    /// Builds the oracle from the released graph and targets (sequential
    /// index build).
    #[must_use]
    pub fn new(released: &'a Release, targets: &[Edge], motif: Motif) -> Self {
        Self::build_on(released, targets, motif, &Parallelism::sequential())
    }

    /// Builds the oracle on a shared executor: the index's target
    /// enumeration is spread over it
    /// ([`PartitionedCoverageIndex::build_parallel`]), bit-identical to the
    /// sequential build at every executor width. The handle's recorder
    /// counts the commits (until the engine hands over its own).
    #[must_use]
    pub fn build_on(
        released: &'a Release,
        targets: &[Edge],
        motif: Motif,
        exec: &Parallelism,
    ) -> Self {
        Self::from_prebuilt(
            PartitionedCoverageIndex::build_parallel(
                released,
                targets,
                motif,
                DEFAULT_INDEX_PARTITIONS,
                exec,
            ),
            released,
        )
    }

    /// Wraps an already-built index (a warm clone from a serve registry)
    /// instead of building one. The caller guarantees `index` was built
    /// over `released` with the run's motif and targets; a deterministic
    /// build means the clone behaves bit-identically to a fresh build.
    #[must_use]
    pub fn from_prebuilt(index: PartitionedCoverageIndex, released: &'a Release) -> Self {
        IndexOracle {
            index,
            released,
            deleted: FastSet::default(),
        }
    }

    /// Read access to the underlying partitioned index (reporting,
    /// verification).
    #[must_use]
    pub fn index(&self) -> &PartitionedCoverageIndex {
        &self.index
    }
}

impl GainOracle for IndexOracle<'_> {
    fn total_similarity(&self) -> usize {
        self.index.total_similarity()
    }

    fn gain(&self, p: Edge) -> usize {
        self.index.gain(p)
    }

    fn gain_vector(&self, p: Edge) -> Vec<usize> {
        self.index.gain_vector(p)
    }

    fn candidates(&self, policy: CandidatePolicy) -> Vec<Edge> {
        match policy {
            CandidatePolicy::AllEdges => {
                let mut edges = self.released.collect_edges();
                edges.retain(|e| !self.deleted.contains(e));
                edges
            }
            CandidatePolicy::SubgraphEdges => self.index.alive_candidate_edges(),
        }
    }

    fn commit(&mut self, p: Edge) -> usize {
        self.deleted.insert(p);
        self.index.delete_edge(p)
    }

    fn commit_batch(&mut self, edges: &[Edge]) -> Vec<usize> {
        self.deleted.extend(edges.iter().copied());
        self.index.delete_edges(edges)
    }

    fn gain_set(&self, p: Edge) -> Option<Vec<InstanceId>> {
        Some(self.index.alive_instance_ids(p))
    }

    fn set_parallelism(&mut self, exec: &Parallelism) {
        self.index.set_parallelism(exec.clone());
    }

    fn target_count(&self) -> usize {
        self.index.targets().len()
    }

    /// A total is one count read. A split zeroes |T| counts, then walks
    /// the candidate's posting.
    fn probe_costs(&self, candidates: &[Edge], probe: Probe) -> Option<Vec<usize>> {
        let targets = self.index.targets().len();
        (probe == Probe::Split).then(|| {
            candidates
                .iter()
                .map(|&p| targets + self.index.posting_len(p) + 1)
                .collect()
        })
    }
}

/// Recount oracle over a [`DeltaView`]: the paper's plain cost model (every
/// gain is a fresh motif recount), with **zero** graph clones — the base
/// stays immutable and shared; committed deletions live in the overlay, and
/// each candidate evaluation recounts through a fresh view stacked on it
/// that holds the one tentative deletion.
///
/// The base can be any representation implementing [`NeighborAccess`],
/// borrowed (`SnapshotOracle::new(&graph, ..)`) or shared. Over a phase-1
/// [`Release`] the oracle commits into a clone of the release itself
/// ([`SnapshotOracle::from_view`]), so a trial reads two overlay layers,
/// not three.
pub struct SnapshotOracle<B: NeighborAccess> {
    view: DeltaView<B>,
    targets: Vec<Edge>,
    motif: Motif,
    /// Per-target similarities under the current committed overlay —
    /// invariant between commits, so `gain`/`gain_vector` cost one
    /// tentative recount instead of two.
    current_per_target: Vec<usize>,
    /// Sum of `current_per_target` (the total similarity).
    current_total: usize,
}

impl<B: NeighborAccess> SnapshotOracle<B> {
    /// Builds the oracle over an immutable base (no copy is taken).
    #[must_use]
    pub fn new(base: B, targets: &[Edge], motif: Motif) -> Self {
        Self::from_view(DeltaView::new(base), targets, motif)
    }

    /// Builds the oracle committing into `view`: the graph it reads is the
    /// view as given, so its existing deletions (a release's targets) are
    /// never candidates.
    #[must_use]
    pub fn from_view(view: DeltaView<B>, targets: &[Edge], motif: Motif) -> Self {
        let current_per_target = count_each(&view, targets, motif);
        let current_total = current_per_target.iter().sum();
        SnapshotOracle {
            view,
            targets: targets.to_vec(),
            motif,
            current_per_target,
            current_total,
        }
    }

    /// The overlay view with all committed deletions applied.
    #[must_use]
    pub fn view(&self) -> &DeltaView<B> {
        &self.view
    }

    /// The committed view with `p` tentatively deleted, stacked as a fresh
    /// overlay so the committed view is only read; `None` when `p` is not a
    /// live edge (deleting it would break nothing).
    fn without(&self, p: Edge) -> Option<DeltaView<&DeltaView<B>>> {
        let mut trial = DeltaView::new(&self.view);
        trial.delete_edge(p).then_some(trial)
    }
}

fn count_each<G: NeighborAccess>(g: &G, targets: &[Edge], motif: Motif) -> Vec<usize> {
    targets
        .iter()
        .map(|t| count_target_subgraphs(g, t.u(), t.v(), motif))
        .collect()
}

/// Re-enumerates the Lemma 5 restricted candidate set (edges of alive
/// target subgraphs) from scratch on any readable representation — the
/// recount oracle's restricted candidate source.
fn subgraph_edge_candidates<G: NeighborAccess>(g: &G, targets: &[Edge], motif: Motif) -> Vec<Edge> {
    let mut out: tpp_graph::FastSet<Edge> = tpp_graph::FastSet::default();
    for (idx, t) in targets.iter().enumerate() {
        for inst in tpp_motif::enumerate_target_subgraphs(g, t.u(), t.v(), motif, idx) {
            out.extend(inst.edges().iter().copied());
        }
    }
    let mut v: Vec<Edge> = out.into_iter().collect();
    v.sort_unstable();
    v
}

impl<B: NeighborAccess> GainOracle for SnapshotOracle<B> {
    fn total_similarity(&self) -> usize {
        self.current_total
    }

    fn gain(&self, p: Edge) -> usize {
        let Some(trial) = self.without(p) else {
            return 0;
        };
        let after: usize = self
            .targets
            .iter()
            .map(|t| count_target_subgraphs(&trial, t.u(), t.v(), self.motif))
            .sum();
        self.current_total - after
    }

    fn gain_vector(&self, p: Edge) -> Vec<usize> {
        let Some(trial) = self.without(p) else {
            return vec![0; self.targets.len()];
        };
        // One tentative pass per target; "before" is the cached committed
        // state, invariant between commits.
        let after = count_each(&trial, &self.targets, self.motif);
        self.current_per_target
            .iter()
            .zip(&after)
            .map(|(&b, &a)| b - a)
            .collect()
    }

    fn candidates(&self, policy: CandidatePolicy) -> Vec<Edge> {
        match policy {
            CandidatePolicy::AllEdges => self.view.collect_edges(),
            CandidatePolicy::SubgraphEdges => {
                subgraph_edge_candidates(&self.view, &self.targets, self.motif)
            }
        }
    }

    fn commit(&mut self, p: Edge) -> usize {
        if !self.view.delete_edge(p) {
            return 0;
        }
        self.current_per_target = count_each(&self.view, &self.targets, self.motif);
        let after: usize = self.current_per_target.iter().sum();
        let broken = self.current_total - after;
        self.current_total = after;
        broken
    }

    fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Either probe recounts every target over a view stacked on the
    /// committed one, whose reads of `p`'s endpoints pass its deletion.
    fn probe_costs(&self, candidates: &[Edge], _: Probe) -> Option<Vec<usize>> {
        let recount: usize = (self.targets.iter())
            .map(|t| tpp_motif::enumeration_cost(&self.view, t.u(), t.v(), self.motif))
            .sum();
        Some(
            candidates
                .iter()
                .map(|&p| recount + self.view.degree(p.u()) + self.view.degree(p.v()) + 1)
                .collect(),
        )
    }
}

/// Builds the oracle `config.evaluator` selects over the instance's
/// released graph and targets, on the run's shared executor — the index
/// build runs on the same pool as the engine's sweeps (the build is
/// bit-identical at every pool width). A matching seed is copied, and
/// the copy timed (`index.seed_copy_ns`): only its flags and counts are
/// copied, the layout is shared.
pub(crate) fn oracle_for<'a>(
    instance: &'a crate::problem::TppInstance,
    config: &crate::algorithms::GreedyConfig,
    exec: &Parallelism,
) -> Box<dyn GainOracle + Sync + 'a> {
    use crate::algorithms::EvaluatorKind;
    let (released, targets) = (instance.released(), instance.targets());
    match config.evaluator {
        // A matching registry seed skips the index build entirely (the
        // warm path of `tpp serve`); anything else builds fresh on the
        // shared executor.
        EvaluatorKind::Index => Box::new(
            match config
                .index_seed
                .as_deref()
                .filter(|idx| idx.motif() == config.motif && idx.targets() == targets)
            {
                Some(index) => {
                    let stats = exec.recorder().stats();
                    let copy = tpp_obs::SpanTimer::counter(stats.map(|s| &s.index.seed_copy_ns));
                    let index = index.clone();
                    copy.stop();
                    IndexOracle::from_prebuilt(index, released)
                }
                None => IndexOracle::build_on(released, targets, config.motif, exec),
            },
        ),
        EvaluatorKind::DeltaRecount => Box::new(SnapshotOracle::from_view(
            released.clone(),
            targets,
            config.motif,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tpp_graph::generators::erdos_renyi_gnp;
    use tpp_graph::Graph;
    use tpp_store::CsrGraph;

    /// `(own, cross)` split of a per-target gain vector relative to
    /// target `t` — the recount side of every `gain_split` comparison.
    fn split(v: &[usize], t: usize) -> (usize, usize) {
        (v[t], v.iter().sum::<usize>() - v[t])
    }

    /// The released graph (as a `Graph` with the targets removed, and as
    /// the phase-1 overlay over the original's CSR snapshot) and the
    /// targets it hides.
    fn fixture() -> (Graph, Release, Vec<Edge>) {
        let mut g = erdos_renyi_gnp(24, 0.25, 5);
        let targets = vec![Edge::new(0, 1), Edge::new(2, 3), Edge::new(4, 5)];
        let mut rel = DeltaView::new(Arc::new(CsrGraph::from_graph(&g)));
        for t in &targets {
            g.remove_edge(t.u(), t.v());
            rel.delete_edge(*t);
        }
        (g, rel, targets)
    }

    #[test]
    fn oracles_agree_on_everything() {
        for motif in Motif::ALL {
            let (g, rel, targets) = fixture();
            let mut idx = IndexOracle::new(&rel, &targets, motif);
            let mut naive = SnapshotOracle::new(&g, &targets, motif);
            assert_eq!(idx.total_similarity(), naive.total_similarity());
            let cands = idx.candidates(CandidatePolicy::SubgraphEdges);
            assert_eq!(cands, naive.candidates(CandidatePolicy::SubgraphEdges));
            for &p in cands.iter().take(12) {
                assert_eq!(idx.gain(p), naive.gain(p), "{motif} gain({p})");
                assert_eq!(idx.gain_vector(p), naive.gain_vector(p));
                assert_eq!(idx.gain_vector(p).iter().sum::<usize>(), idx.gain(p));
                let v = naive.gain_vector(p);
                for t in 0..targets.len() {
                    assert_eq!(
                        idx.index().gain_split(p, t),
                        split(&v, t),
                        "{motif} split({p}, {t})"
                    );
                }
            }
            // Commit a few deletions and re-check agreement.
            for &p in cands.iter().take(3) {
                assert_eq!(idx.commit(p), naive.commit(p), "{motif} commit({p})");
                assert_eq!(idx.total_similarity(), naive.total_similarity());
            }
        }
    }

    #[test]
    fn gain_split_sums_to_gain() {
        let (_, rel, targets) = fixture();
        let idx = IndexOracle::new(&rel, &targets, Motif::Triangle);
        for p in idx.candidates(CandidatePolicy::SubgraphEdges) {
            let total = idx.gain(p);
            let split_sum: usize = (0..idx.target_count())
                .map(|t| idx.index().gain_split(p, t).0)
                .sum();
            assert_eq!(total, split_sum);
            let (own, cross) = idx.index().gain_split(p, 0);
            assert_eq!(own + cross, total);
        }
    }

    #[test]
    fn all_edges_policy_includes_zero_gain_edges() {
        let (g, rel, targets) = fixture();
        let idx = IndexOracle::new(&rel, &targets, Motif::Triangle);
        let all = idx.candidates(CandidatePolicy::AllEdges);
        let restricted = idx.candidates(CandidatePolicy::SubgraphEdges);
        assert_eq!(all.len(), g.edge_count());
        assert!(restricted.len() <= all.len());
        for e in &restricted {
            assert!(all.contains(e), "restricted ⊆ all violated at {e}");
        }
    }

    #[test]
    fn committed_edges_leave_candidates() {
        let (_, rel, targets) = fixture();
        let mut idx = IndexOracle::new(&rel, &targets, Motif::Triangle);
        let all_before = idx.candidates(CandidatePolicy::AllEdges).len();
        let p = idx.candidates(CandidatePolicy::SubgraphEdges)[0];
        idx.commit(p);
        let all_after = idx.candidates(CandidatePolicy::AllEdges);
        assert_eq!(all_after.len(), all_before - 1);
        assert!(!all_after.contains(&p));
        assert!(!idx.candidates(CandidatePolicy::SubgraphEdges).contains(&p));
    }

    #[test]
    fn snapshot_oracle_agrees_with_both_paths() {
        for motif in Motif::ALL {
            let (g, rel, targets) = fixture();
            let mut idx = IndexOracle::new(&rel, &targets, motif);
            let mut snap_graph = SnapshotOracle::new(&g, &targets, motif);
            let mut snap_csr = SnapshotOracle::new(&rel, &targets, motif);
            assert_eq!(snap_graph.total_similarity(), idx.total_similarity());
            assert_eq!(snap_csr.total_similarity(), idx.total_similarity());
            let cands = idx.candidates(CandidatePolicy::SubgraphEdges);
            assert_eq!(cands, snap_graph.candidates(CandidatePolicy::SubgraphEdges));
            assert_eq!(cands, snap_csr.candidates(CandidatePolicy::SubgraphEdges));
            assert_eq!(
                snap_csr.candidates(CandidatePolicy::AllEdges),
                idx.candidates(CandidatePolicy::AllEdges)
            );
            assert_eq!(
                snap_graph.candidates(CandidatePolicy::AllEdges),
                idx.candidates(CandidatePolicy::AllEdges)
            );
            for &p in cands.iter().take(10) {
                assert_eq!(idx.gain(p), snap_graph.gain(p), "{motif} gain({p})");
                assert_eq!(idx.gain(p), snap_csr.gain(p), "{motif} rel gain({p})");
                let v = snap_csr.gain_vector(p);
                assert_eq!(idx.gain_vector(p), v);
                for t in 0..targets.len() {
                    assert_eq!(idx.index().gain_split(p, t), split(&v, t));
                }
            }
            for &p in cands.iter().take(3) {
                let broken = idx.commit(p);
                assert_eq!(broken, snap_graph.commit(p), "{motif} commit({p})");
                assert_eq!(broken, snap_csr.commit(p));
                assert_eq!(idx.total_similarity(), snap_csr.total_similarity());
            }
            // Tentative evaluation never dirtied the base beyond commits.
            assert_eq!(snap_csr.view().deleted_count(), 3.min(cands.len()));
        }
    }

    #[test]
    fn snapshot_oracle_gain_on_missing_edge_is_zero() {
        let (g, rel, targets) = fixture();
        // A guaranteed-absent pair so the assertions always execute.
        let absent = (0..24u32)
            .flat_map(|u| ((u + 1)..24).map(move |v| Edge::new(u, v)))
            .find(|e| !rel.has_edge(e.u(), e.v()))
            .expect("a 24-node graph with p = 0.25 always has non-edges");
        fn check<B: NeighborAccess>(base: &B, targets: &[Edge], absent: Edge) {
            let zeros = vec![0; targets.len()];
            let mut snap = SnapshotOracle::new(base, targets, Motif::Triangle);
            // Never-live edges: a non-edge and a hidden target link.
            for missing in [absent, targets[0]] {
                assert_eq!(snap.gain(missing), 0, "{missing}");
                assert_eq!(snap.gain_vector(missing), zeros, "{missing}");
            }
            assert_eq!(snap.commit(absent), 0);
            // An already-committed edge: the stacked trial view finds it
            // gone and leaves the committed state as it was.
            let p = snap.candidates(CandidatePolicy::SubgraphEdges)[0];
            assert!(snap.commit(p) > 0);
            let (total, deleted) = (snap.total_similarity(), snap.view().deleted_count());
            assert_eq!(snap.gain(p), 0);
            assert_eq!(snap.gain_vector(p), zeros);
            assert_eq!(snap.total_similarity(), total);
            assert_eq!(snap.view().deleted_count(), deleted);
        }
        check(&g, &targets, absent);
        check(&rel, &targets, absent);
    }

    #[test]
    fn naive_gain_on_missing_edge_is_zero() {
        // The plain-config recount oracle over the released graph itself.
        let (g, _, targets) = fixture();
        let naive = SnapshotOracle::new(&g, &targets, Motif::Triangle);
        assert_eq!(naive.gain(Edge::new(0, 1)), 0, "target edge absent");
        assert_eq!(naive.gain_vector(Edge::new(0, 1)), vec![0; targets.len()]);
    }

    #[test]
    fn gains_are_shared_reads() {
        // Two threads score every candidate through one `&` oracle at once
        // and must see exactly the sequential pass's gain vectors.
        fn check(name: &str, oracle: &mut (dyn GainOracle + Sync)) {
            let cands = oracle.candidates(CandidatePolicy::SubgraphEdges);
            oracle.commit_batch(&cands[..2]);
            let cands = oracle.candidates(CandidatePolicy::SubgraphEdges);
            let oracle: &(dyn GainOracle + Sync) = oracle;
            let score = |order: &[Edge]| -> Vec<Vec<usize>> {
                order.iter().map(|&p| oracle.gain_vector(p)).collect()
            };
            let sequential = score(&cands);
            let reversed: Vec<Edge> = cands.iter().rev().copied().collect();
            let (front, mut back) = std::thread::scope(|s| {
                let front = s.spawn(|| score(&cands));
                let back = s.spawn(|| score(&reversed));
                (front.join().unwrap(), back.join().unwrap())
            });
            back.reverse();
            assert_eq!(front, sequential, "{name}");
            assert_eq!(back, sequential, "{name}");
            assert!(sequential.iter().flatten().any(|&g| g > 0), "{name}");
        }
        let (_, rel, targets) = fixture();
        let motif = Motif::Triangle;
        check("index", &mut IndexOracle::new(&rel, &targets, motif));
        check("snapshot", &mut SnapshotOracle::new(&rel, &targets, motif));
        check(
            "weighted",
            &mut crate::extensions::WeightedIndexOracle::new(&rel, &targets, motif, &[1, 2, 3]),
        );
    }
}
