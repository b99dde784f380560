//! The three greedy protector-selection algorithms of the paper
//! (SGB-Greedy, CT-Greedy, WT-Greedy), their scalable `-R` variants, and a
//! CELF lazy-greedy ablation.
//!
//! All of them are thin strategy configs on the unified
//! [`RoundEngine`](crate::engine::RoundEngine): the engine owns the
//! per-round candidate scan (sequential or sharded across threads), the
//! canonical tie-break, the CELF lazy queue, and the step recording; each
//! algorithm only decides which rounds run and how candidates are scored.
//!
//! Every algorithm is parameterized by a [`GreedyConfig`]:
//!
//! * `evaluator` selects the gain oracle — [`EvaluatorKind::Index`] is the
//!   incremental coverage index, [`EvaluatorKind::DeltaRecount`] recounts
//!   motifs on every evaluation (the paper's plain cost model);
//! * `candidates` selects the candidate policy — all edges (plain) or only
//!   target-subgraph edges (`-R`, Lemma 5);
//! * `threads` shards each round's scan across workers — plans are
//!   bit-identical for every thread count and every evaluator.
//!
//! The paper's named variants map to:
//!
//! | Paper name      | `GreedyConfig`            |
//! |-----------------|---------------------------|
//! | `SGB-Greedy`    | `GreedyConfig::plain(m)`   |
//! | `SGB-Greedy-R`  | `GreedyConfig::scalable(m)`|
//! | (same for CT/WT)|                            |

mod celf;
mod ct;
mod sgb;
mod wt;

pub use celf::{celf_greedy, celf_greedy_batch};
pub use ct::{ct_greedy, ct_greedy_batch};
pub use sgb::{sgb_greedy, sgb_greedy_batch};
pub use wt::{wt_greedy, wt_greedy_batch};

use crate::oracle::CandidatePolicy;
use std::sync::Arc;
use tpp_exec::Parallelism;
use tpp_graph::Edge;
use tpp_motif::{Motif, PartitionedCoverageIndex};
use tpp_obs::Recorder;

/// Which gain-evaluation machinery to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvaluatorKind {
    /// Incremental coverage index (fast; exact).
    Index,
    /// Full motif recount per evaluation (the paper's plain cost model)
    /// over a `tpp_store::DeltaView` overlay with zero graph clones — the
    /// released graph is borrowed immutably and candidate deletions are
    /// tentative overlay entries.
    DeltaRecount,
}

/// Observability settings for a greedy run: which [`Recorder`] the round
/// engine, the coverage index, and the executor report into.
///
/// The default ([`Recorder::disabled`]) is a no-op handle: every recording
/// site reduces to one `Option` branch, so uninstrumented runs stay on the
/// pre-instrumentation hot path and produce bit-identical plans (pinned by
/// the stats-parity proptest).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// The telemetry sink. Enabled recorders are cheap `Arc` handles;
    /// clone the one handle everywhere the same run should report.
    pub recorder: Recorder,
}

impl ObsConfig {
    /// Stats collection into a fresh recorder.
    #[must_use]
    pub fn enabled() -> Self {
        ObsConfig {
            recorder: Recorder::enabled(),
        }
    }

    /// No stats collection (the default).
    #[must_use]
    pub fn disabled() -> Self {
        ObsConfig::default()
    }
}

/// An optional pre-built [`PartitionedCoverageIndex`] a run may start
/// from instead of building its own — how a resident process turns its
/// index registry into warm starts. The seed is consulted only by the
/// [`EvaluatorKind::Index`] oracle, and only when its motif and target
/// list match the run exactly (a mismatched seed is silently ignored and
/// the index is built fresh, so a stale seed can never corrupt a plan).
/// Cloning a deterministically built index is bit-identical to rebuilding
/// it, so seeded plans equal unseeded plans byte for byte.
#[derive(Clone, Default)]
pub struct IndexSeed(Option<Arc<PartitionedCoverageIndex>>);

impl IndexSeed {
    /// A seed wrapping a shared pre-built index.
    #[must_use]
    pub fn new(index: Arc<PartitionedCoverageIndex>) -> Self {
        IndexSeed(Some(index))
    }

    /// The empty seed: every run builds its own index (the default).
    #[must_use]
    pub fn none() -> Self {
        IndexSeed(None)
    }

    /// `true` when a seed index is present.
    #[must_use]
    pub fn is_some(&self) -> bool {
        self.0.is_some()
    }

    /// A private working copy of the seed index, iff it was built for
    /// exactly this motif and target list.
    #[must_use]
    pub(crate) fn clone_matching(
        &self,
        motif: Motif,
        targets: &[Edge],
    ) -> Option<PartitionedCoverageIndex> {
        self.0
            .as_deref()
            .filter(|idx| idx.motif() == motif && idx.targets() == targets)
            .cloned()
    }
}

impl std::fmt::Debug for IndexSeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(idx) => write!(f, "IndexSeed({} targets)", idx.targets().len()),
            None => f.write_str("IndexSeed(none)"),
        }
    }
}

/// Two seeds are equal when they share one index (or are both empty) —
/// the same sink-identity convention `Recorder` uses, which keeps
/// [`GreedyConfig`]'s derived `PartialEq`.
impl PartialEq for IndexSeed {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for IndexSeed {}

/// An optional shared executor pool a run dispatches on instead of
/// spawning its own — how a resident process serves every request from
/// one spawn-once worker set. [`GreedyConfig::parallelism`] attaches the
/// run's recorder to the shared pool, so requests keep private stats
/// trees over common workers. Plans are bit-identical at every pool
/// width, so sharing never changes output.
#[derive(Clone, Default)]
pub struct ExecSeed(Option<Parallelism>);

impl ExecSeed {
    /// A seed dispatching on `pool`.
    #[must_use]
    pub fn shared(pool: Parallelism) -> Self {
        ExecSeed(Some(pool))
    }

    /// The empty seed: each run owns a fresh pool (the default).
    #[must_use]
    pub fn none() -> Self {
        ExecSeed(None)
    }

    /// The shared pool handle, if any.
    #[must_use]
    pub fn get(&self) -> Option<&Parallelism> {
        self.0.as_ref()
    }
}

impl std::fmt::Debug for ExecSeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(p) => write!(f, "ExecSeed({} threads)", p.threads()),
            None => f.write_str("ExecSeed(none)"),
        }
    }
}

/// Pool-identity equality, mirroring [`IndexSeed`]'s convention.
impl PartialEq for ExecSeed {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => a.same_pool(b),
            _ => false,
        }
    }
}

impl Eq for ExecSeed {}

/// Configuration shared by all greedy algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GreedyConfig {
    /// The motif defining target subgraphs.
    pub motif: Motif,
    /// Candidate-set policy (Lemma 5 restriction or all edges).
    pub candidates: CandidatePolicy,
    /// Gain oracle implementation.
    pub evaluator: EvaluatorKind,
    /// Worker threads for the per-round candidate scan (`0` = all
    /// available cores). Plans are bit-identical for every value — the
    /// round engine reduces sharded chunks in candidate order.
    pub threads: usize,
    /// Telemetry sink (disabled by default; surfaced by `tpp --stats`).
    pub obs: ObsConfig,
    /// Optional pre-built coverage index to start from (empty by default;
    /// populated by `tpp serve`'s index registry).
    pub index_seed: IndexSeed,
    /// Optional shared executor pool to dispatch on (empty by default;
    /// populated by `tpp serve` so requests share one worker set).
    pub exec_seed: ExecSeed,
}

impl GreedyConfig {
    /// The paper's plain algorithm: all edges are candidates and gains are
    /// recounted from scratch. Only practical on small graphs — exactly as
    /// in the paper, where plain runs on DBLP "didn't finish in one week".
    #[must_use]
    pub fn plain(motif: Motif) -> Self {
        GreedyConfig {
            motif,
            candidates: CandidatePolicy::AllEdges,
            evaluator: EvaluatorKind::DeltaRecount,
            threads: 1,
            obs: ObsConfig::default(),
            index_seed: IndexSeed::default(),
            exec_seed: ExecSeed::default(),
        }
    }

    /// The paper's scalable `-R` variant: candidates restricted to
    /// target-subgraph edges, incremental index evaluation.
    #[must_use]
    pub fn scalable(motif: Motif) -> Self {
        GreedyConfig {
            motif,
            candidates: CandidatePolicy::SubgraphEdges,
            evaluator: EvaluatorKind::Index,
            threads: 1,
            obs: ObsConfig::default(),
            index_seed: IndexSeed::default(),
            exec_seed: ExecSeed::default(),
        }
    }

    /// The zero-clone recount path: restricted candidates evaluated by
    /// recounting over a snapshot overlay (`tpp-store`'s `DeltaView`).
    /// Same picks as [`GreedyConfig::plain`]/[`GreedyConfig::scalable`],
    /// no per-candidate graph materialization, shareable immutable base.
    #[must_use]
    pub fn snapshot(motif: Motif) -> Self {
        GreedyConfig {
            motif,
            candidates: CandidatePolicy::SubgraphEdges,
            evaluator: EvaluatorKind::DeltaRecount,
            threads: 1,
            obs: ObsConfig::default(),
            index_seed: IndexSeed::default(),
            exec_seed: ExecSeed::default(),
        }
    }

    /// Ablation point: all-edge candidates evaluated through the index
    /// (isolates the candidate-restriction speedup from the evaluator
    /// speedup).
    #[must_use]
    pub fn indexed_all_edges(motif: Motif) -> Self {
        GreedyConfig {
            motif,
            candidates: CandidatePolicy::AllEdges,
            evaluator: EvaluatorKind::Index,
            threads: 1,
            obs: ObsConfig::default(),
            index_seed: IndexSeed::default(),
            exec_seed: ExecSeed::default(),
        }
    }

    /// Returns the config with the per-round candidate scan split across
    /// `threads` workers (`0` = all available cores). Purely a performance
    /// knob: the plan stays bit-identical.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns the config reporting telemetry into `recorder`. Purely an
    /// observability knob: the plan stays bit-identical (pinned by the
    /// stats-parity proptest).
    #[must_use]
    pub fn with_obs(mut self, recorder: Recorder) -> Self {
        self.obs = ObsConfig { recorder };
        self
    }

    /// Returns the config warm-started from `index`: runs whose motif and
    /// targets match the seed clone it instead of rebuilding (anything else
    /// ignores the seed). Plans stay bit-identical either way.
    #[must_use]
    pub fn with_index_seed(mut self, index: Arc<PartitionedCoverageIndex>) -> Self {
        self.index_seed = IndexSeed::new(index);
        self
    }

    /// Returns the config dispatching on `pool` (with the config's own
    /// recorder attached) instead of spawning a private worker set. The
    /// shared pool's width overrides `threads`.
    #[must_use]
    pub fn with_shared_pool(mut self, pool: Parallelism) -> Self {
        self.exec_seed = ExecSeed::shared(pool);
        self
    }

    /// The executor handle a run of this config dispatches on: the shared
    /// pool when seeded, else a fresh `threads`-wide pool — either way
    /// reporting into the config's recorder. Every algorithm builds its
    /// engine through this, so one `--stats` knob observes the scan, the
    /// index, and the pool alike.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        match self.exec_seed.get() {
            Some(shared) => shared.attach_recorder(self.obs.recorder.clone()),
            None => Parallelism::with_recorder(self.threads, self.obs.recorder.clone()),
        }
    }

    /// Suffix for report labels: `""` for plain, `"-R"` for scalable.
    #[must_use]
    pub fn label_suffix(&self) -> &'static str {
        match self.candidates {
            CandidatePolicy::AllEdges => "",
            CandidatePolicy::SubgraphEdges => "-R",
        }
    }
}
