//! The three greedy protector-selection algorithms of the paper
//! (SGB-Greedy, CT-Greedy, WT-Greedy), their scalable `-R` variants, and a
//! CELF lazy-greedy ablation.
//!
//! All of them are thin strategy configs on the unified
//! [`RoundEngine`](crate::engine::RoundEngine): the engine owns the one
//! lazy gain queue every greedy pops its picks from (its bound sweep
//! sequential or sharded across threads), the canonical tie-break, and the
//! step recording; each algorithm only picks the entry point and budget.
//!
//! Every algorithm is parameterized by a [`GreedyConfig`]. Three fields
//! are the paper's model:
//!
//! * `motif` defines the target subgraphs;
//! * `evaluator` selects the gain oracle — [`EvaluatorKind::Index`] is the
//!   incremental coverage index, [`EvaluatorKind::DeltaRecount`] recounts
//!   motifs on every evaluation (the paper's plain cost model);
//! * `candidates` selects the candidate policy — all edges (plain) or only
//!   target-subgraph edges (`-R`, Lemma 5).
//!
//! Three are the run's context, plain values that never change a plan:
//!
//! * `exec` is the executor the index build and each bound sweep may
//!   dispatch on — a fresh pool ([`GreedyConfig::with_threads`]) or a
//!   resident one ([`GreedyConfig::with_shared_pool`]); a job too small to
//!   pay for a dispatch runs inline whatever its width, and plans are
//!   bit-identical at every width and for every evaluator;
//! * `recorder` is the telemetry sink ([`GreedyConfig::with_obs`]);
//! * `index_seed` is a pre-built coverage index the run clones instead of
//!   building, when its motif and targets match
//!   ([`GreedyConfig::with_index_seed`]).
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

/// Configuration shared by all greedy algorithms: the paper's model
/// (`motif`, `candidates`, `evaluator`) and the run's context (`exec`,
/// `recorder`, `index_seed`), which never changes a plan.
#[derive(Debug, Clone)]
pub struct GreedyConfig {
    /// The motif defining target subgraphs.
    pub motif: Motif,
    /// Candidate-set policy (Lemma 5 restriction or all edges).
    pub candidates: CandidatePolicy,
    /// Gain oracle implementation.
    pub evaluator: EvaluatorKind,
    /// The executor the run's index build and bound sweeps may dispatch on
    /// (sequential by default); commits run on the calling thread.
    /// `tpp_exec::Parallelism::steal_spans` pools only a job whose
    /// predicted work pays for a dispatch: on the index oracle that is the
    /// build of a long-path motif and the CT/WT sweeps, while an SGB/CELF
    /// sweep of count reads runs inline. Plans are bit-identical at every
    /// width — results reduce in candidate order.
    pub exec: Parallelism,
    /// Telemetry sink (disabled by default; surfaced by `tpp --stats`).
    pub recorder: Recorder,
    /// Pre-built coverage index to start from (none by default; populated
    /// by `tpp serve`'s index registry). Only the [`EvaluatorKind::Index`]
    /// oracle consults it, and only when its motif and target list match
    /// the run: anything else builds fresh, so a stale seed can never
    /// corrupt a plan.
    pub index_seed: Option<Arc<PartitionedCoverageIndex>>,
}

impl GreedyConfig {
    /// A sequential, unrecorded, unseeded config of the given model.
    fn model(motif: Motif, candidates: CandidatePolicy, evaluator: EvaluatorKind) -> Self {
        GreedyConfig {
            motif,
            candidates,
            evaluator,
            exec: Parallelism::sequential(),
            recorder: Recorder::disabled(),
            index_seed: None,
        }
    }

    /// The paper's plain algorithm: all edges are candidates and gains are
    /// recounted from scratch. Only practical on small graphs — exactly as
    /// in the paper, where plain runs on DBLP "didn't finish in one week".
    #[must_use]
    pub fn plain(motif: Motif) -> Self {
        Self::model(
            motif,
            CandidatePolicy::AllEdges,
            EvaluatorKind::DeltaRecount,
        )
    }

    /// The paper's scalable `-R` variant: candidates restricted to
    /// target-subgraph edges, incremental index evaluation.
    #[must_use]
    pub fn scalable(motif: Motif) -> Self {
        Self::model(motif, CandidatePolicy::SubgraphEdges, EvaluatorKind::Index)
    }

    /// The zero-clone recount path: restricted candidates evaluated by
    /// recounting over a snapshot overlay (`tpp-store`'s `DeltaView`).
    /// Same picks as [`GreedyConfig::plain`]/[`GreedyConfig::scalable`],
    /// no per-candidate graph materialization, shareable immutable base.
    #[must_use]
    pub fn snapshot(motif: Motif) -> Self {
        Self::model(
            motif,
            CandidatePolicy::SubgraphEdges,
            EvaluatorKind::DeltaRecount,
        )
    }

    /// Ablation point: all-edge candidates evaluated through the index
    /// (isolates the candidate-restriction speedup from the evaluator
    /// speedup).
    #[must_use]
    pub fn indexed_all_edges(motif: Motif) -> Self {
        Self::model(motif, CandidatePolicy::AllEdges, EvaluatorKind::Index)
    }

    /// Returns the config dispatching on a fresh pool of `threads` workers
    /// (`0` = all available cores). Purely a performance knob: the plan
    /// stays bit-identical.
    #[must_use]
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_shared_pool(Parallelism::new(threads))
    }

    /// Returns the config reporting telemetry into `recorder`. Purely an
    /// observability knob: the plan stays bit-identical (pinned by the
    /// stats-parity proptest).
    #[must_use]
    pub fn with_obs(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Returns the config warm-started from `index`: runs whose motif and
    /// targets match the seed clone it instead of rebuilding (anything else
    /// ignores the seed). Plans stay bit-identical either way.
    #[must_use]
    pub fn with_index_seed(mut self, index: Arc<PartitionedCoverageIndex>) -> Self {
        self.index_seed = Some(index);
        self
    }

    /// Returns the config dispatching on `pool` — how a resident process
    /// serves every request from one spawn-once worker set.
    #[must_use]
    pub fn with_shared_pool(mut self, pool: Parallelism) -> Self {
        self.exec = pool;
        self
    }

    /// The executor handle a run of this config dispatches on: `exec`
    /// reporting into the config's recorder. Every algorithm builds its
    /// engine through this, so one `--stats` knob observes the scan, the
    /// index, and the pool alike.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.exec.attach_recorder(self.recorder.clone())
    }
}
