//! # tpp-core
//!
//! Target Privacy Preserving (TPP) for social networks — the primary
//! contribution of *"Target Privacy Preserving for Social Networks"*
//! (Jiang et al., ICDE 2020), implemented in full:
//!
//! * the TPP problem model ([`TppInstance`]): phase-1 target removal and the
//!   motif dissimilarity `f(P, T) = C − Σ_t s(P, t)`;
//! * three greedy protector-selection algorithms with their proven
//!   approximation guarantees — [`sgb_greedy`] (`1 − 1/e`), [`ct_greedy`]
//!   (`1/2`), [`wt_greedy`] (`≈ 0.46`) — plus a CELF lazy-greedy ablation;
//! * the scalable `-R` variants of each (Lemma 5 candidate restriction);
//! * TBD / DBD budget division for the Multi-Local-Budget problem;
//! * the RD / RDT baselines and the critical-budget search `k*`;
//! * utility-loss analysis orchestration for the Tables III–V protocol.
//!
//! ```
//! use tpp_core::{TppInstance, sgb_greedy, GreedyConfig};
//! use tpp_motif::Motif;
//!
//! let g = tpp_graph::generators::complete_graph(8);
//! let instance = TppInstance::with_random_targets(g, 3, 42);
//! let plan = sgb_greedy(&instance, 10, &GreedyConfig::scalable(Motif::Triangle));
//! assert!(plan.final_similarity < plan.initial_similarity);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod algorithms;
mod analysis;
mod baselines;
mod budget;
mod critical;
pub mod engine;
mod error;
pub mod extensions;
mod oracle;
pub mod paper_example;
mod plan;
mod problem;

pub use algorithms::{
    celf_greedy, celf_greedy_batch, ct_greedy, ct_greedy_batch, sgb_greedy, sgb_greedy_batch,
    wt_greedy, wt_greedy_batch, EvaluatorKind, GreedyConfig,
};
pub use analysis::{analyze_protection, verify_plan, ProtectionReport};
pub use baselines::{random_deletion, random_deletion_from_subgraphs};
pub use budget::{divide_budget, BudgetDivision};
pub use critical::critical_budget;
pub use engine::RoundEngine;
pub use error::TppError;
pub use oracle::{
    CandidatePolicy, GainOracle, IndexOracle, Probe, SnapshotOracle, DEFAULT_INDEX_PARTITIONS,
};
pub use plan::{AlgorithmKind, ProtectionPlan, StepRecord};
pub use problem::{IntoSharedCsr, Release, TppInstance};
