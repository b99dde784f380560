//! # tpp — Target Privacy Preserving for Social Networks
//!
//! A complete Rust implementation of *"Target Privacy Preserving for Social
//! Networks"* (Jiang, Sun, Yu, Li, Ma, Shen — ICDE 2020): protect a small
//! set of sensitive **target links** in a social graph by deleting a
//! budget-limited set of **protector links**, so that subgraph-pattern
//! (motif) link-prediction attacks can no longer infer the hidden targets.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — the graph substrate (structure, generators, traversal, I/O);
//! * [`motif`] — target-subgraph enumeration and the coverage index;
//! * [`metrics`] — the Table II graph-utility metrics;
//! * [`linkpred`] — the adversary: similarity indices, Katz, attack eval;
//! * [`datasets`] — Arenas-email / DBLP substitutes and the karate club;
//! * [`core`] — the TPP model and the SGB/CT/WT greedy algorithms.
//!
//! ## Quickstart
//!
//! ```
//! use tpp::prelude::*;
//!
//! // A social graph with two sensitive links to hide.
//! let g = tpp::datasets::karate_club();
//! let targets = vec![Edge::new(0, 1), Edge::new(32, 33)];
//! let instance = TppInstance::new(g, targets).unwrap();
//!
//! // Protect with a global budget of 10 deletions.
//! let plan = sgb_greedy(&instance, 10, &GreedyConfig::scalable(Motif::Triangle));
//! assert!(plan.final_similarity < plan.initial_similarity);
//!
//! // The graph you actually publish:
//! let released = instance.apply_protectors(&plan.protectors);
//! assert!(released.edge_count() < 78);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub use tpp_core as core;
pub use tpp_datasets as datasets;
pub use tpp_graph as graph;
pub use tpp_linkpred as linkpred;
pub use tpp_metrics as metrics;
pub use tpp_motif as motif;

/// The most common imports in one place.
pub mod prelude {
    pub use tpp_core::{
        celf_greedy, critical_budget, ct_greedy, divide_budget, random_deletion,
        random_deletion_from_subgraphs, sgb_greedy, wt_greedy, AlgorithmKind, BudgetDivision,
        GreedyConfig, ProtectionPlan, Release, TppInstance,
    };
    pub use tpp_graph::{Edge, Graph, NeighborAccess, NodeId};
    pub use tpp_linkpred::{evaluate_attack, sample_non_edges, Attacker, SimilarityIndex};
    pub use tpp_metrics::{utility_loss, UtilityConfig, UtilityMetric};
    pub use tpp_motif::{Motif, PartitionedCoverageIndex};
}
