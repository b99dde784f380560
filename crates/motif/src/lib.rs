//! # tpp-motif
//!
//! Subgraph-pattern (motif) machinery for Target Privacy Preserving:
//! the three motifs of the paper's Fig. 1 (Triangle, Rectangle, RecTri),
//! enumeration and counting of *target subgraphs* for removed target links,
//! and the [`PartitionedCoverageIndex`] incidence structure that powers
//! every greedy protector-selection algorithm.
//!
//! ```
//! use tpp_exec::Parallelism;
//! use tpp_graph::{Graph, Edge};
//! use tpp_motif::{Motif, PartitionedCoverageIndex, count_target_subgraphs};
//!
//! // Two triangles over the hidden link (0, 1).
//! let mut g = Graph::from_edges([(0u32, 1u32), (0, 2), (2, 1), (0, 3), (3, 1)]);
//! g.remove_edge(0, 1); // phase 1: hide the target
//! assert_eq!(count_target_subgraphs(&g, 0, 1, Motif::Triangle), 2);
//!
//! let targets = [Edge::new(0, 1)];
//! let exec = Parallelism::sequential();
//! let mut index = PartitionedCoverageIndex::build_parallel(&g, &targets, Motif::Triangle, 1, &exec);
//! assert_eq!(index.gain(Edge::new(0, 2)), 1);
//! index.delete_edge(Edge::new(0, 2));
//! assert_eq!(index.total_similarity(), 1);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod enumerate;
mod instance;
mod partitioned;
mod pattern;

pub use enumerate::{
    count_all_targets, count_target_subgraphs, enumerate_target_subgraphs,
    enumerate_target_subgraphs_through, enumeration_cost,
};
pub use instance::MotifInstance;
pub use partitioned::{InstanceId, PartitionedCoverageIndex};
pub use pattern::Motif;
