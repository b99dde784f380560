//! # tpp-graph
//!
//! Graph substrate for the Target Privacy Preserving (TPP) workspace — an
//! undirected simple-graph library with sorted adjacency lists, fast
//! edge-membership and common-neighbor queries, deterministic random
//! generators, BFS utilities, and plain-text edge-list I/O.
//!
//! This crate deliberately has no graph-library dependency: everything the
//! ICDE 2020 paper's system needs from a graph engine is implemented here.
//!
//! ## Quick example
//! ```
//! use tpp_graph::{Graph, Edge};
//!
//! let mut g = Graph::new(4);
//! g.add_edge(0, 1);
//! g.add_edge(1, 2);
//! g.add_edge(0, 2);
//! assert_eq!(g.common_neighbors(0, 1), vec![2]);
//! assert!(g.contains(Edge::new(2, 0)));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod access;
mod edge;
mod edgelist;
mod error;
pub mod generators;
mod graph;
pub mod hash;
pub mod kernels;
pub mod traversal;

pub use access::NeighborAccess;
pub use edge::{Edge, NodeId};
pub use edgelist::{
    declared_node_count, parse_edge_list, read_edge_list_file, write_edge_list,
    write_edge_list_file,
};
pub use error::GraphError;
pub use graph::Graph;
pub use hash::{fast_map_with_capacity, fast_set_with_capacity, FastMap, FastSet};
pub use kernels::{HubBitsets, KernelCounts};
