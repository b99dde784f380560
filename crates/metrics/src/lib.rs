//! # tpp-metrics
//!
//! Graph-utility metrics for the Target Privacy Preserving workspace — the
//! six statistics of the paper's Table II (average path length, clustering,
//! assortativity, core number, second-largest Laplacian eigenvalue, and
//! modularity), their supporting algorithms (BFS aggregation, k-shell
//! peeling, deflated power iteration, Louvain / label-propagation community
//! detection), and the utility-loss-ratio report used in Tables III–V.
//!
//! ```
//! use tpp_graph::generators::holme_kim;
//! use tpp_metrics::{UtilityConfig, utility_loss};
//!
//! let g = holme_kim(200, 4, 0.4, 7);
//! let mut released = g.clone();
//! released.remove_edge(0, 1);
//! let report = utility_loss(&g, &released, &UtilityConfig::full(1));
//! assert!(report.average < 0.05, "one deletion barely moves utility");
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod assortativity;
pub mod base;
pub mod clustering;
pub mod community;
pub mod core_number;
pub mod degree;
pub mod distance;
pub mod paths;
pub mod spectral;
pub mod utility;

pub use assortativity::assortativity;
pub use base::BaseStats;
pub use clustering::{average_clustering, local_clustering, triangle_count};
pub use community::{label_propagation, louvain, louvain_modularity, modularity};
pub use core_number::{average_core_number, core_numbers, degeneracy};
pub use degree::{degree_histogram, degree_stats, power_law_alpha, DegreeStats};
pub use distance::{distance_distribution, sampled_distance_distribution, DistanceDistribution};
pub use paths::{average_path_length, sampled_path_length, PathLengthStats};
pub use spectral::{largest_laplacian_eigenvalue, second_largest_laplacian_eigenvalue};
pub use utility::{
    compute_utility, compute_utility_with, loss_ratio, utility_loss, utility_loss_deleting,
    utility_loss_with, UtilityConfig, UtilityLossReport, UtilityMetric, UtilityValues,
};
