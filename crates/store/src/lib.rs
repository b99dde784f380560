//! # tpp-store
//!
//! The snapshot storage engine for the TPP workspace: immutable
//! compressed-sparse-row graph snapshots, cheap copy-on-write overlay
//! views, and a versioned, checksummed binary on-disk format.
//!
//! ## Why a store layer
//!
//! The greedy TPP algorithms (SGB/CT/WT, Jiang et al., ICDE 2020) spend
//! nearly all their time re-scoring candidate protector deletions via
//! common-neighbor merges. The paper's plain cost model materializes a
//! per-candidate graph ("clone, delete, recount"); this crate replaces that
//! pattern with:
//!
//! * [`CsrGraph`] — an immutable snapshot: one offset table + one packed,
//!   sorted neighbor array. Build it once, share it freely across threads,
//!   and persist it ([`build_stream`] writes one straight from an edge
//!   list, [`format::load_mapped`] maps it back) instead of re-parsing.
//! * [`DeltaView`] — an `O(1)`-setup overlay recording net edge
//!   deletions/additions against any base, borrowed (`&CsrGraph`) or
//!   shared (`Arc<CsrGraph>`, the form the paper's releases take).
//!   Tentative candidate evaluation becomes
//!   `delete_edge → recount → restore_edge` with **zero** graph clones and
//!   `O(changed)` memory. A per-node merged-slice cache serves every
//!   neighbor list of a dirty node as one contiguous slice.
//! * [`NeighborAccess`] (from `tpp_graph`) — both types implement the
//!   workspace-wide read trait, so every motif counter and link-prediction
//!   score runs over snapshots and overlays unchanged.
//!
//! ## Quick example
//!
//! ```
//! use tpp_graph::{Graph, Edge, NeighborAccess};
//! use tpp_store::{CsrGraph, DeltaView};
//!
//! // Two triangles over the hidden pair (0, 1).
//! let mut g = Graph::from_edges([(0u32, 1u32), (0, 2), (2, 1), (0, 3), (3, 1)]);
//! g.remove_edge(0, 1);
//!
//! let snapshot = CsrGraph::from_graph(&g);
//! let mut view = DeltaView::new(&snapshot);
//!
//! // "What if (0, 2) were deleted?" — no clone, no base mutation.
//! view.delete_edge(Edge::new(0, 2));
//! assert_eq!(view.common_neighbor_count(0, 1), 1);
//! view.restore_edge(Edge::new(0, 2));
//! assert_eq!(view.common_neighbor_count(0, 1), 2);
//! assert_eq!(snapshot.edge_count(), 4); // snapshot untouched throughout
//! ```
//!
//! ## On-disk format
//!
//! See [`format`](mod@format) for the byte-level layout: an 8-byte magic, version and
//! flag words, node/edge counts, an FNV-1a payload checksum, a table of
//! checksummed sections, then the two CSR arrays little-endian and the
//! optional base statistics (per-node triangle counts and core numbers).
//! Loading validates magic, version, the table, and — at the tier the
//! caller picks — the checksums and structural invariants before
//! returning a graph.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod csr;
mod delta;
mod deltafile;
mod error;
pub mod format;
pub mod mmap;
mod storage;
pub mod stream;

pub use csr::CsrGraph;
pub use delta::DeltaView;
pub use deltafile::{AppliedDelta, DeltaOp, GraphDelta};
pub use error::StoreError;
pub use format::{BaseSection, VerifyMode};
pub use stream::{build_stream, StreamConfig, StreamReport};
pub use tpp_graph::NeighborAccess;
