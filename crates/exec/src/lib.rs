//! # tpp-exec
//!
//! The workspace's **one** parallel execution substrate: a persistent
//! work-stealing worker pool ([`ExecPool`]) behind a cheap cloneable
//! [`Parallelism`] handle, plus the range-balancing math
//! ([`balanced_prefix_ranges`], [`balanced_ranges`]) every layer splits
//! work with.
//!
//! Before this crate, three layers each spawned fresh `std::thread::scope`
//! workers on every call — the round engine's per-round candidate scans
//! (`tpp-core`), the partitioned coverage index's build and commit fan-out
//! (`tpp-motif`), and the CSR snapshot build (`tpp-store`). A k-round
//! greedy run paid thread creation k+ times over. Now one [`Parallelism`]
//! handle is plumbed from the thread-count knob (`tpp protect --threads`,
//! `GreedyConfig::exec`) down through all of them, and every dispatch
//! reuses the same spawn-once workers.
//!
//! ## Inline or pooled
//!
//! [`Parallelism::steal_spans`] decides, for every parallel job of the
//! workspace, whether it is worth a dispatch: callers state each item's
//! predicted cost in entries read, and a job whose total is below one
//! private threshold runs inline as one span, dispatching nothing. A
//! resident service's pool runs one job at a time, so a small job that
//! stays inline also never waits behind another request's job.
//!
//! ## Determinism
//!
//! The combinators ([`Parallelism::run_indexed`],
//! [`Parallelism::steal_spans`]) claim work
//! through an atomic cursor — scheduling is deliberately unfair — but
//! assemble results **in item/span order**, so every caller is
//! bit-identical to its sequential path at every thread count. See the
//! [`ExecPool`] determinism contract for the full statement.
//!
//! ```
//! use tpp_exec::Parallelism;
//!
//! let exec = Parallelism::new(4);
//! let squares = exec.run_indexed(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod pool;
mod ranges;

pub use pool::{ExecPool, Parallelism};
pub use ranges::{balanced_prefix_ranges, balanced_ranges, max_threads, resolve_threads};
