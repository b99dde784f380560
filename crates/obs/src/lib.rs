//! `tpp-obs`: the workspace's zero-dependency instrumentation layer.
//!
//! Hand-rolled on `std` atomics only — no vendor shims, no macros, no
//! global state. The one exported handle is [`Recorder`]: enabled, it
//! carries an `Arc<Stats>` tree of [`Counter`]s and power-of-two
//! [`Histogram`]s that every layer (round engine, coverage index,
//! executor, store, attack evaluator) writes into; disabled, it is a
//! `None` and every recording site reduces to a single branch, keeping
//! uninstrumented runs on the exact hot path they had before this crate
//! existed (pinned by bit-identical-plan tests in `tpp-core` and
//! `tpp-cli`).
//!
//! The readout ([`Stats::to_json_pretty`]) is one JSON document with
//! top-level `round` / `index` / `exec` / `store` / `attack` sections in
//! the same flat snake_case `_ns` shape as the committed bench results,
//! surfaced by `tpp protect/attack --stats <out.json>`.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod metrics;
mod recorder;

pub use metrics::{timed, Counter, Histogram, HistogramSnapshot, SpanTimer};
pub use recorder::{
    AttackStats, ExecStats, IndexStats, InstanceStats, KernelStats, Recorder, RoundStats,
    ServeStats, Stats, StoreStats, UpdateStats, UtilityStats,
};
