//! The [`Recorder`] registry: one shared handle that either carries the
//! full [`Stats`] tree (enabled) or nothing at all (disabled), plus the
//! hand-rolled JSON readout matching the committed bench-result shape.

use crate::metrics::{Counter, Histogram, HistogramSnapshot};
use std::sync::Arc;

/// Round-engine telemetry: where each greedy round's wall time goes.
#[derive(Debug, Default)]
pub struct RoundStats {
    /// Committed rounds (single picks and accepted batches).
    pub rounds: Counter,
    /// Full candidate scans: one bound sweep per lazy gain queue (one per
    /// SGB, CELF or CT run, one per WT target with budget).
    pub scans: Counter,
    /// Candidate evaluations: every candidate a full scan scores plus
    /// every stale lazy-queue entry refreshed.
    pub candidates_probed: Counter,
    /// Wall time per full scan, and per lazy-queue round's selection (its
    /// pops, refreshes and batch admission).
    pub scan_ns: Histogram,
    /// Wall time per oracle commit (edge deletions + index maintenance).
    pub commit_ns: Histogram,
    /// Batch rounds that committed more than one pick.
    pub batch_commits: Counter,
    /// Batch picks rejected because their gain sets overlapped a winner.
    pub batch_conflicts: Counter,
    /// Rounds that fell back to strictly sequential re-evaluation
    /// (opaque oracle or conflict budget exhausted).
    pub sequential_fallbacks: Counter,
}

/// Coverage-index telemetry: build phases, the seed copy and commit costs.
#[derive(Debug, Default)]
pub struct IndexStats {
    /// Index builds.
    pub builds: Counter,
    /// Total build wall time.
    pub build_ns: Counter,
    /// Build phase 1: per-target-span instance enumeration.
    pub build_enumerate_ns: Counter,
    /// Build phase 2: the fill — edge ids, count, prefix sum and postings.
    pub build_merge_ns: Counter,
    /// Copying a pre-built index seed (a served protect's registry hit)
    /// into the run's own index.
    pub seed_copy_ns: Counter,
    /// Edge-deletion commits applied to the index.
    pub commits: Counter,
    /// Motif instances killed per commit.
    pub instances_killed: Histogram,
}

/// Executor telemetry: dispatch latency and work-stealing balance.
#[derive(Debug, Default)]
pub struct ExecStats {
    /// Worker count of the widest pool observed.
    pub threads: Counter,
    /// Parallel dispatches (sequential inline runs are not counted).
    pub dispatches: Counter,
    /// Wall time per dispatch, including the dispatcher's own share and
    /// its `queue_wait_ns`.
    pub dispatch_ns: Histogram,
    /// Time per dispatch spent waiting for the pool: another thread's job
    /// (a concurrent request on a shared pool) had to retire first.
    pub queue_wait_ns: Histogram,
    /// Work items claimed across all participants.
    pub items_claimed: Counter,
    /// Items claimed by participants other than the dispatcher — work
    /// that a dedicated worker stole off the shared cursor.
    pub items_stolen: Counter,
    /// Items claimed per participant per dispatch (imbalance readout:
    /// p50 far below max means some workers went hungry).
    pub claims_per_participant: Histogram,
    /// Participants that woke but claimed nothing.
    pub idle_participants: Counter,
}

/// Snapshot-store telemetry: where a load spends its time.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Graph loads (snapshot reads and edge-list parses).
    pub loads: Counter,
    /// Parse phase: header + array decode (or text edge-list parse).
    pub parse_ns: Counter,
    /// Fill phase: CSR assembly and validation.
    pub fill_ns: Counter,
    /// Checksum phase: payload FNV verification.
    pub checksum_ns: Counter,
    /// Map phase: establishing the file mapping on zero-copy loads.
    pub map_ns: Counter,
    /// Validate phase: tiered payload verification on load.
    pub validate_ns: Counter,
    /// Streaming build pass 1: degree counting over the edge list.
    pub pass1_ns: Counter,
    /// Streaming build pass 2: chunk routing + CSR fill + assembly.
    pub pass2_ns: Counter,
    /// Optional sections (base statistics, upper-edge prefix): computing
    /// and writing them (builds), or reading and checking them (loads).
    pub section_ns: Counter,
    /// 1 when the graph's upper-edge prefix came from the request's own
    /// snapshot load (its upper-prefix section), 0 when sampling computes
    /// it.
    pub prefix_loaded: Counter,
}

/// Attack-evaluation telemetry for the link-prediction adversary.
#[derive(Debug, Default)]
pub struct AttackStats {
    /// Attack evaluations run.
    pub evaluations: Counter,
    /// Candidate pairs scored (targets + negatives).
    pub pairs_scored: Counter,
    /// Total wall time spent scoring pairs.
    pub score_ns: Counter,
}

/// Intersection-kernel telemetry: how often each strategy of the
/// size-adaptive dispatcher (`tpp_graph::kernels`) fired during the run.
#[derive(Debug, Default)]
pub struct KernelStats {
    /// Linear two-pointer merge selections (the fallback).
    pub merge: Counter,
    /// Galloping (exponential + binary search) selections.
    pub gallop: Counter,
}

/// Resident-service telemetry: how a `tpp serve` request hit the server's
/// registries. In a per-request recorder the counters are 0/1 flags; the
/// server also keeps a lifetime recorder where they accumulate.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests dispatched through the server.
    pub requests: Counter,
    /// Graph loads answered from the snapshot registry.
    pub graph_hits: Counter,
    /// Graph loads that had to read the file (and populated the registry).
    pub graph_misses: Counter,
    /// Coverage-index builds skipped via the index registry.
    pub index_hits: Counter,
    /// Index requests that built fresh (and populated the registry).
    pub index_misses: Counter,
    /// Graph registry entries evicted (LRU cap or idle TTL).
    pub graph_evictions: Counter,
    /// Index registry entries evicted (LRU cap or idle TTL).
    pub index_evictions: Counter,
}

/// Incremental-update telemetry: edge insertions applied to a live
/// coverage index, and a served `update`'s patch of the resident base
/// statistics.
#[derive(Debug, Default)]
pub struct UpdateStats {
    /// Edge insertions applied to a coverage index.
    pub inserts: Counter,
    /// Fresh motif instances discovered by localized enumeration around
    /// inserted edges.
    pub instances_discovered: Counter,
    /// Posting appends (one per (instance, edge) pair an insertion adds).
    pub postings_appended: Counter,
    /// Wall time a served `update` spent patching the resident graph's
    /// base statistics (0 when none were resident).
    pub base_patch_ns: Counter,
    /// Served `update`s whose inserted edges forced a fresh peel of the
    /// resident base core numbers.
    pub core_repeels: Counter,
}

/// Instance telemetry: the protect steps between the load and the greedy
/// that derive the problem, and the release after it. Served protects
/// record the first two where the daemon builds the instance for its
/// index lookup; an `--incremental` run, whose instance is the
/// delta-mutated graph's, records only `release_ns`.
#[derive(Debug, Default)]
pub struct InstanceStats {
    /// Wall time resolving the targets: `--targets` parsed or `--random`
    /// sampled.
    pub sample_ns: Counter,
    /// Wall time of phase 1: the target deletions over the original.
    pub phase1_ns: Counter,
    /// Wall time applying the protectors to the phase-1 release.
    pub release_ns: Counter,
}

/// Utility-report telemetry: what the `utility_loss` phase of a protect
/// run cost, whether the original's base statistics were computed,
/// loaded or reused, how many deleted edges its clustering and core patches
/// walked, and how many nodes the core patch re-evaluated.
#[derive(Debug, Default)]
pub struct UtilityStats {
    /// Wall time of the utility-loss report, `base_ns` included.
    pub utility_ns: Counter,
    /// 1 when a resident server supplied the original's base statistics,
    /// 0 when the request computed or loaded them.
    pub base_reused: Counter,
    /// 1 when the original's base statistics came from the request's own
    /// snapshot load (its base-statistics section), 0 otherwise.
    pub base_loaded: Counter,
    /// Wall time spent computing the original's base statistics (0 when
    /// reused or loaded).
    pub base_ns: Counter,
    /// Edges of the original graph missing from the released one (`|D|`).
    pub deleted_edges: Counter,
    /// h-index node evaluations of the core-number patch; 0 when the
    /// release's cores were peeled from scratch.
    pub core_evaluations: Counter,
}

/// The full telemetry tree, one section per instrumented layer.
///
/// Every field is atomic, so a single `Arc<Stats>` is shared freely across
/// the executor's worker threads.
#[derive(Debug, Default)]
pub struct Stats {
    /// Round-engine section.
    pub round: RoundStats,
    /// Coverage-index section.
    pub index: IndexStats,
    /// Executor section.
    pub exec: ExecStats,
    /// Store section.
    pub store: StoreStats,
    /// Attack-evaluation section.
    pub attack: AttackStats,
    /// Intersection-kernel section.
    pub kernels: KernelStats,
    /// Resident-service section.
    pub serve: ServeStats,
    /// Incremental-update section.
    pub update: UpdateStats,
    /// Problem-instance section.
    pub instance: InstanceStats,
    /// Utility-report section.
    pub utility: UtilityStats,
}

/// The shared instrumentation handle threaded through every layer.
///
/// [`Recorder::disabled`] carries no allocation and makes every recording
/// site a single `Option` branch, so uninstrumented runs stay on the
/// existing hot path (pinned by the bit-identical-plan tests).
#[derive(Clone, Default)]
pub struct Recorder {
    stats: Option<Arc<Stats>>,
}

impl Recorder {
    /// A live recorder with a fresh stats tree.
    #[must_use]
    pub fn enabled() -> Self {
        Recorder {
            stats: Some(Arc::new(Stats::default())),
        }
    }

    /// The no-op recorder: recording sites see `None` and skip.
    #[must_use]
    pub fn disabled() -> Self {
        Recorder { stats: None }
    }

    /// `true` when this handle records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.stats.is_some()
    }

    /// The stats tree, or `None` when disabled.
    #[must_use]
    pub fn stats(&self) -> Option<&Stats> {
        self.stats.as_deref()
    }

    /// Serializes the stats tree, or `None` when disabled.
    #[must_use]
    pub fn to_json_pretty(&self) -> Option<String> {
        self.stats().map(Stats::to_json_pretty)
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_enabled() {
            "Recorder(enabled)"
        } else {
            "Recorder(disabled)"
        })
    }
}

/// Two recorders are equal when they are the same sink: both disabled, or
/// both sharing one stats tree.
impl PartialEq for Recorder {
    fn eq(&self, other: &Self) -> bool {
        match (&self.stats, &other.stats) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for Recorder {}

/// Renders a histogram as a one-line JSON object; `sfx` is appended to the
/// value-bearing keys (`"_ns"` for time histograms, `""` for counts).
fn hist_json(s: &HistogramSnapshot, sfx: &str) -> String {
    format!(
        "{{\"count\": {}, \"sum{sfx}\": {}, \"p50{sfx}\": {}, \"p90{sfx}\": {}, \"p99{sfx}\": {}, \"max{sfx}\": {}}}",
        s.count, s.sum, s.p50, s.p90, s.p99, s.max
    )
}

/// Appends one `"name": { fields }` section to `out`.
fn section(out: &mut String, name: &str, fields: &[(&str, String)], last: bool) {
    use std::fmt::Write;
    let _ = writeln!(out, "  \"{name}\": {{");
    for (i, (k, v)) in fields.iter().enumerate() {
        let comma = if i + 1 < fields.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{k}\": {v}{comma}");
    }
    out.push_str(if last { "  }\n" } else { "  },\n" });
}

impl Stats {
    /// Serializes the whole tree as one pretty-printed JSON document with
    /// top-level `round` / `index` / `exec` / `store` / `attack` /
    /// `kernels` / `serve` / `update` / `instance` / `utility` sections,
    /// flat snake_case `_ns`
    /// keys — the same shape the committed bench results use.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::from("{\n");
        section(
            &mut out,
            "round",
            &[
                ("rounds", self.round.rounds.get().to_string()),
                ("scans", self.round.scans.get().to_string()),
                (
                    "candidates_probed",
                    self.round.candidates_probed.get().to_string(),
                ),
                ("scan_ns", hist_json(&self.round.scan_ns.snapshot(), "_ns")),
                (
                    "commit_ns",
                    hist_json(&self.round.commit_ns.snapshot(), "_ns"),
                ),
                ("batch_commits", self.round.batch_commits.get().to_string()),
                (
                    "batch_conflicts",
                    self.round.batch_conflicts.get().to_string(),
                ),
                (
                    "sequential_fallbacks",
                    self.round.sequential_fallbacks.get().to_string(),
                ),
            ],
            false,
        );
        section(
            &mut out,
            "index",
            &[
                ("builds", self.index.builds.get().to_string()),
                ("build_ns", self.index.build_ns.get().to_string()),
                (
                    "build_enumerate_ns",
                    self.index.build_enumerate_ns.get().to_string(),
                ),
                (
                    "build_merge_ns",
                    self.index.build_merge_ns.get().to_string(),
                ),
                ("seed_copy_ns", self.index.seed_copy_ns.get().to_string()),
                ("commits", self.index.commits.get().to_string()),
                (
                    "instances_killed",
                    hist_json(&self.index.instances_killed.snapshot(), ""),
                ),
            ],
            false,
        );
        section(
            &mut out,
            "exec",
            &[
                ("threads", self.exec.threads.get().to_string()),
                ("dispatches", self.exec.dispatches.get().to_string()),
                (
                    "dispatch_ns",
                    hist_json(&self.exec.dispatch_ns.snapshot(), "_ns"),
                ),
                (
                    "queue_wait_ns",
                    hist_json(&self.exec.queue_wait_ns.snapshot(), "_ns"),
                ),
                ("items_claimed", self.exec.items_claimed.get().to_string()),
                ("items_stolen", self.exec.items_stolen.get().to_string()),
                (
                    "claims_per_participant",
                    hist_json(&self.exec.claims_per_participant.snapshot(), ""),
                ),
                (
                    "idle_participants",
                    self.exec.idle_participants.get().to_string(),
                ),
            ],
            false,
        );
        section(
            &mut out,
            "store",
            &[
                ("loads", self.store.loads.get().to_string()),
                ("parse_ns", self.store.parse_ns.get().to_string()),
                ("fill_ns", self.store.fill_ns.get().to_string()),
                ("checksum_ns", self.store.checksum_ns.get().to_string()),
                ("map_ns", self.store.map_ns.get().to_string()),
                ("validate_ns", self.store.validate_ns.get().to_string()),
                ("pass1_ns", self.store.pass1_ns.get().to_string()),
                ("pass2_ns", self.store.pass2_ns.get().to_string()),
                ("section_ns", self.store.section_ns.get().to_string()),
                ("prefix_loaded", self.store.prefix_loaded.get().to_string()),
            ],
            false,
        );
        section(
            &mut out,
            "attack",
            &[
                ("evaluations", self.attack.evaluations.get().to_string()),
                ("pairs_scored", self.attack.pairs_scored.get().to_string()),
                ("score_ns", self.attack.score_ns.get().to_string()),
            ],
            false,
        );
        section(
            &mut out,
            "kernels",
            &[
                ("merge", self.kernels.merge.get().to_string()),
                ("gallop", self.kernels.gallop.get().to_string()),
            ],
            false,
        );
        section(
            &mut out,
            "serve",
            &[
                ("requests", self.serve.requests.get().to_string()),
                ("graph_hits", self.serve.graph_hits.get().to_string()),
                ("graph_misses", self.serve.graph_misses.get().to_string()),
                ("index_hits", self.serve.index_hits.get().to_string()),
                ("index_misses", self.serve.index_misses.get().to_string()),
                (
                    "graph_evictions",
                    self.serve.graph_evictions.get().to_string(),
                ),
                (
                    "index_evictions",
                    self.serve.index_evictions.get().to_string(),
                ),
            ],
            false,
        );
        section(
            &mut out,
            "update",
            &[
                ("inserts", self.update.inserts.get().to_string()),
                (
                    "instances_discovered",
                    self.update.instances_discovered.get().to_string(),
                ),
                (
                    "postings_appended",
                    self.update.postings_appended.get().to_string(),
                ),
                ("base_patch_ns", self.update.base_patch_ns.get().to_string()),
                ("core_repeels", self.update.core_repeels.get().to_string()),
            ],
            false,
        );
        section(
            &mut out,
            "instance",
            &[
                ("sample_ns", self.instance.sample_ns.get().to_string()),
                ("phase1_ns", self.instance.phase1_ns.get().to_string()),
                ("release_ns", self.instance.release_ns.get().to_string()),
            ],
            false,
        );
        section(
            &mut out,
            "utility",
            &[
                ("utility_ns", self.utility.utility_ns.get().to_string()),
                ("base_reused", self.utility.base_reused.get().to_string()),
                ("base_loaded", self.utility.base_loaded.get().to_string()),
                ("base_ns", self.utility.base_ns.get().to_string()),
                (
                    "deleted_edges",
                    self.utility.deleted_edges.get().to_string(),
                ),
                (
                    "core_evaluations",
                    self.utility.core_evaluations.get().to_string(),
                ),
            ],
            true,
        );
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_no_op_handle() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        assert!(r.stats().is_none());
        assert!(r.to_json_pretty().is_none());
        assert_eq!(r, Recorder::disabled());
        assert_eq!(r, Recorder::default());
    }

    #[test]
    fn clones_share_one_stats_tree() {
        let r = Recorder::enabled();
        let r2 = r.clone();
        r.stats().unwrap().round.rounds.inc();
        r2.stats().unwrap().round.rounds.inc();
        assert_eq!(r.stats().unwrap().round.rounds.get(), 2);
        assert_eq!(r, r2);
        assert_ne!(r, Recorder::enabled(), "distinct trees are not equal");
        assert_ne!(r, Recorder::disabled());
    }

    #[test]
    fn json_has_all_sections_and_balanced_braces() {
        let r = Recorder::enabled();
        let st = r.stats().unwrap();
        st.round.scan_ns.record(1500);
        st.exec.dispatches.inc();
        st.store.parse_ns.add(42);
        let json = r.to_json_pretty().unwrap();
        for key in [
            "\"round\":",
            "\"index\":",
            "\"exec\":",
            "\"store\":",
            "\"attack\":",
            "\"kernels\":",
            "\"serve\":",
            "\"scan_ns\":",
            "\"p99_ns\":",
            "\"items_stolen\":",
            "\"gallop\":",
            "\"index_hits\":",
            "\"update\":",
            "\"graph_evictions\":",
            "\"utility\":",
            "\"deleted_edges\":",
            "\"core_evaluations\":",
            "\"base_reused\":",
            "\"base_loaded\":",
            "\"section_ns\":",
            "\"prefix_loaded\":",
            "\"base_ns\":",
            "\"base_patch_ns\":",
            "\"core_repeels\":",
            "\"instance\":",
            "\"sample_ns\":",
            "\"phase1_ns\":",
            "\"release_ns\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert!(!json.contains(",\n  }"), "no trailing commas");
        assert!(!json.contains(",\n    }"), "no trailing commas");
    }
}
