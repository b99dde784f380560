//! The `tpp` subcommands: generate, stats, protect, attack, kstar, utility,
//! and the snapshot store (`store build|info|convert`).

use crate::args::Parsed;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};
use tpp_core::{
    celf_greedy_batch, critical_budget, ct_greedy_batch, divide_budget, random_deletion,
    random_deletion_from_subgraphs, sgb_greedy_batch, wt_greedy_batch, BudgetDivision,
    GreedyConfig, ProtectionPlan, TppInstance,
};
use tpp_exec::Parallelism;
use tpp_graph::{parse_edge_list, write_edge_list, Edge, FastSet, NeighborAccess};
use tpp_linkpred::{evaluate_attack_on, sample_non_edges, Attacker, SimilarityIndex};
use tpp_metrics::{
    compute_utility_with, utility_loss_deleting, utility_loss_with, BaseStats, UtilityConfig,
    UtilityMetric,
};
use tpp_motif::Motif;
use tpp_obs::{Recorder, SpanTimer};
use tpp_store::format::SectionKind;
use tpp_store::{CsrGraph, DeltaView, GraphDelta, VerifyMode};

/// Runs a subcommand; returns an error message for the shell on failure.
pub fn dispatch(p: &Parsed) -> Result<(), String> {
    let name = match (p.command.as_str(), p.positional.first()) {
        ("store", Some(sub)) => format!("store {sub}"),
        (command, _) => command.to_string(),
    };
    check_flags(p, &name)?;
    match p.command.as_str() {
        "generate" => generate(p),
        "stats" => stats(p),
        "protect" => protect(p),
        "attack" => attack(p),
        "kstar" => kstar(p),
        "utility" => utility(p),
        "store" => store(p),
        #[cfg(unix)]
        "serve" => crate::serve::serve_command(p),
        #[cfg(not(unix))]
        "serve" => Err("tpp serve requires a platform with unix sockets".into()),
        "" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    }
}

/// The top-level usage text.
#[must_use]
pub fn usage() -> &'static str {
    "tpp — target privacy preserving for social networks (ICDE 2020)

USAGE:
  tpp generate --model <ba|er|ws|hk|arenas|dblp|karate> [--nodes N] [--seed S] --out FILE
  tpp stats    <edgelist> [--full] [--seed S]
  tpp protect  <edgelist> --budget K [--motif M] [--algorithm A] [--division D]
               [--targets u-v,u-v | --random N] [--seed S] [--threads T]
               [--batch J] [--out released.txt] [--plan plan.json]
               [--stats stats.json|-]
               [--incremental --plan-in prior.json --delta delta.txt
                [--plan-out repaired.json]]
  tpp attack   <edgelist> [--targets u-v,... | --random N]
               [--attacker cn|jaccard|...|katz]
               [--negatives N] [--seed S] [--threads T] [--stats stats.json|-]
  tpp kstar    <edgelist> [--motif M] [--targets ... | --random N] [--seed S]
  tpp utility  <original> <released> [--full] [--seed S]
  tpp store build   <edgelist> --out FILE.csr [--chunk-mb M]
                    [--stats stats.json|-]
  tpp store info    <FILE.csr> [--verify full|header|none] [--shards N]
  tpp store convert <FILE.csr> --out edgelist.txt [--verify full|header|none]
  tpp serve  --socket FILE.sock [--threads T] [--max-graphs N]
             [--max-indexes N] [--ttl-secs S]
  tpp client <FILE.sock> <protect|attack|update|info|ping|shutdown> [args...]

FLAGS:       every command takes only the flags listed above, and
             --verify where it reads a snapshot (store build also takes
             and ignores --threads); any other flag is an error, e.g.
             `unknown flag --verfy for protect`
MOTIFS:      triangle (default), rectangle, rectri, kpath2..kpath5
ALGORITHMS:  sgb (default), celf, ct, wt, rd, rdt
DIVISIONS:   tbd (default), dbd: how ct and wt split the budget across
             targets; any other algorithm rejects --division
THREADS:     --threads 0 (default) uses every available core; plans are
             bit-identical for every thread count
BATCH:       --batch J commits up to J non-interacting picks per round,
             for every greedy strategy: every greedy pops its picks from
             one lazy gain queue, and a round accepts up to J fresh heap
             tops with pairwise-disjoint gain sets (celf closes the round
             at the first conflict); ct/wt additionally cap each round's
             picks by the charged targets' remaining budgets. --batch 1
             (default) is the exact sequential greedy; J must be >= 1.
             rd/rdt have no gain queue and reject --batch
SNAPSHOTS:   protect/attack/kstar/stats/utility accept a .csr snapshot
             anywhere an edge list is expected (detected by file magic);
             snapshots are memory-mapped zero-copy and re-verified at the
             --verify tier (full = checksum + structure, the default;
             header = offset sweep only; none = trust the payload)
STORE BUILD: store build writes the snapshot out-of-core: two passes
             over the edge list with a bounded chunk buffer (--chunk-mb,
             default 64), so graphs larger than RAM build fine; a pipe
             or FIFO input is copied once next to the output first
STATS:       --stats FILE (or - for stdout) writes one JSON document with
             per-round scan/commit timings, coverage-index commit stats,
             executor dispatch/steal counters, load phase times, and
             intersection-kernel selection counts (merge/gallop).
             Telemetry never changes the plan: runs with and without
             --stats are bit-identical
INCREMENTAL: protect --incremental repairs a prior plan against a graph
             delta: --plan-in is the plan file of a finished protect run
             on the base graph, --delta is an edge-delta file (one op per
             line: `+ u v` adds the edge, `- u v` removes it; # comments
             allowed). The delta is applied to the input graph and the
             chosen --algorithm runs on the mutated graph, with the
             targets and motif of --plan-in. The repaired plan is
             byte-identical to a from-scratch run on the mutated graph
SERVE:       tpp serve answers protect/attack/update/info requests over a
             unix socket without restarting: loaded graphs and built
             coverage indexes are cached across requests, one worker pool
             serves every request, and served plans are byte-identical to
             the one-shot CLI. tpp client sends one request (same
             arguments as the one-shot command) and prints the reply;
             --stats - on a served request appends the JSON (with a serve
             cache-hit section) to the reply. update <graph> --delta FILE
             mutates a resident graph in place and patches every warm
             coverage index over it incrementally (delete + localized
             insert enumeration, no rebuild); the registries then serve
             the mutated graph regardless of what is on disk.
             --max-graphs/--max-indexes cap the registries (least-
             recently-used entries are evicted) and --ttl-secs expires
             idle entries"
}

/// The flags `name` accepts (a command, or `store <sub>`), one
/// space-separated list per command, one-shot and served alike; `None`
/// for a name that is no command, which its own dispatch rejects.
fn accepted_flags(name: &str) -> Option<&'static str> {
    Some(match name {
        "generate" => "model nodes seed out",
        "stats" | "utility" => "full seed verify",
        "protect" => {
            "budget motif algorithm division targets random seed threads batch out plan \
             stats verify incremental plan-in delta plan-out"
        }
        "attack" => "targets random attacker negatives seed threads stats verify",
        "kstar" => "motif targets random seed verify",
        // `--threads` is taken and ignored: the streaming build is
        // single-threaded.
        "store build" => "out chunk-mb stats threads",
        "store info" => "verify shards",
        "store convert" => "out verify",
        "serve" => "socket threads max-graphs max-indexes ttl-secs",
        "update" => "delta stats verify",
        "info" | "ping" | "shutdown" => "",
        _ => return None,
    })
}

/// Rejects the first flag `name` does not accept, naming both.
pub(crate) fn check_flags(p: &Parsed, name: &str) -> Result<(), String> {
    let Some(accepted) = accepted_flags(name) else {
        return Ok(());
    };
    let unknown = p
        .flags
        .keys()
        .find(|f| !accepted.split(' ').any(|a| a == *f));
    unknown.map_or(Ok(()), |flag| {
        Err(format!("unknown flag --{flag} for {name}"))
    })
}

/// A request's `--stats` telemetry, built once from its flags: the
/// recorder the run reports into, the kernel-selection tallies at the
/// request's start, and where the JSON goes (`-` for the report, anything
/// else a file). Without `--stats` the recorder is disabled and nothing
/// is counted or written.
pub(crate) struct RunStats {
    pub recorder: Recorder,
    sink: Option<(String, tpp_graph::KernelCounts)>,
}

impl RunStats {
    /// Parses `--stats <path|->`. A file destination is created at once, so
    /// an unwritable path fails before the (potentially long) run, not
    /// after. Kernel-selection counting is process-wide and stays on once
    /// a request turns it on: switching it off would race concurrent
    /// `--stats` requests in one process, so each request counts from its
    /// own baseline instead.
    pub(crate) fn from_flags(p: &Parsed) -> Result<Self, String> {
        let Some(dest) = p.flags.get("stats") else {
            return Ok(RunStats {
                recorder: Recorder::disabled(),
                sink: None,
            });
        };
        if dest != "-" {
            std::fs::File::create(dest)
                .map_err(|e| format!("cannot write --stats file {dest}: {e}"))?;
        }
        tpp_graph::kernels::set_counting(true);
        Ok(RunStats {
            recorder: Recorder::enabled(),
            sink: Some((dest.clone(), tpp_graph::kernels::counts())),
        })
    }

    /// Folds the request's kernel selections into the recorder, writes the
    /// JSON to its destination and returns the lines the report ends
    /// with: the JSON itself for `-`, a one-line pointer after the file
    /// write otherwise, nothing without `--stats`. (Text, so a served
    /// request ships the same bytes the one-shot CLI prints.)
    pub(crate) fn finish(self) -> Result<String, String> {
        let (Some((dest, baseline)), Some(st)) = (self.sink, self.recorder.stats()) else {
            return Ok(String::new());
        };
        let d = tpp_graph::kernels::counts().since(baseline);
        st.kernels.merge.add(d.merge);
        st.kernels.gallop.add(d.gallop);
        let json = st.to_json_pretty();
        if dest == "-" {
            return Ok(format!("{json}\n"));
        }
        std::fs::write(&dest, json).map_err(|e| format!("writing --stats file {dest}: {e}"))?;
        Ok(format!("stats -> {dest}\n"))
    }
}

/// Parses `--verify full|header|none` with a per-command default.
fn parse_verify(p: &Parsed, default: &str) -> Result<VerifyMode, String> {
    let name = p.get_or("verify", default);
    VerifyMode::from_name(name)
        .ok_or_else(|| format!("unknown --verify mode {name:?} (expected full, header, or none)"))
}

/// `true` when the file starts with the TPPCSR snapshot magic — the sniff
/// that lets every graph-taking command accept `.csr` snapshots in place
/// of text edge lists. Unreadable files answer `false` so the text path
/// reports its usual error.
pub(crate) fn is_snapshot(path: &str) -> bool {
    use std::io::Read;
    let mut magic = [0u8; 8];
    std::fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut magic))
        .is_ok()
        && magic == tpp_store::format::MAGIC
}

/// Base statistics of one graph, shared between the runs on it: filled
/// by a snapshot's base-statistics section at load, or by the first
/// protect that needs them (see [`run_protect`]).
pub(crate) type BaseSlot = Arc<OnceLock<BaseStats>>;

/// Loads the input graph (the first positional) as the shared CSR
/// snapshot every request path runs on; see [`load_graph_at`].
pub(crate) fn load_graph_observed(
    p: &Parsed,
    recorder: &Recorder,
) -> Result<(Arc<CsrGraph>, BaseSlot), String> {
    let path = p
        .positional
        .first()
        .ok_or("expected an edge-list or snapshot file argument")?;
    load_graph_at(p, path, recorder)
}

/// Loads `path` as a CSR snapshot — a binary snapshot (by magic sniff,
/// zero-copy mapped at the `--verify` tier, default full, and used as is)
/// or a text edge list (parsed once, copied into a snapshot once) — with
/// load wall time reported into the recorder's store section (a disabled
/// recorder never reads the clock), and the graph's [`BaseSlot`]: filled
/// from a snapshot's base-statistics section, so no run on it recounts,
/// and empty otherwise.
fn load_graph_at(
    p: &Parsed,
    path: &str,
    recorder: &Recorder,
) -> Result<(Arc<CsrGraph>, BaseSlot), String> {
    if is_snapshot(path) {
        let verify = parse_verify(p, "full")?;
        let (csr, header, section) =
            tpp_store::format::load_mapped_observed(path, verify, recorder)
                .map_err(|e| format!("loading snapshot {path}: {e}"))?;
        if let Some(st) = recorder.stats() {
            let loaded = header.section(SectionKind::UpperPrefix).is_some();
            st.store.prefix_loaded.add(u64::from(loaded));
        }
        let base = section
            .map(|s| {
                let t0 = recorder.is_enabled().then(std::time::Instant::now);
                let base = BaseStats::from_arrays(&csr, s.triangles, s.cores).map_err(|e| {
                    format!("loading snapshot {path}: base-stats section does not fit: {e}")
                })?;
                if let (Some(t0), Some(st)) = (t0, recorder.stats()) {
                    st.store.section_ns.add_duration(t0.elapsed());
                }
                Ok::<_, String>(Arc::new(OnceLock::from(base)))
            })
            .transpose()?;
        return Ok((Arc::new(csr), base.unwrap_or_default()));
    }
    let t0 = recorder.is_enabled().then(std::time::Instant::now);
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let csr = CsrGraph::from_graph(&parse_edge_list(&text).map_err(|e| e.to_string())?);
    if let (Some(t0), Some(st)) = (t0, recorder.stats()) {
        st.store.loads.inc();
        st.store.parse_ns.add_duration(t0.elapsed());
    }
    Ok((Arc::new(csr), BaseSlot::default()))
}

fn load_graph(p: &Parsed) -> Result<Arc<CsrGraph>, String> {
    load_graph_observed(p, &Recorder::disabled()).map(|(g, _)| g)
}

pub(crate) fn parse_motif(p: &Parsed) -> Result<Motif, String> {
    let name = p.get_or("motif", "triangle");
    Motif::from_name(name).ok_or_else(|| format!("unknown motif {name:?}"))
}

/// Resolves `--targets u-v,...` (validated against `g`'s node range; a
/// listed pair need not be an edge) or `--random N` sampled targets.
pub(crate) fn parse_targets(p: &Parsed, g: &CsrGraph) -> Result<Vec<Edge>, String> {
    if let Some(spec) = p.flags.get("targets") {
        let mut out = Vec::new();
        for token in spec.split(',') {
            let (a, b) = token
                .split_once('-')
                .ok_or_else(|| format!("target {token:?} must look like u-v"))?;
            let a: u32 = a.trim().parse().map_err(|_| format!("bad node id {a:?}"))?;
            let b: u32 = b.trim().parse().map_err(|_| format!("bad node id {b:?}"))?;
            if a == b {
                return Err(format!("target {a}-{b} is a self-loop"));
            }
            if let Some(x) = [a, b].into_iter().find(|&x| x as usize >= g.node_count()) {
                return Err(format!(
                    "target {a}-{b}: node {x} is out of range (the graph has {} nodes)",
                    g.node_count()
                ));
            }
            out.push(Edge::new(a, b));
        }
        Ok(out)
    } else {
        let n: usize = p.num_or("random", 10usize)?;
        let seed: u64 = p.num_or("seed", 2020u64)?;
        TppInstance::try_sample_targets(g, n.min(g.edge_count()), seed).map_err(|e| e.to_string())
    }
}

fn generate(p: &Parsed) -> Result<(), String> {
    let model = p.require("model")?;
    let seed: u64 = p.num_or("seed", 2020u64)?;
    let nodes: usize = p.num_or("nodes", 1000usize)?;
    // The random generators assert their preconditions (ba/hk: n > m = 4,
    // ws: n > k = 8, er: p = 8/n <= 1), so check them here first.
    let min_nodes = match model {
        "ba" | "hk" => 5,
        "ws" => 9,
        "er" => 8,
        _ => 0,
    };
    if nodes < min_nodes {
        return Err(format!(
            "--nodes {nodes} is too small for --model {model}: it needs at least {min_nodes}"
        ));
    }
    let g = match model {
        "ba" => tpp_graph::generators::barabasi_albert(nodes, 4, seed),
        "er" => tpp_graph::generators::erdos_renyi_gnp(nodes, 8.0 / nodes as f64, seed),
        "ws" => tpp_graph::generators::watts_strogatz(nodes, 8, 0.1, seed),
        "hk" => tpp_graph::generators::holme_kim(nodes, 4, 0.4, seed),
        "arenas" => tpp_datasets::arenas_email_like(seed),
        "dblp" => tpp_datasets::dblp_like(tpp_datasets::DblpScale::Tiny, seed),
        "karate" => tpp_datasets::karate_club(),
        other => return Err(format!("unknown model {other:?}")),
    };
    let out = p.require("out")?;
    std::fs::write(out, write_edge_list(&g)).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} nodes, {} edges)",
        out,
        g.node_count(),
        g.edge_count()
    );
    Ok(())
}

fn stats(p: &Parsed) -> Result<(), String> {
    print!("{}", stats_report(p)?);
    Ok(())
}

/// The `tpp stats` report. A snapshot's base-statistics section supplies
/// `clust` and `cn` (bit-identical to counting them), so only a text or
/// v1/v2 input pays the triangle count and core peel.
fn stats_report(p: &Parsed) -> Result<String, String> {
    use std::fmt::Write as _;
    let (g, base) = load_graph_observed(p, &Recorder::disabled())?;
    let mut out = String::new();
    let _ = writeln!(out, "nodes:  {}", g.node_count());
    let _ = writeln!(out, "edges:  {}", g.edge_count());
    let max_degree = g.node_ids().map(|u| g.degree(u)).max().unwrap_or(0);
    let _ = writeln!(out, "max-degree: {max_degree}");
    let _ = writeln!(
        out,
        "mean-degree: {:.2}",
        (2 * g.edge_count()) as f64 / g.node_count().max(1) as f64
    );
    let seed: u64 = p.num_or("seed", 1u64)?;
    out.push_str(&utility_lines(
        &*g,
        base.get_or_init(|| BaseStats::compute(&*g)),
        p.has("full"),
        seed,
        EXACT_PATHS_MAX_NODES,
    ));
    Ok(out)
}

/// Largest graph whose average path length `tpp stats --full` computes
/// exactly, by a BFS from every node; above it the BFS runs from a seeded
/// sample of [`SAMPLED_PATH_SOURCES`] nodes.
const EXACT_PATHS_MAX_NODES: usize = 10_000;

/// BFS sources `tpp stats --full` samples on graphs above
/// [`EXACT_PATHS_MAX_NODES`].
const SAMPLED_PATH_SOURCES: usize = 1_000;

/// The metric lines of `tpp stats`: clustering and core number, or with
/// `full` all six metrics, the path length sampled (and labelled so) when
/// `g` has more than `exact_max_nodes` nodes. `clust` and `cn` come from
/// `base`, `g`'s base statistics.
fn utility_lines<G: NeighborAccess>(
    g: &G,
    base: &BaseStats,
    full: bool,
    seed: u64,
    exact_max_nodes: usize,
) -> String {
    use std::fmt::Write as _;
    let sampled = full && g.node_count() > exact_max_nodes;
    let config = match (full, sampled) {
        (false, _) => UtilityConfig::large_graph(seed),
        (true, false) => UtilityConfig::full(seed),
        (true, true) => UtilityConfig {
            path_sources: Some(SAMPLED_PATH_SOURCES),
            ..UtilityConfig::full(seed)
        },
    };
    let mut out = String::new();
    for (metric, value) in compute_utility_with(base, g, &config).values {
        if sampled && metric == UtilityMetric::AvgPathLength {
            let _ = writeln!(
                out,
                "{metric} ({SAMPLED_PATH_SOURCES} sampled sources): {value:.4}"
            );
        } else {
            let _ = writeln!(out, "{metric}: {value:.4}");
        }
    }
    out
}

/// JSON envelope written by `tpp protect --plan` / `--plan-out`.
#[derive(Serialize)]
struct PlanFile<'a> {
    algorithm: String,
    motif: String,
    budget: usize,
    targets: &'a [Edge],
    plan: &'a ProtectionPlan,
    utility_loss_percent: f64,
}

/// What `--plan-in` reads back from a [`PlanFile`]: the prior run's motif
/// and target list, so an incremental repair cannot silently diverge from
/// the problem the prior plan solved.
#[derive(Deserialize)]
struct PlanFileIn {
    motif: String,
    targets: Vec<Edge>,
}

/// Everything `protect --incremental` resolves before the greedy runs.
struct IncrementalRun {
    motif: Motif,
    /// The TPP instance over the mutated graph (the base graph with the
    /// delta applied is its original).
    instance: TppInstance,
    /// Net delta sizes, for the report line.
    removed: usize,
    added: usize,
}

/// Resolves `--incremental`: loads the prior plan (`--plan-in`) and the
/// edge delta (`--delta`), and applies the delta to the base graph (an
/// overlay, copied once into the mutated snapshot). Targets and motif
/// come from the plan file — the repair must solve the same problem the
/// prior run did, just on the mutated graph.
fn prepare_incremental(p: &Parsed, g: Arc<CsrGraph>) -> Result<IncrementalRun, String> {
    if p.flags.contains_key("targets") || p.flags.contains_key("random") {
        return Err(
            "--incremental takes its targets from --plan-in; drop --targets/--random".into(),
        );
    }
    let plan_path = p
        .require("plan-in")
        .map_err(|_| "--incremental requires --plan-in <plan.json> from a prior protect run")?;
    let delta_path = p
        .require("delta")
        .map_err(|_| "--incremental requires --delta <file> (`+ u v` / `- u v` lines)")?;
    let text = std::fs::read_to_string(plan_path)
        .map_err(|e| format!("reading --plan-in {plan_path}: {e}"))?;
    let prior: PlanFileIn =
        serde_json::from_str(&text).map_err(|e| format!("parsing --plan-in {plan_path}: {e}"))?;
    let motif = Motif::from_name(&prior.motif)
        .ok_or_else(|| format!("--plan-in {plan_path}: unknown motif {:?}", prior.motif))?;
    if let Some(requested) = p.flags.get("motif") {
        if requested != &prior.motif {
            return Err(format!(
                "--motif {requested} conflicts with the prior plan's motif {}",
                prior.motif
            ));
        }
    }
    let delta = GraphDelta::load(std::path::Path::new(delta_path))
        .map_err(|e| format!("loading --delta {delta_path}: {e}"))?;
    let view = delta
        .overlay(&*g)
        .map_err(|e| format!("applying --delta {delta_path}: {e}"))?;
    let (removed, added) = (view.deleted_edges(), view.added_edges());
    let targets = prior.targets;
    if let Some(t) = removed.iter().chain(&added).find(|e| targets.contains(e)) {
        return Err(format!(
            "--delta {delta_path} touches target edge {t}; incremental repair \
             requires a stable target list"
        ));
    }
    let mutated = CsrGraph::from_access(&view);
    let instance = TppInstance::new(mutated, targets).map_err(|e| e.to_string())?;
    Ok(IncrementalRun {
        motif,
        instance,
        removed: removed.len(),
        added: added.len(),
    })
}

/// Resolves the run's targets and builds its phase-1 instance over `g`,
/// timing the two steps into the recorder's `instance` section — the one
/// path for one-shot runs and for the instance `tpp serve` builds to look
/// up its index.
pub(crate) fn build_instance(
    p: &Parsed,
    g: Arc<CsrGraph>,
    recorder: &Recorder,
) -> Result<TppInstance, String> {
    let st = recorder.stats();
    let timer = SpanTimer::counter(st.map(|st| &st.instance.sample_ns));
    let targets = parse_targets(p, &g)?;
    timer.stop();
    let _timer = SpanTimer::counter(st.map(|st| &st.instance.phase1_ns));
    TppInstance::new(g, targets).map_err(|e| e.to_string())
}

/// What a run starts from besides its flags and graph, built once per
/// request: from `--threads` and the load for a one-shot run, from the
/// registries and the shared pool for a served one.
pub(crate) struct RunSeeds {
    /// The run's phase-1 instance, when the server already built it to
    /// look up the index (never for an incremental run).
    pub instance: Option<TppInstance>,
    /// Pre-built coverage index from the server's registry (only consulted
    /// when its motif and targets match the run).
    pub index: Option<Arc<tpp_motif::PartitionedCoverageIndex>>,
    /// The executor the run dispatches on: a pool sized by `--threads` for
    /// a one-shot run, the server's shared pool for a served one.
    pub exec: Parallelism,
    /// The base-statistics slot of the run's graph (the registry's, or
    /// the one the load returned): read when filled, filled by this run
    /// otherwise (see [`run_protect`]).
    pub base: BaseSlot,
    /// Whether `base` was filled by this request's own snapshot load
    /// rather than by an earlier request.
    pub base_loaded: bool,
}

/// A one-shot request: its `--stats` telemetry, its graph (loaded under
/// that recorder) and its seeds — a fresh `--threads` pool (`0`, the
/// default, is every available core) and the slot the load returned.
fn one_shot(p: &Parsed) -> Result<(Arc<CsrGraph>, RunStats, RunSeeds), String> {
    let stats = RunStats::from_flags(p)?;
    let (g, base) = load_graph_observed(p, &stats.recorder)?;
    let seeds = RunSeeds {
        instance: None,
        index: None,
        exec: Parallelism::new(p.num_or("threads", 0usize)?),
        base_loaded: base.get().is_some(),
        base,
    };
    Ok((g, stats, seeds))
}

fn protect(p: &Parsed) -> Result<(), String> {
    print!("{}", protect_report(p)?);
    Ok(())
}

/// The one-shot `tpp protect` report: load (a snapshot's base statistics
/// with it), then [`run_protect`].
fn protect_report(p: &Parsed) -> Result<String, String> {
    let (g, stats, seeds) = one_shot(p)?;
    run_protect(p, g, stats, seeds)
}

/// The full protect pipeline after the graph is in hand, returning the
/// report text instead of printing it — shared verbatim by the one-shot
/// `protect` command and `tpp serve`, which is what keeps served plans
/// byte-identical to one-shot plans. File side effects (`--out`, `--plan`,
/// `--stats FILE`) happen here either way; `--stats -` appends the JSON to
/// the report.
pub(crate) fn run_protect(
    p: &Parsed,
    g: Arc<CsrGraph>,
    stats: RunStats,
    seeds: RunSeeds,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let recorder = &stats.recorder;
    let mut out = String::new();
    let budget: usize = p.require("budget")?.parse().map_err(|_| "bad --budget")?;
    let seed: u64 = p.num_or("seed", 2020u64)?;
    let algorithm = p.get_or("algorithm", "sgb");
    // Batch-commit round width: 1 = the exact sequential greedy; J > 1
    // commits up to J disjoint-gain-set picks per scan — valid for every
    // greedy strategy (sgb, celf, ct, wt); the random baselines have no
    // scan to batch.
    let batch: usize = p.positive_or("batch", 1)?;
    if batch > 1 && matches!(algorithm, "rd" | "rdt") {
        return Err(format!(
            "--batch {batch} requires a greedy algorithm (sgb, celf, ct, wt); \
             {algorithm:?} has no candidate scan to batch"
        ));
    }
    // Per-target budget division: only ct and wt split the budget.
    let division = match p.get_or("division", "tbd") {
        "tbd" => BudgetDivision::Tbd,
        "dbd" => BudgetDivision::Dbd,
        other => return Err(format!("unknown division {other:?}")),
    };
    if p.has("division") && matches!(algorithm, "sgb" | "celf" | "rd" | "rdt") {
        return Err(format!(
            "--division requires a per-target algorithm (ct, wt); \
             {algorithm:?} spends one global budget"
        ));
    }
    // --incremental swaps the problem for the delta-mutated one; the
    // greedy and everything downstream (report, --out, --plan) are
    // shared, so the repaired plan file is byte-identical to a
    // from-scratch run on the mutated graph.
    let incremental = p.has("incremental");
    let (motif, instance) = if incremental {
        let ir = prepare_incremental(p, g)?;
        let _ = writeln!(
            out,
            "incremental: delta -{}/+{} edges",
            ir.removed, ir.added
        );
        (ir.motif, ir.instance)
    } else {
        let motif = parse_motif(p)?;
        let instance = match seeds.instance {
            Some(instance) => instance,
            None => build_instance(p, g, recorder)?,
        };
        (motif, instance)
    };

    let cfg = GreedyConfig {
        exec: seeds.exec,
        recorder: recorder.clone(),
        // An incremental run never takes the warm seed: the registry's
        // index covers the pre-delta graph, not the mutated instance.
        index_seed: seeds.index.filter(|_| !incremental),
        ..GreedyConfig::scalable(motif)
    };
    let plan = match algorithm {
        "sgb" => sgb_greedy_batch(&instance, budget, batch, &cfg),
        "celf" => celf_greedy_batch(&instance, budget, batch, &cfg),
        "ct" | "wt" => {
            let budgets = divide_budget(division, budget, &instance, motif);
            if algorithm == "ct" {
                ct_greedy_batch(&instance, &budgets, batch, &cfg).map_err(|e| e.to_string())?
            } else {
                wt_greedy_batch(&instance, &budgets, batch, &cfg).map_err(|e| e.to_string())?
            }
        }
        "rd" => random_deletion(&instance, budget, motif, seed),
        "rdt" => random_deletion_from_subgraphs(&instance, budget, motif, seed),
        other => return Err(format!("unknown algorithm {other:?}")),
    };

    let _ = writeln!(
        out,
        "{}: similarity {} -> {} with {} protector deletions (+{} targets removed)",
        plan.algorithm,
        plan.initial_similarity,
        plan.final_similarity,
        plan.deletions(),
        instance.target_count()
    );
    if plan.is_full_protection() {
        let _ = writeln!(
            out,
            "all targets fully protected against the {motif} pattern"
        );
    }

    let original = instance.original();
    let timer = SpanTimer::counter(recorder.stats().map(|st| &st.instance.release_ns));
    let released = instance.apply_protectors(&plan.protectors);
    timer.stop();
    let t0 = recorder.is_enabled().then(std::time::Instant::now);
    let mut base_ns = None;
    let mut compute_base = || {
        let t = std::time::Instant::now();
        let base = BaseStats::compute(original);
        base_ns = Some(t.elapsed());
        base
    };
    let config = UtilityConfig::large_graph(seed);
    // The release is an overlay over the original, so the deleted set
    // `T ∪ P` is its own delta, not a walk over both graphs.
    let deleted = released.deleted_edges();
    let report =
        |base: &BaseStats| utility_loss_deleting(base, original, &released, &deleted, &config);
    // A slot describes the run's input graph; an incremental run's
    // original is the delta-mutated graph, so it computes its own.
    let loss = if incremental {
        report(&compute_base())
    } else {
        report(seeds.base.get_or_init(compute_base))
    };
    if let (Some(t0), Some(st)) = (t0, recorder.stats()) {
        st.utility.utility_ns.add_duration(t0.elapsed());
        match base_ns {
            Some(ns) => st.utility.base_ns.add_duration(ns),
            None if seeds.base_loaded => st.utility.base_loaded.inc(),
            None => st.utility.base_reused.inc(),
        }
        st.utility
            .deleted_edges
            .add(loss.deleted_edges.unwrap_or(0) as u64);
        st.utility.core_evaluations.add(loss.core_evaluations);
    }
    let _ = writeln!(out, "utility loss (clust, cn): {}", loss.average_percent());

    if let Some(path) = p.flags.get("out") {
        std::fs::write(path, write_edge_list(&released)).map_err(|e| e.to_string())?;
        let _ = writeln!(out, "released graph -> {path}");
    }
    // --plan-out is an alias of --plan (the natural spelling next to
    // --plan-in on an incremental invocation).
    if let Some(plan_path) = p.flags.get("plan").or_else(|| p.flags.get("plan-out")) {
        let file = PlanFile {
            algorithm: plan.algorithm.to_string(),
            motif: motif.to_string(),
            budget,
            targets: instance.targets(),
            plan: &plan,
            utility_loss_percent: loss.average * 100.0,
        };
        let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
        std::fs::write(plan_path, json).map_err(|e| e.to_string())?;
        let _ = writeln!(out, "plan -> {plan_path}");
    }
    out.push_str(&stats.finish()?);
    Ok(out)
}

fn attack(p: &Parsed) -> Result<(), String> {
    let (g, stats, seeds) = one_shot(p)?;
    print!("{}", run_attack(p, g, stats, &seeds)?);
    Ok(())
}

/// The attack-evaluation pipeline after the graph is in hand, returning
/// the report text — shared by the one-shot `attack` command and
/// `tpp serve` (see [`run_protect`]).
pub(crate) fn run_attack(
    p: &Parsed,
    g: Arc<CsrGraph>,
    stats: RunStats,
    seeds: &RunSeeds,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let targets = parse_targets(p, &g)?;
    // Attacked graph = as-released: an overlay hiding any target edges
    // still present (a short-lived read-only view, never copied).
    let mut released = DeltaView::new(&*g);
    for &t in &targets {
        released.delete_edge(t);
    }
    let seed: u64 = p.num_or("seed", 2020u64)?;
    let negatives_count: usize = p.num_or("negatives", 500usize)?;
    // Non-edge pairs outside the targets: every pair, less the released
    // edges, less the (distinct) targets, none of which is released.
    let n = released.node_count() as u64;
    let hidden = targets.iter().collect::<FastSet<_>>().len() as u64;
    let available =
        (n * n.saturating_sub(1) / 2).saturating_sub(released.edge_count() as u64 + hidden);
    if n < 2 || negatives_count as u64 > available {
        return Err(format!(
            "--negatives {negatives_count} exceeds the {available} non-edge pair(s) \
             available outside the targets"
        ));
    }
    let negatives = sample_non_edges(&released, negatives_count, &targets, seed);

    let name = p.get_or("attacker", "cn");
    let attacker = if name == "katz" {
        Attacker::Katz(0.05, 4)
    } else if let Some(idx) = SimilarityIndex::ALL.iter().find(|i| i.name() == name) {
        Attacker::Index(*idx)
    } else if let Some(motif) = Motif::from_name(name) {
        Attacker::MotifCount(motif)
    } else {
        return Err(format!("unknown attacker {name:?}"));
    };

    // Rankings are bit-identical at every pool width.
    let exec = seeds.exec.attach_recorder(stats.recorder.clone());
    let outcome = evaluate_attack_on(&released, &targets, &negatives, attacker, &exec);
    let _ = writeln!(out, "attacker:       {}", outcome.attacker);
    let _ = writeln!(out, "auc:            {:.4}", outcome.auc);
    let _ = writeln!(out, "precision@|T|:  {:.4}", outcome.precision_at_t);
    let _ = writeln!(out, "mean target score: {:.4}", outcome.mean_target_score);
    if outcome.targets_fully_hidden() {
        let _ = writeln!(out, "verdict: targets fully hidden from this attacker");
    } else {
        let _ = writeln!(out, "verdict: residual evidence remains");
    }
    out.push_str(&stats.finish()?);
    Ok(out)
}

fn utility(p: &Parsed) -> Result<(), String> {
    print!("{}", utility_report(p)?);
    Ok(())
}

/// The `tpp utility` report: edge counts and per-metric utility loss of
/// `<released>` against `<original>`, each a text edge list or a snapshot.
fn utility_report(p: &Parsed) -> Result<String, String> {
    use std::fmt::Write as _;
    let (Some(original_path), Some(released_path)) = (p.positional.first(), p.positional.get(1))
    else {
        return Err("expected <original> <released>".into());
    };
    let recorder = Recorder::disabled();
    let (original, base) = load_graph_at(p, original_path, &recorder)?;
    let (released, _) = load_graph_at(p, released_path, &recorder)?;
    let seed: u64 = p.num_or("seed", 1u64)?;
    let config = if p.has("full") {
        UtilityConfig::full(seed)
    } else {
        UtilityConfig::large_graph(seed)
    };
    let base = base.get_or_init(|| BaseStats::compute(&*original));
    let report = utility_loss_with(base, &*original, &*released, &config);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "edges: {} -> {} ({} deleted)",
        original.edge_count(),
        released.edge_count(),
        original.edge_count().saturating_sub(released.edge_count())
    );
    for (metric, loss) in &report.per_metric {
        let _ = writeln!(out, "ulr({metric}): {:.4}%", loss * 100.0);
    }
    let _ = writeln!(out, "average utility loss: {}", report.average_percent());
    Ok(out)
}

/// `tpp store build|info|convert` — the binary snapshot store.
fn store(p: &Parsed) -> Result<(), String> {
    let sub = p
        .positional
        .first()
        .ok_or("expected a store subcommand: build, info, or convert")?;
    let path = p
        .positional
        .get(1)
        .ok_or("expected a file argument after the store subcommand")?;
    match sub.as_str() {
        "build" => {
            // Resolve every argument before the (potentially long) build,
            // so arg errors are instant.
            let out = p.require("out")?;
            let chunk_mb: usize = p.positive_or("chunk-mb", 64)?;
            let chunk_bytes = chunk_mb
                .checked_mul(1024 * 1024)
                .ok_or_else(|| format!("flag --chunk-mb {chunk_mb} overflows the chunk size"))?;
            let stats = RunStats::from_flags(p)?;
            // Two passes over the edge list, a bounded chunk buffer,
            // payload spilled through disk; then the original's base
            // statistics, counted once here instead of by every protect.
            let cfg = tpp_store::StreamConfig { chunk_bytes };
            let report = tpp_store::build_stream(path, out, &cfg, &snapshot_base, &stats.recorder)
                .map_err(|e| format!("{path}: {e}"))?;
            let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
            println!(
                "wrote {} ({} nodes, {} edges, {} bytes, format v{})",
                out,
                report.nodes,
                report.edges,
                bytes,
                tpp_store::format::VERSION,
            );
            println!(
                "stream: {} chunk(s), peak chunk buffer {} KiB, \
                 {} KiB spilled, {} duplicate edge(s) dropped",
                report.chunks,
                report.peak_chunk_bytes.div_ceil(1024),
                report.spill_bytes.div_ceil(1024),
                report.duplicates_dropped,
            );
            print!("{}", stats.finish()?);
            Ok(())
        }
        "info" => {
            // One load serves the header facts and the graph, mapped
            // zero-copy at the chosen tier (default header: the
            // offset-table sweep, never the neighbor pages).
            let verify = parse_verify(p, "header")?;
            let (csr, header, _) =
                tpp_store::format::load_mapped_observed(path, verify, &Recorder::disabled())
                    .map_err(|e| e.to_string())?;
            println!("file:    {path}");
            println!(
                "format:  TPPCSR v{} (payload at byte {}, {}-byte aligned)",
                header.version,
                header.payload_offset(),
                header.payload_alignment(),
            );
            let sections: Vec<String> = header
                .sections
                .iter()
                .map(|s| {
                    let checked = if verify.checks(s.kind) {
                        "verified"
                    } else {
                        "skipped"
                    };
                    format!("{} {} bytes (checksum {checked})", s.kind.name(), s.length)
                })
                .collect();
            println!("sections: {}", sections.join(", "));
            println!("storage: {}", csr.storage_kind());
            println!("nodes:   {}", csr.node_count());
            println!("edges:   {}", csr.edge_count());
            let degrees: Vec<usize> = (0..csr.node_count() as u32)
                .map(|u| csr.degree(u))
                .collect();
            let max_degree = degrees.iter().copied().max().unwrap_or(0);
            let isolated = degrees.iter().filter(|&&d| d == 0).count();
            println!("max-degree: {max_degree}");
            println!(
                "mean-degree: {:.2}",
                degrees.iter().sum::<usize>() as f64 / csr.node_count().max(1) as f64
            );
            println!("isolated-nodes: {isolated}");
            match verify {
                VerifyMode::Full => println!("checksum: verified"),
                other => println!("checksum: skipped (--verify {})", other.name()),
            }
            let shards: usize = p.num_or("shards", 0usize)?;
            if shards > 0 {
                print!("{}", shard_plan_report(&csr, shards));
            }
            Ok(())
        }
        "convert" => {
            let out = p.require("out")?;
            let verify = parse_verify(p, "full")?;
            let csr = tpp_store::format::load_mapped(path, verify).map_err(|e| e.to_string())?;
            std::fs::write(out, write_edge_list(&csr)).map_err(|e| e.to_string())?;
            println!(
                "wrote {} ({} nodes, {} edges)",
                out,
                csr.node_count(),
                csr.edge_count()
            );
            Ok(())
        }
        other => Err(format!(
            "unknown store subcommand {other:?} (expected build, info, or convert)"
        )),
    }
}

/// The base-statistics section `tpp store build` writes: the original's
/// triangle counts and core numbers, the arrays behind `clust` and `cn`.
fn snapshot_base(g: &CsrGraph) -> tpp_store::BaseSection {
    tpp_store::BaseSection {
        triangles: tpp_metrics::clustering::triangle_counts(g).into(),
        cores: tpp_metrics::core_numbers(g).into(),
    }
}

/// The `store info --shards` report: the degree-balanced node ranges of
/// [`CsrGraph::shard_ranges`], each with its payload (its share of the
/// neighbor array), its owned edges (lower endpoint in range: the index's
/// commit partitioning) and its intra edges (both endpoints in range).
fn shard_plan_report(csr: &CsrGraph, shards: usize) -> String {
    use std::fmt::Write as _;
    let mut out = format!("shard plan ({shards} requested, degree-balanced):\n");
    let ranges = csr.shard_ranges(shards);
    let offsets = csr.offsets();
    let total_payload = csr.neighbor_array().len().max(1);
    let mut max_payload = 0usize;
    for (i, r) in ranges.iter().enumerate() {
        let payload = (offsets[r.end as usize] - offsets[r.start as usize]) as usize;
        let (mut owned, mut intra) = (0usize, 0usize);
        for u in r.clone() {
            let nbrs = csr.neighbors(u);
            let above = nbrs.partition_point(|&v| v <= u);
            owned += nbrs.len() - above;
            intra += nbrs.partition_point(|&v| v < r.end) - above;
        }
        max_payload = max_payload.max(payload);
        let _ = writeln!(
            out,
            "  shard {i}: nodes {}..{} ({} nodes, payload {payload} = {:.1}%, \
             owned-edges {owned}, intra-edges {intra})",
            r.start,
            r.end,
            r.end - r.start,
            payload as f64 * 100.0 / total_payload as f64,
        );
    }
    let ideal = total_payload as f64 / ranges.len() as f64;
    let _ = writeln!(
        out,
        "  balance: max payload {:.2}x the ideal even split",
        max_payload as f64 / ideal.max(1.0),
    );
    out
}

fn kstar(p: &Parsed) -> Result<(), String> {
    let g = load_graph(p)?;
    let motif = parse_motif(p)?;
    let targets = parse_targets(p, &g)?;
    let instance = TppInstance::new(g, targets).map_err(|e| e.to_string())?;
    let (k_star, plan) = critical_budget(&instance, motif);
    println!(
        "k* = {k_star} deletions fully protect {} targets against {motif}",
        instance.target_count()
    );
    println!(
        "initial similarity {} -> 0; deletion trail:",
        plan.initial_similarity
    );
    let mut shuffled_preview = plan.steps.iter().collect::<Vec<_>>();
    // show at most 10 steps, deterministic order
    let mut rng = StdRng::seed_from_u64(0);
    if shuffled_preview.len() > 10 {
        shuffled_preview.shuffle(&mut rng);
        shuffled_preview.truncate(10);
        shuffled_preview.sort_by_key(|s| s.round);
        println!("  (showing 10 of {k_star} steps)");
    }
    for step in shuffled_preview {
        println!(
            "  round {:>3}: {} breaks {}",
            step.round, step.protector, step.total_broken
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tpp-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn generate_then_stats_then_protect_round_trip() {
        let dir = tmpdir();
        let graph_path = dir.join("g.txt");
        let released_path = dir.join("released.txt");
        let plan_path = dir.join("plan.json");

        let p = parse(&strs(&[
            "generate",
            "--model",
            "karate",
            "--out",
            graph_path.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&p).unwrap();

        let p = parse(&strs(&["stats", graph_path.to_str().unwrap()])).unwrap();
        dispatch(&p).unwrap();

        let p = parse(&strs(&[
            "protect",
            graph_path.to_str().unwrap(),
            "--budget",
            "5",
            "--targets",
            "0-1,32-33",
            "--out",
            released_path.to_str().unwrap(),
            "--plan",
            plan_path.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&p).unwrap();

        // released graph parses and is smaller
        let released = parse_edge_list(&std::fs::read_to_string(&released_path).unwrap()).unwrap();
        assert!(released.edge_count() < 78);
        // plan JSON contains the algorithm name
        let json = std::fs::read_to_string(&plan_path).unwrap();
        assert!(json.contains("SGB-Greedy"));
        assert!(json.contains("protectors"));
    }

    #[test]
    fn attack_and_kstar_commands() {
        let dir = tmpdir();
        let graph_path = dir.join("g2.txt");
        dispatch(
            &parse(&strs(&[
                "generate",
                "--model",
                "karate",
                "--out",
                graph_path.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();

        dispatch(
            &parse(&strs(&[
                "attack",
                graph_path.to_str().unwrap(),
                "--targets",
                "0-1",
                "--attacker",
                "adamic-adar",
                "--negatives",
                "50",
            ]))
            .unwrap(),
        )
        .unwrap();

        dispatch(
            &parse(&strs(&[
                "kstar",
                graph_path.to_str().unwrap(),
                "--targets",
                "0-1,0-2",
            ]))
            .unwrap(),
        )
        .unwrap();
    }

    #[test]
    fn utility_command_compares_two_releases() {
        let dir = tmpdir();
        let orig = dir.join("orig.txt");
        let rel = dir.join("rel.txt");
        dispatch(
            &parse(&strs(&[
                "generate",
                "--model",
                "karate",
                "--out",
                orig.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        dispatch(
            &parse(&strs(&[
                "protect",
                orig.to_str().unwrap(),
                "--budget",
                "4",
                "--targets",
                "0-1",
                "--out",
                rel.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        dispatch(
            &parse(&strs(&[
                "utility",
                orig.to_str().unwrap(),
                rel.to_str().unwrap(),
                "--full",
            ]))
            .unwrap(),
        )
        .unwrap();
        // missing second positional
        assert!(dispatch(&parse(&strs(&["utility", orig.to_str().unwrap()])).unwrap()).is_err());
    }

    #[test]
    fn utility_reads_snapshots_like_edge_lists() {
        let dir = tmpdir();
        let [orig, rel, snap] = ["u-orig.txt", "u-rel.txt", "u-orig.csr"].map(|f| dir.join(f));
        let [orig, rel, snap] = [&orig, &rel, &snap].map(|f| f.to_str().unwrap().to_string());
        let run = |args: &[&str]| dispatch(&parse(&strs(args)).unwrap()).unwrap();
        run(&["generate", "--model", "karate", "--out", &orig]);
        run(&[
            "protect",
            &orig,
            "--budget",
            "4",
            "--targets",
            "0-1",
            "--out",
            &rel,
        ]);
        run(&["store", "build", &orig, "--out", &snap]);
        let report = |first: &str| {
            utility_report(&parse(&strs(&["utility", first, &rel, "--full"])).unwrap()).unwrap()
        };
        let text = report(&orig);
        assert!(text.starts_with("edges: 78 -> "), "{text}");
        assert_eq!(report(&snap), text);
    }

    #[test]
    fn generate_rejects_too_few_nodes_with_a_named_error() {
        let dir = tmpdir();
        for (model, min) in [("ba", 5usize), ("hk", 5), ("ws", 9), ("er", 8)] {
            let out = dir.join(format!("small-{model}.txt"));
            let run = |nodes: usize| {
                let n = nodes.to_string();
                let argv = ["generate", "--model", model, "--nodes", &n, "--seed", "3"];
                let mut argv = strs(&argv);
                argv.extend(["--out".to_string(), out.to_str().unwrap().to_string()]);
                dispatch(&parse(&argv).unwrap())
            };
            for nodes in [0, min - 1] {
                let err = run(nodes).unwrap_err();
                assert!(
                    err.contains("--nodes") && err.contains(&format!("at least {min}")),
                    "{model} --nodes {nodes}: {err}"
                );
            }
            run(min).unwrap();
            let g = parse_edge_list(&std::fs::read_to_string(&out).unwrap()).unwrap();
            assert_eq!(g.node_count(), min, "{model}");
        }
    }

    #[test]
    fn error_paths() {
        assert!(dispatch(&parse(&strs(&["bogus"])).unwrap()).is_err());
        assert!(dispatch(&parse(&strs(&["stats", "/no/such/file"])).unwrap()).is_err());
        let dir = tmpdir();
        let graph_path = dir.join("g3.txt");
        dispatch(
            &parse(&strs(&[
                "generate",
                "--model",
                "karate",
                "--out",
                graph_path.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        // malformed target spec
        let p = parse(&strs(&[
            "protect",
            graph_path.to_str().unwrap(),
            "--budget",
            "2",
            "--targets",
            "xx",
        ]))
        .unwrap();
        assert!(dispatch(&p).is_err());
        // unknown motif
        let p = parse(&strs(&[
            "kstar",
            graph_path.to_str().unwrap(),
            "--motif",
            "pentagon",
        ]))
        .unwrap();
        assert!(dispatch(&p).is_err());
    }

    #[test]
    fn bad_targets_and_negatives_are_named_errors() {
        let dir = tmpdir();
        let graph_path = dir.join("g-karate-errors.txt");
        let graph = graph_path.to_str().unwrap();
        dispatch(&parse(&strs(&["generate", "--model", "karate", "--out", graph])).unwrap())
            .unwrap();
        let run = |args: &[&str]| dispatch(&parse(&strs(args)).unwrap());
        let err = |args: &[&str]| run(args).expect_err("expected a named error");

        for cmd in [&["protect", graph, "--budget", "2"][..], &["attack", graph]] {
            let e = err(&[cmd, &["--targets", "3-3"]].concat());
            assert_eq!(e, "target 3-3 is a self-loop", "{cmd:?}");
            let e = err(&[cmd, &["--targets", "0-99"]].concat());
            assert_eq!(
                e, "target 0-99: node 99 is out of range (the graph has 34 nodes)",
                "{cmd:?}"
            );
        }
        // Karate has 561 pairs and 78 edges; with 5 targets hidden, 483
        // non-edge pairs remain, so the default --negatives 500 cannot be
        // sampled but 483 can.
        let e = err(&["attack", graph, "--random", "5"]);
        assert!(
            e.contains("--negatives 500 exceeds the 483 non-edge pair(s)"),
            "{e}"
        );
        run(&["attack", graph, "--random", "5", "--negatives", "483"]).unwrap();
        // A target that is not an edge (already gone from a released file)
        // is still a valid attack target.
        run(&["attack", graph, "--targets", "0-9", "--negatives", "100"]).unwrap();
    }

    #[test]
    fn every_algorithm_is_dispatchable() {
        let dir = tmpdir();
        let graph_path = dir.join("g4.txt");
        dispatch(
            &parse(&strs(&[
                "generate",
                "--model",
                "hk",
                "--nodes",
                "120",
                "--out",
                graph_path.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        for alg in ["sgb", "celf", "ct", "wt", "rd", "rdt"] {
            let p = parse(&strs(&[
                "protect",
                graph_path.to_str().unwrap(),
                "--budget",
                "4",
                "--random",
                "5",
                "--algorithm",
                alg,
            ]))
            .unwrap();
            dispatch(&p).unwrap_or_else(|e| panic!("{alg}: {e}"));
        }
    }

    #[test]
    fn usage_mentions_every_command() {
        let u = usage();
        for cmd in ["generate", "stats", "protect", "attack", "kstar", "store"] {
            assert!(u.contains(cmd));
        }
        assert!(u.contains("--threads"));
    }

    #[test]
    fn protect_threads_flag_keeps_plans_identical() {
        let dir = tmpdir();
        let graph_path = dir.join("g-threads.txt");
        dispatch(
            &parse(&strs(&[
                "generate",
                "--model",
                "hk",
                "--nodes",
                "150",
                "--out",
                graph_path.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        // Same instance through 1, 4, and auto (0) threads: the plan files
        // must be byte-identical — the engine's determinism contract,
        // surfaced at the CLI level.
        let mut plans = Vec::new();
        for threads in ["1", "4", "0"] {
            let plan_path = dir.join(format!("plan-t{threads}.json"));
            dispatch(
                &parse(&strs(&[
                    "protect",
                    graph_path.to_str().unwrap(),
                    "--budget",
                    "5",
                    "--random",
                    "4",
                    "--threads",
                    threads,
                    "--plan",
                    plan_path.to_str().unwrap(),
                ]))
                .unwrap(),
            )
            .unwrap();
            plans.push(std::fs::read_to_string(&plan_path).unwrap());
        }
        assert_eq!(plans[0], plans[1], "1 vs 4 threads");
        assert_eq!(plans[0], plans[2], "1 vs auto threads");
    }

    #[test]
    fn protect_incremental_matches_from_scratch_on_the_mutated_graph() {
        let dir = tmpdir();
        let graph_path = dir.join("g-inc.txt");
        dispatch(
            &parse(&strs(&[
                "generate",
                "--model",
                "hk",
                "--nodes",
                "150",
                "--out",
                graph_path.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let g = parse_edge_list(&std::fs::read_to_string(&graph_path).unwrap()).unwrap();
        let edges = g.edge_vec();
        let targets = [edges[0], edges[edges.len() / 2]];
        let targets_spec = format!(
            "{}-{},{}-{}",
            targets[0].u(),
            targets[0].v(),
            targets[1].u(),
            targets[1].v()
        );

        // A small delta: drop two non-target edges, add two non-edges.
        let mut view = tpp_store::DeltaView::new(&g);
        let mut removed = 0;
        for e in &edges {
            if removed == 2 {
                break;
            }
            if !targets.contains(e) && view.delete_edge(*e) {
                removed += 1;
            }
        }
        let mut added = 0;
        'outer: for u in 0..g.node_count() as u32 {
            for v in (u + 1)..g.node_count() as u32 {
                if added == 2 {
                    break 'outer;
                }
                let e = Edge::new(u, v);
                if !g.has_edge(u, v) && !targets.contains(&e) && view.add_edge(e) {
                    added += 1;
                }
            }
        }
        let mut delta_text = String::new();
        for e in view.deleted_edges() {
            delta_text.push_str(&format!("- {} {}\n", e.u(), e.v()));
        }
        for e in view.added_edges() {
            delta_text.push_str(&format!("+ {} {}\n", e.u(), e.v()));
        }
        let delta_path = dir.join("delta.txt");
        std::fs::write(&delta_path, &delta_text).unwrap();
        let mutated_path = dir.join("g-inc-mutated.txt");
        std::fs::write(&mutated_path, write_edge_list(&view)).unwrap();

        // For every greedy (and a batched SGB), the repair of a prior plan
        // made by that greedy must be byte-identical to a from-scratch run
        // on the mutated graph.
        let graph = graph_path.to_str().unwrap();
        let mutated = mutated_path.to_str().unwrap();
        for (algorithm, batch) in [
            ("sgb", "1"),
            ("celf", "1"),
            ("ct", "1"),
            ("wt", "1"),
            ("sgb", "4"),
        ] {
            let run = |input: &str, extra: &[&str]| {
                let mut args = vec![
                    "protect",
                    input,
                    "--budget",
                    "5",
                    "--algorithm",
                    algorithm,
                    "--batch",
                    batch,
                ];
                args.extend_from_slice(extra);
                protect_report(&parse(&strs(&args)).unwrap()).unwrap()
            };
            let file = |name: &str| {
                let path = dir.join(format!("{algorithm}-b{batch}-{name}.json"));
                path.to_str().unwrap().to_owned()
            };
            let (prior, scratch, repaired) = (file("prior"), file("scratch"), file("repaired"));
            run(graph, &["--targets", &targets_spec, "--plan", &prior]);
            run(mutated, &["--targets", &targets_spec, "--plan", &scratch]);
            let report = run(
                graph,
                &[
                    "--incremental",
                    "--plan-in",
                    &prior,
                    "--delta",
                    delta_path.to_str().unwrap(),
                    "--plan-out",
                    &repaired,
                ],
            );
            assert!(
                report.starts_with("incremental: delta -2/+2 edges\n"),
                "{algorithm} --batch {batch}: {report}"
            );
            assert_eq!(
                std::fs::read_to_string(&scratch).unwrap(),
                std::fs::read_to_string(&repaired).unwrap(),
                "{algorithm} --batch {batch}: repaired plan diverged from the from-scratch run"
            );
        }
    }

    #[test]
    fn protect_incremental_guard_rails() {
        let dir = tmpdir();
        let graph_path = dir.join("g-inc-guard.txt");
        dispatch(
            &parse(&strs(&[
                "generate",
                "--model",
                "karate",
                "--out",
                graph_path.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let graph = graph_path.to_str().unwrap();
        let prior = dir.join("guard-prior.json");
        dispatch(
            &parse(&strs(&[
                "protect",
                graph,
                "--budget",
                "3",
                "--targets",
                "0-1",
                "--plan",
                prior.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let delta = dir.join("guard-delta.txt");
        std::fs::write(&delta, "- 0 2\n").unwrap();
        let base = vec!["protect", graph, "--budget", "3", "--incremental"];
        let prior_s = prior.to_str().unwrap();
        let delta_s = delta.to_str().unwrap();
        for (extra, needle) in [
            (vec!["--delta", delta_s], "--plan-in"),
            (vec!["--plan-in", prior_s], "--delta"),
            (
                vec!["--plan-in", prior_s, "--delta", delta_s, "--targets", "0-1"],
                "--plan-in",
            ),
            (
                vec![
                    "--plan-in",
                    prior_s,
                    "--delta",
                    delta_s,
                    "--motif",
                    "rectangle",
                ],
                "conflicts",
            ),
        ] {
            let mut args = base.clone();
            args.extend(extra);
            let err = dispatch(&parse(&strs(&args)).unwrap()).unwrap_err();
            assert!(err.contains(needle), "expected {needle:?} in: {err}");
        }
        // A delta that removes a target edge is rejected by name.
        let target_delta = dir.join("guard-target-delta.txt");
        std::fs::write(&target_delta, "- 0 1\n").unwrap();
        let mut args = base.clone();
        args.extend([
            "--plan-in",
            prior_s,
            "--delta",
            target_delta.to_str().unwrap(),
        ]);
        let err = dispatch(&parse(&strs(&args)).unwrap()).unwrap_err();
        assert!(err.contains("target"), "got: {err}");
    }

    #[test]
    fn protect_batch_flag_modes() {
        let dir = tmpdir();
        let graph_path = dir.join("g-batch.txt");
        dispatch(
            &parse(&strs(&[
                "generate",
                "--model",
                "hk",
                "--nodes",
                "140",
                "--out",
                graph_path.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        // Every greedy strategy takes --batch, and --batch 1 must be
        // byte-identical to its default sequential path.
        for (alg, name) in [
            ("sgb", "SGB-Greedy"),
            ("celf", "CELF-Greedy"),
            ("ct", "CT-Greedy"),
            ("wt", "WT-Greedy"),
        ] {
            let mut plans = Vec::new();
            for (label, extra) in [
                ("default", None),
                ("batch1", Some("1")),
                ("batch4", Some("4")),
            ] {
                let plan_path = dir.join(format!("plan-{alg}-{label}.json"));
                let mut args = vec![
                    "protect",
                    graph_path.to_str().unwrap(),
                    "--budget",
                    "6",
                    "--random",
                    "4",
                    "--algorithm",
                    alg,
                    "--plan",
                ];
                let plan_str = plan_path.to_str().unwrap().to_string();
                args.push(&plan_str);
                if let Some(j) = extra {
                    args.push("--batch");
                    args.push(j);
                }
                dispatch(&parse(&strs(&args)).unwrap())
                    .unwrap_or_else(|e| panic!("{alg} {label}: {e}"));
                plans.push(std::fs::read_to_string(&plan_path).unwrap());
            }
            assert_eq!(
                plans[0], plans[1],
                "{alg}: --batch 1 must be the exact greedy"
            );
            assert!(
                plans[2].contains(name),
                "batched {alg} run keeps its algorithm"
            );
        }
        // Guard rails: batch 0, batch with a scan-less baseline, an
        // unknown division for every algorithm, and a division with a
        // global-budget algorithm.
        for (bad_flags, needle) in [
            (vec!["--batch", "0"], "at least 1"),
            (vec!["--batch", "3", "--algorithm", "rd"], "greedy"),
            (vec!["--batch", "3", "--algorithm", "rdt"], "greedy"),
            (vec!["--division", "bogus"], "unknown division \"bogus\""),
            (
                vec!["--division", "bogus", "--algorithm", "ct"],
                "unknown division \"bogus\"",
            ),
            (
                vec!["--division", "bogus", "--algorithm", "rd"],
                "unknown division \"bogus\"",
            ),
            (
                vec!["--division", "dbd", "--algorithm", "sgb"],
                "per-target",
            ),
            (
                vec!["--division", "tbd", "--algorithm", "celf"],
                "per-target",
            ),
            (vec!["--division", "tbd", "--algorithm", "rd"], "per-target"),
            (
                vec!["--division", "dbd", "--algorithm", "rdt"],
                "per-target",
            ),
        ] {
            let mut args = vec![
                "protect",
                graph_path.to_str().unwrap(),
                "--budget",
                "2",
                "--random",
                "2",
            ];
            args.extend(bad_flags);
            let err = dispatch(&parse(&strs(&args)).unwrap()).unwrap_err();
            assert!(err.contains(needle), "expected {needle:?} in: {err}");
        }
    }

    #[test]
    fn protect_stats_flag_emits_telemetry_without_changing_the_plan() {
        let dir = tmpdir();
        let graph_path = dir.join("g-stats.txt");
        dispatch(
            &parse(&strs(&[
                "generate",
                "--model",
                "hk",
                "--nodes",
                "150",
                "--out",
                graph_path.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let mut plans = Vec::new();
        let stats_path = dir.join("protect-stats.json");
        for (label, with_stats) in [("plain", false), ("stats", true)] {
            let plan_path = dir.join(format!("plan-{label}.json"));
            let mut args = vec![
                "protect".to_string(),
                graph_path.to_str().unwrap().to_string(),
                "--budget".to_string(),
                "5".to_string(),
                "--random".to_string(),
                "4".to_string(),
                "--plan".to_string(),
                plan_path.to_str().unwrap().to_string(),
            ];
            if with_stats {
                args.push("--stats".to_string());
                args.push(stats_path.to_str().unwrap().to_string());
            }
            dispatch(&parse(&args).unwrap()).unwrap();
            plans.push(std::fs::read_to_string(&plan_path).unwrap());
        }
        // Telemetry must be invisible in the plan: byte-identical output.
        assert_eq!(plans[0], plans[1], "--stats changed the plan");
        // And the stats document carries every section with real content.
        let stats = std::fs::read_to_string(&stats_path).unwrap();
        for key in [
            "\"round\"",
            "\"index\"",
            "\"exec\"",
            "\"store\"",
            "\"attack\"",
            "\"kernels\"",
            "\"update\"",
            "\"utility\"",
        ] {
            assert!(stats.contains(key), "missing {key} in: {stats}");
        }
        // The utility phase walked the removed targets plus the plan's
        // protector deletions, patched the cores with a local h-index
        // pass (some evaluations, fewer than the 150 nodes), and took
        // measurable time.
        let stat = |field: &str| -> u64 {
            let line = stats
                .lines()
                .find(|l| l.contains(field))
                .unwrap_or_else(|| panic!("missing {field} in: {stats}"));
            let value = line.rsplit(':').next().unwrap();
            value.trim().trim_end_matches(',').parse().unwrap()
        };
        #[derive(Deserialize)]
        struct Written {
            targets: Vec<Edge>,
            plan: ProtectionPlan,
        }
        let plan: Written = serde_json::from_str(&plans[1]).unwrap();
        let deleted = plan.targets.len() + plan.plan.protectors.len();
        assert_eq!(stat("\"deleted_edges\""), deleted as u64);
        let evaluations = stat("\"core_evaluations\"");
        assert!(evaluations > 0 && evaluations < 150, "{evaluations}");
        assert!(stat("\"utility_ns\"") > 0);
        for field in [
            "\"rounds\"",
            "\"scan_ns\"",
            "\"commit_ns\"",
            "\"commits\"",
            "\"loads\"",
            "\"merge\"",
            "\"gallop\"",
        ] {
            assert!(stats.contains(field), "missing {field} in: {stats}");
        }
        // The run above did real work, so the round section must be live.
        let rounds_line = stats
            .lines()
            .find(|l| l.contains("\"rounds\""))
            .expect("rounds field present");
        assert!(
            !rounds_line.contains(": 0"),
            "protect run recorded zero rounds: {rounds_line}"
        );
        // A protect run intersects neighbor lists constantly, so the
        // kernel section must have tallied selections. (Counts are
        // process-wide deltas; other concurrent tests can only add, so a
        // zero total would mean the wiring is broken.)
        let merge_line = stats
            .lines()
            .find(|l| l.contains("\"merge\""))
            .expect("merge field present");
        assert!(
            !merge_line.contains(": 0,") && !merge_line.ends_with(": 0"),
            "protect run tallied zero merge selections: {merge_line}"
        );
    }

    #[test]
    fn attack_stats_flag_and_threads() {
        let dir = tmpdir();
        let graph_path = dir.join("g-attack-stats.txt");
        dispatch(
            &parse(&strs(&[
                "generate",
                "--model",
                "karate",
                "--out",
                graph_path.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let stats_path = dir.join("attack-stats.json");
        dispatch(
            &parse(&strs(&[
                "attack",
                graph_path.to_str().unwrap(),
                "--targets",
                "0-1",
                "--negatives",
                "50",
                "--threads",
                "2",
                "--stats",
                stats_path.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let stats = std::fs::read_to_string(&stats_path).unwrap();
        assert!(stats.contains("\"attack\""));
        assert!(stats.contains("\"evaluations\": 1"), "got: {stats}");
        assert!(stats.contains("\"pairs_scored\": 51"), "got: {stats}");
    }

    #[test]
    fn stats_flag_rejects_unwritable_path_before_running() {
        let dir = tmpdir();
        let graph_path = dir.join("g-stats-err.txt");
        dispatch(
            &parse(&strs(&[
                "generate",
                "--model",
                "karate",
                "--out",
                graph_path.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let err = dispatch(
            &parse(&strs(&[
                "protect",
                graph_path.to_str().unwrap(),
                "--budget",
                "2",
                "--targets",
                "0-1",
                "--stats",
                "/no/such/dir/stats.json",
            ]))
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("--stats"), "error must name the flag: {err}");
    }

    #[test]
    fn store_info_shard_plan() {
        let dir = tmpdir();
        let edges = dir.join("shard-src.txt");
        let snapshot = dir.join("shard.csr");
        dispatch(
            &parse(&strs(&[
                "generate",
                "--model",
                "ba",
                "--nodes",
                "300",
                "--out",
                edges.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        dispatch(
            &parse(&strs(&[
                "store",
                "build",
                edges.to_str().unwrap(),
                "--out",
                snapshot.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        dispatch(
            &parse(&strs(&[
                "store",
                "info",
                snapshot.to_str().unwrap(),
                "--shards",
                "4",
            ]))
            .unwrap(),
        )
        .unwrap();
    }

    #[test]
    fn shard_plan_report_is_exact_on_a_hand_checked_graph() {
        // Two triangles' worth of edges: degrees 2 2 3 3 2 2, offsets
        // 0 2 4 7 10 12 14. Three shards cut at the first offsets reaching
        // 14/3 and 28/3 of the payload: 0..2, 2..4, 4..6.
        let g = tpp_graph::Graph::from_edges([
            (0u32, 1u32),
            (0, 2),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (3, 5),
        ]);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(
            shard_plan_report(&csr, 3),
            "shard plan (3 requested, degree-balanced):\n\
             \x20 shard 0: nodes 0..2 (2 nodes, payload 4 = 28.6%, owned-edges 3, intra-edges 1)\n\
             \x20 shard 1: nodes 2..4 (2 nodes, payload 6 = 42.9%, owned-edges 3, intra-edges 1)\n\
             \x20 shard 2: nodes 4..6 (2 nodes, payload 4 = 28.6%, owned-edges 1, intra-edges 1)\n\
             \x20 balance: max payload 1.29x the ideal even split\n"
        );
        assert_eq!(
            shard_plan_report(&csr, 1),
            "shard plan (1 requested, degree-balanced):\n\
             \x20 shard 0: nodes 0..6 (6 nodes, payload 14 = 100.0%, owned-edges 7, intra-edges 7)\n\
             \x20 balance: max payload 1.00x the ideal even split\n"
        );
    }

    #[test]
    fn store_build_info_convert_round_trip() {
        let dir = tmpdir();
        let edges = dir.join("store-src.txt");
        let snapshot = dir.join("store.csr");
        let back = dir.join("store-back.txt");

        dispatch(
            &parse(&strs(&[
                "generate",
                "--model",
                "hk",
                "--nodes",
                "200",
                "--out",
                edges.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();

        dispatch(
            &parse(&strs(&[
                "store",
                "build",
                edges.to_str().unwrap(),
                "--out",
                snapshot.to_str().unwrap(),
                "--threads",
                "2",
            ]))
            .unwrap(),
        )
        .unwrap();

        dispatch(&parse(&strs(&["store", "info", snapshot.to_str().unwrap()])).unwrap()).unwrap();

        dispatch(
            &parse(&strs(&[
                "store",
                "convert",
                snapshot.to_str().unwrap(),
                "--out",
                back.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();

        // The snapshot round-trips the edge set exactly.
        let original = parse_edge_list(&std::fs::read_to_string(&edges).unwrap()).unwrap();
        let converted = parse_edge_list(&std::fs::read_to_string(&back).unwrap()).unwrap();
        assert_eq!(original.edge_vec(), converted.edge_vec());
    }

    #[test]
    fn store_build_matches_in_memory_reference_and_info_reads_header_only() {
        let dir = tmpdir();
        let edges = dir.join("build-src.txt");
        dispatch(
            &parse(&strs(&[
                "generate",
                "--model",
                "ba",
                "--nodes",
                "400",
                "--out",
                edges.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let reference = dir.join("reference.csr");
        let text = std::fs::read_to_string(&edges).unwrap();
        let csr = tpp_store::CsrGraph::from_graph(&parse_edge_list(&text).unwrap());
        tpp_store::format::save(&csr, Some(&snapshot_base(&csr)), &reference).unwrap();
        // --chunk-mb floors at 1 MiB via the CLI; the library tests cover
        // the multi-chunk path with smaller buffers.
        let built = dir.join("built.csr");
        for chunk_mb in [None, Some("1")] {
            let mut argv = vec![
                "store",
                "build",
                edges.to_str().unwrap(),
                "--out",
                built.to_str().unwrap(),
            ];
            argv.extend(chunk_mb.iter().flat_map(|mb| ["--chunk-mb", *mb]));
            dispatch(&parse(&strs(&argv)).unwrap()).unwrap();
            assert_eq!(
                std::fs::read(&reference).unwrap(),
                std::fs::read(&built).unwrap(),
                "--chunk-mb {chunk_mb:?}: store build must be bit-identical to format::save"
            );
        }
        // info at every verify tier, on the built file.
        for verify in ["full", "header", "none"] {
            dispatch(
                &parse(&strs(&[
                    "store",
                    "info",
                    built.to_str().unwrap(),
                    "--verify",
                    verify,
                ]))
                .unwrap(),
            )
            .unwrap_or_else(|e| panic!("--verify {verify}: {e}"));
        }
        // Bad verify mode is rejected by name.
        let err = dispatch(
            &parse(&strs(&[
                "store",
                "info",
                built.to_str().unwrap(),
                "--verify",
                "paranoid",
            ]))
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("paranoid"), "got: {err}");
    }

    #[cfg(unix)]
    #[test]
    fn store_build_from_a_pipe_or_fifo_matches_the_regular_file() {
        use std::os::fd::AsRawFd;
        // The builder reads its input twice; a pipe or FIFO can be read
        // once, so it must be copied aside instead of yielding an empty
        // (pipe) or blocked (FIFO) pass 2.
        let dir = tmpdir();
        let edges = dir.join("pipe-src.txt");
        dispatch(
            &parse(&strs(&[
                "generate",
                "--model",
                "hk",
                "--nodes",
                "300",
                "--out",
                edges.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let build = |input: &str, out: &std::path::Path| {
            dispatch(
                &parse(&strs(&[
                    "store",
                    "build",
                    input,
                    "--out",
                    out.to_str().unwrap(),
                ]))
                .unwrap(),
            )
        };
        let reference = dir.join("pipe-file.csr");
        build(edges.to_str().unwrap(), &reference).unwrap();
        let expect = std::fs::read(&reference).unwrap();

        // An anonymous pipe, as `<(cat file)` passes it.
        let mut cat = std::process::Command::new("cat")
            .arg(&edges)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        let fd = cat.stdout.as_ref().unwrap().as_raw_fd();
        let from_pipe = dir.join("pipe-pipe.csr");
        build(&format!("/dev/fd/{fd}"), &from_pipe).unwrap();
        cat.wait().unwrap();
        assert_eq!(
            expect,
            std::fs::read(&from_pipe).unwrap(),
            "a pipe input must build the same snapshot as the regular file"
        );

        // A named FIFO, fed by a writer thread.
        let fifo = dir.join("pipe-src.fifo");
        let _ = std::fs::remove_file(&fifo);
        let made = std::process::Command::new("mkfifo")
            .arg(&fifo)
            .status()
            .unwrap();
        assert!(made.success(), "mkfifo failed");
        let writer = {
            let (fifo, text) = (fifo.clone(), std::fs::read(&edges).unwrap());
            std::thread::spawn(move || std::fs::write(fifo, text))
        };
        let from_fifo = dir.join("pipe-fifo.csr");
        let built = build(fifo.to_str().unwrap(), &from_fifo);
        if built.is_err() {
            // Unblock the writer if the build never opened the FIFO.
            let _ = std::fs::read(&fifo);
        }
        writer.join().unwrap().unwrap();
        built.unwrap();
        assert_eq!(
            expect,
            std::fs::read(&from_fifo).unwrap(),
            "a FIFO input must build the same snapshot as the regular file"
        );
        std::fs::remove_file(&fifo).ok();
    }

    #[test]
    fn store_build_rejects_an_overflowing_chunk_mb() {
        let dir = tmpdir();
        let out = dir.join("chunk-overflow.csr");
        // 2^44 MiB is 2^64 bytes: one past usize on 64-bit targets.
        let err = dispatch(
            &parse(&strs(&[
                "store",
                "build",
                "unread.txt",
                "--out",
                out.to_str().unwrap(),
                "--chunk-mb",
                &(usize::MAX / (1024 * 1024) + 1).to_string(),
            ]))
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("--chunk-mb"), "got: {err}");
        assert!(!out.exists());
    }

    #[test]
    fn store_build_stats_report_pass_times() {
        let dir = tmpdir();
        let edges = dir.join("build-stats-src.txt");
        dispatch(
            &parse(&strs(&[
                "generate",
                "--model",
                "ba",
                "--nodes",
                "2000",
                "--out",
                edges.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let stats_path = dir.join("build-stats.json");
        dispatch(
            &parse(&strs(&[
                "store",
                "build",
                edges.to_str().unwrap(),
                "--out",
                dir.join("build-stats.csr").to_str().unwrap(),
                "--stats",
                stats_path.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let stats = std::fs::read_to_string(&stats_path).unwrap();
        for key in ["pass1_ns", "pass2_ns"] {
            let value: u64 = stats
                .split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|digits| digits.parse().ok())
                .unwrap_or_else(|| panic!("no {key} in {stats}"));
            assert!(value > 0, "{key} is zero: {stats}");
        }
    }

    #[test]
    fn protect_accepts_a_snapshot_and_matches_the_edge_list_run() {
        let dir = tmpdir();
        let edges = dir.join("snap-src.txt");
        let snapshot = dir.join("snap.csr");
        dispatch(
            &parse(&strs(&[
                "generate",
                "--model",
                "hk",
                "--nodes",
                "150",
                "--out",
                edges.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        dispatch(
            &parse(&strs(&[
                "store",
                "build",
                edges.to_str().unwrap(),
                "--out",
                snapshot.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        // Same protect run from the text edge list and the mapped
        // snapshot: identical plan files.
        let mut plans = Vec::new();
        for (label, input, extra) in [
            ("text", &edges, None),
            ("snap", &snapshot, None),
            ("snap-hdr", &snapshot, Some(["--verify", "header"])),
        ] {
            let plan_path = dir.join(format!("plan-{label}.json"));
            let mut args = vec![
                "protect",
                input.to_str().unwrap(),
                "--budget",
                "5",
                "--random",
                "4",
                "--plan",
            ];
            let plan_str = plan_path.to_str().unwrap().to_string();
            args.push(&plan_str);
            if let Some(pair) = &extra {
                args.extend(pair.iter().copied());
            }
            dispatch(&parse(&strs(&args)).unwrap()).unwrap();
            plans.push(std::fs::read_to_string(&plan_path).unwrap());
        }
        assert_eq!(plans[0], plans[1], "snapshot input changed the plan");
        assert_eq!(plans[0], plans[2], "--verify header changed the plan");
    }

    #[test]
    fn v2_v3_and_text_inputs_give_the_same_protect_report() {
        let dir = tmpdir().join("v2v3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (text, v3, v2) = (path("g.txt"), path("g.csr"), path("g-v2.csr"));
        // A v3 file as written before the upper-prefix section existed.
        let v3_old = path("g-v3-old.csr");
        for argv in [
            vec![
                "generate", "--model", "hk", "--nodes", "300", "--out", &text,
            ],
            vec!["store", "build", &text, "--out", &v3],
        ] {
            dispatch(&parse(&strs(&argv)).unwrap()).unwrap();
        }
        let (csr, _, base) =
            tpp_store::format::load_mapped_observed(&v3, VerifyMode::Full, &Recorder::disabled())
                .unwrap();
        let mut w = std::io::BufWriter::new(std::fs::File::create(&v2).unwrap());
        tpp_store::format::write_snapshot_v2(&csr, &mut w).unwrap();
        drop(w);
        let mut w = std::io::BufWriter::new(std::fs::File::create(&v3_old).unwrap());
        tpp_store::format::write_snapshot_without_prefix(&csr, base.as_ref(), &mut w).unwrap();
        drop(w);
        let sections = |file: &str| {
            let (_, header, base) = tpp_store::format::load_mapped_observed(
                file,
                VerifyMode::Full,
                &Recorder::disabled(),
            )
            .unwrap();
            let prefix = header.section(SectionKind::UpperPrefix).is_some();
            (
                header.version,
                header.sections.len(),
                base.is_some(),
                prefix,
            )
        };
        assert_eq!(sections(&v3), (3, 3, true, true));
        assert_eq!(sections(&v3_old), (3, 2, true, false));
        assert_eq!(sections(&v2), (2, 1, false, false));

        let plan = path("plan.json");
        let stats = path("stats.json");
        for motif in ["triangle", "rectangle"] {
            let run = |input: &str, verify: &str, with_stats: bool| {
                let mut argv = vec![
                    "protect", input, "--motif", motif, "--budget", "6", "--random", "8", "--seed",
                    "3", "--verify", verify, "--plan", &plan,
                ];
                if with_stats {
                    argv.extend(["--stats", &stats]);
                }
                let report = protect_report(&parse(&strs(&argv)).unwrap()).unwrap();
                (report, std::fs::read(&plan).unwrap())
            };
            let want = run(&text, "full", false);
            for verify in ["full", "header", "none"] {
                for input in [&v3, &v3_old, &v2, &text] {
                    assert_eq!(run(input, verify, false), want, "{motif} {input} {verify}");
                }
            }
            // Where the original's statistics came from: the v3 section,
            // or a recount.
            let counter = |json: &str, key: &str| -> u64 {
                json.split(&format!("\"{key}\": "))
                    .nth(1)
                    .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
                    .and_then(|digits| digits.parse().ok())
                    .unwrap_or_else(|| panic!("no {key} in {json}"))
            };
            // And the upper-edge prefix: only the new v3 file has it.
            for (input, loaded, prefix) in [
                (&v3, true, true),
                (&v3_old, true, false),
                (&v2, false, false),
                (&text, false, false),
            ] {
                run(input, "header", true);
                let json = std::fs::read_to_string(&stats).unwrap();
                assert_eq!(counter(&json, "base_loaded"), u64::from(loaded), "{input}");
                assert_eq!(counter(&json, "base_ns") == 0, loaded, "{input}: {json}");
                assert_eq!(counter(&json, "section_ns") > 0, loaded, "{input}: {json}");
                assert_eq!(
                    counter(&json, "prefix_loaded"),
                    u64::from(prefix),
                    "{input}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_lying_upper_prefix_is_a_named_error_not_a_panic() {
        let dir = tmpdir().join("lying-prefix");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (text, v3, lying) = (path("g.txt"), path("g.csr"), path("lying.csr"));
        for argv in [
            vec![
                "generate", "--model", "hk", "--nodes", "300", "--out", &text,
            ],
            vec!["store", "build", &text, "--out", &v3],
        ] {
            dispatch(&parse(&strs(&argv)).unwrap()).unwrap();
        }
        // Zero every count of the stored prefix: no node owns any rank.
        let (_, header, _) =
            tpp_store::format::load_mapped_observed(&v3, VerifyMode::None, &Recorder::disabled())
                .unwrap();
        let section = header.section(SectionKind::UpperPrefix).unwrap();
        let mut bytes = std::fs::read(&v3).unwrap();
        bytes[section.offset as usize..(section.offset + section.length) as usize].fill(0);
        std::fs::write(&lying, bytes).unwrap();
        for verify in ["full", "header", "none"] {
            for command in ["protect", "attack"] {
                let mut argv = vec![command, &lying, "--random", "8", "--verify", verify];
                argv.extend(if command == "protect" {
                    ["--budget", "3"]
                } else {
                    ["--negatives", "100"]
                });
                let err = dispatch(&parse(&strs(&argv)).unwrap()).unwrap_err();
                let want = if verify == "none" {
                    "the graph's upper-edge prefix does not fit its edges"
                } else {
                    "upper-prefix section"
                };
                assert!(err.contains(want), "{command} at {verify}: {err}");
            }
        }
        // Listed targets never read the prefix.
        let edge = load_graph(&parse(&strs(&["stats", &text])).unwrap())
            .unwrap()
            .collect_edges()[0];
        let target = format!("{}-{}", edge.u(), edge.v());
        let argv = [
            "protect",
            &lying,
            "--targets",
            &target,
            "--budget",
            "1",
            "--verify",
            "none",
        ];
        dispatch(&parse(&strs(&argv)).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn text_v2_and_v3_inputs_print_the_same_stats() {
        let dir = tmpdir().join("stats-v2v3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (text, v3, v2) = (path("g.txt"), path("g.csr"), path("g-v2.csr"));
        for argv in [
            vec![
                "generate", "--model", "hk", "--nodes", "300", "--out", &text,
            ],
            vec!["store", "build", &text, "--out", &v3],
        ] {
            dispatch(&parse(&strs(&argv)).unwrap()).unwrap();
        }
        let csr = tpp_store::format::load_mapped(&v3, VerifyMode::Full).unwrap();
        let mut w = std::io::BufWriter::new(std::fs::File::create(&v2).unwrap());
        tpp_store::format::write_snapshot_v2(&csr, &mut w).unwrap();
        drop(w);
        let run = |input: &str, verify: &str, full: bool| {
            let mut argv = vec!["stats", input, "--verify", verify];
            if full {
                argv.push("--full");
            }
            stats_report(&parse(&strs(&argv)).unwrap()).unwrap()
        };
        for full in [false, true] {
            let want = run(&text, "full", full);
            assert!(
                want.contains("\nclust: ") && want.contains("\ncn: "),
                "{want}"
            );
            for verify in ["full", "header", "none"] {
                for input in [&v3, &v2] {
                    assert_eq!(run(input, verify, full), want, "{input} {verify} {full}");
                }
            }
        }
        // The v3 report reads `cn` from the section: lower one stored core
        // number (still within its degree) and `--verify none`, which
        // trusts the section, prints the altered average.
        let (_, header, _) =
            tpp_store::format::load_mapped_observed(&v3, VerifyMode::Full, &Recorder::disabled())
                .unwrap();
        let section = &header.sections[1];
        let n = csr.node_count();
        let cores = section.offset as usize + 4 * n;
        let mut bytes = std::fs::read(&v3).unwrap();
        let core0 = u32::from_le_bytes(bytes[cores..cores + 4].try_into().unwrap());
        assert!(core0 > 0);
        bytes[cores..cores + 4].copy_from_slice(&0u32.to_le_bytes());
        let altered = path("altered.csr");
        std::fs::write(&altered, bytes).unwrap();
        let line = |text: &str, key: &str| {
            text.lines()
                .find(|l| l.starts_with(key))
                .unwrap()
                .to_string()
        };
        let (want, got) = (run(&text, "full", false), run(&altered, "none", false));
        assert_eq!(line(&got, "clust: "), line(&want, "clust: "));
        assert_ne!(line(&got, "cn: "), line(&want, "cn: "), "{got}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_full_samples_path_sources_above_the_node_limit() {
        let g = tpp_graph::generators::holme_kim(60, 3, 0.4, 2);
        let base = &BaseStats::compute(&g);
        let exact = utility_lines(&g, base, true, 1, EXACT_PATHS_MAX_NODES);
        assert!(exact.starts_with("l: "), "{exact}");
        assert_eq!(exact.lines().count(), 6);
        let sampled = utility_lines(&g, base, true, 1, 59);
        assert!(
            sampled.starts_with(&format!("l ({SAMPLED_PATH_SOURCES} sampled sources): ")),
            "{sampled}"
        );
        // With at least as many samples as nodes every node is a source,
        // so the value is the exact one; the other metrics never change.
        let value = |text: &str| {
            text.lines()
                .next()
                .unwrap()
                .rsplit(": ")
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(value(&exact), value(&sampled));
        let rest = |text: &str| text.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(rest(&exact), rest(&sampled));
        // Without --full there is no path length to sample.
        assert_eq!(
            utility_lines(&g, base, false, 1, 0),
            utility_lines(&g, base, false, 1, EXACT_PATHS_MAX_NODES)
        );
    }

    #[test]
    fn store_error_paths() {
        let dir = tmpdir();
        // unknown subcommand / missing args
        assert!(dispatch(&parse(&strs(&["store"])).unwrap()).is_err());
        assert!(dispatch(&parse(&strs(&["store", "frobnicate", "x"])).unwrap()).is_err());
        assert!(dispatch(&parse(&strs(&["store", "info", "/no/such/file.csr"])).unwrap()).is_err());
        // info on a non-snapshot file reports a format error, not garbage
        let not_snapshot = dir.join("not-a-snapshot.txt");
        std::fs::write(&not_snapshot, "0 1\n1 2\n").unwrap();
        let err =
            dispatch(&parse(&strs(&["store", "info", not_snapshot.to_str().unwrap()])).unwrap())
                .unwrap_err();
        assert!(err.contains("not a TPP store file"), "got: {err}");
    }
}
