//! The traced run: replays each workload's op classes in-process through
//! the layers' public functions, mirroring the order of calls the CLI or
//! the daemon makes, with one span per call and counts read from an
//! enabled `tpp_obs::Recorder` passed to the calls.
//!
//! Every replay round runs twice, once with `Recorder::disabled()` and
//! once with `Recorder::enabled()`, alternating which goes first; the
//! per-layer numbers come from the enabled pass and the difference
//! between the passes is the recorder's overhead. Spans marked blocking
//! are the calls a request waits on, and their sum is the request's layer
//! time; side spans re-run a piece of a blocking call (the copy inside
//! `TppInstance::new`, the clustering part of `utility_loss`) to break it
//! down, and count only in their own metric. Each replayed request is
//! checked against the reply the benchmark accepted for the same request
//! (the replay-drift guard).

use crate::workloads::Class;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tpp_core::{sgb_greedy, GreedyConfig, TppInstance, DEFAULT_INDEX_PARTITIONS};
use tpp_exec::Parallelism;
use tpp_graph::{Edge, Graph};
use tpp_linkpred::{evaluate_attack_on, sample_non_edges, Attacker, SimilarityIndex};
use tpp_metrics::{average_clustering, core_numbers, utility_loss, UtilityConfig};
use tpp_motif::{Motif, PartitionedCoverageIndex};
use tpp_obs::Recorder;
use tpp_store::{GraphDelta, VerifyMode};

/// What a workload run hands the replay: its inputs and the replies it
/// accepted.
pub enum Plan {
    Oneshot {
        csr: String,
        /// `(protect seed, accepted reply)`.
        protects: Vec<(u64, String)>,
    },
    Engine {
        csr: String,
        hot: Vec<(u64, String)>,
        cold: Vec<(u64, String)>,
    },
    Dynamic {
        csr: String,
        protect_seed: u64,
        expected_protect: String,
        grow_files: Vec<String>,
        shrink_files: Vec<String>,
        attack_seeds: Vec<u64>,
        expected_attack: Vec<String>,
        /// Instances each `+D_i` discovered in the timed phase.
        discovered: HashMap<usize, u64>,
    },
}

/// One timed call.
pub struct Span {
    pub request: usize,
    pub class: Class,
    pub name: &'static str,
    pub detail: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub blocking: bool,
    /// `true` in the enabled-recorder pass.
    pub recorded: bool,
}

/// One replayed request of the enabled pass.
pub struct Request {
    pub class: Class,
    /// Metric name → this request's value (summed span times, counts).
    pub values: BTreeMap<String, f64>,
    /// Sum of the blocking spans.
    pub layer_ms: f64,
    /// Blocking time per layer (`store`, `graph`, `core`, …).
    pub layers: BTreeMap<&'static str, f64>,
    /// Each blocking or side span, `(name, detail, ms)`, in call order.
    pub calls: Vec<(&'static str, &'static str, f64)>,
}

pub struct Replay {
    pub requests: Vec<Request>,
    /// Blocking time with the recorder enabled vs disabled, in percent.
    pub overhead_pct: f64,
    pub problems: Vec<String>,
    pub spans: Vec<Span>,
}

struct Tracer {
    t0: Instant,
    request: usize,
    class: Class,
    recorded: bool,
    recorder: Recorder,
    kernel_base: tpp_graph::KernelCounts,
    counts: BTreeMap<&'static str, f64>,
    first_span: usize,
    spans: Vec<Span>,
    requests: Vec<Request>,
    /// Blocking time per pass: `[disabled, enabled]`.
    pass_ms: [f64; 2],
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            request: 0,
            class: Class::Protect,
            recorded: false,
            recorder: Recorder::disabled(),
            kernel_base: tpp_graph::kernels::counts(),
            counts: BTreeMap::new(),
            first_span: 0,
            spans: Vec::new(),
            requests: Vec::new(),
            pass_ms: [0.0; 2],
        }
    }

    fn begin(&mut self, class: Class, recorded: bool) {
        self.request += 1;
        self.class = class;
        self.recorded = recorded;
        self.recorder = if recorded {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        self.counts.clear();
        self.first_span = self.spans.len();
        tpp_graph::kernels::set_counting(recorded);
        self.kernel_base = tpp_graph::kernels::counts();
    }

    fn rec(&self) -> Recorder {
        self.recorder.clone()
    }

    fn timed<R>(
        &mut self,
        name: &'static str,
        detail: &'static str,
        blocking: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.t0.elapsed();
        let out = black_box(f());
        let end = self.t0.elapsed();
        self.spans.push(Span {
            request: self.request,
            class: self.class,
            name,
            detail,
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
            blocking,
            recorded: self.recorded,
        });
        out
    }

    /// A call the request blocks on.
    fn span<R>(&mut self, name: &'static str, detail: &'static str, f: impl FnOnce() -> R) -> R {
        self.timed(name, detail, true, f)
    }

    /// A breakdown call. It runs in both passes, so that the work it adds
    /// (and the caches it warms) cancels out of the overhead comparison.
    fn side<R>(&mut self, name: &'static str, detail: &'static str, f: impl FnOnce() -> R) {
        drop(self.timed(name, detail, false, f));
    }

    fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_default() += value;
    }

    fn end(&mut self) {
        tpp_graph::kernels::set_counting(false);
        let spans = &self.spans[self.first_span..];
        let layer_ms: f64 = spans
            .iter()
            .filter(|s| s.blocking)
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .sum();
        self.pass_ms[usize::from(self.recorded)] += layer_ms;
        if !self.recorded {
            return;
        }
        let mut values: BTreeMap<String, f64> = BTreeMap::new();
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut calls = Vec::new();
        for s in spans {
            let ms = (s.end_us - s.start_us) / 1e3;
            *values.entry(format!("{}_ms", s.name)).or_default() += ms;
            if s.blocking {
                let layer = s.name.split('.').next().expect("span names are layer.call");
                *layers.entry(layer).or_default() += ms;
            }
            if s.name == "graph.clone" {
                *values.entry("graph.clones".into()).or_default() += 1.0;
            }
            calls.push((s.name, s.detail, ms));
        }
        for (name, v) in &self.counts {
            values.insert((*name).into(), *v);
        }
        let st = self.recorder.stats().expect("enabled pass");
        let ms = |ns: u64| ns as f64 / 1e6;
        if st.round.scans.get() > 0 {
            values.insert("core.rounds".into(), st.round.rounds.get() as f64);
            values.insert(
                "core.candidates_probed".into(),
                st.round.candidates_probed.get() as f64,
            );
            values.insert("core.scan_ms".into(), ms(st.round.scan_ns.sum()));
            values.insert("core.commit_ms".into(), ms(st.round.commit_ns.sum()));
        }
        if st.index.builds.get() > 0 {
            // Builds inside the greedy have no span of their own.
            values
                .entry("motif.index_build_ms".into())
                .or_insert(ms(st.index.build_ns.get()));
        }
        if st.exec.dispatches.get() > 0 {
            values.insert("exec.dispatches".into(), st.exec.dispatches.get() as f64);
            values.insert("exec.dispatch_ms".into(), ms(st.exec.dispatch_ns.sum()));
            let claimed = st.exec.items_claimed.get().max(1) as f64;
            values.insert(
                "exec.steal_ratio".into(),
                st.exec.items_stolen.get() as f64 / claimed,
            );
            values.insert(
                "exec.idle_participants".into(),
                st.exec.idle_participants.get() as f64,
            );
        }
        if st.attack.evaluations.get() > 0 {
            values.insert(
                "linkpred.pairs_scored".into(),
                st.attack.pairs_scored.get() as f64,
            );
        }
        let k = tpp_graph::kernels::counts().since(self.kernel_base);
        if k.merge + k.gallop + k.hub_probe + k.hub_and > 0 {
            values.insert("graph.kernel_merge".into(), k.merge as f64);
            values.insert("graph.kernel_gallop".into(), k.gallop as f64);
            values.insert("graph.kernel_hub".into(), (k.hub_probe + k.hub_and) as f64);
        }
        self.requests.push(Request {
            class: self.class,
            values,
            layer_ms,
            layers,
            calls,
        });
    }
}

fn motif(name: &str) -> Motif {
    Motif::from_name(name).expect("workload motifs are valid names")
}

/// The protect arguments a request carries.
struct ProtectArgs {
    motif: Motif,
    random: usize,
    seed: u64,
    budget: usize,
}

/// The report lines the drift guard compares with the accepted reply.
fn check_lines(what: &str, lines: &[String], reply: &str, problems: &mut Vec<String>) {
    for line in lines {
        if !reply.lines().any(|l| l == line) {
            problems.push(format!(
                "replay drift on {what}: {line:?} is not in the served reply {reply:?}"
            ));
        }
    }
}

/// `run_protect` after the graph is in hand: targets, the original copy,
/// phase 1, the greedy, the release, and its utility loss. Returns the
/// similarity and utility-loss report lines.
fn protect_pipeline(
    t: &mut Tracer,
    g: Graph,
    a: &ProtectArgs,
    seed: Option<Arc<PartitionedCoverageIndex>>,
    pool: Option<&Parallelism>,
) -> Result<Vec<String>, String> {
    let targets = t.span("core.sample_targets", "run_protect", || {
        TppInstance::sample_targets(&g, a.random.min(g.edge_count()), a.seed)
    });
    let original = t.span("graph.clone", "original", || g.clone());
    t.side(
        "graph.clone",
        "phase-1 released (inside TppInstance::new)",
        || g.clone(),
    );
    let instance = t
        .span("core.instance", "phase 1", || TppInstance::new(g, targets))
        .map_err(|e| e.to_string())?;
    let mut cfg = GreedyConfig::scalable(a.motif)
        .with_threads(1)
        .with_obs(t.rec());
    if let Some(index) = seed {
        cfg = cfg.with_index_seed(index);
    }
    if let Some(pool) = pool {
        cfg = cfg.with_shared_pool(pool.clone());
    }
    let plan = t.span("core.greedy", "sgb_greedy", || {
        sgb_greedy(&instance, a.budget, &cfg)
    });
    t.count("motif.instances", plan.initial_similarity as f64);
    t.side("graph.clone", "release (inside apply_protectors)", || {
        instance.released().clone()
    });
    let released = t.span("core.apply", "apply_protectors", || {
        instance.apply_protectors(&plan.protectors)
    });
    let config = UtilityConfig::large_graph(a.seed);
    let loss = t.span("metrics.utility", "utility_loss", || {
        utility_loss(&original, &released, &config)
    });
    t.side("metrics.clustering", "both graphs", || {
        average_clustering(&original) + average_clustering(&released)
    });
    t.side("metrics.core", "both graphs", || {
        (core_numbers(&original), core_numbers(&released))
    });
    Ok(vec![
        format!(
            "{}: similarity {} -> {} with {} protector deletions (+{} targets removed)",
            plan.algorithm,
            plan.initial_similarity,
            plan.final_similarity,
            plan.deletions(),
            instance.target_count()
        ),
        format!("utility loss (clust, cn): {}", loss.average_percent()),
    ])
}

/// A one-shot `tpp protect`: map the snapshot, copy it into a `Graph`,
/// then the shared pipeline on one thread.
fn oneshot_protect(t: &mut Tracer, csr: &str, seed: u64) -> Result<Vec<String>, String> {
    let mapped = t
        .span("store.load", "load_mapped, --verify header", || {
            tpp_store::format::load_mapped(csr, VerifyMode::Header)
        })
        .map_err(|e| format!("loading {csr}: {e}"))?;
    let g = t.span("store.to_graph", "CsrGraph::to_graph", move || {
        mapped.to_graph()
    });
    let args = ProtectArgs {
        motif: motif("triangle"),
        random: 200,
        seed,
        budget: 20,
    };
    protect_pipeline(t, g, &args, None, None)
}

/// The daemon's resident state for one graph.
struct Resident {
    graph: Graph,
    pool: Parallelism,
}

impl Resident {
    fn load(csr: &str) -> Result<Self, String> {
        let mapped = tpp_store::format::load_mapped(csr, VerifyMode::Full)
            .map_err(|e| format!("loading {csr}: {e}"))?;
        Ok(Resident {
            graph: mapped.to_graph(),
            pool: Parallelism::new(2),
        })
    }

    /// An index build outside any request (the warm registry entries).
    fn build_index(
        &self,
        targets: Vec<Edge>,
        m: Motif,
    ) -> Result<Arc<PartitionedCoverageIndex>, String> {
        let instance = TppInstance::new(self.graph.clone(), targets).map_err(|e| e.to_string())?;
        Ok(Arc::new(PartitionedCoverageIndex::build_parallel(
            instance.released(),
            instance.targets(),
            m,
            DEFAULT_INDEX_PARTITIONS,
            &self.pool,
        )))
    }
}

/// A served protect: registry-hit graph copy, the index key's targets,
/// the index from the registry (warm) or built on the shared pool (cold),
/// then the shared pipeline seeded with it.
fn served_protect(
    t: &mut Tracer,
    res: &Resident,
    a: &ProtectArgs,
    warm: Option<&Arc<PartitionedCoverageIndex>>,
) -> Result<Vec<String>, String> {
    let g = t.span("graph.clone", "registry hit", || res.graph.clone());
    let targets = t.span("core.sample_targets", "index key", || {
        TppInstance::sample_targets(&g, a.random.min(g.edge_count()), a.seed)
    });
    let index = match warm {
        Some(index) => Arc::clone(index),
        None => {
            let copy = t.span("graph.clone", "index instance", || g.clone());
            t.side("graph.clone", "phase-1 released (index instance)", || {
                copy.clone()
            });
            let instance = t
                .span("core.instance", "index instance", || {
                    TppInstance::new(copy, targets)
                })
                .map_err(|e| e.to_string())?;
            let exec = res.pool.attach_recorder(t.rec());
            Arc::new(t.span("motif.index_build", "build_parallel", || {
                PartitionedCoverageIndex::build_parallel(
                    instance.released(),
                    instance.targets(),
                    a.motif,
                    DEFAULT_INDEX_PARTITIONS,
                    &exec,
                )
            }))
        }
    };
    t.side("motif.index_clone", "the copy a seed costs", || {
        (*index).clone()
    });
    protect_pipeline(t, g, a, Some(index), Some(&res.pool))
}

/// A served `update`: the delta applied to the resident graph and the
/// warm index patched in place over its released view.
fn served_update(
    t: &mut Tracer,
    res: &mut Resident,
    index: &mut Arc<PartitionedCoverageIndex>,
    file: &str,
) -> Result<u64, String> {
    t.span("graph.clone", "registry hit", || res.graph.clone());
    let delta = t
        .span("store.delta_load", "GraphDelta::load", || {
            GraphDelta::load(std::path::Path::new(file))
        })
        .map_err(|e| format!("loading {file}: {e}"))?;
    let base = t.span("graph.clone", "update base", || res.graph.clone());
    let applied = t
        .span("store.delta_apply", "GraphDelta::apply", || {
            delta.apply(&base)
        })
        .map_err(|e| e.to_string())?;
    res.graph = t.span("graph.clone", "registry swap", || applied.graph.clone());
    let mut patched = t.span("motif.index_clone", "clone-on-write", || (**index).clone());
    patched.set_parallelism(res.pool.attach_recorder(t.rec()));
    let mut released = t.span("graph.clone", "index released view", || base.clone());
    let targets = patched.targets().to_vec();
    t.span("graph.edit", "phase 1 on the view", || {
        for e in &targets {
            released.remove_edge(e.u(), e.v());
        }
    });
    for &e in &applied.removed {
        t.span("motif.delete", "delete_edge", || patched.delete_edge(e));
        t.span("graph.edit", "remove", || {
            released.remove_edge(e.u(), e.v())
        });
    }
    let mut discovered = 0u64;
    for &e in &applied.added {
        t.span("graph.edit", "add", || released.add_edge(e.u(), e.v()));
        discovered += t.span("motif.insert", "insert_edge", || {
            patched.insert_edge(&released, e)
        }) as u64;
    }
    if !applied.added.is_empty() {
        t.count("motif.instances_discovered", discovered as f64);
    }
    *index = Arc::new(patched);
    Ok(discovered)
}

/// A served `attack --attacker cn --random 200 --negatives 500`.
fn served_attack(t: &mut Tracer, res: &Resident, seed: u64) -> Result<String, String> {
    let g = t.span("graph.clone", "registry hit", || res.graph.clone());
    let targets = t.span("core.sample_targets", "attack targets", || {
        TppInstance::sample_targets(&g, 200.min(g.edge_count()), seed)
    });
    let mut released = t.span("graph.clone", "attacked view", || g.clone());
    t.span("graph.edit", "hide targets", || {
        for e in &targets {
            released.remove_edge(e.u(), e.v());
        }
    });
    let negatives = t.span("linkpred.negatives", "sample_non_edges", || {
        sample_non_edges(&released, 500, &targets, seed)
    });
    let cn = *SimilarityIndex::ALL
        .iter()
        .find(|i| i.name() == "cn")
        .expect("common neighbours is a similarity index");
    let exec = res.pool.attach_recorder(t.rec());
    let outcome = t.span("linkpred.score", "evaluate_attack_on", || {
        evaluate_attack_on(&released, &targets, &negatives, Attacker::Index(cn), &exec)
    });
    Ok(format!("auc:            {:.4}", outcome.auc))
}

/// The two passes of round `r`, alternating which runs first so that
/// warm-up favours neither side of the overhead comparison.
fn passes(r: usize) -> [bool; 2] {
    if r.is_multiple_of(2) {
        [false, true]
    } else {
        [true, false]
    }
}

/// Replays `plan` in state-neutral rounds, each run once without and once
/// with the recorder.
pub fn run(plan: &Plan) -> Result<Replay, String> {
    let mut t = Tracer::new();
    let mut problems = Vec::new();
    match plan {
        Plan::Oneshot { csr, protects } => {
            for (r, (seed, reply)) in protects.iter().take(2).enumerate() {
                for recorded in passes(r) {
                    t.begin(Class::Protect, recorded);
                    let lines = oneshot_protect(&mut t, csr, *seed)?;
                    t.end();
                    check_lines(
                        &format!("protect --seed {seed}"),
                        &lines,
                        reply,
                        &mut problems,
                    );
                }
            }
        }
        Plan::Engine { csr, hot, cold } => {
            let res = Resident::load(csr)?;
            let args = |seed| ProtectArgs {
                motif: motif("kpath4"),
                random: 500,
                seed,
                budget: 300,
            };
            let warm = hot
                .iter()
                .map(|(seed, _)| {
                    let targets = TppInstance::sample_targets(
                        &res.graph,
                        500.min(res.graph.edge_count()),
                        *seed,
                    );
                    res.build_index(targets, motif("kpath4"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            for (round, (cold_seed, cold_reply)) in cold.iter().enumerate() {
                let (hot_seed, hot_reply) = &hot[round % hot.len()];
                for recorded in passes(round) {
                    t.begin(Class::Protect, recorded);
                    let lines = served_protect(
                        &mut t,
                        &res,
                        &args(*hot_seed),
                        Some(&warm[round % warm.len()]),
                    )?;
                    t.end();
                    check_lines(
                        &format!("hot protect --seed {hot_seed}"),
                        &lines,
                        hot_reply,
                        &mut problems,
                    );
                    t.begin(Class::ProtectCold, recorded);
                    let lines = served_protect(&mut t, &res, &args(*cold_seed), None)?;
                    t.end();
                    check_lines(
                        &format!("cold protect --seed {cold_seed}"),
                        &lines,
                        cold_reply,
                        &mut problems,
                    );
                }
            }
        }
        Plan::Dynamic {
            csr,
            protect_seed,
            expected_protect,
            grow_files,
            shrink_files,
            attack_seeds,
            expected_attack,
            discovered,
        } => {
            let mut res = Resident::load(csr)?;
            let args = ProtectArgs {
                motif: motif("rectangle"),
                random: 1000,
                seed: *protect_seed,
                budget: 50,
            };
            let targets = TppInstance::sample_targets(
                &res.graph,
                1000.min(res.graph.edge_count()),
                *protect_seed,
            );
            let mut index = res.build_index(targets, args.motif)?;
            for i in 0..2usize.min(grow_files.len()) {
                for recorded in passes(i) {
                    t.begin(Class::Update, recorded);
                    let found = served_update(&mut t, &mut res, &mut index, &grow_files[i])?;
                    t.end();
                    if let Some(&want) = discovered.get(&i) {
                        if found != want {
                            problems.push(format!(
                                "replay drift on update +D{i}: {found} instance(s) discovered, served {want}"
                            ));
                        }
                    }
                    t.begin(Class::Attack, recorded);
                    let line = served_attack(&mut t, &res, attack_seeds[i])?;
                    t.end();
                    check_lines(
                        &format!("attack after +D{i}"),
                        &[line],
                        &expected_attack[i],
                        &mut problems,
                    );
                    t.begin(Class::Update, recorded);
                    served_update(&mut t, &mut res, &mut index, &shrink_files[i])?;
                    t.end();
                    t.begin(Class::Protect, recorded);
                    let lines = served_protect(&mut t, &res, &args, Some(&index))?;
                    t.end();
                    check_lines(
                        "protect on the restored base",
                        &lines,
                        expected_protect,
                        &mut problems,
                    );
                }
            }
        }
    }
    let [off, on] = t.pass_ms;
    Ok(Replay {
        requests: t.requests,
        overhead_pct: (on - off) / off.max(f64::MIN_POSITIVE) * 100.0,
        problems,
        spans: t.spans,
    })
}
