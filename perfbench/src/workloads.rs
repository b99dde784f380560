//! The three closed-loop workloads against the release `tpp` binary:
//! input generation, set-up (timed several times), the expected replies
//! (one-shot CLI output, computed once per distinct request), the timed
//! phase with every reply checked, and the daemon's registry counters.

use crate::gen::{self, DynOp, ListRef};
use crate::proc::{self, Daemon};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tpp_cli::serve::request;
use tpp_graph::{Edge, Graph};

/// Request classes, each with its own latency distribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// One-shot process, or a served protect whose index is warm.
    Protect,
    /// Served protect whose index was evicted and is rebuilt.
    ProtectCold,
    Attack,
    Update,
}

impl Class {
    pub const ALL: [Class; 4] = [
        Class::Protect,
        Class::ProtectCold,
        Class::Attack,
        Class::Update,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Protect => "protect",
            Class::ProtectCold => "protect_cold",
            Class::Attack => "attack",
            Class::Update => "update",
        }
    }
}

/// One timed op: its class, latency, and what went wrong, if anything
/// (an error reply, a transport failure, or a wrong reply).
pub struct Record {
    pub class: Class,
    pub ms: f64,
    pub error: Option<String>,
}

/// Everything a workload run measured.
pub struct Outcome {
    /// One entry per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Timed ops in op order.
    pub records: Vec<Record>,
    /// Wall time of the timed phase.
    pub elapsed_s: f64,
    /// Daemon peak RSS, or the largest one-shot child's.
    pub peak_rss_kib: u64,
    /// Failed run-level checks (registry counters and the like).
    pub problems: Vec<String>,
    /// What the traced replay needs to mirror this run's requests.
    pub replay: crate::replay::Plan,
    /// Served workloads: `serve.*` readouts for the trace.
    pub serve: Option<ServeReadout>,
}

/// Registry hit ratios from the `info` reply and the ping latency.
pub struct ServeReadout {
    pub index_hit_ratio: f64,
    pub graph_hit_ratio: f64,
    /// Median ping round trip, measured only in traced runs.
    pub ping_p50_ms: Option<f64>,
}

/// Run parameters shared by every workload.
pub struct Ctx {
    /// The `tpp` binary.
    pub tpp: String,
    /// Scratch directory for generated inputs (relative, uncommitted).
    pub dir: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Ctx {
    fn path(&self, name: &str) -> String {
        format!("{}/{name}", self.dir)
    }

    fn tpp(&self, args: &[&str]) -> Result<proc::Finished, String> {
        proc::run(&self.tpp, &owned(args))
    }

    /// `tpp store build`, timed from spawn to exit.
    fn store_build(&self, text: &str, csr: &str) -> Result<f64, String> {
        let done = self.tpp(&["store", "build", text, "--out", csr, "--threads", "2"])?;
        Ok(done.wall_ms / 1e3)
    }
}

fn owned(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| (*s).to_string()).collect()
}

/// Set-up repetitions per run (the reported `setup_s` is their median).
const SETUPS: usize = 7;

/// Runs `op(i)` for i = 0, 1, 2, … < `ops` from `clients` threads sharing
/// one cursor, each issuing its next op only after the previous one
/// replied, until `seconds` have passed. Returns the records in op order
/// (always a prefix of the op sequence) and the phase's wall time.
fn closed_loop(
    clients: usize,
    seconds: f64,
    ops: usize,
    op: impl Fn(usize) -> Record + Sync,
) -> (Vec<Record>, f64) {
    let cursor = AtomicUsize::new(0);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut all: Vec<(usize, Record)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    while Instant::now() < deadline {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= ops {
                            break;
                        }
                        mine.push((i, op(i)));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    all.sort_by_key(|(i, _)| *i);
    (all.into_iter().map(|(_, r)| r).collect(), elapsed)
}

/// Times one served request and checks its reply with `check`.
fn served(
    class: Class,
    socket: &str,
    argv: &[String],
    check: impl FnOnce(&str) -> Result<(), String>,
) -> Record {
    let t0 = Instant::now();
    let reply = request(socket, argv);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let error = match reply {
        Ok(text) => check(&text).err(),
        Err(e) => Some(format!("{}: {e}", argv[0])),
    };
    Record { class, ms, error }
}

fn expect_eq(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: reply differs from the one-shot CLI output\n  got:  {got:?}\n  want: {want:?}"
        ))
    }
}

/// `(hits, misses)` from an `info` line such as `indexes: 4 cached (cap
/// 4, 57 hits, 31 misses, 27 evictions)`.
fn registry_counts(info: &str, prefix: &str) -> Result<(u64, u64), String> {
    let line = info
        .lines()
        .find(|l| l.starts_with(prefix))
        .ok_or_else(|| format!("info reply has no {prefix:?} line"))?;
    let number_before = |word: &str| -> Result<u64, String> {
        let head = line
            .split(word)
            .next()
            .filter(|h| h.len() < line.len())
            .ok_or_else(|| format!("no {word:?} in {line:?}"))?;
        head.trim_end()
            .rsplit([' ', ','])
            .next()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("no count before {word:?} in {line:?}"))
    };
    Ok((number_before(" hits")?, number_before(" misses")?))
}

/// Compares the daemon's lifetime registry counters with the ones the op
/// sequence implies, and returns the hit ratios.
fn check_registry(
    daemon: &Daemon,
    want_index: (u64, u64),
    want_graph: (u64, u64),
    problems: &mut Vec<String>,
) -> Result<(f64, f64), String> {
    let info = daemon.ask(&["info"])?;
    let index = registry_counts(&info, "indexes:")?;
    let graph = registry_counts(&info, "graphs:")?;
    for (what, got, want) in [("index", index, want_index), ("graph", graph, want_graph)] {
        if got != want {
            problems.push(format!(
                "{what} registry: {} hits / {} misses, but the op sequence implies {} / {}",
                got.0, got.1, want.0, want.1
            ));
        }
    }
    let ratio = |(h, m): (u64, u64)| h as f64 / (h + m).max(1) as f64;
    Ok((ratio(index), ratio(graph)))
}

/// Median ping round trip over 200 pings (traced runs only).
fn ping_p50(daemon: &Daemon) -> Result<f64, String> {
    let ping = owned(&["ping"]);
    let mut samples = Vec::with_capacity(200);
    for _ in 0..200 {
        let t0 = Instant::now();
        request(&daemon.socket, &ping)?;
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(gen::median(&samples))
}

/// Set-up, timed [`SETUPS`] times: the snapshot build, daemon start
/// until `ping` answers, then `warm_up`. Returns the set-up times and the
/// last daemon, kept for the timed phase.
fn served_setup(
    ctx: &Ctx,
    text: &str,
    csr: &str,
    flags: &[&str],
    warm_up: impl Fn(&Daemon) -> Result<(), String>,
) -> Result<(Vec<f64>, Daemon), String> {
    let socket = ctx.path("tpp.sock");
    let mut setup_s = Vec::with_capacity(SETUPS);
    loop {
        let t0 = Instant::now();
        ctx.store_build(text, csr)?;
        let daemon = Daemon::start(&ctx.tpp, &socket, flags)?;
        warm_up(&daemon)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if setup_s.len() == SETUPS {
            return Ok((setup_s, daemon));
        }
        daemon.shutdown()?;
    }
}

/// After the timed phase: checks the registry counters, reads the
/// daemon's peak RSS (and, traced, its ping latency), and shuts it down.
/// Returns the readout, the peak RSS in KiB, and any failed check.
fn finish_served(
    ctx: &Ctx,
    daemon: Daemon,
    want_index: (u64, u64),
    want_graph: (u64, u64),
) -> Result<(ServeReadout, u64, Vec<String>), String> {
    let mut problems = Vec::new();
    let (index_hit_ratio, graph_hit_ratio) =
        check_registry(&daemon, want_index, want_graph, &mut problems)?;
    let ping_p50_ms = if ctx.trace {
        Some(ping_p50(&daemon)?)
    } else {
        None
    };
    let peak_rss_kib = daemon.peak_rss_kib()?;
    daemon.shutdown()?;
    let readout = ServeReadout {
        index_hit_ratio,
        graph_hit_ratio,
        ping_p50_ms,
    };
    Ok((readout, peak_rss_kib, problems))
}

/// `oneshot_ba200k`: sequential `tpp protect` processes on the ba_200k
/// snapshot, triangle motif, one thread.
pub fn oneshot_ba200k(ctx: &Ctx) -> Result<Outcome, String> {
    let (text, csr) = (ctx.path("ba200k.txt"), ctx.path("ba200k.csr"));
    let seed = ctx.seed.to_string();
    ctx.tpp(&[
        "generate", "--model", "ba", "--nodes", "200000", "--seed", &seed, "--out", &text,
    ])?;
    let setup_s = (0..SETUPS)
        .map(|_| ctx.store_build(&text, &csr))
        .collect::<Result<Vec<_>, _>>()?;

    let seeds = gen::sub_seeds(ctx.seed, 1, gen::ONESHOT_SEEDS);
    let sequence = gen::oneshot_sequence(ctx.seed, 10_000);
    let argv = |s: u64| {
        owned(&[
            "protect",
            &csr,
            "--random",
            "200",
            "--seed",
            &s.to_string(),
            "--budget",
            "20",
            "--verify",
            "header",
            "--threads",
            "1",
        ])
    };
    // The first answer for each seed is the reference for the later ones.
    let firsts: Mutex<HashMap<u64, String>> = Mutex::new(HashMap::new());
    let peak = AtomicUsize::new(0);
    let (records, elapsed_s) = closed_loop(1, ctx.seconds, sequence.len(), |i| {
        let s = seeds[sequence[i]];
        match proc::run(&ctx.tpp, &argv(s)) {
            Err(e) => Record {
                class: Class::Protect,
                ms: f64::NAN,
                error: Some(e),
            },
            Ok(done) => {
                peak.fetch_max(done.maxrss_kib as usize, Ordering::Relaxed);
                let mut firsts = firsts.lock().expect("single client");
                let first = firsts.entry(s).or_insert_with(|| done.stdout.clone());
                let error = check_protect_report(&done.stdout, 200)
                    .and_then(|()| expect_eq(&format!("protect --seed {s}"), &done.stdout, first))
                    .err();
                Record {
                    class: Class::Protect,
                    ms: done.wall_ms,
                    error,
                }
            }
        }
    });
    let firsts = firsts.into_inner().expect("loop finished");
    let used: Vec<u64> = seeds
        .iter()
        .copied()
        .filter(|s| firsts.contains_key(s))
        .collect();
    Ok(Outcome {
        setup_s,
        records,
        elapsed_s,
        peak_rss_kib: peak.into_inner() as u64,
        problems: Vec::new(),
        replay: crate::replay::Plan::Oneshot {
            csr,
            protects: used.into_iter().map(|s| (s, firsts[&s].clone())).collect(),
        },
        serve: None,
    })
}

/// Shape check of a protect report: the greedy line for `targets`
/// targets and the utility line.
fn check_protect_report(report: &str, targets: usize) -> Result<(), String> {
    let first = report.lines().next().unwrap_or("");
    let shaped = first.starts_with("SGB-Greedy: similarity ")
        && first.ends_with(&format!("(+{targets} targets removed)"))
        && report
            .lines()
            .any(|l| l.starts_with("utility loss (clust, cn): "));
    if shaped {
        Ok(())
    } else {
        Err(format!("malformed protect report {report:?}"))
    }
}

/// `serve_engine_arenas`: two clients, kpath4 protects over 2 hot and 12
/// cold target lists on the arenas snapshot, `--max-indexes 4`.
pub fn serve_engine_arenas(ctx: &Ctx) -> Result<Outcome, String> {
    let (text, csr) = (ctx.path("arenas.txt"), ctx.path("arenas.csr"));
    let seed = ctx.seed.to_string();
    ctx.tpp(&[
        "generate", "--model", "arenas", "--seed", &seed, "--out", &text,
    ])?;
    ctx.store_build(&text, &csr)?;

    let list_seeds = gen::sub_seeds(ctx.seed, 2, gen::HOT_LISTS + gen::COLD_LISTS);
    let seed_of = |l: ListRef| match l {
        ListRef::Hot(i) => list_seeds[i],
        ListRef::Cold(i) => list_seeds[gen::HOT_LISTS + i],
    };
    let argv = |s: u64| {
        owned(&[
            "protect",
            &csr,
            "--motif",
            "kpath4",
            "--random",
            "500",
            "--seed",
            &s.to_string(),
            "--budget",
            "300",
        ])
    };
    let mut expected: HashMap<u64, String> = HashMap::new();
    for &s in &list_seeds {
        let reply = proc::run(&ctx.tpp, &argv(s))?.stdout;
        check_protect_report(&reply, 500)?;
        expected.insert(s, reply);
    }

    let warm = [ListRef::Hot(0), ListRef::Hot(1)];
    let sequence = gen::engine_sequence(ctx.seed, 300_000);
    // Hot lists must stay resident even with a registry slot fewer than
    // the daemon has, and cold lists must always be rebuilt.
    let hits = gen::simulate_registry(&warm, &sequence, gen::INDEX_CAP - 1);
    if sequence
        .iter()
        .zip(&hits)
        .any(|(l, &hit)| hit != matches!(l, ListRef::Hot(_)))
    {
        return Err("the engine sequence lets a hot list fall out of the registry".into());
    }
    let cap = gen::INDEX_CAP.to_string();
    let flags = ["--threads", "2", "--max-indexes", &cap];
    let (setup_s, daemon) = served_setup(ctx, &text, &csr, &flags, |d| {
        for &l in &warm {
            let s = seed_of(l);
            let reply = request(&d.socket, &argv(s))?;
            expect_eq("warm-up protect", &reply, &expected[&s])?;
        }
        Ok(())
    })?;
    let socket = &daemon.socket;

    let (records, elapsed_s) = closed_loop(2, ctx.seconds, sequence.len(), |i| {
        let l = sequence[i];
        let class = match l {
            ListRef::Hot(_) => Class::Protect,
            ListRef::Cold(_) => Class::ProtectCold,
        };
        let s = seed_of(l);
        served(class, socket, &argv(s), |reply| {
            expect_eq(&format!("protect --seed {s}"), reply, &expected[&s])
        })
    });
    let hot = records.iter().filter(|r| r.class == Class::Protect).count() as u64;
    let cold = records.len() as u64 - hot;
    let (serve, peak_rss_kib, problems) = finish_served(
        ctx,
        daemon,
        (hot, warm.len() as u64 + cold),
        (warm.len() as u64 - 1 + records.len() as u64, 1),
    )?;
    let pick = |l: ListRef| (seed_of(l), expected[&seed_of(l)].clone());
    Ok(Outcome {
        setup_s,
        records,
        elapsed_s,
        peak_rss_kib,
        problems,
        replay: crate::replay::Plan::Engine {
            csr,
            hot: warm.iter().map(|&l| pick(l)).collect(),
            cold: (0..3).map(|i| pick(ListRef::Cold(i))).collect(),
        },
        serve: Some(serve),
    })
}

/// The mutated graph `D_i` leads to, for the one-shot attack reference.
fn grown(g: &Graph, delta: &[Edge]) -> Result<Graph, String> {
    let text = gen::delta_text(delta, '+');
    let parsed = tpp_store::GraphDelta::parse(&text).map_err(|e| e.to_string())?;
    Ok(parsed.apply(g).map_err(|e| e.to_string())?.graph)
}

/// `serve_dynamic_ba50k`: one client cycling `update +D_i`, `attack`,
/// `update -D_i`, warm rectangle `protect` on the resident ba_50k.
pub fn serve_dynamic_ba50k(ctx: &Ctx) -> Result<Outcome, String> {
    let (text, csr) = (ctx.path("ba50k.txt"), ctx.path("ba50k.csr"));
    let seed = ctx.seed.to_string();
    ctx.tpp(&[
        "generate", "--model", "ba", "--nodes", "50000", "--seed", &seed, "--out", &text,
    ])?;
    ctx.store_build(&text, &csr)?;
    let g = tpp_graph::parse_edge_list(
        &std::fs::read_to_string(&text).map_err(|e| format!("reading {text}: {e}"))?,
    )
    .map_err(|e| e.to_string())?;

    let protect_seed = gen::sub_seeds(ctx.seed, 3, 1)[0];
    let attack_seeds = gen::sub_seeds(ctx.seed, 4, gen::DELTAS);
    let targets = tpp_core::TppInstance::sample_targets(&g, 1000, protect_seed);
    let deltas = gen::make_deltas(&g, &targets, gen::DELTAS, gen::DELTA_EDGES, ctx.seed);
    let mut grow_files = Vec::new();
    let mut shrink_files = Vec::new();
    let mut expected_attack = Vec::new();
    let attack_argv = |graph: &str, i: usize| {
        owned(&[
            "attack",
            graph,
            "--attacker",
            "cn",
            "--random",
            "200",
            "--negatives",
            "500",
            "--seed",
            &attack_seeds[i].to_string(),
        ])
    };
    let write = |path: &str, body: String| {
        std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))
    };
    for (i, d) in deltas.iter().enumerate() {
        let (grow, shrink, mutated) = (
            ctx.path(&format!("d{i}.add")),
            ctx.path(&format!("d{i}.del")),
            ctx.path(&format!("mut{i}.txt")),
        );
        write(&grow, gen::delta_text(d, '+'))?;
        write(&shrink, gen::delta_text(d, '-'))?;
        write(&mutated, tpp_graph::write_edge_list(&grown(&g, d)?))?;
        expected_attack.push(proc::run(&ctx.tpp, &attack_argv(&mutated, i))?.stdout);
        grow_files.push(grow);
        shrink_files.push(shrink);
    }
    let protect_argv = owned(&[
        "protect",
        &csr,
        "--motif",
        "rectangle",
        "--random",
        "1000",
        "--seed",
        &protect_seed.to_string(),
        "--budget",
        "50",
    ]);
    let expected_protect = proc::run(&ctx.tpp, &protect_argv)?.stdout;
    check_protect_report(&expected_protect, 1000)?;
    let (nodes, edges) = (g.node_count(), g.edge_count());
    let k = gen::DELTA_EDGES;
    let update_head = |grow: bool| {
        let (minus, plus, m) = if grow {
            (0, k, edges + k)
        } else {
            (k, 0, edges)
        };
        format!(
            "updated {csr}: -{minus}/+{plus} edge(s), now {nodes} nodes, {m} edges (resident only)"
        )
    };
    const PATCHED: &str = "indexes: 1 patched in place, 0 dropped (delta hit their targets), ";

    let (setup_s, daemon) = served_setup(ctx, &text, &csr, &["--threads", "2"], |d| {
        let reply = request(&d.socket, &protect_argv)?;
        expect_eq("warm-up protect", &reply, &expected_protect)
    })?;
    let socket = &daemon.socket;

    let sequence = gen::dynamic_sequence(ctx.seed, 50_000);
    // Instances each +D_i discovers: the first reply per delta is the
    // reference, since every cycle starts from the same base state.
    let discovered: Mutex<HashMap<usize, u64>> = Mutex::new(HashMap::new());
    let (records, elapsed_s) = closed_loop(1, ctx.seconds, sequence.len(), |i| match sequence[i] {
        DynOp::Grow(d) | DynOp::Shrink(d) => {
            let grow = matches!(sequence[i], DynOp::Grow(_));
            let file = if grow {
                &grow_files[d]
            } else {
                &shrink_files[d]
            };
            served(
                Class::Update,
                socket,
                &owned(&["update", &csr, "--delta", file]),
                |reply| {
                    let found = parse_update(reply, &update_head(grow), PATCHED)?;
                    let mut seen = discovered.lock().expect("single client");
                    let want = if grow {
                        *seen.entry(d).or_insert(found)
                    } else {
                        0
                    };
                    if found == want {
                        Ok(())
                    } else {
                        Err(format!(
                            "update {file}: {found} instance(s) discovered, expected {want}"
                        ))
                    }
                },
            )
        }
        DynOp::Attack(d) => served(Class::Attack, socket, &attack_argv(&csr, d), |reply| {
            expect_eq(&format!("attack after +D{d}"), reply, &expected_attack[d])
        }),
        DynOp::Protect => served(Class::Protect, socket, &protect_argv, |reply| {
            expect_eq("protect on the restored base", reply, &expected_protect)
        }),
    });
    let protects = records.iter().filter(|r| r.class == Class::Protect).count() as u64;
    let (serve, peak_rss_kib, problems) =
        finish_served(ctx, daemon, (protects, 1), (records.len() as u64, 1))?;
    Ok(Outcome {
        setup_s,
        records,
        elapsed_s,
        peak_rss_kib,
        problems,
        replay: crate::replay::Plan::Dynamic {
            csr,
            protect_seed,
            expected_protect,
            grow_files,
            shrink_files,
            attack_seeds,
            expected_attack,
            discovered: discovered.into_inner().expect("loop finished"),
        },
        serve: Some(serve),
    })
}

/// Checks an `update` reply's two lines and returns the instances its
/// index patch discovered.
fn parse_update(reply: &str, head: &str, patched: &str) -> Result<u64, String> {
    let mut lines = reply.lines();
    let first = lines.next().unwrap_or("");
    if first != head {
        return Err(format!("update reply {first:?}, expected {head:?}"));
    }
    let second = lines.next().unwrap_or("");
    second
        .strip_prefix(patched)
        .and_then(|rest| rest.strip_suffix(" instance(s) discovered"))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| {
            format!("update reply {second:?}, expected {patched:?}<n> instance(s) discovered")
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counts_parse_info_lines() {
        let info = "tpp serve on s\npool: 2 worker thread(s)\nrequests: 9\n\
                    graphs: 1 cached (unlimited, 8 hits, 1 misses, 0 evictions)\n  \
                    /x/g.csr: 10 nodes, 12 edges (snapshot)\n\
                    indexes: 4 cached (cap 4, 57 hits, 31 misses, 27 evictions)\n";
        assert_eq!(registry_counts(info, "graphs:"), Ok((8, 1)));
        assert_eq!(registry_counts(info, "indexes:"), Ok((57, 31)));
        assert!(registry_counts(info, "threads:").is_err());
    }

    #[test]
    fn update_replies_parse() {
        let head = "updated g.csr: -0/+32 edge(s), now 10 nodes, 44 edges (resident only)";
        let patched = "indexes: 1 patched in place, 0 dropped (delta hit their targets), ";
        let reply = format!("{head}\n{patched}17 instance(s) discovered\n");
        assert_eq!(parse_update(&reply, head, patched), Ok(17));
        assert!(parse_update(&reply, "updated other", patched).is_err());
        assert!(parse_update(&format!("{head}\nindexes: 0 patched"), head, patched).is_err());
    }
}
