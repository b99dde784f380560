//! End-to-end request benchmark for `tpp`.
//!
//! ```text
//! perfbench --tpp <tpp binary> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one closed-loop workload against the release `tpp` binary (see
//! `workloads.rs`), checks every reply, and prints a table of every
//! end-to-end metric followed, as the last line, by one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the same timed phase
//! runs untraced and is followed by the in-process replay of
//! `replay.rs`, and the metrics are the per-layer ones. Generated inputs
//! live under `.bench_work/` and are removed on exit; the replay's spans
//! are kept in `.bench_work/traces/`. `perfbench/run.sh` builds both
//! binaries and runs this.

mod gen;
mod proc;
mod replay;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use workloads::{Class, Ctx, Outcome};

const WORKLOADS: [&str; 3] = [
    "oneshot_ba200k",
    "serve_engine_arenas",
    "serve_dynamic_ba50k",
];

/// Per-layer metrics of the traced run, with units.
const PER_LAYER: [(&str, &str); 41] = [
    ("store.load_ms", "ms"),
    ("store.to_graph_ms", "ms"),
    ("store.delta_apply_ms", "ms"),
    ("graph.clone_ms", "ms"),
    ("graph.clones", "count"),
    ("graph.kernel_merge", "count"),
    ("graph.kernel_gallop", "count"),
    ("graph.kernel_hub", "count"),
    ("core.sample_targets_ms", "ms"),
    ("core.instance_ms", "ms"),
    ("core.apply_ms", "ms"),
    ("core.greedy_ms", "ms"),
    ("core.rounds", "count"),
    ("core.candidates_probed", "count"),
    ("core.scan_ms", "ms"),
    ("core.commit_ms", "ms"),
    ("motif.index_build_ms", "ms"),
    ("motif.instances", "count"),
    ("motif.index_clone_ms", "ms"),
    ("motif.delete_ms", "ms"),
    ("motif.insert_ms", "ms"),
    ("motif.instances_discovered", "count"),
    ("metrics.utility_ms", "ms"),
    ("metrics.clustering_ms", "ms"),
    ("metrics.core_ms", "ms"),
    ("linkpred.negatives_ms", "ms"),
    ("linkpred.score_ms", "ms"),
    ("linkpred.pairs_scored", "count"),
    ("exec.dispatches", "count"),
    ("exec.dispatch_ms", "ms"),
    ("exec.steal_ratio", "ratio"),
    ("exec.idle_participants", "count"),
    ("serve.ping_p50_ms", "ms"),
    ("serve.index_hit_ratio", "ratio"),
    ("serve.graph_hit_ratio", "ratio"),
    ("cli.outside_layers_ms", "ms"),
    ("cli.protect_cold_p50_ms", "ms"),
    ("cli.attack_p50_ms", "ms"),
    ("cli.update_p50_ms", "ms"),
    ("cli.fail_ratio", "ratio"),
    ("obs.recorder_overhead_pct", "%"),
];

struct Args {
    tpp: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in raw.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {:?} has no value", pair[0]));
        };
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {flag:?}"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let get = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let num = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("--{name} must be a whole number"))
    };
    let workload = get("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        tpp: get("tpp")?,
        workload,
        seed: num("seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// The scratch directory of one run, removed when the run ends.
struct WorkDir(String);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Latencies of one class, over the ops that produced one.
fn latencies(out: &Outcome, class: Class) -> Vec<f64> {
    out.records
        .iter()
        .filter(|r| r.class == class && r.ms.is_finite())
        .map(|r| r.ms)
        .collect()
}

fn class_p50(out: &Outcome, class: Class) -> Option<f64> {
    let xs = latencies(out, class);
    (!xs.is_empty()).then(|| gen::median(&xs))
}

/// Every end-to-end metric this workload yields, as `(name, value, unit,
/// samples)`: latencies per class with the highest tail percentile that
/// has ten samples beyond it.
fn end_to_end(out: &Outcome) -> Vec<(String, f64, &'static str, usize)> {
    let mut rows = vec![(
        "setup_s".to_string(),
        gen::median(&out.setup_s),
        "s",
        out.setup_s.len(),
    )];
    for class in Class::ALL {
        let xs = latencies(out, class);
        if xs.is_empty() {
            continue;
        }
        rows.push((
            format!("{}_p50_ms", class.name()),
            gen::median(&xs),
            "ms",
            xs.len(),
        ));
        if let Some((suffix, q)) = gen::reportable_tail(xs.len()) {
            rows.push((
                format!("{}_{suffix}_ms", class.name()),
                gen::quantile(&xs, q),
                "ms",
                xs.len(),
            ));
        }
    }
    let n = out.records.len();
    rows.push((
        "throughput_ops_s".into(),
        n as f64 / out.elapsed_s,
        "ops/s",
        n,
    ));
    rows.push((
        "fail_ratio".into(),
        failed(out) as f64 / n.max(1) as f64,
        "ratio",
        n,
    ));
    rows.push((
        "peak_rss_mb".into(),
        out.peak_rss_kib as f64 / 1024.0,
        "MiB",
        1,
    ));
    rows
}

fn failed(out: &Outcome) -> usize {
    out.records.iter().filter(|r| r.error.is_some()).count()
}

/// The gated end-to-end metrics, with units: the ones every workload
/// yields.
const GATED: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("protect_p50_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("peak_rss_mb", "MiB"),
];

fn median_of(requests: &[replay::Request], name: &str) -> Option<f64> {
    let xs: Vec<f64> = requests
        .iter()
        .filter_map(|r| r.values.get(name).copied())
        .collect();
    (!xs.is_empty()).then(|| gen::median(&xs))
}

/// Median replay layer time of one class.
fn layer_p50(rp: &replay::Replay, class: Class) -> Option<f64> {
    let xs: Vec<f64> = rp
        .requests
        .iter()
        .filter(|r| r.class == class)
        .map(|r| r.layer_ms)
        .collect();
    (!xs.is_empty()).then(|| gen::median(&xs))
}

/// Every per-layer metric; 0 where this workload's requests never make
/// the call (e.g. `store.delta_apply_ms` outside `serve_dynamic_ba50k`).
fn per_layer(out: &Outcome, rp: &replay::Replay) -> Vec<(&'static str, f64, &'static str)> {
    let serve = out.serve.as_ref();
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "serve.ping_p50_ms" => serve.and_then(|s| s.ping_p50_ms),
                "serve.index_hit_ratio" => serve.map(|s| s.index_hit_ratio),
                "serve.graph_hit_ratio" => serve.map(|s| s.graph_hit_ratio),
                "cli.outside_layers_ms" => class_p50(out, Class::Protect)
                    .zip(layer_p50(rp, Class::Protect))
                    .map(|(op, layers)| op - layers),
                "cli.protect_cold_p50_ms" => class_p50(out, Class::ProtectCold),
                "cli.attack_p50_ms" => class_p50(out, Class::Attack),
                "cli.update_p50_ms" => class_p50(out, Class::Update),
                "cli.fail_ratio" => Some(failed(out) as f64 / out.records.len().max(1) as f64),
                "obs.recorder_overhead_pct" => Some(rp.overhead_pct),
                _ => median_of(&rp.requests, name),
            };
            (name, value.unwrap_or(0.0), unit)
        })
        .collect()
}

const LAYERS: [&str; 6] = ["store", "graph", "core", "motif", "metrics", "linkpred"];

/// Served latency beside the replay's layer time, per class, with each
/// layer's share of the served p50.
fn class_table(out: &Outcome, rp: &replay::Replay) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{:<13} {:>10} {:>10} {:>10}",
        "class", "p50 ms", "layers ms", "outside ms"
    );
    for l in LAYERS {
        let _ = write!(s, " {l:>8}");
    }
    s.push('\n');
    for class in Class::ALL {
        let (Some(p50), Some(layers)) = (class_p50(out, class), layer_p50(rp, class)) else {
            continue;
        };
        let _ = write!(
            s,
            "{:<13} {p50:>10.2} {layers:>10.2} {:>10.2}",
            class.name(),
            p50 - layers
        );
        let reqs: Vec<_> = rp.requests.iter().filter(|r| r.class == class).collect();
        for l in LAYERS {
            let xs: Vec<f64> = reqs
                .iter()
                .map(|r| r.layers.get(l).copied().unwrap_or(0.0))
                .collect();
            let _ = write!(s, " {:>7.1}%", gen::median(&xs) / p50 * 100.0);
        }
        s.push('\n');
    }
    s
}

/// Share of a class's served p50 taken by the given layers' blocking time.
fn share(out: &Outcome, rp: &replay::Replay, class: Class, layers: &[&str]) -> Option<f64> {
    let p50 = class_p50(out, class)?;
    let reqs: Vec<f64> = rp
        .requests
        .iter()
        .filter(|r| r.class == class)
        .map(|r| {
            layers
                .iter()
                .map(|l| r.layers.get(l).copied().unwrap_or(0.0))
                .sum()
        })
        .collect();
    (!reqs.is_empty()).then(|| gen::median(&reqs) / p50)
}

/// The traced one-shot phases beside the ROADMAP re-anchor table
/// (ba_200k seed 1, 2-core container, release build).
fn roadmap_table(out: &Outcome, rp: &replay::Replay) -> String {
    let reqs: Vec<&replay::Request> = rp
        .requests
        .iter()
        .filter(|r| r.class == Class::Protect)
        .collect();
    let call = |name: &str, detail: &str| -> f64 {
        let xs: Vec<f64> = reqs
            .iter()
            .map(|r| {
                r.calls
                    .iter()
                    .filter(|c| c.0 == name && (detail.is_empty() || c.1.starts_with(detail)))
                    .map(|c| c.2)
                    .sum()
            })
            .collect();
        gen::median(&xs)
    };
    let rows = [
        ("mmap load", 0.3, call("store.load", "")),
        ("CsrGraph::to_graph", 129.0, call("store.to_graph", "")),
        ("sample_targets", 14.0, call("core.sample_targets", "")),
        (
            "Graph clone: original",
            25.0,
            call("graph.clone", "original"),
        ),
        (
            "Graph clone: phase-1 released",
            18.0,
            call("graph.clone", "phase-1"),
        ),
        (
            "Graph clone: apply_protectors",
            11.0,
            call("graph.clone", "release"),
        ),
        ("greedy incl. index build", 14.0, call("core.greedy", "")),
        ("utility_loss", 1190.0, call("metrics.utility", "")),
        (
            "whole one-shot run (p50)",
            1950.0,
            class_p50(out, Class::Protect).unwrap_or(0.0),
        ),
    ];
    let mut s = format!(
        "{:<30} {:>12} {:>12} {:>10}\n",
        "phase", "ROADMAP ms", "traced ms", "diff"
    );
    for (phase, roadmap, traced) in rows {
        let _ = writeln!(
            s,
            "{phase:<30} {roadmap:>12.1} {traced:>12.2} {:>+9.0}%",
            (traced - roadmap) / roadmap * 100.0
        );
    }
    s.push_str(
        "(ROADMAP: `tpp protect --random 200 --budget 20 --verify header --threads 1` on ba_200k seed 1, \
         timed by a throwaway probe; whole run ~1.9-2.0 s. Here: the replay's spans, and the p50 of \
         this run's one-shot processes, on this run's seed.)\n",
    );
    s
}

fn host_metadata() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    let git_rev = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok(),
            None => Some(head),
        })
        .map_or_else(
            || "unavailable (not a git checkout)".into(),
            |r| r.trim().to_string(),
        );
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("host: nproc={nproc} rustc=\"{rustc}\" profile={profile} git_rev={git_rev}")
}

/// Writes the replay's spans, one JSON object per line.
fn write_spans(path: &str, spans: &[replay::Span]) -> Result<(), String> {
    let mut s = String::new();
    for sp in spans {
        let _ = writeln!(
            s,
            "{{\"request\":{},\"class\":\"{}\",\"name\":\"{}\",\"detail\":\"{}\",\"start_us\":{},\"end_us\":{},\"blocking\":{},\"recorder\":{}}}",
            sp.request,
            sp.class.name(),
            sp.name,
            sp.detail,
            sp.start_us,
            sp.end_us,
            sp.blocking,
            sp.recorded
        );
    }
    std::fs::write(path, s).map_err(|e| format!("writing {path}: {e}"))
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let root = ".bench_work";
    let dir = WorkDir(format!("{root}/{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("creating {}: {e}", dir.0))?;
    let ctx = Ctx {
        tpp: args.tpp.clone(),
        dir: dir.0.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let out = match args.workload.as_str() {
        "oneshot_ba200k" => workloads::oneshot_ba200k(&ctx)?,
        "serve_engine_arenas" => workloads::serve_engine_arenas(&ctx)?,
        _ => workloads::serve_dynamic_ba50k(&ctx)?,
    };
    println!("{}", host_metadata());
    println!(
        "workload {} seed {}: {} ops in {:.2} s",
        args.workload,
        args.seed,
        out.records.len(),
        out.elapsed_s
    );
    let e2e = end_to_end(&out);
    println!(
        "{:<24} {:>14} {:>6} {:>8}",
        "end-to-end metric", "value", "unit", "samples"
    );
    for (name, value, unit, n) in &e2e {
        println!("{name:<24} {value:>14.4} {unit:>6} {n:>8}");
    }
    let mut problems = out.problems.clone();
    for r in out.records.iter().filter_map(|r| r.error.as_ref()).take(5) {
        problems.push(r.clone());
    }
    let attempted = out.records.len();
    let failed = failed(&out);
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let rp = replay::run(&out.replay)?;
        problems.extend(rp.problems.iter().cloned());
        std::fs::create_dir_all(format!("{root}/traces"))
            .map_err(|e| format!("creating traces dir: {e}"))?;
        write_spans(
            &format!("{root}/traces/{}-seed{}.jsonl", args.workload, args.seed),
            &rp.spans,
        )?;
        let layers = per_layer(&out, &rp);
        println!("\n{:<28} {:>14} {:>6}", "per-layer metric", "value", "unit");
        for (name, value, unit) in &layers {
            println!("{name:<28} {value:>14.4} {unit:>6}");
        }
        println!("\n{}", class_table(&out, &rp));
        match args.workload.as_str() {
            "oneshot_ba200k" => {
                if let Some(s) = share(&out, &rp, Class::Protect, &["metrics", "store", "graph"]) {
                    println!(
                        "tpp-metrics + tpp-store + graph copies: {:.1}% of protect_p50_ms\n",
                        s * 100.0
                    );
                }
                println!("{}", roadmap_table(&out, &rp));
            }
            "serve_engine_arenas" => {
                if let Some(s) = share(&out, &rp, Class::ProtectCold, &["motif", "core"]) {
                    println!(
                        "tpp-motif + tpp-core: {:.1}% of protect_cold_p50_ms",
                        s * 100.0
                    );
                }
            }
            _ => {}
        }
        layers
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect()
    } else {
        // A class with no successful op has no latency; the run is then
        // incorrect anyway, and the value reads 0.
        let e2e: BTreeMap<&str, f64> = e2e.iter().map(|(n, v, _, _)| (n.as_str(), *v)).collect();
        GATED
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_string(),
                    e2e.get(name).copied().unwrap_or(0.0),
                    unit,
                )
            })
            .collect()
    };
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    let correct = failed == 0 && problems.is_empty();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(true, 3, 0, &[("setup_s".into(), 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
