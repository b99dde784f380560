//! Integration tests for `tpp serve`: served plans must be byte-identical
//! to one-shot CLI plans (cold, warm, and under concurrent mixed
//! requests), the warm registry must skip the index rebuild, and a
//! panicking request must leave the server and its shared pool usable.
#![cfg(unix)]

use std::path::PathBuf;
use tpp_cli::{args, commands, serve};

fn strs(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| (*s).to_string()).collect()
}

fn dispatch(argv: &[&str]) {
    commands::dispatch(&args::parse(&strs(argv)).unwrap()).unwrap();
}

/// A per-test scratch dir plus a socket path short enough for `bind`.
fn scratch(name: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("tpp-serve-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("tpp.sock").to_str().unwrap().to_string();
    let _ = std::fs::remove_file(&socket);
    (dir, socket)
}

/// Starts a server on its own thread and blocks until it answers pings.
fn start_server(socket: &str, threads: usize) -> std::thread::JoinHandle<Result<(), String>> {
    start_server_with(
        socket,
        serve::ServeOptions {
            threads,
            ..serve::ServeOptions::default()
        },
    )
}

/// Starts a server with explicit registry bounds and blocks until ready.
fn start_server_with(
    socket: &str,
    options: serve::ServeOptions,
) -> std::thread::JoinHandle<Result<(), String>> {
    let sock = socket.to_string();
    let handle = std::thread::spawn(move || serve::serve_with_options(&sock, &options));
    for _ in 0..200 {
        if serve::request(socket, &strs(&["ping"])).is_ok() {
            return handle;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    panic!("server on {socket} never became ready");
}

fn shut_down(socket: &str, handle: std::thread::JoinHandle<Result<(), String>>) {
    let reply = serve::request(socket, &strs(&["shutdown"])).unwrap();
    assert!(reply.contains("stopping"), "got: {reply}");
    handle.join().unwrap().unwrap();
    assert!(
        !std::path::Path::new(socket).exists(),
        "socket file must be removed on clean shutdown"
    );
}

fn generate(dir: &std::path::Path, name: &str) -> String {
    let path = dir.join(name).to_str().unwrap().to_string();
    dispatch(&[
        "generate", "--model", "hk", "--nodes", "150", "--out", &path,
    ]);
    path
}

#[test]
fn concurrent_served_plans_are_byte_identical_to_one_shot() {
    let (dir, socket) = scratch("concurrent");
    let graph = generate(&dir, "g.txt");

    // Mixed motifs, strategies, and batch widths — including a random
    // baseline (no index) and two requests sharing an index key.
    let cases: &[&[&str]] = &[
        &["--algorithm", "sgb", "--motif", "triangle"],
        &["--algorithm", "celf", "--motif", "triangle"],
        &["--algorithm", "ct", "--motif", "rectangle"],
        &["--algorithm", "wt", "--motif", "triangle", "--batch", "2"],
        &["--algorithm", "rd", "--seed", "7"],
        &[
            "--algorithm",
            "sgb",
            "--motif",
            "rectangle",
            "--threads",
            "2",
        ],
    ];
    let case_args = |case: &[&str], plan: &str| {
        let mut argv = strs(&["protect", &graph, "--budget", "4", "--random", "4"]);
        argv.extend(strs(case));
        argv.extend(strs(&["--plan", plan]));
        argv
    };

    let mut one_shot = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let plan = dir.join(format!("one-shot-{i}.json"));
        let argv = case_args(case, plan.to_str().unwrap());
        commands::dispatch(&args::parse(&argv).unwrap()).unwrap();
        one_shot.push(std::fs::read(&plan).unwrap());
    }

    let handle = start_server(&socket, 2);
    for round in ["cold", "warm"] {
        let served: Vec<Vec<u8>> = std::thread::scope(|s| {
            let workers: Vec<_> = cases
                .iter()
                .enumerate()
                .map(|(i, case)| {
                    let plan = dir.join(format!("served-{round}-{i}.json"));
                    let socket = &socket;
                    s.spawn(move || {
                        let argv = case_args(case, plan.to_str().unwrap());
                        serve::request(socket, &argv).unwrap();
                        std::fs::read(&plan).unwrap()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (i, bytes) in served.iter().enumerate() {
            assert_eq!(
                bytes, &one_shot[i],
                "{round} served plan {i} ({:?}) diverged from one-shot",
                cases[i]
            );
        }
    }
    shut_down(&socket, handle);
}

#[test]
fn warm_registry_skips_the_index_rebuild() {
    let (dir, socket) = scratch("warm");
    let graph = generate(&dir, "g.txt");
    let handle = start_server(&socket, 2);

    let argv = strs(&[
        "protect", &graph, "--budget", "4", "--random", "4", "--stats", "-",
    ]);
    let cold = serve::request(&socket, &argv).unwrap();
    assert!(cold.contains("\"builds\": 1"), "cold reply: {cold}");
    assert!(!cold.contains("\"build_ns\": 0"), "cold reply: {cold}");
    assert!(cold.contains("\"index_misses\": 1"), "cold reply: {cold}");
    assert!(cold.contains("\"graph_misses\": 1"), "cold reply: {cold}");

    let warm = serve::request(&socket, &argv).unwrap();
    assert!(warm.contains("\"builds\": 0"), "warm reply: {warm}");
    assert!(warm.contains("\"build_ns\": 0"), "warm reply: {warm}");
    assert!(warm.contains("\"index_hits\": 1"), "warm reply: {warm}");
    assert!(warm.contains("\"graph_hits\": 1"), "warm reply: {warm}");

    // Identical run summaries either way (the stats JSON legitimately
    // differs: cold carries the build, warm the registry hits).
    let summary = |reply: &str| {
        reply
            .lines()
            .take_while(|l| !l.starts_with('{'))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(summary(&cold), summary(&warm));
    shut_down(&socket, handle);
}

#[test]
fn panicking_request_leaves_server_and_pool_usable() {
    let (dir, socket) = scratch("panic");
    let graph = generate(&dir, "g.txt");
    let handle = start_server(&socket, 2);

    for _ in 0..2 {
        let err = serve::request(&socket, &strs(&["__panic"])).unwrap_err();
        assert!(err.contains("panicked"), "got: {err}");
        // The shared pool still dispatches: a parallel protect succeeds.
        let reply = serve::request(
            &socket,
            &strs(&[
                "protect",
                &graph,
                "--budget",
                "3",
                "--random",
                "3",
                "--threads",
                "2",
            ]),
        )
        .unwrap();
        assert!(reply.contains("similarity"), "got: {reply}");
    }
    shut_down(&socket, handle);
}

#[test]
fn stale_socket_file_is_replaced_and_live_sockets_are_refused() {
    let (_dir, socket) = scratch("stale");
    // Fabricate the unclean-exit case: a bound socket file whose server
    // is gone. Dropping the listener closes the fd but leaves the file.
    drop(std::os::unix::net::UnixListener::bind(&socket).unwrap());
    assert!(
        std::path::Path::new(&socket).exists(),
        "stale socket file must exist before startup"
    );
    // Startup must replace the stale file and come up listening.
    let handle = start_server(&socket, 1);
    assert_eq!(serve::request(&socket, &strs(&["ping"])).unwrap(), "pong\n");
    // A live server, by contrast, must be refused — never stolen.
    let err = serve::serve(&socket, 1).unwrap_err();
    assert!(err.contains("already listening"), "got: {err}");
    shut_down(&socket, handle);
}

#[test]
fn registry_caps_evict_least_recently_used_entries() {
    let (dir, socket) = scratch("evict");
    let g1 = generate(&dir, "g1.txt");
    let g2 = generate(&dir, "g2.txt");
    let handle = start_server_with(
        &socket,
        serve::ServeOptions {
            threads: 1,
            max_graphs: 1,
            max_indexes: 1,
            ..serve::ServeOptions::default()
        },
    );
    let protect = |graph: &str, motif: &str| {
        serve::request(
            &socket,
            &strs(&[
                "protect", graph, "--budget", "3", "--random", "3", "--motif", motif,
            ]),
        )
        .unwrap()
    };
    // Two distinct graphs and two distinct index keys: each registry
    // must hold only the most recent entry and count the evictions.
    protect(&g1, "triangle");
    protect(&g2, "triangle");
    protect(&g2, "rectangle");
    let info = serve::request(&socket, &strs(&["info"])).unwrap();
    assert!(info.contains("graphs: 1 cached (cap 1"), "got: {info}");
    assert!(info.contains("indexes: 1 cached (cap 1"), "got: {info}");
    assert!(info.contains("1 evictions"), "got: {info}");
    assert!(!info.contains("g1.txt"), "g1 must be evicted: {info}");
    // The evicted graph still serves — it just reloads (a miss).
    protect(&g1, "triangle");
    shut_down(&socket, handle);
}

#[test]
fn update_request_patches_warm_indexes_to_match_from_scratch_plans() {
    let (dir, socket) = scratch("update");
    let graph = generate(&dir, "g.txt");
    let g = tpp_graph::parse_edge_list(&std::fs::read_to_string(&graph).unwrap()).unwrap();
    let edges = g.edge_vec();
    let targets = [edges[0], edges[edges.len() / 2]];
    let targets_spec = format!(
        "{}-{},{}-{}",
        targets[0].u(),
        targets[0].v(),
        targets[1].u(),
        targets[1].v()
    );

    // The delta: two removals, two additions, none touching a target.
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
            let e = tpp_graph::Edge::new(u, v);
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
    let mutated_path = dir.join("mutated.txt");
    std::fs::write(&mutated_path, tpp_graph::write_edge_list(&view.to_graph())).unwrap();

    // One-shot from-scratch run on the mutated graph: the ground truth.
    let scratch_plan = dir.join("scratch.json");
    dispatch(&[
        "protect",
        mutated_path.to_str().unwrap(),
        "--budget",
        "4",
        "--targets",
        &targets_spec,
        "--plan",
        scratch_plan.to_str().unwrap(),
    ]);

    let handle = start_server(&socket, 2);
    // Warm the registries on the pre-delta graph...
    serve::request(
        &socket,
        &strs(&[
            "protect",
            &graph,
            "--budget",
            "4",
            "--targets",
            &targets_spec,
        ]),
    )
    .unwrap();
    // ...mutate the resident graph, patching the warm index in place...
    let reply = serve::request(
        &socket,
        &strs(&["update", &graph, "--delta", delta_path.to_str().unwrap()]),
    )
    .unwrap();
    assert!(reply.contains("-2/+2 edge(s)"), "got: {reply}");
    assert!(reply.contains("1 patched in place"), "got: {reply}");
    // ...and the next served plan must match the from-scratch run on the
    // mutated graph, answered from the patched index without a rebuild.
    let served_plan = dir.join("served.json");
    let warm = serve::request(
        &socket,
        &strs(&[
            "protect",
            &graph,
            "--budget",
            "4",
            "--targets",
            &targets_spec,
            "--plan",
            served_plan.to_str().unwrap(),
            "--stats",
            "-",
        ]),
    )
    .unwrap();
    assert!(warm.contains("\"builds\": 0"), "index was rebuilt: {warm}");
    assert!(warm.contains("\"index_hits\": 1"), "got: {warm}");
    assert_eq!(
        std::fs::read_to_string(&scratch_plan).unwrap(),
        std::fs::read_to_string(&served_plan).unwrap(),
        "served post-update plan diverged from the from-scratch run"
    );
    // A delta that removes a target edge drops the index instead.
    let bad_delta = dir.join("bad-delta.txt");
    std::fs::write(
        &bad_delta,
        format!("- {} {}\n", targets[0].u(), targets[0].v()),
    )
    .unwrap();
    let reply = serve::request(
        &socket,
        &strs(&["update", &graph, "--delta", bad_delta.to_str().unwrap()]),
    )
    .unwrap();
    assert!(reply.contains("1 dropped"), "got: {reply}");
    shut_down(&socket, handle);
}

#[test]
fn info_reports_registries_and_absurd_threads_are_rejected() {
    let (dir, socket) = scratch("info");
    let graph = generate(&dir, "g.txt");
    let handle = start_server(&socket, 1);

    let err = serve::request(
        &socket,
        &strs(&["protect", &graph, "--budget", "3", "--threads", "100000000"]),
    )
    .unwrap_err();
    assert!(err.contains("exceeds"), "got: {err}");

    serve::request(
        &socket,
        &strs(&["protect", &graph, "--budget", "3", "--random", "3"]),
    )
    .unwrap();
    let info = serve::request(&socket, &strs(&["info"])).unwrap();
    assert!(info.contains("graphs: 1 cached"), "got: {info}");
    assert!(info.contains("150 nodes"), "got: {info}");
    assert!(info.contains("indexes: 1 cached"), "got: {info}");

    let err = serve::request(&socket, &strs(&["frobnicate"])).unwrap_err();
    assert!(err.contains("unknown serve request"), "got: {err}");
    shut_down(&socket, handle);
}

/// Runs the one-shot `tpp` binary and returns its stdout.
fn one_shot(argv: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tpp"))
        .args(argv)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "tpp {argv:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Splits a `--stats -` reply into its report text and the value of its
/// `utility.base_reused` counter.
fn report_and_reuse(reply: &str) -> (&str, u64) {
    let json = reply.find("\n{\n").expect("a --stats - reply") + 1;
    let (report, stats) = reply.split_at(json);
    let key = "\"base_reused\": ";
    let at = stats.find(key).expect("utility.base_reused") + key.len();
    let digits: String = stats[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    (report, digits.parse().unwrap())
}

#[test]
fn resident_base_stats_follow_updates_and_match_one_shot() {
    let (dir, socket) = scratch("base");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (text, csr) = (path("g.txt"), path("g.csr"));
    dispatch(&[
        "generate", "--model", "ba", "--nodes", "300", "--seed", "4", "--out", &text,
    ]);
    dispatch(&["store", "build", &text, "--out", &csr]);
    let g = tpp_graph::parse_edge_list(&std::fs::read_to_string(&text).unwrap()).unwrap();

    // +D: every missing pair among a hub and its first neighbours (added
    // edges closing triangles among themselves), plus pairs far apart.
    let mut view = tpp_store::DeltaView::new(&g);
    let group: Vec<u32> = std::iter::once(0)
        .chain(g.neighbors(0).iter().copied().take(4))
        .collect();
    for (i, &a) in group.iter().enumerate() {
        for &b in &group[i + 1..] {
            view.add_edge(tpp_graph::Edge::new(a, b));
        }
    }
    for u in [150u32, 200, 250] {
        if !g.has_edge(u, u + 30) {
            view.add_edge(tpp_graph::Edge::new(u, u + 30));
        }
    }
    let added = view.added_edges();
    assert!(added.len() >= 5, "{added:?}");
    let (grow, shrink, mutated) = (path("d.add"), path("d.del"), path("mutated.txt"));
    let lines = |sign: char| -> String {
        added
            .iter()
            .map(|e| format!("{sign} {} {}\n", e.u(), e.v()))
            .collect()
    };
    std::fs::write(&grow, lines('+')).unwrap();
    std::fs::write(&shrink, lines('-')).unwrap();
    std::fs::write(&mutated, tpp_graph::write_edge_list(&view.to_graph())).unwrap();

    let plan = path("plan.json");
    let protect = |graph: &str| {
        vec![
            "protect".to_string(),
            graph.to_string(),
            "--budget".into(),
            "4".into(),
            "--random".into(),
            "6".into(),
            "--seed".into(),
            "3".into(),
            "--plan".into(),
            plan.clone(),
        ]
    };
    let expected = |graph: &str| {
        let argv = protect(graph);
        let report = one_shot(&argv.iter().map(String::as_str).collect::<Vec<_>>());
        (report, std::fs::read(&plan).unwrap())
    };
    let (base_report, base_plan) = expected(&text);
    let (grown_report, grown_plan) = expected(&mutated);
    assert_ne!(base_plan, grown_plan, "the delta must change the plan");

    let handle = start_server(&socket, 2);
    let served = |want: &(String, Vec<u8>), reused: u64| {
        let mut argv = protect(&csr);
        argv.extend(strs(&["--stats", "-"]));
        let reply = serve::request(&socket, &argv).unwrap();
        let (report, base_reused) = report_and_reuse(&reply);
        assert_eq!(report, want.0, "served report diverged from one-shot");
        assert_eq!(
            std::fs::read(&plan).unwrap(),
            want.1,
            "served plan diverged"
        );
        assert_eq!(base_reused, reused, "utility.base_reused in {reply}");
    };
    let update = |delta: &str| {
        let argv = strs(&["update", &csr, "--delta", delta, "--stats", "-"]);
        serve::request(&socket, &argv).unwrap()
    };
    let base = (base_report, base_plan);
    let grown = (grown_report, grown_plan);
    served(&base, 0);
    served(&base, 1);
    let reply = update(&grow);
    assert!(reply.contains("\"core_repeels\": 1"), "got: {reply}");
    served(&grown, 1);
    let reply = update(&shrink);
    assert!(reply.contains("\"core_repeels\": 0"), "got: {reply}");
    assert!(!reply.contains("\"base_patch_ns\": 0"), "got: {reply}");
    served(&base, 1);
    let info = serve::request(&socket, &strs(&["info"])).unwrap();
    assert!(
        info.contains("(snapshot) (base stats resident)"),
        "got: {info}"
    );

    // An update racing a protect: the protect sees the graph before or
    // after the delta, each with its own statistics, never a mix (which
    // would change the report, and trips the staleness check in debug
    // builds).
    for round in 0..4 {
        let delta = if round % 2 == 0 { &grow } else { &shrink };
        let replies = std::thread::scope(|s| {
            let racer = s.spawn(|| update(delta));
            let mut replies = Vec::new();
            loop {
                let race_plan = path(&format!("race-{round}-{}.json", replies.len()));
                let mut argv = protect(&csr);
                *argv.last_mut().unwrap() = race_plan.clone();
                let reply = serve::request(&socket, &argv).unwrap();
                replies.push((race_plan, reply));
                if racer.is_finished() {
                    break;
                }
            }
            racer.join().unwrap();
            replies
        });
        for (race_plan, reply) in replies {
            let report = reply.replace(&race_plan, &plan);
            let plan_bytes = std::fs::read(&race_plan).unwrap();
            assert!(
                (report == base.0 && plan_bytes == base.1)
                    || (report == grown.0 && plan_bytes == grown.1),
                "round {round}: a protect racing an update matched neither graph: {reply}"
            );
        }
    }
    served(&base, 1);
    shut_down(&socket, handle);
}

/// The first protector of a `--plan` file: the first two numbers after its
/// `"protectors"` key.
fn first_protector(plan: &str) -> (u32, u32) {
    let text = std::fs::read_to_string(plan).unwrap();
    let at = text.find("\"protectors\"").expect("a protector list");
    let mut numbers = text[at..]
        .split(|c: char| !c.is_ascii_digit())
        .filter(|t| !t.is_empty())
        .map(|t| t.parse::<u32>().unwrap());
    (numbers.next().unwrap(), numbers.next().unwrap())
}

#[test]
fn reloaded_graph_never_reuses_the_index_patched_for_its_evicted_copy() {
    let (dir, socket) = scratch("reload");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (a, b) = (path("a.txt"), path("b.txt"));
    dispatch(&["generate", "--model", "hk", "--nodes", "300", "--out", &a]);
    dispatch(&[
        "generate", "--model", "hk", "--nodes", "300", "--seed", "2", "--out", &b,
    ]);
    fn protect<'a>(graph: &'a str, plan: &'a str) -> [&'a str; 12] {
        [
            "protect", graph, "--budget", "4", "--random", "5", "--seed", "3", "--motif",
            "triangle", "--plan", plan,
        ]
    }
    let (one_shot_plan, served_plan, scratch_plan) = (
        path("one-shot.json"),
        path("served.json"),
        path("scratch.json"),
    );
    let expected = one_shot(&protect(&a, &one_shot_plan));
    // The one-shot run's first protector is an instance edge of the
    // targets' index and not a target, so the update patches it in place.
    let (u, v) = first_protector(&one_shot_plan);
    let delta = path("delta.txt");
    std::fs::write(&delta, format!("- {u} {v}\n")).unwrap();

    let handle = start_server_with(
        &socket,
        serve::ServeOptions {
            threads: 1,
            max_graphs: 1,
            ..serve::ServeOptions::default()
        },
    );
    let served = |graph: &str, plan: &str| {
        let argv = protect(graph, plan);
        serve::request(&socket, &strs(&argv)).unwrap()
    };
    assert_eq!(
        served(&a, &served_plan),
        expected.replace(&one_shot_plan, &served_plan)
    );
    let reply = serve::request(&socket, &strs(&["update", &a, "--delta", &delta])).unwrap();
    assert!(reply.contains("1 patched in place"), "got: {reply}");
    // Evicts `a`'s mutated graph; the next request on `a` reloads the file.
    served(&b, &scratch_plan);
    let reply = served(&a, &served_plan);
    assert_eq!(
        reply,
        expected.replace(&one_shot_plan, &served_plan),
        "a reloaded graph was served an index of its evicted copy"
    );
    assert_eq!(
        std::fs::read(&served_plan).unwrap(),
        std::fs::read(&one_shot_plan).unwrap()
    );
    shut_down(&socket, handle);
}

#[test]
fn huge_batch_request_gets_a_plan_and_leaves_the_server_up() {
    // A `--batch` (and budget) far past the candidate supply must neither
    // reserve memory for it nor overflow: every algorithm replies with
    // the plan a batch of 200 gives, and the server keeps answering.
    let (dir, socket) = scratch("hugebatch");
    let graph = generate(&dir, "hk.txt");
    let handle = start_server(&socket, 1);
    let huge = "1000000000000";
    for algorithm in ["sgb", "celf", "ct", "wt"] {
        let protect = |batch: &str, plan: &str| {
            serve::request(
                &socket,
                &strs(&[
                    "protect",
                    &graph,
                    "--algorithm",
                    algorithm,
                    "--budget",
                    huge,
                    "--batch",
                    batch,
                    "--random",
                    "8",
                    "--seed",
                    "5",
                    "--plan",
                    plan,
                ]),
            )
            .unwrap()
        };
        let huge_plan = dir.join(format!("{algorithm}-huge.json"));
        let capped_plan = dir.join(format!("{algorithm}-200.json"));
        let (huge_path, capped_path) = (huge_plan.to_str().unwrap(), capped_plan.to_str().unwrap());
        let reply = protect(huge, huge_path);
        assert!(reply.contains("similarity"), "{algorithm}: {reply}");
        assert_eq!(
            reply.replace(huge_path, capped_path),
            protect("200", capped_path),
            "{algorithm}"
        );
        assert_eq!(
            std::fs::read(&huge_plan).unwrap(),
            std::fs::read(&capped_plan).unwrap(),
            "{algorithm}"
        );
        assert_eq!(serve::request(&socket, &strs(&["ping"])).unwrap(), "pong\n");
    }
    shut_down(&socket, handle);
}
