//! The request context of the `tpp` binary, one-shot and served: every
//! command takes only its own flags, every argv the end-to-end benchmark
//! sends still runs, and every `--stats` request prints the one JSON
//! schema.
#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use tpp_cli::serve;

const TPP: &str = env!("CARGO_BIN_EXE_tpp");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpp-ctx-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(dir: &Path, name: &str) -> String {
    dir.join(name).to_str().unwrap().to_string()
}

fn tpp(argv: &[&str]) -> Output {
    Command::new(TPP).args(argv).output().unwrap()
}

/// Stdout of a one-shot run that must succeed.
fn ok(argv: &[&str]) -> String {
    let out = tpp(argv);
    assert!(
        out.status.success(),
        "tpp {argv:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Stderr of a one-shot run that must fail with exit status 1.
fn fails(argv: &[&str]) -> String {
    let out = tpp(argv);
    assert_eq!(out.status.code(), Some(1), "tpp {argv:?} must fail");
    String::from_utf8(out.stderr).unwrap()
}

fn ask(socket: &str, argv: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = argv.iter().map(|a| (*a).to_string()).collect();
    serve::request(socket, &argv)
}

/// A `tpp serve` child process, started with the flags given and killed
/// if a test fails before it shuts the server down.
struct Daemon {
    child: Child,
    socket: String,
}

impl Daemon {
    fn start(dir: &Path, flags: &[&str]) -> Daemon {
        let socket = path(dir, "tpp.sock");
        let child = Command::new(TPP)
            .args(["serve", "--socket", &socket])
            .args(flags)
            .stdout(Stdio::null())
            .spawn()
            .unwrap();
        let daemon = Daemon { child, socket };
        for _ in 0..400 {
            if ask(&daemon.socket, &["ping"]).is_ok() {
                return daemon;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        panic!("tpp serve never answered ping");
    }

    fn ask(&self, argv: &[&str]) -> Result<String, String> {
        ask(&self.socket, argv)
    }

    fn shut_down(mut self) {
        assert!(self.ask(&["shutdown"]).unwrap().contains("stopping"));
        assert!(self.child.wait().unwrap().success());
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[test]
fn unknown_flags_are_named_errors_one_shot_and_served() {
    let dir = scratch("flags");
    let graph = path(&dir, "g.txt");
    ok(&[
        "generate", "--model", "hk", "--nodes", "150", "--out", &graph,
    ]);

    // A typo no longer runs at a default: `--verfy none` was `--verify full`.
    let err = fails(&["protect", &graph, "--budget", "3", "--verfy", "none"]);
    assert!(err.contains("unknown flag --verfy for protect"), "{err}");
    let csr = path(&dir, "g.csr");
    let err = fails(&["store", "build", &graph, "--out", &csr, "--bogus-flag", "3"]);
    assert!(
        err.contains("unknown flag --bogus-flag for store build"),
        "{err}"
    );
    assert!(!Path::new(&csr).exists(), "a rejected build writes nothing");
    let err = fails(&["attack", &graph, "--random", "3", "--budget", "2"]);
    assert!(err.contains("unknown flag --budget for attack"), "{err}");
    let err = fails(&["serve", "--socket", &path(&dir, "x.sock"), "--thread", "2"]);
    assert!(err.contains("unknown flag --thread for serve"), "{err}");

    let daemon = Daemon::start(&dir, &[]);
    let err = daemon
        .ask(&["protect", &graph, "--budget", "3", "--verfy", "none"])
        .unwrap_err();
    assert_eq!(err, "unknown flag --verfy for protect");
    let err = daemon
        .ask(&["update", &graph, "--budget", "3"])
        .unwrap_err();
    assert_eq!(err, "unknown flag --budget for update");
    let err = daemon.ask(&["ping", "--verbose", "1"]).unwrap_err();
    assert_eq!(err, "unknown flag --verbose for ping");
    // The server is still up and answers a well-formed request.
    assert_eq!(daemon.ask(&["ping"]).unwrap(), "pong\n");
    daemon.shut_down();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_benchmark_argv_still_runs() {
    // The argv shapes `perfbench` sends (set-up, one-shot and served), on
    // small graphs.
    let dir = scratch("bench");
    let (text, csr) = (path(&dir, "ba.txt"), path(&dir, "ba.csr"));
    let arenas = path(&dir, "arenas.txt");
    ok(&[
        "generate", "--model", "ba", "--nodes", "400", "--seed", "1", "--out", &text,
    ]);
    ok(&[
        "generate", "--model", "arenas", "--seed", "1", "--out", &arenas,
    ]);
    // `store build` still takes (and ignores) `--threads`.
    ok(&["store", "build", &text, "--out", &csr, "--threads", "2"]);
    let oneshot = [
        "protect",
        &csr,
        "--random",
        "20",
        "--seed",
        "2",
        "--budget",
        "5",
        "--verify",
        "header",
        "--threads",
        "1",
    ];
    ok(&oneshot);
    let kpath = [
        "protect", &arenas, "--motif", "kpath4", "--random", "40", "--seed", "7", "--budget", "10",
    ];
    let attack = [
        "attack",
        &csr,
        "--attacker",
        "cn",
        "--random",
        "20",
        "--negatives",
        "50",
        "--seed",
        "3",
    ];
    let rectangle = [
        "protect",
        &csr,
        "--motif",
        "rectangle",
        "--random",
        "30",
        "--seed",
        "3",
        "--budget",
        "5",
    ];
    let expected: Vec<String> = [&kpath[..], &attack, &rectangle]
        .iter()
        .map(|argv| ok(argv))
        .collect();

    let daemon = Daemon::start(&dir, &["--threads", "2", "--max-indexes", "4"]);
    for (argv, want) in [&kpath[..], &attack, &rectangle].iter().zip(&expected) {
        assert_eq!(&daemon.ask(argv).unwrap(), want, "served {argv:?}");
    }
    let delta = path(&dir, "d.add");
    std::fs::write(&delta, "+ 0 399\n").unwrap();
    let reply = daemon.ask(&["update", &csr, "--delta", &delta]).unwrap();
    assert!(reply.starts_with("updated "), "{reply}");
    assert!(daemon.ask(&["info"]).unwrap().contains("tpp serve on"));
    daemon.shut_down();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The served engine under the benchmark's concurrency: a daemon with
/// `--threads 2 --max-indexes 4`, two clients sending kpath4 protects on
/// an arenas snapshot at once, two hot target lists (seeds 1 and 2, hits
/// after their first request) and three cold ones (seeds 3 to 5, which the
/// four-entry registry keeps evicting). Every reply equals the one-shot
/// output.
#[test]
fn concurrent_hot_and_cold_kpath4_protects_equal_one_shot() {
    let dir = scratch("engine");
    let (text, csr) = (path(&dir, "arenas.txt"), path(&dir, "arenas.csr"));
    ok(&[
        "generate", "--model", "arenas", "--seed", "1", "--out", &text,
    ]);
    ok(&["store", "build", &text, "--out", &csr]);
    let argv = |seed: &'static str| -> Vec<String> {
        let argv = [
            "protect", &csr, "--motif", "kpath4", "--random", "100", "--seed", seed, "--budget",
            "40",
        ];
        argv.iter().map(|a| (*a).to_string()).collect()
    };
    let seeds = ["1", "2", "3", "4", "5"];
    let expected: Vec<String> = seeds
        .iter()
        .map(|&s| ok(&argv(s).iter().map(String::as_str).collect::<Vec<_>>()))
        .collect();

    let daemon = Daemon::start(&dir, &["--threads", "2", "--max-indexes", "4"]);
    let orders: [[usize; 8]; 2] = [[0, 2, 1, 3, 0, 4, 1, 0], [1, 4, 0, 3, 1, 2, 0, 1]];
    std::thread::scope(|scope| {
        for order in &orders {
            let (socket, expected, argv) = (&daemon.socket, &expected, &argv);
            scope.spawn(move || {
                for &i in order {
                    let reply = ask(
                        socket,
                        &argv(seeds[i])
                            .iter()
                            .map(String::as_str)
                            .collect::<Vec<_>>(),
                    );
                    assert_eq!(
                        reply.as_ref(),
                        Ok(&expected[i]),
                        "served --seed {}",
                        seeds[i]
                    );
                }
            });
        }
    });
    let info = daemon.ask(&["info"]).unwrap();
    assert!(info.contains("indexes: 4 cached"), "{info}");
    daemon.shut_down();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flag given twice is a named error, one-shot and served, instead of
/// the last value silently winning.
#[test]
fn repeated_flags_are_named_errors_one_shot_and_served() {
    let dir = scratch("repeat");
    let graph = path(&dir, "g.txt");
    ok(&[
        "generate", "--model", "hk", "--nodes", "150", "--out", &graph,
    ]);
    let argv = [
        "protect", &graph, "--budget", "20", "--random", "5", "--budget", "1",
    ];
    let out = tpp(&argv);
    assert!(!out.status.success(), "tpp {argv:?} must fail");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("flag --budget given more than once"), "{err}");
    let daemon = Daemon::start(&dir, &[]);
    let err = daemon.ask(&argv).unwrap_err();
    assert!(err.contains("flag --budget given more than once"), "{err}");
    daemon.shut_down();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--stats` JSON document with every number replaced by `N`: its
/// sections and keys, in order.
fn shape(json: &str) -> String {
    let mut out = String::new();
    for c in json.chars() {
        match (c.is_ascii_digit(), out.ends_with('N')) {
            (true, true) => {}
            (true, false) => out.push('N'),
            (false, _) => out.push(c),
        }
    }
    out
}

/// The highest node the edge list at `path` does not join to node 0.
fn non_neighbor_of_0(path: &str) -> u32 {
    let text = std::fs::read_to_string(path).unwrap();
    let edges: Vec<(u32, u32)> = text
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace().map(|x| x.parse().ok());
            Some((it.next()??, it.next()??))
        })
        .collect();
    let max = edges.iter().map(|&(u, v)| u.max(v)).max().unwrap();
    (1..=max)
        .rev()
        .find(|&v| !edges.contains(&(0, v)) && !edges.contains(&(v, 0)))
        .unwrap()
}

/// The `--stats -` JSON a report ends with.
fn stats_json(report: &str) -> &str {
    &report[report.find("\n{\n").expect("a --stats - report") + 1..]
}

#[test]
fn every_stats_request_prints_the_one_schema() {
    let dir = scratch("schema");
    let (text, csr) = (path(&dir, "g.txt"), path(&dir, "g.csr"));
    ok(&[
        "generate", "--model", "hk", "--nodes", "200", "--out", &text,
    ]);
    let full = format!(
        "{}\n",
        tpp_obs::Recorder::enabled().to_json_pretty().unwrap()
    );
    let schema = shape(&full);
    let build = ok(&["store", "build", &text, "--out", &csr, "--stats", "-"]);
    let protect = [
        "protect", &csr, "--budget", "4", "--random", "5", "--stats", "-",
    ];
    let attack = [
        "attack",
        &csr,
        "--random",
        "5",
        "--negatives",
        "100",
        "--stats",
        "-",
    ];
    let mut replies = vec![
        ("store build", build),
        ("protect", ok(&protect)),
        ("attack", ok(&attack)),
    ];

    let daemon = Daemon::start(&dir, &["--threads", "2"]);
    replies.push(("served protect", daemon.ask(&protect).unwrap()));
    replies.push(("served attack", daemon.ask(&attack).unwrap()));
    let delta = path(&dir, "d.txt");
    std::fs::write(&delta, format!("+ {} {}\n", 0, non_neighbor_of_0(&text))).unwrap();
    let update = daemon
        .ask(&["update", &csr, "--delta", &delta, "--stats", "-"])
        .unwrap();
    daemon.shut_down();
    // The insertion enumerates through the warm index, and the served
    // update counts its kernel selections like any other request.
    let kernels = stats_json(&update)
        .split("\"kernels\": {")
        .nth(1)
        .unwrap()
        .split('}')
        .next()
        .unwrap()
        .to_string();
    assert!(
        kernels.chars().any(|c| c.is_ascii_digit() && c != '0'),
        "served update tallied no kernel selection: {kernels}"
    );
    replies.push(("served update", update));
    for (name, reply) in &replies {
        assert_eq!(shape(stats_json(reply)), schema, "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
