//! Child processes of the benchmark: one-shot `tpp` runs (wall time and
//! peak RSS from `wait4`) and the resident `tpp serve` daemon, which is
//! always shut down — or killed and reaped — before the benchmark exits.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tpp_cli::serve::request;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which `ru_maxrss` (KiB) comes first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What a finished one-shot run left behind.
pub struct Finished {
    pub stdout: String,
    /// Spawn to exit.
    pub wall_ms: f64,
    /// The child's peak resident set.
    pub maxrss_kib: u64,
}

/// Runs `tpp args...` to completion. A non-zero exit is an `Err` carrying
/// the command and its status (its stderr passes through).
pub fn run(tpp: &str, args: &[String]) -> Result<Finished, String> {
    use std::io::Read;
    let t0 = Instant::now();
    let mut child = Command::new(tpp)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning {tpp}: {e}"))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let pid = i32::try_from(child.id()).expect("pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `pid` is our own unreaped child (std never waits on it: the
    // `Child` is dropped without `wait`), and both out-pointers refer to
    // live, properly sized locals for the duration of the call.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if reaped != pid {
        return Err(format!(
            "waiting for {tpp}: {}",
            std::io::Error::last_os_error()
        ));
    }
    read.map_err(|e| format!("reading {tpp} output: {e}"))?;
    // WIFEXITED && WEXITSTATUS == 0.
    if status & 0x7f != 0 || (status >> 8) & 0xff != 0 {
        return Err(format!(
            "`tpp {}` failed (wait status {status:#x})",
            args.join(" ")
        ));
    }
    Ok(Finished {
        stdout,
        wall_ms,
        maxrss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
    })
}

/// A running `tpp serve`. Dropping it kills and reaps the process, so an
/// early error never leaves a daemon behind.
pub struct Daemon {
    child: Option<Child>,
    pub socket: String,
}

impl Daemon {
    /// Starts the daemon and returns once it answers `ping`.
    pub fn start(tpp: &str, socket: &str, extra: &[&str]) -> Result<Self, String> {
        let child = Command::new(tpp)
            .args(["serve", "--socket", socket])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {tpp} serve: {e}"))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket: socket.to_string(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while daemon.ask(&["ping"]).is_err() {
            let child = daemon.child.as_mut().expect("running");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("tpp serve exited at start-up ({status})"));
            }
            if Instant::now() > deadline {
                return Err("tpp serve did not answer ping within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(daemon)
    }

    /// One request over the socket.
    pub fn ask(&self, argv: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = argv.iter().map(|s| (*s).to_string()).collect();
        request(&self.socket, &argv)
    }

    /// The daemon's peak resident set so far (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let pid = self.child.as_ref().expect("running").id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM line in /proc status".to_string())
    }

    /// Asks the daemon to stop and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = self.ask(&["shutdown"]);
        let mut child = self.child.take().expect("running");
        if reply.is_err() {
            let _ = child.kill();
        }
        let status = child
            .wait()
            .map_err(|e| format!("waiting for tpp serve: {e}"))?;
        reply.map(|_| ())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("tpp serve exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
