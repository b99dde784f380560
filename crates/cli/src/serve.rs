//! `tpp serve` — the resident protection service.
//!
//! A one-shot `tpp protect` spends most of a small request's wall time on
//! process startup: re-reading the graph and rebuilding the coverage
//! index. `serve` keeps one process alive on a unix socket and answers
//! `protect` / `attack` / `info` requests against warm registries:
//!
//! * **graph registry** — keyed by canonicalized input path, holding the
//!   shared CSR snapshot (a mapped file stays mapped) and, once loaded
//!   from the snapshot's base-statistics section or computed by a
//!   protect, its [`BaseStats`] (the original's triangle counts and core
//!   numbers for the utility report); a hit is an `Arc` clone instead of a
//!   re-read and a recount;
//! * **index registry** — keyed by `(path, motif, target list)`; each
//!   entry also records the resident graph it covers, and a hit needs both
//!   the key and that graph to match the request's. A hit clones the
//!   cached [`PartitionedCoverageIndex`] into the run as an index seed,
//!   skipping the build entirely (the targets are part of the key because
//!   the index is built over the released graph they define);
//! * **shared pool** — one `tpp-exec` worker set serves every request;
//!   per-request recorders attach to it, so `--stats` replies stay
//!   per-request while the threads are shared.
//!
//! Requests reuse the one-shot pipeline (`commands::run_protect` /
//! `run_attack`), so a served reply is byte-identical to the one-shot CLI
//! output for the same arguments — warm or cold. A panicking request is
//! caught at the connection boundary and becomes an error reply; the
//! recovered pool locks (`tpp-exec`) keep the shared pool usable
//! afterwards.
//!
//! Registries are bounded: `--max-graphs` / `--max-indexes` cap each
//! registry (the least-recently-used entries are evicted past the cap)
//! and `--ttl-secs` expires entries idle longer than the window; both
//! default off. An `update <graph> --delta FILE` request replaces a
//! resident graph with the delta applied (an overlay of the old snapshot,
//! copied once into the next one) and patches every warm coverage index
//! over it incrementally — removals through the kill-flag delete path,
//! insertions by localized through-enumeration — as well as its resident
//! base statistics (an insertion re-peels the cores), after which the
//! registries serve the mutated graph regardless of what is on disk.
//!
//! ## Protocol
//!
//! Both directions are length-prefixed frames: a little-endian `u32` byte
//! count, then the payload (capped at 1 MiB). A request payload is the
//! command's argv joined with NUL bytes — exactly the tokens the one-shot
//! CLI would take. A reply payload is one status byte (`+` success, `-`
//! error) followed by UTF-8 text; a reply too big for one frame is sent
//! as an error naming its size. One request per connection. Every read
//! and write on a connection times out after 30 s, so a client that
//! connects and sends nothing, stops mid-frame, or never reads its reply
//! costs one error on its own connection, never a pinned handler thread.

use crate::args::{self, Parsed};
use crate::commands::{self, BaseSlot, RunSeeds, RunStats};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};
use std::time::{Duration, Instant};
use tpp_core::{TppInstance, DEFAULT_INDEX_PARTITIONS};
use tpp_exec::Parallelism;
use tpp_graph::Edge;
use tpp_metrics::BaseStats;
use tpp_motif::PartitionedCoverageIndex;
use tpp_obs::{Recorder, ServeStats};
use tpp_store::{CsrGraph, DeltaView};

/// Frame payload cap: far above any real request or reply, low enough
/// that a corrupt length prefix cannot trigger a giant allocation.
const MAX_FRAME_BYTES: usize = 1 << 20;

/// How long one read or write on a served connection may stall before
/// the connection is given up.
const CONNECTION_TIMEOUT: Duration = Duration::from_secs(30);

fn write_frame(stream: &mut UnixStream, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(std::io::Error::other(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
            payload.len()
        )));
    }
    stream.write_all(&(payload.len() as u32).to_le_bytes())?;
    stream.write_all(payload)?;
    stream.flush()
}

fn read_frame(stream: &mut UnixStream) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::other(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf)?;
    Ok(buf)
}

/// A reply frame's payload: the status byte, then the text. A reply too
/// big for one frame becomes an error reply that names its size and the
/// cap, so the client sees why instead of a bare end of stream.
fn reply_payload(status: u8, text: &str) -> Vec<u8> {
    if text.len() + 1 > MAX_FRAME_BYTES {
        let error = format!(
            "reply of {} bytes exceeds the 1 MiB ({MAX_FRAME_BYTES}-byte) frame cap",
            text.len() + 1
        );
        return reply_payload(b'-', &error);
    }
    let mut reply = Vec::with_capacity(text.len() + 1);
    reply.push(status);
    reply.extend_from_slice(text.as_bytes());
    reply
}

/// Sends one request to the server at `socket` and returns the reply
/// text; `argv` is exactly what the one-shot CLI would take (e.g.
/// `["protect", "g.txt", "--budget", "5"]`). `Err` carries an error reply
/// or a transport failure.
pub fn request(socket: &str, argv: &[String]) -> Result<String, String> {
    let mut stream =
        UnixStream::connect(socket).map_err(|e| format!("connecting to {socket}: {e}"))?;
    write_frame(&mut stream, argv.join("\0").as_bytes())
        .map_err(|e| format!("sending request: {e}"))?;
    let reply = read_frame(&mut stream).map_err(|e| format!("reading reply: {e}"))?;
    let (status, text) = reply.split_first().ok_or("empty reply frame")?;
    let text = String::from_utf8_lossy(text).into_owned();
    match status {
        b'+' => Ok(text),
        b'-' => Err(text),
        other => Err(format!("malformed reply status byte {other:#04x}")),
    }
}

/// `tpp client <socket> <command> [args...]`: one request, reply text
/// returned for stdout. Raw argv (not flag-parsed) so the request reaches
/// the server token-for-token.
pub fn client_main(raw: &[String]) -> Result<String, String> {
    const USAGE: &str =
        "usage: tpp client <socket> <protect|attack|update|info|ping|shutdown> [args...]";
    let (socket, argv) = raw.split_first().ok_or(USAGE)?;
    if argv.is_empty() {
        return Err(USAGE.into());
    }
    request(socket, argv)
}

/// `tpp serve --socket FILE.sock [--threads T] [--max-graphs N]
/// [--max-indexes N] [--ttl-secs S]`.
pub(crate) fn serve_command(p: &Parsed) -> Result<(), String> {
    let socket = p.require("socket")?.to_string();
    let options = ServeOptions {
        threads: p.num_or("threads", 0usize)?,
        max_graphs: p.num_or("max-graphs", 0usize)?,
        max_indexes: p.num_or("max-indexes", 0usize)?,
        ttl_secs: p.num_or("ttl-secs", 0u64)?,
    };
    serve_with_options(&socket, &options)
}

/// Sizing and eviction knobs for [`serve_with_options`]; the `Default`
/// (everything 0) means an unbounded pool-sized server, exactly what
/// [`serve`] runs.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Shared worker pool width (`0` = all cores).
    pub threads: usize,
    /// Graph registry LRU cap (`0` = unlimited).
    pub max_graphs: usize,
    /// Index registry LRU cap (`0` = unlimited).
    pub max_indexes: usize,
    /// Idle TTL in seconds for both registries (`0` = never expire).
    pub ttl_secs: u64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Registry key for graphs: the canonical path when resolvable, so
/// `./g.txt` and `g.txt` share an entry.
fn graph_key(path: &str) -> String {
    std::fs::canonicalize(path)
        .map_or_else(|_| path.to_string(), |p| p.to_string_lossy().into_owned())
}

struct GraphEntry {
    graph: Arc<CsrGraph>,
    /// The graph's base statistics: filled at load from a snapshot's
    /// base-statistics section, or else empty until the first protect on
    /// it computes them; replaced with the graph by every `update`, so a
    /// filled slot always describes the graph it sits beside.
    base: BaseSlot,
    snapshot: bool,
    /// Last request that touched this entry (the LRU/TTL clock).
    last_used: Instant,
}

type IndexKey = (String, String, Vec<(u32, u32)>);

struct IndexEntry {
    index: Arc<PartitionedCoverageIndex>,
    /// The resident graph the index covers. A path's graph changes on
    /// `update` and on a reload after eviction, so the key alone does not
    /// name it. The `Weak` frees the graph with the registry but keeps its
    /// allocation, so no later graph can take its address.
    graph: Weak<CsrGraph>,
    /// When the last request that touched this entry looked it up (the
    /// LRU/TTL clock). A miss is stamped with its lookup, not the end of
    /// its build, so entries rank in request order: a slow build that
    /// finishes late cannot outrank the entries other requests hit while
    /// it ran.
    last_used: Instant,
}

impl IndexEntry {
    /// Whether this index was built (or last patched) for `g` itself.
    fn covers(&self, g: &Arc<CsrGraph>) -> bool {
        std::ptr::eq(self.graph.as_ptr(), Arc::as_ptr(g))
    }
}

struct Server {
    socket: String,
    pool: Parallelism,
    /// Server-lifetime recorder: the `serve` counters accumulate across
    /// requests here (surfaced by `info`), while each request's own
    /// recorder sees only its own hits.
    lifetime: Recorder,
    graphs: Mutex<HashMap<String, GraphEntry>>,
    indexes: Mutex<HashMap<IndexKey, IndexEntry>>,
    /// Registry caps and idle TTL (0s = off).
    options: ServeOptions,
    shutdown: AtomicBool,
}

/// Applies the idle TTL and then the LRU cap to one registry; returns how
/// many entries were dropped. LRU order ties break on the key, so
/// eviction is deterministic even under equal timestamps.
fn evict_registry<K: Clone + Ord + std::hash::Hash, V>(
    map: &mut HashMap<K, V>,
    last_used: impl Fn(&V) -> Instant,
    cap: usize,
    ttl: Option<Duration>,
    now: Instant,
) -> u64 {
    let mut evicted = 0u64;
    if let Some(ttl) = ttl {
        let stale: Vec<K> = map
            .iter()
            .filter(|(_, v)| now.duration_since(last_used(v)) >= ttl)
            .map(|(k, _)| k.clone())
            .collect();
        for k in &stale {
            map.remove(k);
        }
        evicted += stale.len() as u64;
    }
    if cap > 0 && map.len() > cap {
        let mut order: Vec<(Instant, K)> =
            map.iter().map(|(k, v)| (last_used(v), k.clone())).collect();
        order.sort();
        for (_, k) in order.into_iter().take(map.len() - cap) {
            map.remove(&k);
            evicted += 1;
        }
    }
    evicted
}

/// Runs the server until a `shutdown` request; removes the socket file on
/// the way out. `threads` sizes the shared pool (`0` = all cores);
/// registries are unbounded — see [`serve_with_options`].
pub fn serve(socket: &str, threads: usize) -> Result<(), String> {
    serve_with_options(
        socket,
        &ServeOptions {
            threads,
            ..ServeOptions::default()
        },
    )
}

/// Runs the server until a `shutdown` request with explicit registry
/// bounds; removes the socket file on the way out.
pub fn serve_with_options(socket: &str, options: &ServeOptions) -> Result<(), String> {
    if std::path::Path::new(socket).exists() {
        // A connectable socket means a live server; a dead one is a stale
        // file from an unclean exit and is safe to replace.
        if UnixStream::connect(socket).is_ok() {
            return Err(format!("{socket}: a server is already listening"));
        }
        std::fs::remove_file(socket).map_err(|e| format!("removing stale socket {socket}: {e}"))?;
    }
    let listener = UnixListener::bind(socket).map_err(|e| format!("binding {socket}: {e}"))?;
    let server = Arc::new(Server {
        socket: socket.to_string(),
        pool: Parallelism::new(options.threads),
        lifetime: Recorder::enabled(),
        graphs: Mutex::new(HashMap::new()),
        indexes: Mutex::new(HashMap::new()),
        options: options.clone(),
        shutdown: AtomicBool::new(false),
    });
    println!(
        "serving on {socket} ({} worker thread(s))",
        server.pool.threads()
    );
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if server.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                let s = Arc::clone(&server);
                handlers.push(std::thread::spawn(move || {
                    s.handle_connection(stream, CONNECTION_TIMEOUT);
                }));
            }
            Err(e) => eprintln!("warning: accept failed: {e}"),
        }
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
    std::fs::remove_file(socket).map_err(|e| format!("removing socket {socket}: {e}"))?;
    Ok(())
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    payload.downcast_ref::<&str>().copied().unwrap_or_else(|| {
        payload
            .downcast_ref::<String>()
            .map_or("opaque panic payload", String::as_str)
    })
}

impl Server {
    /// One request per connection: read a frame, answer it, reply. The
    /// catch-unwind here is the request boundary — a panicking request
    /// becomes an error reply on this connection, never a dead server.
    /// Each read and write on `stream` gives up after `timeout`, so a
    /// silent or stalled peer ends this connection with an error and
    /// frees the thread.
    fn handle_connection(&self, mut stream: UnixStream, timeout: Duration) {
        if let Err(e) = stream
            .set_read_timeout(Some(timeout))
            .and_then(|()| stream.set_write_timeout(Some(timeout)))
        {
            eprintln!("warning: setting connection timeouts failed: {e}");
            return;
        }
        let (status, text) = match read_frame(&mut stream) {
            // A socket timeout reads as `WouldBlock` on unix.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => (
                b'-',
                format!("reading request: no complete frame within {timeout:?}"),
            ),
            Err(e) => (b'-', format!("reading request: {e}")),
            Ok(payload) => match String::from_utf8(payload) {
                Err(e) => (b'-', format!("request is not UTF-8: {e}")),
                Ok(joined) => {
                    let argv: Vec<String> = joined.split('\0').map(str::to_string).collect();
                    match catch_unwind(AssertUnwindSafe(|| self.handle_request(&argv))) {
                        Ok(Ok(text)) => (b'+', text),
                        Ok(Err(msg)) => (b'-', msg),
                        Err(panic) => (b'-', format!("request panicked: {}", panic_text(&*panic))),
                    }
                }
            },
        };
        if let Err(e) = write_frame(&mut stream, &reply_payload(status, &text)) {
            eprintln!("warning: sending reply failed: {e}");
        }
    }

    /// Applies `f` to the lifetime recorder's serve section and, when
    /// present, the request's own.
    fn bump(&self, request: Option<&Recorder>, f: impl Fn(&ServeStats)) {
        for r in std::iter::once(&self.lifetime).chain(request) {
            if let Some(st) = r.stats() {
                f(&st.serve);
            }
        }
    }

    fn handle_request(&self, argv: &[String]) -> Result<String, String> {
        let p = args::parse(argv)?;
        commands::check_flags(&p, &p.command)?;
        // Untrusted input: an absurd thread request is rejected outright
        // rather than clamped (the one-shot CLI clamps with a warning).
        if let Some(raw) = p.flags.get("threads") {
            let threads: usize = raw
                .parse()
                .map_err(|_| format!("flag --threads: cannot parse {raw:?}"))?;
            let cap = tpp_exec::max_threads();
            if threads > cap {
                return Err(format!(
                    "--threads {threads} exceeds this server's limit of {cap}"
                ));
            }
        }
        self.bump(None, |s| s.requests.inc());
        match p.command.as_str() {
            "ping" => Ok("pong\n".into()),
            "info" => Ok(self.info()),
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                // Wake the accept loop with a throwaway connection; the
                // reply still goes out on this request's stream.
                drop(UnixStream::connect(&self.socket));
                Ok("server stopping\n".into())
            }
            // Test hook: panic inside a dispatch on the shared pool. The
            // reply path proves the panic was contained, and the next
            // request proves the pool survived it unpoisoned.
            "__panic" => {
                let _: Vec<()> = self.pool.run_indexed(2, |_| panic!("__panic request hook"));
                Ok("unreachable\n".into())
            }
            "protect" | "attack" => self.run(&p),
            "update" => self.update(&p),
            other => Err(format!(
                "unknown serve request {other:?} (expected protect, attack, update, info, ping, \
                 or shutdown)"
            )),
        }
    }

    /// Opens a registry-touching request: its `--stats` telemetry, which
    /// counts the request itself, after a sweep of the registries.
    fn open(&self, p: &Parsed) -> Result<RunStats, String> {
        let stats = RunStats::from_flags(p)?;
        if let Some(st) = stats.recorder.stats() {
            st.serve.requests.inc();
        }
        self.sweep_registries(Some(&stats.recorder));
        Ok(stats)
    }

    /// A protect/attack request: per-request recorder over the shared
    /// pool, graph and index answered from the registries, then the same
    /// pipeline the one-shot CLI runs. Registry counters land in the
    /// request recorder *before* the run so a `--stats` reply carries
    /// them.
    fn run(&self, p: &Parsed) -> Result<String, String> {
        let stats = self.open(p)?;
        let (g, base, base_loaded) = self.graph_for(p, &stats.recorder)?;
        let mut seeds = RunSeeds {
            instance: None,
            index: None,
            exec: self.pool.clone(),
            base,
            base_loaded,
        };
        if p.command == "attack" {
            return commands::run_attack(p, g, stats, &seeds);
        }
        // An incremental request solves the delta-mutated problem, so the
        // registry's pre-delta index would be the wrong seed.
        if !p.has("incremental") {
            if let Some((instance, index)) = self.index_for(p, &g, &stats.recorder)? {
                seeds.instance = Some(instance);
                seeds.index = Some(index);
            }
        }
        commands::run_protect(p, g, stats, seeds)
    }

    /// TTL-expires idle registry entries and enforces the LRU caps,
    /// folding eviction counts into the lifetime (and optionally the
    /// request's) serve section. Runs at the top of every registry-
    /// touching request, so limits hold before new entries pile on.
    fn sweep_registries(&self, request: Option<&Recorder>) {
        let now = Instant::now();
        let ttl = (self.options.ttl_secs > 0).then(|| Duration::from_secs(self.options.ttl_secs));
        let graphs = evict_registry(
            &mut lock(&self.graphs),
            |e| e.last_used,
            self.options.max_graphs,
            ttl,
            now,
        );
        if graphs > 0 {
            self.bump(request, |s| s.graph_evictions.add(graphs));
        }
        let indexes = evict_registry(
            &mut lock(&self.indexes),
            |e| e.last_used,
            self.options.max_indexes,
            ttl,
            now,
        );
        if indexes > 0 {
            self.bump(request, |s| s.index_evictions.add(indexes));
        }
    }

    /// An `update <graph> --delta FILE` request: applies the edge delta
    /// to the resident graph — an overlay of the old snapshot, copied once
    /// into the next one — and patches every warm coverage index over it
    /// in place — removals through the kill-flag delete path, insertions
    /// by localized through-enumeration, then a compaction that drops the
    /// instances the delta killed — instead of rebuilding, along with the
    /// graph's resident base statistics. The registries then
    /// serve the mutated graph: they deliberately diverge from the file on
    /// disk until a restart (or an eviction) reloads it. Only indexes that
    /// cover the pre-update graph are patched, and they then cover the new
    /// one. An index whose target list collides with the delta cannot be
    /// patched (targets are phase-1-removed from its released view), and
    /// an index built for another copy of the graph describes neither
    /// state; both are dropped and rebuilt on next use.
    fn update(&self, p: &Parsed) -> Result<String, String> {
        use std::fmt::Write as _;
        let stats = self.open(p)?;
        let recorder = &stats.recorder;
        let path = p
            .positional
            .first()
            .ok_or("expected an edge-list or snapshot file argument")?;
        let delta_path = p
            .require("delta")
            .map_err(|_| "update requires --delta <file> (`+ u v` / `- u v` lines)")?;
        let delta = tpp_store::GraphDelta::load(std::path::Path::new(delta_path))
            .map_err(|e| format!("loading --delta {delta_path}: {e}"))?;
        // First touch of a path loads it into the registry like any other
        // request; the delta then applies to the resident copy under the
        // registry lock, so concurrent updates serialize.
        self.graph_for(p, recorder)?;
        let key = graph_key(path);
        let mut graphs = lock(&self.graphs);
        let entry = graphs
            .get_mut(&key)
            .ok_or("graph evicted mid-update; retry")?;
        let base = Arc::clone(&entry.graph);
        let view = delta
            .overlay(&*base)
            .map_err(|e| format!("applying --delta {delta_path}: {e}"))?;
        let (removed, added) = (view.deleted_edges(), view.added_edges());
        let next = Arc::new(CsrGraph::from_access(&view));
        // Resident base statistics follow the graph under the same lock:
        // the new entry pairs the new graph with their patch (or with an
        // empty slot, when no protect had filled the old one).
        let next_base = OnceLock::new();
        if let Some(stats) = entry.base.get() {
            let t0 = Instant::now();
            let (patched, repeeled) = stats.patched(&*base, &*next, &removed, &added);
            debug_assert!(
                patched == BaseStats::compute(&*next),
                "patched base statistics differ from a recount of the updated graph"
            );
            let _ = next_base.set(patched);
            if let Some(st) = recorder.stats() {
                st.update.base_patch_ns.add_duration(t0.elapsed());
                st.update.core_repeels.add(u64::from(repeeled));
            }
        }
        entry.graph = Arc::clone(&next);
        entry.base = Arc::new(next_base);
        entry.last_used = Instant::now();
        drop(graphs);

        let mut patched = 0usize;
        let mut dropped = 0usize;
        let mut stale = 0usize;
        let mut discovered = 0usize;
        let mut indexes = lock(&self.indexes);
        let keys: Vec<IndexKey> = indexes.keys().filter(|k| k.0 == key).cloned().collect();
        for ikey in keys {
            let entry = indexes.get_mut(&ikey).expect("key listed above");
            if entry.covers(&next) {
                // Built on the new graph by a request that ran after the
                // swap above: already current.
                continue;
            }
            if !entry.covers(&base) {
                indexes.remove(&ikey);
                stale += 1;
                continue;
            }
            let collides = removed
                .iter()
                .chain(&added)
                .any(|e| ikey.2.contains(&(e.u(), e.v())));
            if collides {
                indexes.remove(&ikey);
                dropped += 1;
                continue;
            }
            // Clone-on-write: requests holding the old Arc keep a
            // consistent pre-delta index; the registry swaps to the
            // patched one.
            let mut idx = (*entry.index).clone();
            idx.set_parallelism(self.pool.attach_recorder(recorder.clone()));
            // Replay the net delta on this index's released view (an
            // overlay of the old snapshot with its targets removed):
            // deletions need no graph, each insertion enumerates against
            // the state that already holds it.
            let mut released = DeltaView::new(&*base);
            for &(u, v) in &ikey.2 {
                released.delete_edge(Edge::new(u, v));
            }
            for &e in &removed {
                idx.delete_edge(e);
                released.delete_edge(e);
            }
            for &e in &added {
                released.add_edge(e);
                discovered += idx.insert_edge(&released, e);
            }
            // Lay the patched index out again from its alive instances, so
            // that a resident index stays the size of a fresh build however
            // many updates it has seen, and every later copy of it is too.
            idx.compact();
            entry.index = Arc::new(idx);
            entry.graph = Arc::downgrade(&next);
            entry.last_used = Instant::now();
            patched += 1;
        }
        drop(indexes);

        let mut out = String::new();
        let _ = writeln!(
            out,
            "updated {path}: -{}/+{} edge(s), now {} nodes, {} edges (resident only)",
            removed.len(),
            added.len(),
            next.node_count(),
            next.edge_count(),
        );
        let _ = writeln!(
            out,
            "indexes: {patched} patched in place, {dropped} dropped (delta hit their targets), \
             {discovered} instance(s) discovered",
        );
        if stale > 0 {
            let _ = writeln!(
                out,
                "indexes: {stale} dropped (built for another copy of the graph)"
            );
        }
        out.push_str(&stats.finish()?);
        Ok(out)
    }

    /// The graph registry: the resident graph and its base-statistics
    /// slot, read together under the lock so that they always match, and
    /// whether this request's own load filled the slot.
    fn graph_for(
        &self,
        p: &Parsed,
        recorder: &Recorder,
    ) -> Result<(Arc<CsrGraph>, BaseSlot, bool), String> {
        let path = p
            .positional
            .first()
            .ok_or("expected an edge-list or snapshot file argument")?;
        let key = graph_key(path);
        if let Some(entry) = lock(&self.graphs).get_mut(&key) {
            entry.last_used = Instant::now();
            let hit = (Arc::clone(&entry.graph), Arc::clone(&entry.base), false);
            self.bump(Some(recorder), |s| s.graph_hits.inc());
            return Ok(hit);
        }
        // Miss: load outside the lock (two racing first requests both
        // load; the registry keeps whichever inserts last — same bytes).
        let snapshot = commands::is_snapshot(path);
        let (g, base) = commands::load_graph_observed(p, recorder)?;
        self.bump(Some(recorder), |s| s.graph_misses.inc());
        let base_loaded = base.get().is_some();
        lock(&self.graphs).insert(
            key,
            GraphEntry {
                graph: Arc::clone(&g),
                base: Arc::clone(&base),
                snapshot,
                last_used: Instant::now(),
            },
        );
        Ok((g, base, base_loaded))
    }

    /// The index registry: builds the run's phase-1 instance, whose
    /// released graph and targets the index covers, and hands both to the
    /// run as seeds. A hit takes the cached index, and only an index that
    /// covers `g` itself is a hit: an `update` or a reload may have
    /// replaced the path's graph since `g` was read. A miss builds the
    /// index on `g` once on the shared pool (charged to this request's
    /// recorder) and caches it while `g` is still resident. Only the greedy
    /// strategies evaluate through the index — the random baselines return
    /// `None`.
    fn index_for(
        &self,
        p: &Parsed,
        g: &Arc<CsrGraph>,
        recorder: &Recorder,
    ) -> Result<Option<(TppInstance, Arc<PartitionedCoverageIndex>)>, String> {
        if !matches!(p.get_or("algorithm", "sgb"), "sgb" | "celf" | "ct" | "wt") {
            return Ok(None);
        }
        let path = p
            .positional
            .first()
            .ok_or("expected an edge-list or snapshot file argument")?;
        let motif = commands::parse_motif(p)?;
        let instance = commands::build_instance(p, Arc::clone(g), recorder)?;
        let key: IndexKey = (
            graph_key(path),
            motif.to_string(),
            instance.targets().iter().map(|e| (e.u(), e.v())).collect(),
        );
        let looked_up = Instant::now();
        let cached = lock(&self.indexes)
            .get_mut(&key)
            .filter(|entry| entry.covers(g))
            .map(|entry| {
                entry.last_used = looked_up;
                Arc::clone(&entry.index)
            });
        if let Some(index) = cached {
            self.bump(Some(recorder), |s| s.index_hits.inc());
            return Ok(Some((instance, index)));
        }
        let exec = self.pool.attach_recorder(recorder.clone());
        let index = Arc::new(PartitionedCoverageIndex::build_parallel(
            instance.released(),
            instance.targets(),
            motif,
            DEFAULT_INDEX_PARTITIONS,
            &exec,
        ));
        self.bump(Some(recorder), |s| s.index_misses.inc());
        // Cache the index only while `g` is still the path's resident
        // graph, checked and inserted under the graph lock that `update`
        // swaps graphs under: a request that raced an update or a reload
        // keeps its index to itself instead of displacing a current one.
        let graphs = lock(&self.graphs);
        if graphs.get(&key.0).is_some_and(|e| Arc::ptr_eq(&e.graph, g)) {
            lock(&self.indexes).insert(
                key,
                IndexEntry {
                    index: Arc::clone(&index),
                    graph: Arc::downgrade(g),
                    last_used: looked_up,
                },
            );
        }
        Ok(Some((instance, index)))
    }

    fn info(&self) -> String {
        use std::fmt::Write as _;
        self.sweep_registries(None);
        let limit = |cap: usize| {
            if cap == 0 {
                "unlimited".to_string()
            } else {
                format!("cap {cap}")
            }
        };
        let mut out = String::new();
        let _ = writeln!(out, "tpp serve on {}", self.socket);
        let _ = writeln!(out, "pool: {} worker thread(s)", self.pool.threads());
        if self.options.ttl_secs > 0 {
            let _ = writeln!(out, "idle ttl: {}s", self.options.ttl_secs);
        }
        if let Some(st) = self.lifetime.stats() {
            let _ = writeln!(out, "requests: {}", st.serve.requests.get());
            let graphs = lock(&self.graphs);
            let _ = writeln!(
                out,
                "graphs: {} cached ({}, {} hits, {} misses, {} evictions)",
                graphs.len(),
                limit(self.options.max_graphs),
                st.serve.graph_hits.get(),
                st.serve.graph_misses.get(),
                st.serve.graph_evictions.get()
            );
            let mut keys: Vec<&String> = graphs.keys().collect();
            keys.sort();
            for key in keys {
                let entry = &graphs[key];
                let _ = writeln!(
                    out,
                    "  {key}: {} nodes, {} edges{}{}",
                    entry.graph.node_count(),
                    entry.graph.edge_count(),
                    if entry.snapshot { " (snapshot)" } else { "" },
                    if entry.base.get().is_some() {
                        " (base stats resident)"
                    } else {
                        ""
                    }
                );
            }
            let _ = writeln!(
                out,
                "indexes: {} cached ({}, {} hits, {} misses, {} evictions)",
                lock(&self.indexes).len(),
                limit(self.options.max_indexes),
                st.serve.index_hits.get(),
                st.serve.index_misses.get(),
                st.serve.index_evictions.get()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_reply_reaches_the_client_as_a_named_error() {
        let dir = std::env::temp_dir().join(format!("tpp-serve-frame-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("frame.sock");
        let _ = std::fs::remove_file(&socket);
        let listener = UnixListener::bind(&socket).unwrap();
        let answer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream).unwrap();
            let text = "x".repeat(MAX_FRAME_BYTES + 10);
            write_frame(&mut stream, &reply_payload(b'+', &text)).unwrap();
        });
        let err = request(socket.to_str().unwrap(), &["ping".to_string()]).unwrap_err();
        answer.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            err,
            format!(
                "reply of {} bytes exceeds the 1 MiB (1048576-byte) frame cap",
                MAX_FRAME_BYTES + 11
            )
        );
    }

    /// A server with no socket, for driving its registries directly.
    fn registry_only_server() -> Server {
        Server {
            socket: String::new(),
            pool: Parallelism::sequential(),
            lifetime: Recorder::enabled(),
            graphs: Mutex::new(HashMap::new()),
            indexes: Mutex::new(HashMap::new()),
            options: ServeOptions::default(),
            shutdown: AtomicBool::new(false),
        }
    }

    #[test]
    fn an_update_between_graph_and_index_lookup_never_mixes_graphs() {
        let dir = std::env::temp_dir().join(format!("tpp-serve-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph = dir.join("g.txt").to_str().unwrap().to_string();
        let g = tpp_graph::generators::holme_kim(300, 4, 0.4, 1);
        std::fs::write(&graph, tpp_graph::write_edge_list(&g)).unwrap();
        let parse = |argv: &[&str]| {
            args::parse(&argv.iter().map(|a| (*a).to_string()).collect::<Vec<_>>()).unwrap()
        };
        let server = registry_only_server();
        let recorder = Recorder::disabled();
        // Sampled targets follow the graph's edges, so later requests name
        // the first sample's targets explicitly to keep one index key.
        let sampled = parse(&["protect", &graph, "--random", "5", "--seed", "3"]);
        let (g0, ..) = server.graph_for(&sampled, &recorder).unwrap();
        let targets: Vec<String> = commands::parse_targets(&sampled, &g0)
            .unwrap()
            .iter()
            .map(|t| format!("{}-{}", t.u(), t.v()))
            .collect();
        let targets = targets.join(",");
        let protect = parse(&[
            "protect",
            &graph,
            "--budget",
            "4",
            "--targets",
            &targets,
            "--motif",
            "triangle",
        ]);
        // Warm both registries, then delete an edge the warm index covers.
        server.run(&protect).unwrap();
        let warm = server
            .index_for(&protect, &g0, &recorder)
            .unwrap()
            .unwrap()
            .1;
        let hit = warm.alive_candidate_edges()[0];
        let delta = dir.join("delta.txt");
        std::fs::write(&delta, format!("- {} {}\n", hit.u(), hit.v())).unwrap();

        // The request read the graph before the update landed: the index
        // it gets must cover that graph, not the patched one.
        let (g0, ..) = server.graph_for(&protect, &recorder).unwrap();
        let reply = server
            .update(&parse(&[
                "update",
                &graph,
                "--delta",
                delta.to_str().unwrap(),
            ]))
            .unwrap();
        assert!(reply.contains("1 patched in place"), "got: {reply}");
        let (instance, index) = server.index_for(&protect, &g0, &recorder).unwrap().unwrap();
        let fresh = PartitionedCoverageIndex::build_parallel(
            instance.released(),
            instance.targets(),
            tpp_motif::Motif::Triangle,
            DEFAULT_INDEX_PARTITIONS,
            &Parallelism::sequential(),
        );
        assert_eq!(index.total_similarity(), fresh.total_similarity());
        assert_eq!(index.alive_candidate_edges(), fresh.alive_candidate_edges());
        assert_eq!(index.gain(hit), fresh.gain(hit));
        assert!(fresh.gain(hit) > 0);

        // The late request did not displace the patched index: a request
        // that reads the graph now still hits it.
        let (g1, ..) = server.graph_for(&protect, &recorder).unwrap();
        assert!(!Arc::ptr_eq(&g0, &g1));
        let counted = Recorder::enabled();
        let (_, patched) = server.index_for(&protect, &g1, &counted).unwrap().unwrap();
        assert_eq!(counted.stats().unwrap().serve.index_hits.get(), 1);
        assert_eq!(patched.gain(hit), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Repeated `+D`/`-D` cycles near the targets leave the resident index
    /// with exactly the instances a fresh build on the graph has (the
    /// instances each `-D` kills are not kept), and served replies do not
    /// change.
    #[test]
    fn update_cycles_keep_the_resident_index_the_size_of_a_fresh_build() {
        let dir = std::env::temp_dir().join(format!("tpp-serve-cycles-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph = dir.join("g.txt").to_str().unwrap().to_string();
        let g = tpp_graph::generators::holme_kim(300, 4, 0.4, 5);
        std::fs::write(&graph, tpp_graph::write_edge_list(&g)).unwrap();
        let parse = |argv: &[&str]| {
            args::parse(&argv.iter().map(|a| (*a).to_string()).collect::<Vec<_>>()).unwrap()
        };
        let server = registry_only_server();
        let recorder = Recorder::disabled();
        // Sampled targets follow the graph's edges, so the protect names
        // the first sample's targets explicitly to keep one index key.
        let sampled = parse(&["protect", &graph, "--random", "8", "--seed", "4"]);
        let (g0, ..) = server.graph_for(&sampled, &recorder).unwrap();
        let targets = commands::parse_targets(&sampled, &g0).unwrap();
        let listed: Vec<String> = targets
            .iter()
            .map(|t| format!("{}-{}", t.u(), t.v()))
            .collect();
        let listed = listed.join(",");
        let protect = parse(&[
            "protect",
            &graph,
            "--motif",
            "rectangle",
            "--targets",
            &listed,
            "--budget",
            "6",
        ]);
        let before = server.run(&protect).unwrap();
        // The delta: non-edges between neighbours of target endpoints,
        // which close new rectangles around the targets.
        let mut delta = Vec::new();
        for t in &targets {
            let near: Vec<u32> = g
                .neighbors(t.u())
                .iter()
                .chain(g.neighbors(t.v()))
                .copied()
                .collect();
            for (i, &a) in near.iter().enumerate() {
                for &b in near[i + 1..].iter().filter(|&&b| b != a) {
                    let e = Edge::new(a, b);
                    if !g.contains(e) && !targets.contains(&e) && !delta.contains(&e) {
                        delta.push(e);
                    }
                }
            }
        }
        delta.truncate(12);
        assert!(!delta.is_empty());
        let write = |name: &str, sign: char| {
            let path = dir.join(name);
            let body: String = delta
                .iter()
                .map(|e| format!("{sign} {} {}\n", e.u(), e.v()))
                .collect();
            std::fs::write(&path, body).unwrap();
            path.to_str().unwrap().to_string()
        };
        let (grow, shrink) = (write("grow.txt", '+'), write("shrink.txt", '-'));
        let update = |file: &str| {
            server
                .update(&parse(&["update", &graph, "--delta", file]))
                .unwrap()
        };
        let resident = |p: &Parsed| {
            let (g, ..) = server.graph_for(p, &recorder).unwrap();
            let (instance, index) = server.index_for(p, &g, &recorder).unwrap().unwrap();
            let fresh = PartitionedCoverageIndex::build_parallel(
                instance.released(),
                instance.targets(),
                tpp_motif::Motif::Rectangle,
                DEFAULT_INDEX_PARTITIONS,
                &Parallelism::sequential(),
            );
            (index, fresh)
        };
        let base_instances = resident(&protect).1.initial_similarity();
        for _ in 0..5 {
            let reply = update(&grow);
            assert!(reply.contains("1 patched in place"), "got: {reply}");
            let (index, fresh) = resident(&protect);
            assert!(
                fresh.initial_similarity() > base_instances,
                "the delta adds instances"
            );
            assert_eq!(index.initial_similarity(), fresh.initial_similarity());
            assert_eq!(index.alive_candidate_edges(), fresh.alive_candidate_edges());
            update(&shrink);
            let (index, fresh) = resident(&protect);
            assert_eq!(fresh.initial_similarity(), base_instances);
            assert_eq!(
                index.initial_similarity(),
                base_instances,
                "dead instances kept"
            );
            assert_eq!(index.all_candidate_edges(), fresh.all_candidate_edges());
            assert_eq!(server.run(&protect).unwrap(), before);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The reply frame `handle_connection` wrote to `peer`.
    fn reply_on(peer: &mut UnixStream) -> (u8, String) {
        let reply = read_frame(peer).unwrap();
        let (status, text) = reply.split_first().unwrap();
        (*status, String::from_utf8_lossy(text).into_owned())
    }

    /// Runs `handle_connection` on `stream` in a thread and asserts it
    /// returns well within a few timeouts, failing instead of hanging.
    fn handled_in_time(server: &Arc<Server>, stream: UnixStream, timeout: Duration) {
        let (done, finished) = std::sync::mpsc::channel();
        let s = Arc::clone(server);
        std::thread::spawn(move || {
            s.handle_connection(stream, timeout);
            done.send(()).unwrap();
        });
        assert!(
            finished.recv_timeout(timeout * 10).is_ok(),
            "handle_connection still blocked after {:?}",
            timeout * 10
        );
    }

    #[test]
    fn silent_and_stalled_peers_time_out_on_their_own_connection() {
        let server = Arc::new(registry_only_server());
        let timeout = Duration::from_millis(200);
        // A peer that connects and sends nothing.
        let (stream, mut idle) = UnixStream::pair().unwrap();
        handled_in_time(&server, stream, timeout);
        let (status, text) = reply_on(&mut idle);
        assert_eq!(status, b'-');
        assert!(text.contains("no complete frame within"), "got: {text}");
        // A peer that sends a length prefix and half its payload.
        let (stream, mut stalled) = UnixStream::pair().unwrap();
        stalled.write_all(&8u32.to_le_bytes()).unwrap();
        stalled.write_all(b"pi").unwrap();
        handled_in_time(&server, stream, timeout);
        assert_eq!(reply_on(&mut stalled).0, b'-');
        // The same server still answers a whole request.
        let (stream, mut client) = UnixStream::pair().unwrap();
        write_frame(&mut client, b"ping").unwrap();
        handled_in_time(&server, stream, timeout);
        assert_eq!(reply_on(&mut client), (b'+', "pong\n".to_string()));
    }

    #[test]
    fn reply_at_the_cap_is_sent_as_is() {
        let text = "y".repeat(MAX_FRAME_BYTES - 1);
        let reply = reply_payload(b'+', &text);
        assert_eq!(reply.len(), MAX_FRAME_BYTES);
        assert_eq!(reply[0], b'+');
    }
}
