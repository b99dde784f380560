//! Streaming, out-of-core CSR snapshot construction.
//!
//! [`build_stream`] turns a text edge list directly into an on-disk v2
//! snapshot without ever materializing the graph in memory. The classic
//! in-memory route (`parse_edge_list` → `Graph` → `CsrGraph` → `save`)
//! holds every adjacency set on the heap at once; this builder's peak
//! memory is `O(node_count)` bookkeeping plus **one bounded chunk buffer**
//! ([`StreamConfig::chunk_bytes`], default 64 MiB), so the neighbor
//! payload — the part that dwarfs everything else on dense graphs — lives
//! on disk from start to finish. Graphs larger than RAM build fine.
//!
//! The shape is a textbook two-pass external CSR build:
//!
//! 1. **Pass 1 (degree count)** — scan the edge list once, tally each
//!    node's degree (duplicates included) and the node-id range.
//! 2. **Chunking** — split the node range into contiguous chunks whose
//!    payload fits the chunk buffer.
//! 3. **Pass 2 (route + fill)** — scan the edge list again, appending
//!    each directed entry `(u, v)` to the spill file of the chunk owning
//!    `u`. Then, chunk by chunk: counting-sort the spill records into the
//!    chunk buffer via per-node cursors, sort + dedup each node's slice,
//!    and append the compacted slices to a temporary payload file.
//! 4. **Assemble** — stream the final file: v2 header (checksum zeroed),
//!    offsets from the post-dedup degrees, payload copied from the temp
//!    file; FNV-1a accumulates over exactly the bytes written, then one
//!    seek patches the checksum back into the header at byte 32.
//!
//! Duplicate edges are resolved symmetrically: an edge listed twice puts
//! two copies in *both* endpoints' slices, and per-slice dedup drops both,
//! so the result is bit-identical to the in-memory build. The edge-list
//! dialect matches `tpp_graph::edgelist`: blank lines and `#`/`%` comments
//! skipped, a `# nodes: N ...` header sizing the node range to at least
//! `N`, two whitespace-separated ids, trailing columns tolerated,
//! self-loops rejected.

use crate::error::StoreError;
use crate::format::{self, Fnv1a};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use tpp_graph::NodeId;
use tpp_obs::{Recorder, SpanTimer};

/// Tuning for [`build_stream`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// Upper bound in bytes for the in-memory chunk payload buffer. A
    /// single node whose (pre-dedup) neighbor slice alone exceeds this
    /// gets a private oversized chunk — the bound is effectively
    /// `max(chunk_bytes, 4 * max_degree)`.
    pub chunk_bytes: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            chunk_bytes: 64 * 1024 * 1024,
        }
    }
}

/// What a streaming build did — printed by `tpp store build --stream`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamReport {
    /// Nodes in the snapshot (max id + 1).
    pub nodes: u64,
    /// Undirected edges after deduplication.
    pub edges: u64,
    /// Chunks the node range was split into.
    pub chunks: usize,
    /// Duplicate undirected edges dropped by per-slice dedup.
    pub duplicates_dropped: u64,
    /// Bytes routed through the on-disk spill files.
    pub spill_bytes: u64,
    /// Largest chunk payload buffer actually allocated, in bytes.
    pub peak_chunk_bytes: usize,
}

/// One parsed edge-list line: `Ok(None)` for blanks/comments.
fn parse_line(raw: &str, lineno: usize) -> Result<Option<(NodeId, NodeId)>, StoreError> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
        return Ok(None);
    }
    let mut it = line.split_whitespace();
    let mut id = || -> Result<NodeId, StoreError> {
        let tok = it
            .next()
            .ok_or_else(|| StoreError::Ingest(format!("line {lineno}: expected two node ids")))?;
        tok.parse::<NodeId>()
            .map_err(|e| StoreError::Ingest(format!("line {lineno}: invalid node id {tok:?}: {e}")))
    };
    let u = id()?;
    let v = id()?;
    // Trailing columns (weights, timestamps) are tolerated and ignored.
    if u == v {
        return Err(StoreError::Ingest(format!(
            "line {lineno}: self-loop at node {u}"
        )));
    }
    Ok(Some((u, v)))
}

/// A scratch directory next to the output file, removed on drop (success
/// and error paths alike).
struct TempDir(PathBuf);

impl TempDir {
    fn create(out: &Path) -> Result<TempDir, StoreError> {
        // A pid alone is not unique enough: two concurrent streamed builds
        // of the same output inside one process (two serve requests) would
        // share the dir, and the first finisher's remove_dir_all would
        // delete the other's spill files mid-build. A process-wide counter
        // makes every build's scratch dir distinct.
        static BUILD_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = BUILD_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let stem = out
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "snapshot".into());
        let dir = out
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .unwrap_or(Path::new("."))
            .join(format!(".{stem}.build-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds a v2 snapshot at `out` directly from the text edge list at
/// `edges`, holding at most one [`StreamConfig::chunk_bytes`] payload
/// buffer in memory. Pass wall times land in `obs`'s store section
/// (`pass1_ns`, `pass2_ns`, with `fill_ns` / `checksum_ns` nested inside
/// pass 2).
///
/// The produced file is bit-identical to
/// `format::save(&CsrGraph::from_graph(&parse_edge_list(...)?), out)`.
///
/// # Errors
/// [`StoreError::Ingest`] for malformed edge-list lines (with the 1-based
/// line number), [`StoreError::Io`] for filesystem failures.
pub fn build_stream<P: AsRef<Path>, Q: AsRef<Path>>(
    edges: P,
    out: Q,
    cfg: &StreamConfig,
    obs: &Recorder,
) -> Result<StreamReport, StoreError> {
    let edges = edges.as_ref();
    let out = out.as_ref();
    let stats = obs.stats();
    let chunk_bytes = cfg.chunk_bytes.max(8);

    // ---- Pass 1: degree count ------------------------------------------
    let pass1 = SpanTimer::counter(stats.map(|s| &s.store.pass1_ns));
    let mut degrees: Vec<u32> = Vec::new();
    let mut directed_total: u64 = 0;
    {
        let mut reader = BufReader::new(File::open(edges)?);
        let mut line = String::new();
        let mut lineno = 0usize;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            lineno += 1;
            let declared = tpp_graph::declared_node_count(&line)
                .map_err(|reason| StoreError::Ingest(format!("line {lineno}: {reason}")))?;
            if let Some(n) = declared {
                if n > degrees.len() {
                    degrees.resize(n, 0);
                }
                continue;
            }
            let Some((u, v)) = parse_line(&line, lineno)? else {
                continue;
            };
            let hi = u.max(v) as usize;
            if hi >= degrees.len() {
                degrees.resize(hi + 1, 0);
            }
            for node in [u, v] {
                let d = &mut degrees[node as usize];
                *d = d.checked_add(1).ok_or_else(|| {
                    StoreError::Ingest(format!("node {node} exceeds u32 degree range"))
                })?;
            }
            directed_total += 2;
        }
    }
    pass1.stop();
    let n = degrees.len();

    // ---- Chunk boundaries ----------------------------------------------
    // Contiguous node ranges whose (pre-dedup) payload fits the buffer.
    let mut chunk_starts: Vec<u32> = vec![0];
    {
        let mut acc: usize = 0;
        for (node, &d) in degrees.iter().enumerate() {
            let bytes = d as usize * 4;
            if acc + bytes > chunk_bytes && acc > 0 {
                chunk_starts.push(node as u32);
                acc = 0;
            }
            acc += bytes;
        }
    }
    chunk_starts.push(n as u32);
    let chunks = if n == 0 { 0 } else { chunk_starts.len() - 1 };

    let chunk_of = |u: NodeId| -> usize { chunk_starts.partition_point(|&s| s <= u) - 1 };

    // ---- Pass 2: route, fill, assemble ---------------------------------
    let pass2 = SpanTimer::counter(stats.map(|s| &s.store.pass2_ns));
    let tmp = TempDir::create(out)?;
    let mut spill_bytes: u64 = 0;

    // Route every directed entry (u → v) to the spill file of u's chunk.
    let spill_path = |k: usize| tmp.path().join(format!("spill-{k}.bin"));
    if chunks > 0 {
        let mut writers: Vec<BufWriter<File>> = (0..chunks)
            .map(|k| File::create(spill_path(k)).map(BufWriter::new))
            .collect::<Result<_, _>>()?;
        let mut reader = BufReader::new(File::open(edges)?);
        let mut line = String::new();
        let mut lineno = 0usize;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            lineno += 1;
            let Some((u, v)) = parse_line(&line, lineno)? else {
                continue;
            };
            if u.max(v) as usize >= n {
                return Err(StoreError::Ingest(format!(
                    "line {lineno}: edge list changed between passes"
                )));
            }
            for (src, dst) in [(u, v), (v, u)] {
                let mut rec = [0u8; 8];
                rec[..4].copy_from_slice(&src.to_le_bytes());
                rec[4..].copy_from_slice(&dst.to_le_bytes());
                writers[chunk_of(src)].write_all(&rec)?;
                spill_bytes += 8;
            }
        }
        for w in &mut writers {
            w.flush()?;
        }
    }

    // Fill each chunk: counting-sort spill records into the chunk buffer,
    // then sort + dedup per node and append the compacted slices to the
    // temporary payload file.
    let payload_path = tmp.path().join("payload.bin");
    let mut payload_w = BufWriter::new(File::create(&payload_path)?);
    let mut final_degrees: Vec<u32> = vec![0; n];
    let mut directed_final: u64 = 0;
    let mut peak_chunk_bytes: usize = 0;
    for k in 0..chunks {
        let fill = SpanTimer::counter(stats.map(|s| &s.store.fill_ns));
        let (lo, hi) = (chunk_starts[k] as usize, chunk_starts[k + 1] as usize);
        // Local slice boundaries within this chunk (pre-dedup degrees).
        let mut starts: Vec<usize> = Vec::with_capacity(hi - lo + 1);
        let mut acc = 0usize;
        starts.push(0);
        for &d in &degrees[lo..hi] {
            acc += d as usize;
            starts.push(acc);
        }
        let entries = acc;
        peak_chunk_bytes = peak_chunk_bytes.max(entries * 4);
        let mut buf: Vec<NodeId> = vec![0; entries];
        let mut cursor: Vec<usize> = starts[..hi - lo].to_vec();

        let mut spill = BufReader::new(File::open(spill_path(k))?);
        let mut rec = [0u8; 8];
        loop {
            match spill.read_exact(&mut rec) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(StoreError::Io(e)),
            }
            let src = NodeId::from_le_bytes(rec[..4].try_into().expect("4 bytes")) as usize;
            let dst = NodeId::from_le_bytes(rec[4..].try_into().expect("4 bytes"));
            let at = &mut cursor[src - lo];
            buf[*at] = dst;
            *at += 1;
        }

        let mut write_buf: Vec<u8> = Vec::with_capacity(64 * 1024);
        for i in 0..(hi - lo) {
            let slice = &mut buf[starts[i]..starts[i + 1]];
            slice.sort_unstable();
            let mut kept = 0u32;
            let mut prev: Option<NodeId> = None;
            for &v in slice.iter() {
                if prev == Some(v) {
                    continue;
                }
                prev = Some(v);
                kept += 1;
                write_buf.extend_from_slice(&v.to_le_bytes());
                if write_buf.len() >= 64 * 1024 - 4 {
                    payload_w.write_all(&write_buf)?;
                    write_buf.clear();
                }
            }
            final_degrees[lo + i] = kept;
            directed_final += u64::from(kept);
        }
        payload_w.write_all(&write_buf)?;
        // This chunk's spill is consumed; free the disk before the next.
        std::fs::remove_file(spill_path(k)).ok();
        fill.stop();
    }
    payload_w.flush()?;
    drop(payload_w);

    if !directed_final.is_multiple_of(2) {
        return Err(StoreError::Corrupt(
            "streamed adjacency is asymmetric".into(),
        ));
    }
    let edge_count = directed_final / 2;

    // Assemble the final file: header (checksum zeroed), offsets from the
    // post-dedup degrees, payload copied through; FNV-1a runs over exactly
    // the payload bytes as they are written, then a single seek patches
    // the checksum into the header. Assembly happens inside the scratch
    // dir and the finished file is renamed into place, so `out` is only
    // ever a complete snapshot — concurrent builds of the same target
    // each publish atomically instead of interleaving writes.
    let checksum_span = SpanTimer::counter(stats.map(|s| &s.store.checksum_ns));
    let staged_path = tmp.path().join("snapshot.bin");
    let mut hasher = Fnv1a::default();
    let mut w = BufWriter::new(File::create(&staged_path)?);
    format::write_header(&mut w, n as u64, edge_count, 0)?;
    let mut off: u64 = 0;
    let mut write_buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    for &deg in final_degrees.iter().take(n) {
        let bytes = off.to_le_bytes();
        hasher.update(&bytes);
        write_buf.extend_from_slice(&bytes);
        if write_buf.len() >= 64 * 1024 - 8 {
            w.write_all(&write_buf)?;
            write_buf.clear();
        }
        off += u64::from(deg);
    }
    let last = off.to_le_bytes();
    hasher.update(&last);
    write_buf.extend_from_slice(&last);
    w.write_all(&write_buf)?;
    let mut payload_r = BufReader::new(File::open(&payload_path)?);
    let mut copy_buf = [0u8; 64 * 1024];
    loop {
        let got = payload_r.read(&mut copy_buf)?;
        if got == 0 {
            break;
        }
        hasher.update(&copy_buf[..got]);
        w.write_all(&copy_buf[..got])?;
    }
    let mut file = w.into_inner().map_err(|e| StoreError::Io(e.into_error()))?;
    file.seek(SeekFrom::Start(32))?;
    file.write_all(&hasher.finish().to_le_bytes())?;
    file.flush()?;
    drop(file);
    // Scratch dir and output share a parent, so the rename is atomic.
    std::fs::rename(&staged_path, out)?;
    checksum_span.stop();
    pass2.stop();

    Ok(StreamReport {
        nodes: n as u64,
        edges: edge_count,
        chunks,
        duplicates_dropped: (directed_total - directed_final) / 2,
        spill_bytes,
        peak_chunk_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;
    use crate::format::VerifyMode;
    use tpp_graph::{parse_edge_list, write_edge_list};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tpp-stream-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Builds both ways and asserts the streamed file is bit-identical to
    /// the in-memory route.
    fn assert_matches_in_memory(text: &str, cfg: &StreamConfig, tag: &str) -> StreamReport {
        let dir = tmpdir(tag);
        let edges = dir.join("edges.txt");
        std::fs::write(&edges, text).unwrap();
        let streamed = dir.join("streamed.csr");
        let report = build_stream(&edges, &streamed, cfg, &Recorder::disabled()).unwrap();
        let reference = CsrGraph::from_graph(&parse_edge_list(text).unwrap());
        let eager = dir.join("eager.csr");
        format::save(&reference, &eager).unwrap();
        assert_eq!(
            std::fs::read(&streamed).unwrap(),
            std::fs::read(&eager).unwrap(),
            "streamed file must be bit-identical to the eager build"
        );
        let loaded = format::load_mapped(&streamed, VerifyMode::Full).unwrap();
        assert_eq!(loaded, reference);
        assert_eq!(report.nodes, reference.node_count() as u64);
        assert_eq!(report.edges, reference.edge_count() as u64);
        std::fs::remove_dir_all(&dir).ok();
        report
    }

    #[test]
    fn streamed_build_matches_in_memory_build() {
        let g = tpp_graph::generators::holme_kim(400, 4, 0.25, 11);
        let report = assert_matches_in_memory(
            &write_edge_list(&g),
            &StreamConfig::default(),
            "match-default",
        );
        assert_eq!(report.chunks, 1, "default chunk holds a toy graph");
        assert_eq!(report.duplicates_dropped, 0);
    }

    #[test]
    fn multi_chunk_build_stays_bounded_and_identical() {
        let g = tpp_graph::generators::barabasi_albert(2_000, 5, 3);
        let cfg = StreamConfig { chunk_bytes: 4096 };
        let report = assert_matches_in_memory(&write_edge_list(&g), &cfg, "match-chunked");
        assert!(report.chunks > 5, "4 KiB chunks must split: {report:?}");
        let max_deg_bytes = (0..g.node_count() as u32)
            .map(|u| g.degree(u) * 4)
            .max()
            .unwrap();
        assert!(
            report.peak_chunk_bytes <= cfg.chunk_bytes.max(max_deg_bytes),
            "peak {} exceeds bound",
            report.peak_chunk_bytes
        );
        assert!(report.spill_bytes > 0);
    }

    #[test]
    fn duplicates_and_comments_resolve_like_the_parser() {
        let text = "# header\n% konect\n\n3 1\n1 3 0.5\n0 1\n1 0\n2 0\n";
        let report = assert_matches_in_memory(text, &StreamConfig { chunk_bytes: 8 }, "dups");
        assert_eq!(report.edges, 3);
        assert_eq!(report.duplicates_dropped, 2);
    }

    #[test]
    fn header_keeps_trailing_isolated_nodes_like_the_parser() {
        let text = "# nodes: 7 edges: 2\n0 1\n1 2\n";
        let report = assert_matches_in_memory(text, &StreamConfig { chunk_bytes: 8 }, "header");
        assert_eq!((report.nodes, report.edges), (7, 2));
        // Edges past the declared count still grow the node range.
        let report = assert_matches_in_memory(
            "# nodes: 2 edges: 1\n0 4\n",
            &StreamConfig::default(),
            "header-low",
        );
        assert_eq!(report.nodes, 5);
    }

    #[test]
    fn empty_input_builds_an_empty_snapshot() {
        let report =
            assert_matches_in_memory("# nothing here\n", &StreamConfig::default(), "empty");
        assert_eq!((report.nodes, report.edges, report.chunks), (0, 0, 0));
    }

    #[test]
    fn streamed_snapshot_maps_zero_copy() {
        let g = tpp_graph::generators::holme_kim(150, 3, 0.2, 5);
        let dir = tmpdir("mapped");
        let edges = dir.join("edges.txt");
        std::fs::write(&edges, write_edge_list(&g)).unwrap();
        let out = dir.join("out.csr");
        build_stream(
            &edges,
            &out,
            &StreamConfig::default(),
            &Recorder::disabled(),
        )
        .unwrap();
        let mapped = format::load_mapped(&out, VerifyMode::Header).unwrap();
        assert!(mapped.is_mapped());
        assert_eq!(mapped, CsrGraph::from_graph(&g));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_self_loops_and_bad_lines_with_line_numbers() {
        let dir = tmpdir("errors");
        let out = dir.join("out.csr");
        for (text, needle) in [
            ("0 1\n2 2\n", "line 2: self-loop"),
            ("0 1\nnot numbers\n", "line 2: invalid node id"),
            ("0\n", "line 1: expected two node ids"),
            (
                "# nodes: 9999999999 edges: 1\n0 1\n",
                "line 1: declared node count",
            ),
        ] {
            let edges = dir.join("bad.txt");
            std::fs::write(&edges, text).unwrap();
            let err = build_stream(
                &edges,
                &out,
                &StreamConfig::default(),
                &Recorder::disabled(),
            )
            .unwrap_err();
            assert!(
                matches!(&err, StoreError::Ingest(m) if m.contains(needle)),
                "{text:?}: {err}"
            );
        }
        assert!(!out.exists(), "failed builds leave no output file");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_builds_of_the_same_target_do_not_collide() {
        // Two simultaneous streamed builds of one output path inside one
        // process (the resident-service shape): each must get its own
        // scratch dir — a shared `.{stem}.build-{pid}` dir used to let the
        // first finisher's cleanup delete the other's spill files — and
        // the surviving output must be a complete, verifiable snapshot.
        let g = tpp_graph::generators::barabasi_albert(1_200, 5, 21);
        let dir = tmpdir("concurrent");
        let edges = dir.join("edges.txt");
        std::fs::write(&edges, write_edge_list(&g)).unwrap();
        let out = dir.join("same-target.csr");
        let cfg = StreamConfig { chunk_bytes: 4096 };
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (edges, out, cfg) = (&edges, &out, &cfg);
                    scope.spawn(move || build_stream(edges, out, cfg, &Recorder::disabled()))
                })
                .collect();
            for w in workers {
                let report = w.join().expect("build thread must not panic").unwrap();
                assert_eq!(report.nodes, g.node_count() as u64);
                assert_eq!(report.edges, g.edge_count() as u64);
            }
        });
        // Whoever published last, the file is a complete valid snapshot,
        // identical to the eager build.
        let loaded = format::load_mapped(&out, VerifyMode::Full).unwrap();
        assert_eq!(loaded, CsrGraph::from_graph(&g));
        // Both scratch dirs are gone.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".build-"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "scratch dirs left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reports_pass_times_when_observed() {
        let g = tpp_graph::generators::barabasi_albert(300, 4, 9);
        let dir = tmpdir("obs");
        let edges = dir.join("edges.txt");
        std::fs::write(&edges, write_edge_list(&g)).unwrap();
        let obs = Recorder::enabled();
        build_stream(&edges, dir.join("out.csr"), &StreamConfig::default(), &obs).unwrap();
        let st = obs.stats().unwrap();
        assert!(st.store.pass1_ns.get() > 0);
        assert!(st.store.pass2_ns.get() > 0);
        assert!(st.store.pass2_ns.get() >= st.store.checksum_ns.get());
        std::fs::remove_dir_all(&dir).ok();
    }
}
