//! Streaming, out-of-core CSR snapshot construction.
//!
//! [`build_stream`] is the one writer that turns a text edge list into an
//! on-disk v3 snapshot (`tpp store build`). Its two passes never
//! materialize the graph: their peak memory is `O(node_count)`
//! bookkeeping plus **one bounded chunk buffer**
//! ([`StreamConfig::chunk_bytes`], default 64 MiB), so the neighbor
//! payload — the part that dwarfs everything else on dense graphs — lives
//! on disk from start to finish. The section pass that follows them is
//! not out of core: counting triangles holds `O(edge_count)` `u32`
//! scratch (each node's lower neighbours, half the neighbor array) beside
//! the mapped file, so a build needs that much RAM.
//!
//! The shape is a textbook two-pass external CSR build:
//!
//! 0. **Input** — the builder reads the edge list twice, so an input that
//!    is not a regular file (a pipe, a FIFO, `<(...)`) is first copied
//!    once into the build's scratch directory.
//! 1. **Pass 1 (degree count)** — scan the edge list once, tally each
//!    node's degree (duplicates included) and the node-id range.
//! 2. **Chunking** — split the node range into contiguous chunks whose
//!    payload fits the chunk buffer.
//! 3. **Pass 2 (route + fill)** — scan the edge list again, appending
//!    each directed entry `(u, v)` to the spill file of the chunk owning
//!    `u`. Then, chunk by chunk: counting-sort the spill records into the
//!    chunk buffer via per-node cursors, sort + dedup each node's slice,
//!    and append the compacted slices to a temporary payload file.
//! 4. **Assemble** — stream the final file: a zeroed v3 header, offsets
//!    from the post-dedup degrees, payload copied from the temp file;
//!    FNV-1a accumulates over exactly the bytes written, then one seek
//!    writes the header and its one-entry section table.
//! 5. **Section pass** — map the assembled file (a complete snapshot
//!    without base statistics), hand the graph to the caller's
//!    `base_stats` function for its triangle counts and core numbers,
//!    append them as the base-statistics section, and rewrite the header
//!    with the two-entry table. Only then is the file renamed into place.
//!
//! Duplicate edges are resolved symmetrically: an edge listed twice puts
//! two copies in *both* endpoints' slices, and per-slice dedup drops both,
//! so the result is bit-identical to `format::save(&g, Some(&base), ..)`
//! with `g = CsrGraph::from_graph(&parse_edge_list(..))`, the in-memory
//! reference the tests compare against. Lines follow the
//! grammar of [`tpp_graph::parse_edge_line`], which `parse_edge_list`
//! uses: blank lines and `#`/`%` comments skipped, a `# nodes: N ...`
//! header sizing the node range to at least `N`, two whitespace-separated
//! ids, trailing columns tolerated, self-loops rejected. The input is read
//! in blocks and split on `\n`; a line of the form `digits [ \t] digits
//! [\r]` is parsed straight from its bytes, and every other line (and
//! every such line that would be an error) goes through `parse_edge_line`,
//! so errors and their line numbers are the parser's.

use crate::csr::CsrGraph;
use crate::error::StoreError;
use crate::format::{self, BaseSection, Fnv1a, VerifyMode};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use tpp_graph::{EdgeLine, GraphError, NodeId};
use tpp_obs::{Recorder, SpanTimer};

/// Bytes the edge-list reader asks for at a time (a longer line grows the
/// buffer).
const READ_BLOCK: usize = 256 * 1024;

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

/// What a streaming build did — printed by `tpp store build`.
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

/// Reads `reader` to its end in blocks and hands every line, parsed by
/// [`parse_line`], to `f` with its 1-based number.
fn for_each_line<R: Read>(
    mut reader: R,
    mut f: impl FnMut(usize, EdgeLine) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    let mut buf = vec![0u8; READ_BLOCK];
    let (mut filled, mut lineno) = (0usize, 0usize);
    loop {
        if filled == buf.len() {
            buf.resize(2 * buf.len(), 0);
        }
        let got = match reader.read(&mut buf[filled..]) {
            Ok(got) => got,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        filled += got;
        let mut start = 0;
        while let Some(len) = buf[start..filled].iter().position(|&b| b == b'\n') {
            lineno += 1;
            f(lineno, parse_line(&buf[start..start + len], lineno)?)?;
            start += len + 1;
        }
        if got == 0 {
            if start < filled {
                lineno += 1;
                f(lineno, parse_line(&buf[start..filled], lineno)?)?;
            }
            return Ok(());
        }
        buf.copy_within(start..filled, 0);
        filled -= start;
    }
}

/// One line (without its `\n`) by the grammar of
/// [`tpp_graph::parse_edge_line`], errors in this builder's `line N: ...`
/// wording. A valid `digits [ \t] digits [\r]` edge is read from its bytes;
/// every other line is decoded and handed to the parser.
fn parse_line(line: &[u8], lineno: usize) -> Result<EdgeLine, StoreError> {
    if let Some((u, v)) = plain_edge(line) {
        return Ok(EdgeLine::Edge(u, v));
    }
    let text = std::str::from_utf8(line).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })?;
    tpp_graph::parse_edge_line(text, lineno).map_err(|e| {
        StoreError::Ingest(match e {
            GraphError::SelfLoop { node } => format!("line {lineno}: self-loop at node {node}"),
            GraphError::Parse { reason, .. } => format!("line {lineno}: {reason}"),
            other => format!("line {lineno}: {other}"),
        })
    })
}

/// The edge of a line that is exactly `digits [ \t] digits`, optionally
/// `\r`-terminated, with both ids in range and distinct; `None` for any
/// other line.
fn plain_edge(line: &[u8]) -> Option<(NodeId, NodeId)> {
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    let sep = line.iter().position(|&b| b == b' ' || b == b'\t')?;
    let (u, v) = (plain_id(&line[..sep])?, plain_id(&line[sep + 1..])?);
    (u != v).then_some((u, v))
}

/// A nonempty run of ASCII digits that fits a [`NodeId`].
fn plain_id(digits: &[u8]) -> Option<NodeId> {
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0 as NodeId, |id, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        id.checked_mul(10)?.checked_add(NodeId::from(d))
    })
}

/// The error for an input whose pass-2 contents disagree with pass 1.
fn changed_between_passes(at: &str) -> StoreError {
    StoreError::Ingest(format!("{at}: edge list changed between passes"))
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

/// Builds a v3 snapshot at `out` directly from the text edge list at
/// `edges`, holding at most one [`StreamConfig::chunk_bytes`] payload
/// buffer in memory during the two passes, then adds the base-statistics
/// section `base_stats` computes over the mapped result (see the module
/// docs). Phase wall times land in `obs`'s store section (`pass1_ns`,
/// `pass2_ns` with `fill_ns` / `checksum_ns` nested inside, and
/// `section_ns`).
///
/// The produced file is bit-identical to `format::save(&g, Some(&base),
/// out)` for `g = CsrGraph::from_graph(&parse_edge_list(...)?)` and `base =
/// base_stats(&g)`.
///
/// # Errors
/// [`StoreError::Ingest`] for malformed edge-list lines (with the 1-based
/// line number) and for an input that changed between the two passes,
/// [`StoreError::Io`] for filesystem failures.
///
/// # Panics
/// If `base_stats` returns arrays whose length is not the node count.
pub fn build_stream<P: AsRef<Path>, Q: AsRef<Path>>(
    edges: P,
    out: Q,
    cfg: &StreamConfig,
    base_stats: &dyn Fn(&CsrGraph) -> BaseSection,
    obs: &Recorder,
) -> Result<StreamReport, StoreError> {
    let edges = edges.as_ref();
    let out = out.as_ref();
    let tmp = TempDir::create(out)?;

    // Both passes reopen the input, which a pipe cannot serve twice:
    // anything but a regular file is read once into the scratch dir.
    let copied;
    let edges = if std::fs::metadata(edges)?.is_file() {
        edges
    } else {
        copied = tmp.path().join("input.txt");
        std::io::copy(&mut File::open(edges)?, &mut File::create(&copied)?)?;
        copied.as_path()
    };
    build_two_pass(|| File::open(edges), out, &tmp, cfg, base_stats, obs)
}

/// The passes of [`build_stream`]; `open` yields the edge list from its
/// start, once per pass.
fn build_two_pass<R: Read>(
    mut open: impl FnMut() -> std::io::Result<R>,
    out: &Path,
    tmp: &TempDir,
    cfg: &StreamConfig,
    base_stats: &dyn Fn(&CsrGraph) -> BaseSection,
    obs: &Recorder,
) -> Result<StreamReport, StoreError> {
    let stats = obs.stats();
    let chunk_bytes = cfg.chunk_bytes.max(8);

    // ---- Pass 1: degree count ------------------------------------------
    let pass1 = SpanTimer::counter(stats.map(|s| &s.store.pass1_ns));
    let mut degrees: Vec<u32> = Vec::new();
    let mut directed_total: u64 = 0;
    for_each_line(open()?, |_, parsed| {
        let (u, v) = match parsed {
            EdgeLine::Edge(u, v) => (u, v),
            EdgeLine::Nodes(n) => {
                if n > degrees.len() {
                    degrees.resize(n, 0);
                }
                return Ok(());
            }
            EdgeLine::Skip => return Ok(()),
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
        Ok(())
    })?;
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
    let mut spill_bytes: u64 = 0;

    // Route every directed entry (u → v) to the spill file of u's chunk.
    let spill_path = |k: usize| tmp.path().join(format!("spill-{k}.bin"));
    if chunks > 0 {
        let mut writers: Vec<BufWriter<File>> = (0..chunks)
            .map(|k| File::create(spill_path(k)).map(BufWriter::new))
            .collect::<Result<_, _>>()?;
        for_each_line(open()?, |lineno, parsed| {
            let EdgeLine::Edge(u, v) = parsed else {
                return Ok(());
            };
            if u.max(v) as usize >= n {
                return Err(changed_between_passes(&format!("line {lineno}")));
            }
            for (src, dst) in [(u, v), (v, u)] {
                let mut rec = [0u8; 8];
                rec[..4].copy_from_slice(&src.to_le_bytes());
                rec[4..].copy_from_slice(&dst.to_le_bytes());
                writers[chunk_of(src)].write_all(&rec)?;
                spill_bytes += 8;
            }
            Ok(())
        })?;
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
            // Pass 2 may not place more entries at a node than pass 1
            // counted, nor (checked below) fewer.
            let at = &mut cursor[src - lo];
            if *at == starts[src - lo + 1] {
                return Err(changed_between_passes(&format!("node {src}")));
            }
            buf[*at] = dst;
            *at += 1;
        }
        if let Some(i) = (0..hi - lo).find(|&i| cursor[i] != starts[i + 1]) {
            return Err(changed_between_passes(&format!("node {}", lo + i)));
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

    // Assemble the file: header (zeroed), offsets from the post-dedup
    // degrees, payload copied through; FNV-1a runs over exactly the
    // payload bytes as they are written, then a single seek writes the
    // header and its section table. Assembly happens inside the scratch
    // dir and the finished file is renamed into place, so `out` is only
    // ever a complete snapshot — concurrent builds of the same target
    // each publish atomically instead of interleaving writes.
    let checksum_span = SpanTimer::counter(stats.map(|s| &s.store.checksum_ns));
    let staged_path = tmp.path().join("snapshot.bin");
    let mut hasher = Fnv1a::default();
    let mut w = BufWriter::new(File::create(&staged_path)?);
    w.write_all(&[0u8; format::PAYLOAD_OFFSET_V3 as usize])?;
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
    let csr_end = file.stream_position()?;
    let payload_checksum = hasher.finish();
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&format::v3_prefix(
        n as u64,
        edge_count,
        payload_checksum,
        None,
    )?)?;
    file.flush()?;
    checksum_span.stop();
    pass2.stop();

    // ---- Section pass: base statistics of the assembled graph ----------
    // The staged file is a complete snapshot without the section; the
    // section and the two-entry table go on before the rename.
    let section_span = SpanTimer::counter(stats.map(|s| &s.store.section_ns));
    let base = base_stats(&format::load_mapped(&staged_path, VerifyMode::None)?);
    let encoded = base.encode(n);
    file.seek(SeekFrom::Start(csr_end))?;
    format::write_base_section(&mut file, csr_end, &encoded)?;
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&format::v3_prefix(
        n as u64,
        edge_count,
        payload_checksum,
        Some(format::section_checksum(&encoded)),
    )?)?;
    file.flush()?;
    drop(file);
    section_span.stop();
    // Scratch dir and output share a parent, so the rename is atomic.
    std::fs::rename(&staged_path, out)?;

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
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use tpp_graph::{parse_edge_list, write_edge_list};

    /// The base statistics `tpp store build` computes.
    fn base_of(g: &CsrGraph) -> BaseSection {
        BaseSection {
            triangles: tpp_metrics::clustering::triangle_counts(g),
            cores: tpp_metrics::core_numbers(g),
        }
    }

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
        let report = build_stream(&edges, &streamed, cfg, &base_of, &Recorder::disabled()).unwrap();
        let reference = CsrGraph::from_graph(&parse_edge_list(text).unwrap());
        let eager = dir.join("eager.csr");
        format::save(&reference, Some(&base_of(&reference)), &eager).unwrap();
        assert_eq!(
            std::fs::read(&streamed).unwrap(),
            std::fs::read(&eager).unwrap(),
            "streamed file must be bit-identical to the in-memory reference"
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
            &base_of,
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
                &base_of,
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
    fn input_changed_between_passes_is_a_named_error() {
        // Pass 1 sizes every node's slice; a pass 2 that brings more
        // entries, fewer, or a node past the counted range must fail by
        // name, never panic or publish a snapshot.
        let dir = tmpdir("changed");
        let out = dir.join("out.csr");
        for (pass1, pass2, needle) in [
            ("0 1\n1 2\n", "0 1\n1 2\n0 2\n", "node 0: edge list changed"),
            ("0 1\n1 2\n", "0 1\n", "node 1: edge list changed"),
            ("0 1\n", "0 1\n1 5\n", "line 2: edge list changed"),
        ] {
            for chunk_bytes in [8, StreamConfig::default().chunk_bytes] {
                let mut passes = [pass1, pass2].into_iter();
                let err = build_two_pass(
                    || Ok(std::io::Cursor::new(passes.next().unwrap())),
                    &out,
                    &TempDir::create(&out).unwrap(),
                    &StreamConfig { chunk_bytes },
                    &base_of,
                    &Recorder::disabled(),
                )
                .unwrap_err();
                assert!(
                    matches!(&err, StoreError::Ingest(m) if m.contains(needle)),
                    "{pass2:?} at {chunk_bytes} B: {err}"
                );
            }
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
                    scope.spawn(move || {
                        build_stream(edges, out, cfg, &base_of, &Recorder::disabled())
                    })
                })
                .collect();
            for w in workers {
                let report = w.join().expect("build thread must not panic").unwrap();
                assert_eq!(report.nodes, g.node_count() as u64);
                assert_eq!(report.edges, g.edge_count() as u64);
            }
        });
        // Whoever published last, the file is a complete valid snapshot,
        // identical to the in-memory reference.
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
        let out = dir.join("out.csr");
        build_stream(&edges, &out, &StreamConfig::default(), &base_of, &obs).unwrap();
        let st = obs.stats().unwrap();
        assert!(st.store.pass1_ns.get() > 0);
        assert!(st.store.pass2_ns.get() > 0);
        assert!(st.store.pass2_ns.get() >= st.store.checksum_ns.get());
        assert!(st.store.section_ns.get() > 0);
        let (_, _, base) =
            format::load_mapped_observed(&out, VerifyMode::Full, &Recorder::disabled()).unwrap();
        assert_eq!(base, Some(base_of(&CsrGraph::from_graph(&g))));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The line reader this module had before it parsed bytes: one
    /// `read_line` per line, every line through `parse_edge_line`.
    fn lines_by_read_line(input: &[u8]) -> Result<Vec<(usize, EdgeLine)>, String> {
        use std::io::BufRead;
        let mut reader = std::io::BufReader::new(input);
        let (mut line, mut out) = (String::new(), Vec::new());
        loop {
            line.clear();
            if reader
                .read_line(&mut line)
                .map_err(|e| StoreError::Io(e).to_string())?
                == 0
            {
                return Ok(out);
            }
            let lineno = out.len() + 1;
            let parsed =
                tpp_graph::parse_edge_line(&line, lineno).map_err(|e| ingest_error(e, lineno))?;
            out.push((lineno, parsed));
        }
    }

    /// `parse_edge_line`'s error in this builder's wording.
    fn ingest_error(e: GraphError, lineno: usize) -> String {
        StoreError::Ingest(match e {
            GraphError::SelfLoop { node } => format!("line {lineno}: self-loop at node {node}"),
            GraphError::Parse { reason, .. } => format!("line {lineno}: {reason}"),
            other => format!("line {lineno}: {other}"),
        })
        .to_string()
    }

    /// A reader that hands out its bytes a few at a time, so lines straddle
    /// every kind of read boundary.
    struct Trickle<'a>(&'a [u8], usize);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.1 = self.1 % 7 + 1;
            let n = self.1.min(buf.len()).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    fn lines_by_bytes<R: Read>(reader: R) -> Result<Vec<(usize, EdgeLine)>, String> {
        let mut out = Vec::new();
        for_each_line(reader, |lineno, parsed| {
            out.push((lineno, parsed));
            Ok(())
        })
        .map_err(|e| e.to_string())?;
        Ok(out)
    }

    /// One random line that hits both sides of the byte path: half the
    /// time two ids around a separator, with something before or after
    /// them now and then (plain edges, self-loops, overflowing ids,
    /// extra columns), otherwise a soup of pieces (comments, headers,
    /// signs, non-ASCII whitespace, invalid UTF-8).
    fn random_line(rng: &mut rand::rngs::StdRng) -> Vec<u8> {
        const IDS: [&[u8]; 7] = [
            b"0",
            b"7",
            b"42",
            b"007",
            b"4294967295",
            b"4294967296",
            b"99999999999",
        ];
        const SEPARATORS: &[&[u8]] = &[b" ", b"\t", b"  ", b" \t"];
        const BEFORE: &[&[u8]] = &[b"", b"", b" ", b"+", b"#"];
        const AFTER: &[&[u8]] = &[b"", b"", b"\r", b"\r\r", b" 0.5", b"x"];
        const PIECES: [&[u8]; 11] = [
            b"\r",
            b"#",
            b"%",
            b"# nodes: ",
            b"+",
            b"-",
            b"x",
            b"0.5",
            "\u{a0}".as_bytes(),
            "\u{e9}".as_bytes(),
            b"\xff",
        ];
        fn pick(rng: &mut rand::rngs::StdRng, set: &[&'static [u8]]) -> &'static [u8] {
            set[rng.gen_range(0..set.len())]
        }
        let mut line = Vec::new();
        if rng.gen_range(0..2u8) == 0 {
            for part in [BEFORE, IDS.as_slice(), SEPARATORS, IDS.as_slice(), AFTER] {
                line.extend_from_slice(pick(rng, part));
            }
        } else {
            for _ in 0..rng.gen_range(0..5usize) {
                let set = if rng.gen_range(0..2u8) == 0 {
                    PIECES.as_slice()
                } else {
                    IDS.as_slice()
                };
                line.extend_from_slice(pick(rng, set));
                line.extend_from_slice(pick(rng, &[b"", b" "]));
            }
        }
        line
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The byte path and `parse_edge_line` agree on random lines,
        /// errors included; and over whole inputs, read at once or a few
        /// bytes at a time, the block reader yields what the old
        /// `read_line` loop did, down to the error text.
        #[test]
        fn byte_path_agrees_with_parse_edge_line(seed in 0u64..u64::MAX, lines in 1usize..12) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut input = Vec::new();
            for i in 0..lines {
                let line = random_line(&mut rng);
                if let Ok(text) = std::str::from_utf8(&line) {
                    let by_parser = tpp_graph::parse_edge_line(text, i + 1)
                        .map_err(|e| ingest_error(e, i + 1));
                    let by_bytes = parse_line(&line, i + 1).map_err(|e| e.to_string());
                    prop_assert_eq!(by_bytes, by_parser, "line {:?}", text);
                }
                input.extend_from_slice(&line);
                if i + 1 < lines || rng.gen_range(0..2u8) == 0 {
                    input.push(b'\n');
                }
            }
            let reference = lines_by_read_line(&input);
            prop_assert_eq!(lines_by_bytes(&input[..]), reference.clone());
            prop_assert_eq!(lines_by_bytes(Trickle(&input, 0)), reference);
        }
    }

    #[test]
    fn lines_longer_than_a_read_block_parse_whole() {
        let pad = " ".repeat(READ_BLOCK + 10);
        let text = format!("0 1\n2{pad}3\n4 5");
        let got = lines_by_bytes(text.as_bytes()).unwrap();
        assert_eq!(
            got,
            [
                (1, EdgeLine::Edge(0, 1)),
                (2, EdgeLine::Edge(2, 3)),
                (3, EdgeLine::Edge(4, 5))
            ]
        );
    }
}
