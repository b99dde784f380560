//! The versioned, checksummed binary on-disk format for CSR snapshots.
//!
//! Layout of the current version, v2 (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     8  magic            b"TPPCSR\xF0\x01"
//!      8     4  version          u32, currently 2
//!     12     4  flags            u32, reserved (must be 0)
//!     16     8  node_count       u64
//!     24     8  edge_count       u64  (undirected edges)
//!     32     8  payload checksum u64  (FNV-1a over both arrays' bytes)
//!     40    24  padding          zero bytes up to the payload boundary
//!     64   8·(n+1)  offsets      u64 array, length node_count + 1
//!      …   4·2m     neighbors    u32 array, length 2 · edge_count
//! ```
//!
//! v2 pads the payload to a 64-byte boundary so a memory-mapped file serves
//! the `u64` offset table at its natural alignment (mappings are page-
//! aligned, so byte 64 of the file is 64-byte aligned in memory) — the
//! enabler for [`load_mapped`]: zero-copy loads that never deserialize the
//! arrays. v1 files (payload at byte 40) remain fully readable through the
//! owned decode path; only the writer moved to v2.
//!
//! ## Tiered verification
//!
//! Header checks (magic, version, flags, count sanity, exact file length)
//! are always eager. What happens to the payload is chosen per call via
//! [`VerifyMode`]:
//!
//! * [`VerifyMode::Full`] — recompute the FNV-1a payload checksum and run
//!   the complete CSR structural validator (sortedness, symmetry). The
//!   cost is proportional to the payload; this is the v1 behavior and the
//!   default everywhere.
//! * [`VerifyMode::Header`] — sweep only the offset table (monotone,
//!   starts at 0, covers the neighbor array exactly): `O(node_count)`
//!   work that guarantees every later `neighbors(u)` slice is in-bounds,
//!   without faulting in a byte of the (much larger) neighbor array.
//! * [`VerifyMode::None`] — trust the payload entirely; only the header
//!   cross-checks run. For mapped loads this touches no payload page at
//!   all.
//!
//! A snapshot is validated in full when written ([`write_snapshot`] only
//! accepts a live `CsrGraph`, whose invariants hold by construction), so
//! the cheaper tiers trade re-verification of immutable bytes for load
//! latency — the right trade everywhere except on files of unknown
//! provenance.

use crate::csr::CsrGraph;
use crate::error::StoreError;
use crate::mmap::MmapRegion;
use crate::storage::{CsrStorage, MappedCsr};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;
use tpp_obs::{Recorder, SpanTimer};

/// File magic: "TPPCSR" + 0xF0 sentinel + format generation.
pub const MAGIC: [u8; 8] = *b"TPPCSR\xF0\x01";

/// Newest format version this build writes and reads.
pub const VERSION: u32 = 2;

/// Byte offset of the payload in a v2 file (64-byte aligned).
pub const PAYLOAD_OFFSET_V2: u64 = 64;

/// Byte offset of the payload in a legacy v1 file.
pub const PAYLOAD_OFFSET_V1: u64 = 40;

/// Size of the fixed header fields shared by every version.
const HEADER_FIELDS_LEN: u64 = 40;

/// How much of a snapshot's payload a load re-verifies. See the module
/// docs for the exact guarantees of each tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// Checksum + full structural validation (the default).
    #[default]
    Full,
    /// Offset-table sweep only; the neighbor array is untouched.
    Header,
    /// Header cross-checks only; the payload is trusted outright.
    None,
}

impl VerifyMode {
    /// Parses a CLI-style name (`full` / `header` / `none`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<VerifyMode> {
        match name {
            "full" => Some(VerifyMode::Full),
            "header" => Some(VerifyMode::Header),
            "none" => Some(VerifyMode::None),
            _ => None,
        }
    }

    /// The CLI-style name of this tier.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            VerifyMode::Full => "full",
            VerifyMode::Header => "header",
            VerifyMode::None => "none",
        }
    }
}

/// Streaming FNV-1a state — dependency-free integrity check. This guards
/// against corruption, not adversaries; it is not a cryptographic digest.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Feeds bytes into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a over a byte slice.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.finish()
}

/// FNV-1a over the two payload arrays (offsets first, then neighbors),
/// each element contributing its little-endian bytes — the definition
/// shared by the writer, the streaming builder, and every verifier.
#[must_use]
pub fn payload_checksum_arrays(offsets: &[u64], neighbors: &[u32]) -> u64 {
    let mut h = Fnv1a::default();
    for &off in offsets {
        h.update(&off.to_le_bytes());
    }
    for &v in neighbors {
        h.update(&v.to_le_bytes());
    }
    h.finish()
}

fn payload_checksum(g: &CsrGraph) -> u64 {
    payload_checksum_arrays(g.offsets(), g.neighbor_array())
}

/// The decoded fixed header of a snapshot file — everything `tpp store
/// info` prints about a file without touching its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version found in the file (1 or 2).
    pub version: u32,
    /// Number of nodes.
    pub node_count: u64,
    /// Number of undirected edges.
    pub edge_count: u64,
    /// Stored FNV-1a payload checksum.
    pub checksum: u64,
}

impl SnapshotHeader {
    /// Byte offset where the payload begins for this version.
    #[must_use]
    pub fn payload_offset(&self) -> u64 {
        if self.version >= 2 {
            PAYLOAD_OFFSET_V2
        } else {
            PAYLOAD_OFFSET_V1
        }
    }

    /// The guaranteed alignment of the payload within a page-aligned
    /// mapping: 64 bytes for v2, 8 for v1.
    #[must_use]
    pub fn payload_alignment(&self) -> u64 {
        // Largest power of two dividing the payload offset.
        let off = self.payload_offset();
        off & off.wrapping_neg()
    }

    /// Offset-table length in elements (`node_count + 1`).
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when the count overflows `usize`.
    pub fn offsets_len(&self) -> Result<usize, StoreError> {
        usize::try_from(self.node_count)
            .ok()
            .and_then(|n| n.checked_add(1))
            .ok_or_else(|| {
                StoreError::Corrupt(format!("node count {} overflows usize", self.node_count))
            })
    }

    /// Neighbor-array length in elements (`2 * edge_count`).
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when the count overflows `usize`.
    pub fn neighbors_len(&self) -> Result<usize, StoreError> {
        self.edge_count
            .checked_mul(2)
            .and_then(|x| usize::try_from(x).ok())
            .ok_or_else(|| StoreError::Corrupt(format!("edge count {} overflows", self.edge_count)))
    }

    /// Exact file length a well-formed snapshot with this header has.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when the counts overflow.
    pub fn expected_file_len(&self) -> Result<u64, StoreError> {
        let offsets_bytes = (self.offsets_len()? as u64)
            .checked_mul(8)
            .ok_or_else(|| StoreError::Corrupt("offset table size overflows".into()))?;
        let neighbor_bytes = (self.neighbors_len()? as u64)
            .checked_mul(4)
            .ok_or_else(|| StoreError::Corrupt("neighbor array size overflows".into()))?;
        self.payload_offset()
            .checked_add(offsets_bytes)
            .and_then(|x| x.checked_add(neighbor_bytes))
            .ok_or_else(|| StoreError::Corrupt("file size overflows".into()))
    }
}

/// Parses and sanity-checks the fixed header fields from a byte prefix.
/// For v2, also demands the 24 padding bytes be present and zero.
fn parse_header(bytes: &[u8]) -> Result<SnapshotHeader, StoreError> {
    // Magic first: a short non-snapshot file is "not a TPP store file",
    // not "truncated".
    let Some(magic) = bytes.get(0..8).map(|m| {
        let m: [u8; 8] = m.try_into().expect("8 bytes");
        m
    }) else {
        return Err(StoreError::Corrupt("file truncated".into()));
    };
    if magic != MAGIC {
        return Err(StoreError::BadMagic(magic));
    }
    if bytes.len() < HEADER_FIELDS_LEN as usize {
        return Err(StoreError::Corrupt("file truncated".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version == 0 || version > VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let flags = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if flags != 0 {
        return Err(StoreError::Corrupt(format!(
            "reserved flags set: {flags:#010x}"
        )));
    }
    let header = SnapshotHeader {
        version,
        node_count: u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")),
        edge_count: u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes")),
        checksum: u64::from_le_bytes(bytes[32..40].try_into().expect("8 bytes")),
    };
    if version >= 2 {
        let pad_end = PAYLOAD_OFFSET_V2 as usize;
        let Some(pad) = bytes.get(HEADER_FIELDS_LEN as usize..pad_end) else {
            return Err(StoreError::Corrupt("file truncated".into()));
        };
        if pad.iter().any(|&b| b != 0) {
            return Err(StoreError::Corrupt(
                "nonzero padding between header and payload".into(),
            ));
        }
    }
    Ok(header)
}

/// Reads and sanity-checks a snapshot file's header **without touching the
/// payload**: magic, version, flags, counts, and the exact-file-length
/// cross-check all run; the arrays stay on disk. This is the fast path
/// behind `tpp store info`.
///
/// # Errors
/// Returns the specific [`StoreError`] variant describing what failed.
pub fn read_header<P: AsRef<Path>>(path: P) -> Result<SnapshotHeader, StoreError> {
    let mut file = std::fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut buf = [0u8; PAYLOAD_OFFSET_V2 as usize];
    let want = (file_len.min(PAYLOAD_OFFSET_V2)) as usize;
    read_exact(&mut file, &mut buf[..want])?;
    let header = parse_header(&buf[..want])?;
    let expected = header.expected_file_len()?;
    if file_len != expected {
        return Err(StoreError::Corrupt(format!(
            "file is {file_len} bytes, header implies {expected}"
        )));
    }
    Ok(header)
}

/// The offset-table sweep behind [`VerifyMode::Header`]: starts at zero,
/// monotone non-decreasing, ends exactly at the neighbor-array length.
/// Guarantees every per-node slice lookup is in-bounds.
fn check_offsets(offsets: &[u64], neighbors_len: usize) -> Result<(), StoreError> {
    let Some(&first) = offsets.first() else {
        return Err(StoreError::Corrupt("empty offset table".into()));
    };
    if first != 0 {
        return Err(StoreError::Corrupt(format!("offsets[0] = {first}, want 0")));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(StoreError::Corrupt("offset table not monotone".into()));
    }
    if *offsets.last().expect("nonempty") != neighbors_len as u64 {
        return Err(StoreError::Corrupt(
            "offsets do not cover the neighbor array".into(),
        ));
    }
    Ok(())
}

/// Applies the selected verification tier to a freshly loaded snapshot
/// whose header claimed `header.edge_count` edges, timing the work into
/// the recorder's `validate_ns` phase.
fn verify_payload(
    g: &CsrGraph,
    header: &SnapshotHeader,
    verify: VerifyMode,
    obs: &Recorder,
) -> Result<(), StoreError> {
    let span = SpanTimer::counter(obs.stats().map(|s| &s.store.validate_ns));
    match verify {
        VerifyMode::Full => {
            let computed = payload_checksum(g);
            if computed != header.checksum {
                return Err(StoreError::ChecksumMismatch {
                    stored: header.checksum,
                    computed,
                });
            }
            g.validate()?;
        }
        VerifyMode::Header => {
            check_offsets(g.offsets(), g.neighbor_array().len())?;
        }
        VerifyMode::None => {}
    }
    span.stop();
    Ok(())
}

/// Serializes a snapshot into `w` in the current (v2) layout.
///
/// # Errors
/// Returns [`StoreError::Io`] on write failure.
pub fn write_snapshot<W: Write>(g: &CsrGraph, w: &mut W) -> Result<(), StoreError> {
    write_header(w, g.node_count() as u64, g.edge_count() as u64, {
        payload_checksum(g)
    })?;
    write_payload(g, w)
}

/// Writes the v2 fixed header + alignment padding.
pub(crate) fn write_header<W: Write>(
    w: &mut W,
    node_count: u64,
    edge_count: u64,
    checksum: u64,
) -> Result<(), StoreError> {
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?; // flags
    w.write_all(&node_count.to_le_bytes())?;
    w.write_all(&edge_count.to_le_bytes())?;
    w.write_all(&checksum.to_le_bytes())?;
    w.write_all(&[0u8; (PAYLOAD_OFFSET_V2 - HEADER_FIELDS_LEN) as usize])?;
    Ok(())
}

/// Writes the two payload arrays, buffered in chunks to keep syscall
/// counts sane without doubling peak memory on million-edge graphs.
fn write_payload<W: Write>(g: &CsrGraph, w: &mut W) -> Result<(), StoreError> {
    let mut buf = Vec::with_capacity(64 * 1024);
    for &off in g.offsets() {
        buf.extend_from_slice(&off.to_le_bytes());
        if buf.len() >= 64 * 1024 - 8 {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    for &v in g.neighbor_array() {
        buf.extend_from_slice(&v.to_le_bytes());
        if buf.len() >= 64 * 1024 - 8 {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Serializes a snapshot in the **legacy v1** layout (payload directly at
/// byte 40, no alignment padding). Kept so compatibility tests can pin
/// that v1 files remain readable; new files should use [`write_snapshot`].
///
/// # Errors
/// Returns [`StoreError::Io`] on write failure.
pub fn write_snapshot_v1<W: Write>(g: &CsrGraph, w: &mut W) -> Result<(), StoreError> {
    w.write_all(&MAGIC)?;
    w.write_all(&1u32.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?; // flags
    w.write_all(&(g.node_count() as u64).to_le_bytes())?;
    w.write_all(&(g.edge_count() as u64).to_le_bytes())?;
    w.write_all(&payload_checksum(g).to_le_bytes())?;
    write_payload(g, w)
}

/// The one streaming decode path: deserializes a snapshot (v1 or v2) from
/// any reader into owned arrays, applying the chosen verification tier.
/// [`load_mapped`] falls back to it where memory mapping is unsupported.
/// Phase wall time (parse, fill, validate, checksum) lands in `obs`'s store
/// section; a disabled recorder never reads the clock. The returned `u32`
/// is the header version (1 for legacy files, 2 for current ones).
///
/// # Errors
/// Returns the specific [`StoreError`] variant describing what failed.
pub fn read_snapshot_with<R: Read>(
    r: &mut R,
    verify: VerifyMode,
    obs: &Recorder,
) -> Result<(CsrGraph, u32), StoreError> {
    let stats = obs.stats();
    // Parse phase: header fields plus the raw offset/neighbor arrays.
    let parse_span = SpanTimer::counter(stats.map(|s| &s.store.parse_ns));
    let mut head = [0u8; PAYLOAD_OFFSET_V2 as usize];
    // Magic before anything else, so a short non-snapshot file reports
    // "not a TPP store file" rather than "truncated".
    read_exact(r, &mut head[..8])?;
    if head[..8] != MAGIC {
        return Err(StoreError::BadMagic(head[..8].try_into().expect("8 bytes")));
    }
    read_exact(r, &mut head[8..HEADER_FIELDS_LEN as usize])?;
    // A v2 header continues with padding bytes; probe the version first.
    let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
    let head_len = if version >= 2 {
        read_exact(
            r,
            &mut head[HEADER_FIELDS_LEN as usize..PAYLOAD_OFFSET_V2 as usize],
        )?;
        PAYLOAD_OFFSET_V2 as usize
    } else {
        HEADER_FIELDS_LEN as usize
    };
    let header = parse_header(&head[..head_len])?;

    // Decode in bounded 64 KiB chunks: bulk enough to run at I/O speed,
    // but growing the buffers only as bytes actually arrive rather than
    // trusting the header's counts with an upfront allocation — a tiny
    // file claiming 2^40 nodes must fail with "file truncated", not
    // abort on OOM.
    let offsets = read_u64_array(r, header.offsets_len()?)?;
    let neighbors = read_u32_array(r, header.neighbors_len()?)?;
    // A well-formed file ends exactly here.
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(StoreError::Corrupt("trailing bytes after payload".into()));
    }
    parse_span.stop();

    // Fill phase: CSR construction (array lengths already match the
    // header by construction of the reads above).
    let fill_span = SpanTimer::counter(stats.map(|s| &s.store.fill_ns));
    let g = CsrGraph::from_storage(CsrStorage::Owned { offsets, neighbors });
    fill_span.stop();

    // Checksum/validation phase, per the selected tier.
    let checksum_span = SpanTimer::counter(stats.map(|s| &s.store.checksum_ns));
    verify_payload(&g, &header, verify, obs)?;
    checksum_span.stop();
    if let Some(st) = stats {
        st.store.loads.inc();
    }
    Ok((g, header.version))
}

/// Saves a snapshot to `path` (buffered, current format version).
///
/// # Errors
/// Returns [`StoreError::Io`] on filesystem failure.
pub fn save<P: AsRef<Path>>(g: &CsrGraph, path: P) -> Result<(), StoreError> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    write_snapshot(g, &mut w)?;
    w.flush()?;
    Ok(())
}

/// Zero-copy load: memory-maps `path` and serves the CSR arrays straight
/// from the page cache, with the chosen verification tier.
///
/// A v2 file comes back mapped ([`CsrGraph::is_mapped`] is `true`): no
/// payload byte is copied, and under [`VerifyMode::None`] none is even
/// faulted in until first use. A legacy v1 file (payload not 64-byte
/// aligned) transparently falls back to the owned decode path at the same
/// verification tier. On non-Linux targets every load falls back to the
/// owned path.
///
/// # Errors
/// Returns the specific [`StoreError`] describing what failed.
pub fn load_mapped<P: AsRef<Path>>(path: P, verify: VerifyMode) -> Result<CsrGraph, StoreError> {
    load_mapped_observed(path, verify, &Recorder::disabled()).map(|(g, _)| g)
}

/// Like [`load_mapped`], returning the header version and reporting the
/// map/validate phase wall times into `obs`'s store section.
///
/// # Errors
/// Returns the specific [`StoreError`] describing what failed.
pub fn load_mapped_observed<P: AsRef<Path>>(
    path: P,
    verify: VerifyMode,
    obs: &Recorder,
) -> Result<(CsrGraph, u32), StoreError> {
    let stats = obs.stats();
    let map_span = SpanTimer::counter(stats.map(|s| &s.store.map_ns));
    let file = std::fs::File::open(path.as_ref())?;
    let file_len = file.metadata()?.len();
    let region = match MmapRegion::map_file(&file) {
        Ok(region) => Arc::new(region),
        // No mmap on this platform: decode into owned arrays instead.
        Err(e) if e.kind() == std::io::ErrorKind::Unsupported => {
            drop(map_span);
            let mut r = std::io::BufReader::new(file);
            return read_snapshot_with(&mut r, verify, obs);
        }
        Err(e) => return Err(StoreError::Io(e)),
    };
    map_span.stop();

    let bytes = region.bytes();
    let header = parse_header(bytes)?;
    let expected = header.expected_file_len()?;
    if file_len != expected {
        return Err(StoreError::Corrupt(format!(
            "file is {file_len} bytes, header implies {expected}"
        )));
    }
    if header.version < 2 {
        // v1 payload is unpadded; serve it through the owned path. The
        // mapping is already here, so decode straight from it.
        let g = decode_owned_from_bytes(&header, bytes, obs)?;
        verify_payload(&g, &header, verify, obs)?;
        if let Some(st) = stats {
            st.store.loads.inc();
        }
        return Ok((g, header.version));
    }

    let offsets_at = header.payload_offset() as usize;
    let offsets_len = header.offsets_len()?;
    let neighbors_at = offsets_at + offsets_len * 8;
    let mapped = MappedCsr::new(
        Arc::clone(&region),
        offsets_at,
        offsets_len,
        neighbors_at,
        header.neighbors_len()?,
    )
    .map_err(StoreError::Corrupt)?;
    let g = CsrGraph::from_storage(CsrStorage::Mapped(mapped));
    verify_payload(&g, &header, verify, obs)?;
    if let Some(st) = stats {
        st.store.loads.inc();
    }
    Ok((g, header.version))
}

/// Decodes the payload arrays out of an in-memory byte image (the v1
/// branch of the mapped loader), timing the copy as the parse phase.
fn decode_owned_from_bytes(
    header: &SnapshotHeader,
    bytes: &[u8],
    obs: &Recorder,
) -> Result<CsrGraph, StoreError> {
    let span = SpanTimer::counter(obs.stats().map(|s| &s.store.parse_ns));
    let mut at = header.payload_offset() as usize;
    let mut offsets = Vec::with_capacity(header.offsets_len()?);
    for _ in 0..header.offsets_len()? {
        offsets.push(u64::from_le_bytes(
            bytes[at..at + 8].try_into().expect("8 bytes"),
        ));
        at += 8;
    }
    let mut neighbors = Vec::with_capacity(header.neighbors_len()?);
    for _ in 0..header.neighbors_len()? {
        neighbors.push(u32::from_le_bytes(
            bytes[at..at + 4].try_into().expect("4 bytes"),
        ));
        at += 4;
    }
    span.stop();
    Ok(CsrGraph::from_storage(CsrStorage::Owned {
        offsets,
        neighbors,
    }))
}

fn read_exact<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), StoreError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Corrupt("file truncated".into())
        } else {
            StoreError::Io(e)
        }
    })
}

/// Decode chunk size in bytes (shared by the array readers).
const READ_CHUNK: usize = 64 * 1024;

fn read_u64_array<R: Read>(r: &mut R, len: usize) -> Result<Vec<u64>, StoreError> {
    let mut out = Vec::new();
    let mut buf = [0u8; READ_CHUNK];
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(READ_CHUNK / 8);
        let bytes = &mut buf[..take * 8];
        read_exact(r, bytes)?;
        out.reserve(take);
        for w in bytes.chunks_exact(8) {
            out.push(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        remaining -= take;
    }
    Ok(out)
}

fn read_u32_array<R: Read>(r: &mut R, len: usize) -> Result<Vec<u32>, StoreError> {
    let mut out = Vec::new();
    let mut buf = [0u8; READ_CHUNK];
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(READ_CHUNK / 4);
        let bytes = &mut buf[..take * 4];
        read_exact(r, bytes)?;
        out.reserve(take);
        for w in bytes.chunks_exact(4) {
            out.push(u32::from_le_bytes(w.try_into().expect("4-byte chunk")));
        }
        remaining -= take;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::Graph;

    fn sample() -> CsrGraph {
        let g = tpp_graph::generators::holme_kim(300, 3, 0.3, 21);
        CsrGraph::from_graph(&g)
    }

    fn encode(g: &CsrGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot(g, &mut buf).unwrap();
        buf
    }

    /// Owned, fully verified decode of an in-memory snapshot image.
    fn decode(mut bytes: &[u8]) -> Result<CsrGraph, StoreError> {
        read_snapshot_with(&mut bytes, VerifyMode::Full, &Recorder::disabled()).map(|(g, _)| g)
    }

    fn tmpfile(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("tpp-format-{}-{tag}.csr", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn round_trips_through_memory() {
        let g = sample();
        let bytes = encode(&g);
        let back = decode(&bytes).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn round_trips_through_a_file() {
        let g = sample();
        let path = std::env::temp_dir().join(format!("tpp-store-{}.csr", std::process::id()));
        save(&g, &path).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let (back, _) = read_snapshot_with(
            &mut std::io::BufReader::new(file),
            VerifyMode::Full,
            &Recorder::disabled(),
        )
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(g.to_graph(), back.to_graph());
    }

    #[test]
    fn v2_payload_is_64_byte_aligned_and_header_reads_back() {
        let g = sample();
        let bytes = encode(&g);
        let expected =
            PAYLOAD_OFFSET_V2 + (g.node_count() as u64 + 1) * 8 + g.edge_count() as u64 * 8;
        assert_eq!(bytes.len() as u64, expected);
        let path = tmpfile("header", &bytes);
        let header = read_header(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(header.version, VERSION);
        assert_eq!(header.node_count, g.node_count() as u64);
        assert_eq!(header.edge_count, g.edge_count() as u64);
        assert_eq!(header.payload_offset(), 64);
        assert_eq!(header.payload_alignment(), 64);
    }

    #[test]
    fn v1_files_still_load_through_every_path() {
        let g = sample();
        let mut v1 = Vec::new();
        write_snapshot_v1(&g, &mut v1).unwrap();
        let (back, version) =
            read_snapshot_with(&mut v1.as_slice(), VerifyMode::Full, &Recorder::disabled())
                .unwrap();
        assert_eq!(version, 1);
        assert_eq!(g, back);
        // The mapped loader falls back to an owned decode for v1.
        let path = tmpfile("v1", &v1);
        let header = read_header(&path).unwrap();
        assert_eq!((header.version, header.payload_offset()), (1, 40));
        assert_eq!(header.payload_alignment(), 8);
        for verify in [VerifyMode::Full, VerifyMode::Header, VerifyMode::None] {
            let loaded = load_mapped(&path, verify).unwrap();
            assert!(!loaded.is_mapped(), "v1 must come back owned");
            assert_eq!(loaded, g);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_load_round_trips_and_shares_the_mapping() {
        let g = sample();
        let path = tmpfile("mapped", &encode(&g));
        for verify in [VerifyMode::Full, VerifyMode::Header, VerifyMode::None] {
            let (mapped, version) =
                load_mapped_observed(&path, verify, &Recorder::disabled()).unwrap();
            assert_eq!(version, VERSION);
            assert!(mapped.is_mapped(), "verify {verify:?}");
            assert_eq!(mapped.storage_kind(), "mapped");
            assert_eq!(mapped, g, "verify {verify:?}");
            // Clones share the mapping; reads stay exact after the
            // original is dropped.
            let clone = mapped.clone();
            drop(mapped);
            assert_eq!(clone.neighbors(0), g.neighbors(0));
            clone.check_invariants();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_load_reports_phase_times() {
        let g = sample();
        let path = tmpfile("mapped-obs", &encode(&g));
        let obs = Recorder::enabled();
        let (mapped, _) = load_mapped_observed(&path, VerifyMode::Full, &obs).unwrap();
        assert_eq!(mapped, g);
        let st = obs.stats().unwrap();
        assert_eq!(st.store.loads.get(), 1);
        assert!(st.store.validate_ns.get() > 0, "full verify measures time");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn verify_tiers_differ_on_a_checksum_flip() {
        let g = sample();
        let mut bytes = encode(&g);
        bytes[32] ^= 0xFF; // corrupt the stored checksum, payload intact
        let path = tmpfile("cksum", &bytes);
        assert!(matches!(
            load_mapped(&path, VerifyMode::Full),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        // Cheaper tiers skip the checksum by contract; the payload is
        // untouched, so the graph still reads correctly.
        for verify in [VerifyMode::Header, VerifyMode::None] {
            assert_eq!(load_mapped(&path, verify).unwrap(), g);
        }
        // The owned streaming path honors the same tiers.
        assert!(read_snapshot_with(
            &mut bytes.as_slice(),
            VerifyMode::Full,
            &Recorder::disabled()
        )
        .is_err());
        let (back, _) = read_snapshot_with(
            &mut bytes.as_slice(),
            VerifyMode::Header,
            &Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(back, g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_tier_catches_broken_offsets() {
        let g = sample();
        let mut bytes = encode(&g);
        // Make the offset table non-monotone inside the payload.
        let at = PAYLOAD_OFFSET_V2 as usize + 8;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let path = tmpfile("bad-offsets", &bytes);
        // Full trips the checksum first; Header reaches the offset sweep.
        assert!(load_mapped(&path, VerifyMode::Full).is_err());
        assert!(
            matches!(
                load_mapped(&path, VerifyMode::Header),
                Err(StoreError::Corrupt(_))
            ),
            "header tier must reject a broken offset table"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn nonzero_padding_is_rejected() {
        let g = sample();
        let mut bytes = encode(&g);
        bytes[44] = 0x5A; // inside the 40..64 reserved padding
        let path = tmpfile("pad", &bytes);
        for verify in [VerifyMode::Full, VerifyMode::Header, VerifyMode::None] {
            let err = load_mapped(&path, verify).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt(m) if m.contains("padding")),
                "verify {verify:?}: {err}"
            );
        }
        assert!(decode(&bytes).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_mapped_file_fails_every_tier() {
        let g = sample();
        let bytes = encode(&g);
        let path = tmpfile("trunc", &bytes[..bytes.len() - 5]);
        for verify in [VerifyMode::Full, VerifyMode::Header, VerifyMode::None] {
            let err = load_mapped(&path, verify).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt(m) if m.contains("bytes")),
                "verify {verify:?}: {err}"
            );
        }
        assert!(read_header(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn observed_read_decodes_identically_and_counts_phases() {
        let g = sample();
        let bytes = encode(&g);
        let obs = Recorder::enabled();
        let (back, version) =
            read_snapshot_with(&mut bytes.as_slice(), VerifyMode::Full, &obs).unwrap();
        assert_eq!(g, back);
        assert_eq!(version, VERSION);
        let st = obs.stats().unwrap();
        assert_eq!(st.store.loads.get(), 1);
        // Phase totals are wall time: non-negative always, and the parse
        // phase (array decode) is the only one guaranteed measurable on
        // every machine — just pin that all three were driven through the
        // same decode by decoding again and watching loads advance.
        let (_again, _) =
            read_snapshot_with(&mut bytes.as_slice(), VerifyMode::Full, &obs).unwrap();
        assert_eq!(st.store.loads.get(), 2);
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = CsrGraph::from_graph(&Graph::new(0));
        let back = decode(&encode(&g)).unwrap();
        assert_eq!(back.node_count(), 0);
        assert_eq!(back.edge_count(), 0);
        let path = tmpfile("empty", &encode(&g));
        let mapped = load_mapped(&path, VerifyMode::Full).unwrap();
        assert_eq!(mapped.node_count(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode(&sample());
        bytes[0] ^= 0xFF;
        assert!(matches!(decode(&bytes), Err(StoreError::BadMagic(_))));
        let path = tmpfile("magic", &bytes);
        assert!(matches!(read_header(&path), Err(StoreError::BadMagic(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_future_version() {
        let mut bytes = encode(&sample());
        bytes[8] = 99;
        assert!(matches!(
            decode(&bytes),
            Err(StoreError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn rejects_payload_bitflips() {
        let g = sample();
        let bytes = encode(&g);
        let mut flipped = 0usize;
        // Flip one byte somewhere in the payload region. Most flips break
        // the structural validator; the rest must trip the checksum.
        for pos in (PAYLOAD_OFFSET_V2 as usize..bytes.len()).step_by(997) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            match decode(&bad) {
                Err(_) => flipped += 1,
                Ok(decoded) => {
                    panic!("bitflip at {pos} went undetected: {decoded:?}")
                }
            }
        }
        assert!(flipped > 0, "no positions probed");
    }

    #[test]
    fn rejects_truncation_and_trailing_garbage() {
        let bytes = encode(&sample());
        for cut in [0, 4, 12, 40, 60, bytes.len() - 3] {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(decode(&padded), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn absurd_header_counts_fail_fast_without_allocating() {
        // A tiny file claiming 2^40 nodes must fail with "file truncated"
        // as soon as the stream runs dry — not attempt a terabyte-scale
        // upfront allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 40).to_le_bytes()); // node_count
        bytes.extend_from_slice(&0u64.to_le_bytes()); // edge_count
        bytes.extend_from_slice(&0u64.to_le_bytes()); // checksum
        bytes.extend_from_slice(&[0u8; 64]); // padding + a few stray bytes
        assert!(matches!(
            decode(&bytes),
            Err(StoreError::Corrupt(msg)) if msg.contains("truncated")
        ));
        // The mapped path refuses via the exact-length cross-check
        // before touching any payload.
        let path = tmpfile("absurd", &bytes);
        assert!(load_mapped(&path, VerifyMode::None).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_count_mismatch_detected() {
        let mut bytes = encode(&sample());
        // Inflate the edge count; payload length check must catch it.
        bytes[24] = bytes[24].wrapping_add(1);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn verify_mode_names_round_trip() {
        for mode in [VerifyMode::Full, VerifyMode::Header, VerifyMode::None] {
            assert_eq!(VerifyMode::from_name(mode.name()), Some(mode));
        }
        assert_eq!(VerifyMode::from_name("bogus"), None);
        assert_eq!(VerifyMode::default(), VerifyMode::Full);
    }
}
