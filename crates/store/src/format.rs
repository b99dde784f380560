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
//! arrays. v1 files (payload at byte 40, still 8-byte aligned) load through
//! the same windows; only the writer moved to v2.
//!
//! [`load_mapped_observed`] is the one reader: header parse, exact-length
//! cross-check, payload windows over the file's bytes (a mapping on Linux,
//! an aligned heap copy elsewhere), then the chosen verification tier.
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
use std::io::Write;
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
/// On Linux, v1 and v2 files come back mapped ([`CsrGraph::is_mapped`] is
/// `true`): no payload byte is copied, and under [`VerifyMode::None`] none
/// is even faulted in until first use. Elsewhere the file is read into an
/// aligned heap buffer and served through the same windows.
///
/// # Errors
/// Returns the specific [`StoreError`] describing what failed.
pub fn load_mapped<P: AsRef<Path>>(path: P, verify: VerifyMode) -> Result<CsrGraph, StoreError> {
    load_mapped_observed(path, verify, &Recorder::disabled()).map(|(g, _)| g)
}

/// Like [`load_mapped`], also returning the parsed header and reporting
/// the map/validate phase wall times into `obs`'s store section. This is
/// the one function that turns a snapshot file into a [`CsrGraph`].
///
/// # Errors
/// Returns the specific [`StoreError`] describing what failed.
pub fn load_mapped_observed<P: AsRef<Path>>(
    path: P,
    verify: VerifyMode,
    obs: &Recorder,
) -> Result<(CsrGraph, SnapshotHeader), StoreError> {
    let map_span = SpanTimer::counter(obs.stats().map(|s| &s.store.map_ns));
    let file = std::fs::File::open(path.as_ref())?;
    let region = MmapRegion::map_file(&file)?;
    map_span.stop();
    decode_region(Arc::new(region), verify, obs)
}

/// Serves a snapshot out of a whole file's bytes: header parse, the
/// exact-length cross-check, payload windows over `region`, then the
/// selected verification tier.
fn decode_region(
    region: Arc<MmapRegion>,
    verify: VerifyMode,
    obs: &Recorder,
) -> Result<(CsrGraph, SnapshotHeader), StoreError> {
    let header = parse_header(region.bytes())?;
    let expected = header.expected_file_len()?;
    let file_len = region.len() as u64;
    if file_len != expected {
        return Err(StoreError::Corrupt(format!(
            "file is {file_len} bytes, header implies {expected}"
        )));
    }
    let offsets_at = header.payload_offset() as usize;
    let offsets_len = header.offsets_len()?;
    let neighbors_at = offsets_at + offsets_len * 8;
    let mapped = MappedCsr::new(
        region,
        offsets_at,
        offsets_len,
        neighbors_at,
        header.neighbors_len()?,
    )
    .map_err(StoreError::Corrupt)?;
    let g = CsrGraph::from_storage(CsrStorage::Mapped(mapped));
    verify_payload(&g, &header, verify, obs)?;
    if let Some(st) = obs.stats() {
        st.store.loads.inc();
    }
    Ok((g, header))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::Graph;

    const EVERY_TIER: [VerifyMode; 3] = [VerifyMode::Full, VerifyMode::Header, VerifyMode::None];

    fn sample() -> CsrGraph {
        let g = tpp_graph::generators::holme_kim(300, 3, 0.3, 21);
        CsrGraph::from_graph(&g)
    }

    fn encode(g: &CsrGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot(g, &mut buf).unwrap();
        buf
    }

    fn encode_v1(g: &CsrGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot_v1(g, &mut buf).unwrap();
        buf
    }

    fn tmpfile(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("tpp-format-{}-{tag}.csr", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    /// Fully verified load of an in-memory snapshot image, through a
    /// temp file of its own (tests run in parallel).
    fn decode(bytes: &[u8]) -> Result<CsrGraph, StoreError> {
        static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = tmpfile(&format!("decode-{seq}"), bytes);
        let loaded = load_mapped(&path, VerifyMode::Full);
        std::fs::remove_file(&path).ok();
        loaded
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
        let back = load_mapped(&path, VerifyMode::Full).unwrap();
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
        let (_, header) =
            load_mapped_observed(&path, VerifyMode::None, &Recorder::disabled()).unwrap();
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
        let path = tmpfile("v1", &encode_v1(&g));
        // The v1 payload at byte 40 is 8-byte aligned in a page-aligned
        // mapping, so it is served through the same windows as v2.
        for verify in EVERY_TIER {
            let (loaded, header) =
                load_mapped_observed(&path, verify, &Recorder::disabled()).unwrap();
            assert_eq!((header.version, header.payload_offset()), (1, 40));
            assert_eq!(header.payload_alignment(), 8);
            #[cfg(target_os = "linux")]
            assert!(loaded.is_mapped(), "v1 must come back mapped");
            assert_eq!(loaded, g);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heap_region_serves_v1_and_v2_through_the_same_windows() {
        let g = sample();
        for (tag, bytes) in [("heap-v2", encode(&g)), ("heap-v1", encode_v1(&g))] {
            let path = tmpfile(tag, &bytes);
            let file = std::fs::File::open(&path).unwrap();
            for verify in EVERY_TIER {
                let region = Arc::new(MmapRegion::read_file(&file).unwrap());
                let (loaded, _) = decode_region(region, verify, &Recorder::disabled()).unwrap();
                assert_eq!(loaded.storage_kind(), "heap", "{tag} {verify:?}");
                assert!(!loaded.is_mapped());
                assert_eq!(loaded, g, "{tag} {verify:?}");
                loaded.check_invariants();
                // Reading is position-relative: rewind for the next tier.
                std::io::Seek::rewind(&mut &file).unwrap();
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn mapped_load_round_trips_and_shares_the_mapping() {
        let g = sample();
        let path = tmpfile("mapped", &encode(&g));
        for verify in EVERY_TIER {
            let (mapped, header) =
                load_mapped_observed(&path, verify, &Recorder::disabled()).unwrap();
            assert_eq!(header.version, VERSION);
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
        for verify in EVERY_TIER {
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
        for verify in EVERY_TIER {
            let err = load_mapped(&path, verify).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt(m) if m.contains("bytes")),
                "verify {verify:?}: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
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
        // A tiny file claiming 2^40 nodes must fail on the exact-length
        // cross-check before touching any payload — not attempt a
        // terabyte-scale allocation or read.
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
            Err(StoreError::Corrupt(msg)) if msg.contains("header implies")
        ));
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

    /// Deterministic byte-mutation fuzz over the one reader: every header
    /// byte and a stride of payload bytes of a small v1 and v2 snapshot,
    /// each xor-ed with 0x01 and overwritten with 0x00 and 0xFF, loaded at
    /// every tier. A load answers `Ok` or a `StoreError`, never a panic;
    /// `Full` never accepts a graph other than the original, and `Header`
    /// never accepts one whose neighbor slices are out of bounds.
    #[test]
    fn byte_mutations_fail_cleanly_at_every_tier() {
        let g = CsrGraph::from_graph(&tpp_graph::generators::holme_kim(40, 2, 0.3, 5));
        let mut rejected = 0usize;
        for (version, bytes) in [(2, encode(&g)), (1, encode_v1(&g))] {
            let positions = (0..PAYLOAD_OFFSET_V2 as usize)
                .chain((PAYLOAD_OFFSET_V2 as usize..bytes.len()).step_by(13));
            for pos in positions {
                for replacement in [bytes[pos] ^ 0x01, 0x00, 0xFF] {
                    let mut bad = bytes.clone();
                    bad[pos] = replacement;
                    let path = tmpfile(&format!("fuzz-v{version}"), &bad);
                    for verify in EVERY_TIER {
                        let case =
                            format!("v{version} byte {pos} = {replacement:#04x} at {verify:?}");
                        let loaded = std::panic::catch_unwind(|| {
                            let loaded = load_mapped(&path, verify)?;
                            if verify == VerifyMode::Header {
                                for u in 0..loaded.node_count() as u32 {
                                    std::hint::black_box(loaded.neighbors(u));
                                }
                            }
                            Ok::<_, StoreError>(loaded)
                        })
                        .unwrap_or_else(|_| panic!("{case}: load or read panicked"));
                        match loaded {
                            Err(_) => rejected += 1,
                            Ok(loaded) if verify == VerifyMode::Full => {
                                assert_eq!(loaded, g, "{case}");
                            }
                            Ok(_) => {}
                        }
                    }
                    std::fs::remove_file(&path).ok();
                }
            }
        }
        assert!(rejected > 0, "no mutant was rejected");
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
        for mode in EVERY_TIER {
            assert_eq!(VerifyMode::from_name(mode.name()), Some(mode));
        }
        assert_eq!(VerifyMode::from_name("bogus"), None);
        assert_eq!(VerifyMode::default(), VerifyMode::Full);
    }
}
