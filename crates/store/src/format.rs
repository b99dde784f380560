//! The versioned, checksummed binary on-disk format for CSR snapshots.
//!
//! Layout of the current version, v3 (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     8  magic            b"TPPCSR\xF0\x01"
//!      8     4  version          u32, currently 3
//!     12     4  flags            u32, reserved (must be 0)
//!     16     8  node_count       u64
//!     24     8  edge_count       u64  (undirected edges)
//!     32     8  payload checksum u64  (FNV-1a over both CSR arrays' bytes)
//!     40     4  section_count    u32  (1 or 2)
//!     44     4  padding          zero
//!     48  32·k  section table    per entry: kind u32, zero u32,
//!                                offset u64, length u64, checksum u64
//!      …     …  padding          zero bytes up to byte 128
//!    128     …  CSR section      offsets u64 × (n+1), neighbors u32 × 2m
//!      …     …  padding          zero bytes up to the next 64-byte boundary
//!      …    8n  base-stats       triangles u32 × n, core numbers u32 × n
//! ```
//!
//! | kind | name         | contents                                   | checksum                  |
//! |------|--------------|--------------------------------------------|---------------------------|
//! | 1    | `csr`        | the two CSR arrays (always first)          | the payload checksum      |
//! | 2    | `base-stats` | per-node triangle counts and core numbers  | FNV-1a over its u64 words |
//!
//! Sections follow the table in table order, each starting at the first
//! 64-byte boundary after the one before (the CSR payload at byte 128),
//! and the file ends where the last one does. Every offset and length is
//! implied by the counts, and the reader demands the recorded ones match,
//! so a table is either exactly right or rejected. The CSR section's
//! checksum is the one at byte 32, which keeps the fixed header the same
//! in every version. The optional base-statistics section is what
//! `tpp store build` computes once so that loads read `clust` and `cn` of
//! the original instead of recounting them ([`BaseSection`]); it holds no
//! floats, since the averages follow from the arrays. A later section kind
//! is one more table entry, not a new version.
//!
//! v2 put the payload at byte 64 with no table; v1 at byte 40, with no
//! padding. Both still load (as one CSR section, without base statistics)
//! through the same windows; only the writer moved to v3. Payloads start
//! 64-byte aligned in v2 and v3, so a memory-mapped file serves the `u64`
//! offset table at its natural alignment (mappings are page-aligned) — the
//! enabler for [`load_mapped`]: zero-copy loads that never deserialize the
//! arrays. v1 payloads are 8-byte aligned, which the windows also accept.
//!
//! [`load_mapped_observed`] is the one reader: header and section-table
//! parse, exact-length cross-check, payload windows over the file's bytes
//! (a mapping on Linux, an aligned heap copy elsewhere), then the chosen
//! verification tier for the payload and for the base-statistics section.
//!
//! ## Tiered verification
//!
//! Header checks (magic, version, flags, count sanity, the section table
//! against the counts, zero padding, exact file length) are always eager.
//! What happens to the sections is chosen per call via [`VerifyMode`]:
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
//!   cross-checks run. For mapped loads this touches no payload page but
//!   the neighbor array's last, which holds the padding before the
//!   base-statistics section.
//!
//! The base-statistics section is checked at `Full` and `Header` alike:
//! its checksum, then its structure against the degrees (`tri[v] ≤
//! d(d−1)/2`, `core[v] ≤ d(v)`), `O(node_count)` work either way. `None`
//! trusts it as it trusts the payload.
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
pub const VERSION: u32 = 3;

/// Byte offset of the CSR payload in a v3 file (64-byte aligned).
pub const PAYLOAD_OFFSET_V3: u64 = 128;

/// Byte offset of the payload in a legacy v2 file (64-byte aligned).
pub const PAYLOAD_OFFSET_V2: u64 = 64;

/// Byte offset of the payload in a legacy v1 file.
pub const PAYLOAD_OFFSET_V1: u64 = 40;

/// Size of the fixed header fields shared by every version.
const HEADER_FIELDS_LEN: u64 = 40;

/// Where the v3 section table starts, after the count and its padding.
const SECTION_TABLE_AT: usize = 48;

/// Bytes per section-table entry.
const SECTION_ENTRY_LEN: usize = 32;

/// Every v3 section starts on a multiple of this.
const SECTION_ALIGN: u64 = 64;

/// The section kinds in the order a v3 table lists them: the CSR payload
/// always, the base statistics optionally.
const SECTION_ORDER: [SectionKind; 2] = [SectionKind::Csr, SectionKind::BaseStats];

/// How much of a snapshot's payload a load re-verifies. See the module
/// docs for the exact guarantees of each tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// Checksum + full structural validation (the default), and the
    /// base-statistics section's checks.
    #[default]
    Full,
    /// Offset-table sweep and the base-statistics section's checks; the
    /// neighbor array is untouched.
    Header,
    /// Header cross-checks only; the payload and the base statistics are
    /// trusted outright.
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

    /// Whether a load at this tier verifies a section's checksum: the CSR
    /// payload's at `Full` only, the base statistics' at `Full` and
    /// `Header`.
    #[must_use]
    pub fn checks(self, kind: SectionKind) -> bool {
        match kind {
            SectionKind::Csr => self == VerifyMode::Full,
            SectionKind::BaseStats => self != VerifyMode::None,
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

/// The checksum of a section other than the CSR payload: FNV-1a with
/// little-endian 64-bit words in place of bytes (a section is a whole
/// number of words), one multiply per 8 bytes. The step `h ↦ (h ^ w) · p`
/// is a bijection for an odd `p`, so any change confined to one word
/// changes the result.
pub(crate) fn section_checksum(bytes: &[u8]) -> u64 {
    debug_assert!(bytes.len().is_multiple_of(8), "sections are whole words");
    bytes
        .chunks_exact(8)
        .fold(Fnv1a::default().finish(), |h, w| {
            (h ^ u64::from_le_bytes(w.try_into().expect("8 bytes")))
                .wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// What a v3 section holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// The CSR payload: offset table, then neighbor array.
    Csr,
    /// Per-node triangle counts, then per-node core numbers.
    BaseStats,
}

impl SectionKind {
    fn code(self) -> u32 {
        match self {
            SectionKind::Csr => 1,
            SectionKind::BaseStats => 2,
        }
    }

    /// The name `tpp store info` prints.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Csr => "csr",
            SectionKind::BaseStats => "base-stats",
        }
    }
}

/// One entry of a snapshot's section table. v1 and v2 files, which have
/// no table, read as one CSR section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section {
    /// What the section holds.
    pub kind: SectionKind,
    /// Byte offset of the section in the file.
    pub offset: u64,
    /// Length of the section in bytes.
    pub length: u64,
    /// Stored checksum of the section: the payload checksum for the CSR
    /// section, FNV-1a over its 64-bit words for any other.
    pub checksum: u64,
}

impl Section {
    fn end(&self) -> u64 {
        self.offset + self.length
    }
}

/// The raw base-statistics section of a snapshot: per-node triangle
/// counts and core numbers of its graph, as the builder computed them.
/// The averages built from them (`clust`, `cn`) are recomputed at load,
/// so the file stores no floats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseSection {
    /// Triangles through each node.
    pub triangles: Vec<u32>,
    /// Core number of each node.
    pub cores: Vec<u32>,
}

impl BaseSection {
    /// The section's bytes for an `n`-node graph: both arrays,
    /// little-endian.
    ///
    /// # Panics
    /// If either array does not have `n` entries: the statistics are of
    /// another graph.
    pub(crate) fn encode(&self, n: usize) -> Vec<u8> {
        assert!(
            self.triangles.len() == n && self.cores.len() == n,
            "base statistics of {} / {} nodes for a {n}-node graph",
            self.triangles.len(),
            self.cores.len()
        );
        let mut out = Vec::with_capacity(8 * n);
        for &x in self.triangles.iter().chain(&self.cores) {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }

    /// Reads the section back from exactly `8 · n` bytes.
    fn decode(bytes: &[u8]) -> BaseSection {
        let words: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes")))
            .collect();
        let n = words.len() / 2;
        let mut triangles = words;
        let cores = triangles.split_off(n);
        BaseSection { triangles, cores }
    }

    /// The structural check of [`VerifyMode::Full`] and
    /// [`VerifyMode::Header`]: no node closes more triangles than its
    /// neighbour pairs, and no core number exceeds its degree.
    fn check(&self, g: &CsrGraph) -> Result<(), StoreError> {
        let bad = |v: usize, what: &str| {
            Err(StoreError::Corrupt(format!(
                "base-stats section: node {v} has {what} beyond its degree {}",
                g.degree(v as u32)
            )))
        };
        for (v, (&tri, &core)) in self.triangles.iter().zip(&self.cores).enumerate() {
            let d = g.degree(v as u32) as u64;
            if u64::from(tri) > d * d.saturating_sub(1) / 2 {
                return bad(v, &format!("{tri} triangles"));
            }
            if u64::from(core) > d {
                return bad(v, &format!("core number {core}"));
            }
        }
        Ok(())
    }
}

/// The decoded header of a snapshot file — everything `tpp store info`
/// prints about a file without touching its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version found in the file (1, 2 or 3).
    pub version: u32,
    /// Number of nodes.
    pub node_count: u64,
    /// Number of undirected edges.
    pub edge_count: u64,
    /// Stored FNV-1a payload checksum.
    pub checksum: u64,
    /// The section table, CSR payload first.
    pub sections: Vec<Section>,
}

impl SnapshotHeader {
    /// Byte offset where the payload begins.
    #[must_use]
    pub fn payload_offset(&self) -> u64 {
        self.sections[0].offset
    }

    /// The guaranteed alignment of the payload within a page-aligned
    /// mapping: the largest power of two dividing its offset (8 for v1).
    #[must_use]
    pub fn payload_alignment(&self) -> u64 {
        let off = self.payload_offset();
        off & off.wrapping_neg()
    }

    /// The base-statistics section, if the file has one.
    #[must_use]
    pub fn base_section(&self) -> Option<&Section> {
        self.sections
            .iter()
            .find(|s| s.kind == SectionKind::BaseStats)
    }

    /// Offset-table length in elements (`node_count + 1`).
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when the count overflows `usize`.
    pub fn offsets_len(&self) -> Result<usize, StoreError> {
        offsets_len(self.node_count)
    }

    /// Neighbor-array length in elements (`2 * edge_count`).
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when the count overflows `usize`.
    pub fn neighbors_len(&self) -> Result<usize, StoreError> {
        neighbors_len(self.edge_count)
    }

    /// Exact file length a well-formed snapshot with this header has: the
    /// end of its last section.
    #[must_use]
    pub fn expected_file_len(&self) -> u64 {
        self.sections.last().map_or(0, Section::end)
    }
}

fn offsets_len(node_count: u64) -> Result<usize, StoreError> {
    usize::try_from(node_count)
        .ok()
        .and_then(|n| n.checked_add(1))
        .ok_or_else(|| StoreError::Corrupt(format!("node count {node_count} overflows usize")))
}

fn neighbors_len(edge_count: u64) -> Result<usize, StoreError> {
    edge_count
        .checked_mul(2)
        .and_then(|x| usize::try_from(x).ok())
        .ok_or_else(|| StoreError::Corrupt(format!("edge count {edge_count} overflows")))
}

/// Byte length of a section of `kind` in a graph of the given counts.
fn section_len(kind: SectionKind, node_count: u64, edge_count: u64) -> Result<u64, StoreError> {
    let overflow = || StoreError::Corrupt("file size overflows".into());
    match kind {
        SectionKind::Csr => (offsets_len(node_count)? as u64)
            .checked_mul(8)
            .zip((neighbors_len(edge_count)? as u64).checked_mul(4))
            .and_then(|(a, b)| a.checked_add(b))
            .ok_or_else(overflow),
        SectionKind::BaseStats => node_count.checked_mul(8).ok_or_else(overflow),
    }
}

/// Where each of the first `k` v3 sections lies, as `(kind, offset,
/// length)`: the one layout the writer produces and the reader accepts.
fn v3_layout(
    k: usize,
    node_count: u64,
    edge_count: u64,
) -> Result<Vec<(SectionKind, u64, u64)>, StoreError> {
    let mut at = PAYLOAD_OFFSET_V3;
    let mut layout = Vec::with_capacity(k);
    for &kind in &SECTION_ORDER[..k] {
        let len = section_len(kind, node_count, edge_count)?;
        layout.push((kind, at, len));
        at = at
            .checked_add(len)
            .and_then(|end| end.checked_next_multiple_of(SECTION_ALIGN))
            .ok_or_else(|| StoreError::Corrupt("file size overflows".into()))?;
    }
    Ok(layout)
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Parses and sanity-checks the fixed header from a byte prefix, and the
/// v3 section table against the counts. For v2 and v3, also demands the
/// padding up to the payload be present and zero.
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
    let version = u32_at(bytes, 8);
    if version == 0 || version > VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let flags = u32_at(bytes, 12);
    if flags != 0 {
        return Err(StoreError::Corrupt(format!(
            "reserved flags set: {flags:#010x}"
        )));
    }
    let node_count = u64_at(bytes, 16);
    let edge_count = u64_at(bytes, 24);
    let checksum = u64_at(bytes, 32);
    let legacy = |offset: u64| {
        let length = section_len(SectionKind::Csr, node_count, edge_count)?;
        if offset.checked_add(length).is_none() {
            return Err(StoreError::Corrupt("file size overflows".into()));
        }
        Ok(vec![Section {
            kind: SectionKind::Csr,
            offset,
            length,
            checksum,
        }])
    };
    // Every byte between the fixed fields and the payload that is not a
    // v3 count or table entry is padding and must be zero.
    let fields_end = HEADER_FIELDS_LEN as usize;
    let (sections, padding) = match version {
        1 => (legacy(PAYLOAD_OFFSET_V1)?, [fields_end..fields_end, 0..0]),
        2 => (
            legacy(PAYLOAD_OFFSET_V2)?,
            [fields_end..PAYLOAD_OFFSET_V2 as usize, 0..0],
        ),
        _ => {
            let sections = parse_section_table(bytes, node_count, edge_count)?;
            let table_end = SECTION_TABLE_AT + sections.len() * SECTION_ENTRY_LEN;
            let padding = [44..SECTION_TABLE_AT, table_end..PAYLOAD_OFFSET_V3 as usize];
            (sections, padding)
        }
    };
    for range in padding {
        let Some(pad) = bytes.get(range) else {
            return Err(StoreError::Corrupt("file truncated".into()));
        };
        if pad.iter().any(|&b| b != 0) {
            return Err(StoreError::Corrupt(
                "nonzero padding between header and payload".into(),
            ));
        }
    }
    Ok(SnapshotHeader {
        version,
        node_count,
        edge_count,
        checksum,
        sections,
    })
}

/// Reads a v3 section table and checks it entry by entry against the one
/// layout the counts imply.
fn parse_section_table(
    bytes: &[u8],
    node_count: u64,
    edge_count: u64,
) -> Result<Vec<Section>, StoreError> {
    if bytes.len() < PAYLOAD_OFFSET_V3 as usize {
        return Err(StoreError::Corrupt("file truncated".into()));
    }
    let count = u32_at(bytes, 40) as usize;
    if count == 0 || count > SECTION_ORDER.len() {
        return Err(StoreError::Corrupt(format!(
            "section table: {count} sections, want 1 to {}",
            SECTION_ORDER.len()
        )));
    }
    let layout = v3_layout(count, node_count, edge_count)?;
    let mut sections = Vec::with_capacity(count);
    for (i, (kind, offset, length)) in layout.into_iter().enumerate() {
        let at = SECTION_TABLE_AT + i * SECTION_ENTRY_LEN;
        let (code, zero) = (u32_at(bytes, at), u32_at(bytes, at + 4));
        let (got_offset, got_length) = (u64_at(bytes, at + 8), u64_at(bytes, at + 16));
        if code != kind.code() || zero != 0 {
            return Err(StoreError::Corrupt(format!(
                "section table entry {i}: kind word {code:#x}/{zero:#x}, want {} ({})",
                kind.code(),
                kind.name()
            )));
        }
        if (got_offset, got_length) != (offset, length) {
            return Err(StoreError::Corrupt(format!(
                "{} section at byte {got_offset} ({got_length} bytes), the counts imply \
                 byte {offset} ({length} bytes)",
                kind.name()
            )));
        }
        sections.push(Section {
            kind,
            offset,
            length,
            checksum: u64_at(bytes, at + 24),
        });
    }
    Ok(sections)
}

/// The v3 header and section table for a graph of the given counts, zero
/// padded up to the payload at byte 128. `base_checksum` adds the
/// base-statistics entry.
pub(crate) fn v3_prefix(
    node_count: u64,
    edge_count: u64,
    payload_checksum: u64,
    base_checksum: Option<u64>,
) -> Result<Vec<u8>, StoreError> {
    let checksums = [Some(payload_checksum), base_checksum];
    let k = checksums.iter().flatten().count();
    let mut out = Vec::with_capacity(PAYLOAD_OFFSET_V3 as usize);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // flags
    out.extend_from_slice(&node_count.to_le_bytes());
    out.extend_from_slice(&edge_count.to_le_bytes());
    out.extend_from_slice(&payload_checksum.to_le_bytes());
    out.extend_from_slice(&(k as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    for ((kind, offset, length), checksum) in v3_layout(k, node_count, edge_count)?
        .into_iter()
        .zip(checksums.into_iter().flatten())
    {
        out.extend_from_slice(&kind.code().to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&length.to_le_bytes());
        out.extend_from_slice(&checksum.to_le_bytes());
    }
    out.resize(PAYLOAD_OFFSET_V3 as usize, 0);
    Ok(out)
}

/// Appends an encoded base-statistics section ([`BaseSection::encode`])
/// to a v3 file whose CSR section ends at byte `csr_end`: zero padding to
/// its 64-byte boundary, then its bytes.
pub(crate) fn write_base_section<W: Write>(
    w: &mut W,
    csr_end: u64,
    encoded: &[u8],
) -> Result<(), StoreError> {
    let pad = csr_end.next_multiple_of(SECTION_ALIGN) - csr_end;
    w.write_all(&vec![0u8; pad as usize])?;
    w.write_all(encoded)?;
    Ok(())
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
            for stored in [header.checksum, header.sections[0].checksum] {
                if computed != stored {
                    return Err(StoreError::ChecksumMismatch { stored, computed });
                }
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

/// Reads the base-statistics section of a loaded snapshot, checked at
/// the selected tier (see the module docs), timing the work into the
/// recorder's `section_ns` phase.
fn read_base_section(
    bytes: &[u8],
    section: &Section,
    g: &CsrGraph,
    verify: VerifyMode,
    obs: &Recorder,
) -> Result<BaseSection, StoreError> {
    let span = SpanTimer::counter(obs.stats().map(|s| &s.store.section_ns));
    let raw = &bytes[section.offset as usize..section.end() as usize];
    if verify.checks(SectionKind::BaseStats) {
        let computed = section_checksum(raw);
        if computed != section.checksum {
            return Err(StoreError::Corrupt(format!(
                "base-stats section checksum mismatch: stored {:#018x}, computed {computed:#018x}",
                section.checksum
            )));
        }
    }
    let base = BaseSection::decode(raw);
    if verify.checks(SectionKind::BaseStats) {
        base.check(g)?;
    }
    span.stop();
    Ok(base)
}

/// Serializes a snapshot into `w` in the current (v3) layout, with a
/// base-statistics section when `base` is given.
///
/// # Errors
/// Returns [`StoreError::Io`] on write failure.
///
/// # Panics
/// If `base` does not describe exactly `g`'s nodes.
pub fn write_snapshot<W: Write>(
    g: &CsrGraph,
    base: Option<&BaseSection>,
    w: &mut W,
) -> Result<(), StoreError> {
    let (n, m) = (g.node_count() as u64, g.edge_count() as u64);
    let encoded = base.map(|b| b.encode(g.node_count()));
    let base_checksum = encoded.as_deref().map(section_checksum);
    w.write_all(&v3_prefix(n, m, payload_checksum(g), base_checksum)?)?;
    write_payload(g, w)?;
    if let Some(encoded) = &encoded {
        let csr_end = PAYLOAD_OFFSET_V3 + section_len(SectionKind::Csr, n, m)?;
        write_base_section(w, csr_end, encoded)?;
    }
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

/// Serializes a snapshot in a legacy layout: v1 (payload directly at
/// byte 40) or v2 (zero padding up to the payload at byte 64); neither
/// has a section table or base statistics.
fn write_legacy<W: Write>(g: &CsrGraph, version: u32, w: &mut W) -> Result<(), StoreError> {
    w.write_all(&MAGIC)?;
    w.write_all(&version.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?; // flags
    w.write_all(&(g.node_count() as u64).to_le_bytes())?;
    w.write_all(&(g.edge_count() as u64).to_le_bytes())?;
    w.write_all(&payload_checksum(g).to_le_bytes())?;
    if version == 2 {
        w.write_all(&[0u8; (PAYLOAD_OFFSET_V2 - HEADER_FIELDS_LEN) as usize])?;
    }
    write_payload(g, w)
}

/// Serializes a snapshot in the **legacy v1** layout (payload directly at
/// byte 40, no alignment padding). Kept so compatibility tests can pin
/// that v1 files remain readable; new files should use [`write_snapshot`].
///
/// # Errors
/// Returns [`StoreError::Io`] on write failure.
pub fn write_snapshot_v1<W: Write>(g: &CsrGraph, w: &mut W) -> Result<(), StoreError> {
    write_legacy(g, 1, w)
}

/// Serializes a snapshot in the **legacy v2** layout (payload at byte 64,
/// no section table, no base statistics). Kept so compatibility tests can
/// pin that v2 files remain readable; new files should use
/// [`write_snapshot`].
///
/// # Errors
/// Returns [`StoreError::Io`] on write failure.
pub fn write_snapshot_v2<W: Write>(g: &CsrGraph, w: &mut W) -> Result<(), StoreError> {
    write_legacy(g, 2, w)
}

/// Saves a snapshot to `path` (buffered, current format version), with a
/// base-statistics section when `base` is given.
///
/// # Errors
/// Returns [`StoreError::Io`] on filesystem failure.
pub fn save<P: AsRef<Path>>(
    g: &CsrGraph,
    base: Option<&BaseSection>,
    path: P,
) -> Result<(), StoreError> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    write_snapshot(g, base, &mut w)?;
    w.flush()?;
    Ok(())
}

/// Zero-copy load: memory-maps `path` and serves the CSR arrays straight
/// from the page cache, with the chosen verification tier.
///
/// On Linux, every version comes back mapped ([`CsrGraph::is_mapped`] is
/// `true`): no payload byte is copied, and under [`VerifyMode::None`] none
/// is even faulted in until first use. Elsewhere the file is read into an
/// aligned heap buffer and served through the same windows.
///
/// # Errors
/// Returns the specific [`StoreError`] describing what failed.
pub fn load_mapped<P: AsRef<Path>>(path: P, verify: VerifyMode) -> Result<CsrGraph, StoreError> {
    load_mapped_observed(path, verify, &Recorder::disabled()).map(|(g, _, _)| g)
}

/// Like [`load_mapped`], also returning the parsed header and the raw
/// base-statistics section (`None` when the file has none), and reporting
/// the map/validate/section phase wall times into `obs`'s store section.
/// This is the one function that turns a snapshot file into a
/// [`CsrGraph`].
///
/// # Errors
/// Returns the specific [`StoreError`] describing what failed.
pub fn load_mapped_observed<P: AsRef<Path>>(
    path: P,
    verify: VerifyMode,
    obs: &Recorder,
) -> Result<(CsrGraph, SnapshotHeader, Option<BaseSection>), StoreError> {
    let map_span = SpanTimer::counter(obs.stats().map(|s| &s.store.map_ns));
    let file = std::fs::File::open(path.as_ref())?;
    let region = MmapRegion::map_file(&file)?;
    map_span.stop();
    decode_region(Arc::new(region), verify, obs)
}

/// Serves a snapshot out of a whole file's bytes: header parse, the
/// exact-length cross-check, payload windows over `region`, then the
/// selected verification tier for the payload and the base statistics.
fn decode_region(
    region: Arc<MmapRegion>,
    verify: VerifyMode,
    obs: &Recorder,
) -> Result<(CsrGraph, SnapshotHeader, Option<BaseSection>), StoreError> {
    let header = parse_header(region.bytes())?;
    let expected = header.expected_file_len();
    let file_len = region.len() as u64;
    if file_len != expected {
        return Err(StoreError::Corrupt(format!(
            "file is {file_len} bytes, header implies {expected}"
        )));
    }
    let base = header.base_section().copied();
    if let Some(base) = &base {
        let csr_end = header.sections[0].end() as usize;
        if region.bytes()[csr_end..base.offset as usize]
            .iter()
            .any(|&b| b != 0)
        {
            return Err(StoreError::Corrupt(
                "nonzero padding before the base-stats section".into(),
            ));
        }
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
    let base = base
        .map(|s| read_base_section(region.bytes(), &s, &g, verify, obs))
        .transpose()?;
    if let Some(st) = obs.stats() {
        st.store.loads.inc();
    }
    Ok((g, header, base))
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

    /// The base statistics `tpp store build` computes for `g`.
    fn base_of(g: &CsrGraph) -> BaseSection {
        BaseSection {
            triangles: tpp_metrics::clustering::triangle_counts(g),
            cores: tpp_metrics::core_numbers(g),
        }
    }

    /// A current-format image of `g` with its base-statistics section.
    fn encode(g: &CsrGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot(g, Some(&base_of(g)), &mut buf).unwrap();
        buf
    }

    fn encode_v2(g: &CsrGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot_v2(g, &mut buf).unwrap();
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
        save(&g, None, &path).unwrap();
        let back = load_mapped(&path, VerifyMode::Full).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(g.to_graph(), back.to_graph());
    }

    #[test]
    fn v2_payload_is_64_byte_aligned_and_header_reads_back() {
        let g = sample();
        let bytes = encode_v2(&g);
        let expected =
            PAYLOAD_OFFSET_V2 + (g.node_count() as u64 + 1) * 8 + g.edge_count() as u64 * 8;
        assert_eq!(bytes.len() as u64, expected);
        let path = tmpfile("header", &bytes);
        let (_, header, base) =
            load_mapped_observed(&path, VerifyMode::None, &Recorder::disabled()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(header.version, 2);
        assert_eq!(header.node_count, g.node_count() as u64);
        assert_eq!(header.edge_count, g.edge_count() as u64);
        assert_eq!(header.payload_offset(), 64);
        assert_eq!(header.payload_alignment(), 64);
        assert_eq!(header.sections.len(), 1, "v2 reads as one CSR section");
        assert!(base.is_none());
    }

    #[test]
    fn v3_sections_are_64_byte_aligned_and_the_table_reads_back() {
        let g = sample();
        let (n, m) = (g.node_count() as u64, g.edge_count() as u64);
        let csr_len = (n + 1) * 8 + m * 8;
        let base_at = (PAYLOAD_OFFSET_V3 + csr_len).next_multiple_of(64);
        let bytes = encode(&g);
        assert_eq!(bytes.len() as u64, base_at + 8 * n);
        let path = tmpfile("v3-table", &bytes);
        for verify in EVERY_TIER {
            let (loaded, header, base) =
                load_mapped_observed(&path, verify, &Recorder::disabled()).unwrap();
            assert_eq!(loaded, g, "{verify:?}");
            assert_eq!(header.version, VERSION);
            assert_eq!(header.payload_offset(), PAYLOAD_OFFSET_V3);
            let kinds: Vec<_> = header.sections.iter().map(|s| s.kind).collect();
            assert_eq!(kinds, [SectionKind::Csr, SectionKind::BaseStats]);
            assert_eq!(header.sections[0].length, csr_len);
            assert_eq!(header.sections[0].checksum, header.checksum);
            let section = header.base_section().unwrap();
            assert_eq!((section.offset, section.length), (base_at, 8 * n));
            assert_eq!(section.offset % 64, 0);
            assert_eq!(base, Some(base_of(&g)), "{verify:?}");
        }
        // Without statistics the table has one entry and the payload
        // still starts at byte 128.
        let mut bare = Vec::new();
        write_snapshot(&g, None, &mut bare).unwrap();
        assert_eq!(bare.len() as u64, PAYLOAD_OFFSET_V3 + csr_len);
        assert_eq!(
            bare[PAYLOAD_OFFSET_V3 as usize..],
            bytes[..bare.len()][128..]
        );
        let path2 = tmpfile("v3-bare", &bare);
        let (loaded, header, base) =
            load_mapped_observed(&path2, VerifyMode::Full, &Recorder::disabled()).unwrap();
        assert_eq!(loaded, g);
        assert_eq!(header.sections.len(), 1);
        assert!(base.is_none());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn base_section_is_checked_at_full_and_header_and_trusted_at_none() {
        let g = sample();
        let bytes = encode(&g);
        let (_, header, _) = {
            let path = tmpfile("base-probe", &bytes);
            let loaded = load_mapped_observed(&path, VerifyMode::None, &Recorder::disabled());
            std::fs::remove_file(&path).ok();
            loaded.unwrap()
        };
        let section = *header.base_section().unwrap();
        let at = section.offset as usize;

        // A flipped byte inside the section: its checksum trips at Full and
        // Header; None hands the changed statistics back as stored.
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x01;
        let path = tmpfile("base-flip", &flipped);
        for verify in [VerifyMode::Full, VerifyMode::Header] {
            let err = load_mapped(&path, verify).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt(m) if m.contains("base-stats section checksum")),
                "{verify:?}: {err}"
            );
        }
        let (_, _, trusted) =
            load_mapped_observed(&path, VerifyMode::None, &Recorder::disabled()).unwrap();
        assert_ne!(trusted, Some(base_of(&g)));
        std::fs::remove_file(&path).ok();

        // Statistics that cannot belong to the graph, under a matching
        // checksum: the structural check names the node.
        for (field, value) in [("triangles", u32::MAX), ("core number", 10_000)] {
            let mut wrong = base_of(&g);
            let slot = if field == "triangles" {
                &mut wrong.triangles[7]
            } else {
                &mut wrong.cores[7]
            };
            *slot = value;
            let mut image = Vec::new();
            write_snapshot(&g, Some(&wrong), &mut image).unwrap();
            let path = tmpfile("base-structure", &image);
            for verify in [VerifyMode::Full, VerifyMode::Header] {
                let err = load_mapped(&path, verify).unwrap_err();
                assert!(
                    matches!(&err, StoreError::Corrupt(m) if m.contains("node 7") && m.contains(field)),
                    "{field} at {verify:?}: {err}"
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn v1_files_still_load_through_every_path() {
        let g = sample();
        let path = tmpfile("v1", &encode_v1(&g));
        // The v1 payload at byte 40 is 8-byte aligned in a page-aligned
        // mapping, so it is served through the same windows as v2.
        for verify in EVERY_TIER {
            let (loaded, header, base) =
                load_mapped_observed(&path, verify, &Recorder::disabled()).unwrap();
            assert!(base.is_none(), "v1 has no base statistics");
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
        for (tag, bytes) in [
            ("heap-v3", encode(&g)),
            ("heap-v2", encode_v2(&g)),
            ("heap-v1", encode_v1(&g)),
        ] {
            let path = tmpfile(tag, &bytes);
            let file = std::fs::File::open(&path).unwrap();
            for verify in EVERY_TIER {
                let region = Arc::new(MmapRegion::read_file(&file).unwrap());
                let (loaded, _, base) =
                    decode_region(region, verify, &Recorder::disabled()).unwrap();
                assert_eq!(base.is_some(), tag == "heap-v3", "{tag} {verify:?}");
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
            let (mapped, header, _) =
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
        let (mapped, _, _) = load_mapped_observed(&path, VerifyMode::Full, &obs).unwrap();
        assert_eq!(mapped, g);
        let st = obs.stats().unwrap();
        assert_eq!(st.store.loads.get(), 1);
        assert!(st.store.validate_ns.get() > 0, "full verify measures time");
        assert!(st.store.section_ns.get() > 0, "the base section is timed");
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
        let at = PAYLOAD_OFFSET_V3 as usize + 8;
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
        bytes[44] = 0x5A; // the zero word after the section count
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
        // terabyte-scale allocation or read. The v3 table agrees with the
        // counts, so it is the file length that gives the lie away.
        let mut v2 = Vec::new();
        v2.extend_from_slice(&MAGIC);
        v2.extend_from_slice(&2u32.to_le_bytes());
        v2.extend_from_slice(&0u32.to_le_bytes());
        v2.extend_from_slice(&(1u64 << 40).to_le_bytes()); // node_count
        v2.extend_from_slice(&0u64.to_le_bytes()); // edge_count
        v2.extend_from_slice(&0u64.to_le_bytes()); // checksum
        v2.extend_from_slice(&[0u8; 64]); // padding + a few stray bytes
        let mut v3 = v3_prefix(1 << 40, 0, 0, Some(0)).unwrap();
        v3.extend_from_slice(&[0u8; 64]);
        for bytes in [v2, v3] {
            assert!(matches!(
                decode(&bytes),
                Err(StoreError::Corrupt(msg)) if msg.contains("header implies")
            ));
            let path = tmpfile("absurd", &bytes);
            assert!(load_mapped(&path, VerifyMode::None).is_err());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn header_count_mismatch_detected() {
        let mut bytes = encode(&sample());
        // Inflate the edge count; payload length check must catch it.
        bytes[24] = bytes[24].wrapping_add(1);
        assert!(decode(&bytes).is_err());
    }

    /// Deterministic byte-mutation fuzz over the one reader: every header
    /// and section-table byte, a stride of payload bytes, and every byte
    /// from the end of the payload through the base-statistics section of
    /// a small v3 snapshot (and the same minus the sections for v2 and
    /// v1), each xor-ed with 0x01 and overwritten with 0x00 and 0xFF,
    /// loaded at every tier. A load answers `Ok` or a `StoreError`, never a
    /// panic; `Full` never accepts a graph other than the original,
    /// `Header` never accepts one whose neighbor slices are out of bounds,
    /// and at both the base statistics come back unchanged or not at all.
    #[test]
    fn byte_mutations_fail_cleanly_at_every_tier() {
        let g = CsrGraph::from_graph(&tpp_graph::generators::holme_kim(40, 2, 0.3, 5));
        let base = base_of(&g);
        let mut rejected = 0usize;
        let csr_end =
            |payload_at: u64| payload_at as usize + (g.node_count() + 1) * 8 + g.edge_count() * 8;
        for (version, bytes) in [(3, encode(&g)), (2, encode_v2(&g)), (1, encode_v1(&g))] {
            let payload_at = match version {
                3 => PAYLOAD_OFFSET_V3,
                2 => PAYLOAD_OFFSET_V2,
                _ => PAYLOAD_OFFSET_V1,
            };
            let tail = csr_end(payload_at).saturating_sub(8).min(bytes.len());
            let positions = (0..payload_at as usize)
                .chain((payload_at as usize..tail).step_by(13))
                .chain(tail..bytes.len());
            for pos in positions {
                for replacement in [bytes[pos] ^ 0x01, 0x00, 0xFF] {
                    let mut bad = bytes.clone();
                    bad[pos] = replacement;
                    let path = tmpfile(&format!("fuzz-v{version}"), &bad);
                    for verify in EVERY_TIER {
                        let case =
                            format!("v{version} byte {pos} = {replacement:#04x} at {verify:?}");
                        let loaded = std::panic::catch_unwind(|| {
                            let (loaded, _, stats) =
                                load_mapped_observed(&path, verify, &Recorder::disabled())?;
                            if verify == VerifyMode::Header {
                                for u in 0..loaded.node_count() as u32 {
                                    std::hint::black_box(loaded.neighbors(u));
                                }
                            }
                            Ok::<_, StoreError>((loaded, stats))
                        })
                        .unwrap_or_else(|_| panic!("{case}: load or read panicked"));
                        match loaded {
                            Err(_) => rejected += 1,
                            Ok((loaded, stats)) if verify != VerifyMode::None => {
                                if verify == VerifyMode::Full {
                                    assert_eq!(loaded, g, "{case}");
                                }
                                if let Some(stats) = stats {
                                    assert_eq!(stats, base, "{case}: changed statistics");
                                }
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
