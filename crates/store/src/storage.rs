//! The storage backing of a [`crate::CsrGraph`]: owned heap arrays or
//! windows into a snapshot file's bytes (a zero-copy memory mapping, or a
//! heap copy of the file where `mmap` is unavailable).
//!
//! Every consumer of a snapshot reads through `offsets()` / `neighbors()`
//! slices, so the backing is invisible above this module: `DeltaView`,
//! the motif index, and the round engine all run unchanged over either
//! variant. The mapped variant pins its
//! [`MmapRegion`] alive through an `Arc`, so clones of a mapped snapshot
//! share one mapping and the pages are served by the page cache.

use crate::mmap::MmapRegion;
use std::sync::Arc;
use tpp_graph::NodeId;

// The windows read the file's little-endian arrays in place.
#[cfg(target_endian = "big")]
compile_error!("snapshot payload windows require a little-endian target");

/// The two ways a CSR snapshot's arrays can be held.
#[derive(Debug, Clone)]
pub(crate) enum CsrStorage {
    /// Heap-allocated arrays (every in-memory build).
    Owned {
        /// The offset table, length `node_count + 1`.
        offsets: Vec<u64>,
        /// The packed neighbor array, length `2 * edge_count`.
        neighbors: Vec<NodeId>,
    },
    /// Slices into a shared read-only file region (every snapshot load).
    Mapped(MappedCsr),
}

/// A validated window pair into a snapshot file's region.
///
/// Construction via [`MappedCsr::new`] checks bounds and alignment once;
/// after that the accessors are branch-free pointer casts. The region is
/// immutable and lives at least as long as this value (owned `Arc`), so
/// handing out `&[u64]` / `&[NodeId]` tied to `&self` is sound.
#[derive(Debug, Clone)]
pub(crate) struct MappedCsr {
    region: Arc<MmapRegion>,
    /// Byte offset of the offset table inside the region.
    offsets_at: usize,
    /// Offset-table length in elements.
    offsets_len: usize,
    /// Byte offset of the neighbor array inside the region.
    neighbors_at: usize,
    /// Neighbor-array length in elements.
    neighbors_len: usize,
}

impl MappedCsr {
    /// Wraps `region` with the two payload windows, verifying bounds and
    /// element alignment. Returns a description of the violation on
    /// failure (the format layer turns it into `StoreError::Corrupt`).
    pub(crate) fn new(
        region: Arc<MmapRegion>,
        offsets_at: usize,
        offsets_len: usize,
        neighbors_at: usize,
        neighbors_len: usize,
    ) -> Result<MappedCsr, String> {
        let offsets_bytes = offsets_len
            .checked_mul(8)
            .ok_or("offset table size overflows")?;
        let neighbors_bytes = neighbors_len
            .checked_mul(4)
            .ok_or("neighbor array size overflows")?;
        let offsets_end = offsets_at
            .checked_add(offsets_bytes)
            .ok_or("offset window overflows")?;
        let neighbors_end = neighbors_at
            .checked_add(neighbors_bytes)
            .ok_or("neighbor window overflows")?;
        if offsets_end > region.len() || neighbors_end > region.len() {
            return Err(format!(
                "payload windows exceed the {}-byte mapping",
                region.len()
            ));
        }
        let base = region.bytes().as_ptr() as usize;
        if !(base + offsets_at).is_multiple_of(std::mem::align_of::<u64>()) {
            return Err(format!("offset table at byte {offsets_at} is unaligned"));
        }
        if !(base + neighbors_at).is_multiple_of(std::mem::align_of::<NodeId>()) {
            return Err(format!(
                "neighbor array at byte {neighbors_at} is unaligned"
            ));
        }
        Ok(MappedCsr {
            region,
            offsets_at,
            offsets_len,
            neighbors_at,
            neighbors_len,
        })
    }

    /// The offset table, served from the mapping.
    #[inline]
    pub(crate) fn offsets(&self) -> &[u64] {
        // SAFETY: bounds and alignment were checked in `new`; the region
        // is read-only and outlives `self` via the owned Arc.
        unsafe {
            std::slice::from_raw_parts(
                self.region.bytes().as_ptr().add(self.offsets_at).cast(),
                self.offsets_len,
            )
        }
    }

    /// The neighbor array, served from the mapping.
    #[inline]
    pub(crate) fn neighbors(&self) -> &[NodeId] {
        // SAFETY: as in `offsets`.
        unsafe {
            std::slice::from_raw_parts(
                self.region.bytes().as_ptr().add(self.neighbors_at).cast(),
                self.neighbors_len,
            )
        }
    }
}

/// A validated window of little-endian `u32` words into a snapshot
/// file's region — a per-node section read in place, served as
/// [`tpp_graph::Words`]. Construction checks bounds and alignment once.
#[derive(Debug)]
pub(crate) struct MappedWords {
    region: Arc<MmapRegion>,
    /// Byte offset of the first word inside the region.
    at: usize,
    /// Length in words.
    len: usize,
}

impl MappedWords {
    /// The `len` words at byte `at` of `region`, or a description of why
    /// they cannot be served in place.
    pub(crate) fn new(region: Arc<MmapRegion>, at: usize, len: usize) -> Result<Self, String> {
        let end = len
            .checked_mul(4)
            .and_then(|bytes| at.checked_add(bytes))
            .ok_or("word window overflows")?;
        if end > region.len() {
            return Err(format!(
                "word window exceeds the {}-byte mapping",
                region.len()
            ));
        }
        if !(region.bytes().as_ptr() as usize + at).is_multiple_of(std::mem::align_of::<u32>()) {
            return Err(format!("word window at byte {at} is unaligned"));
        }
        Ok(MappedWords { region, at, len })
    }
}

impl AsRef<[u32]> for MappedWords {
    #[inline]
    fn as_ref(&self) -> &[u32] {
        // SAFETY: as in `MappedCsr::offsets`: bounds and alignment were
        // checked in `new`, and the region outlives `self`.
        unsafe {
            std::slice::from_raw_parts(self.region.bytes().as_ptr().add(self.at).cast(), self.len)
        }
    }
}

impl CsrStorage {
    /// The offset table, regardless of backing.
    #[inline]
    pub(crate) fn offsets(&self) -> &[u64] {
        match self {
            CsrStorage::Owned { offsets, .. } => offsets,
            CsrStorage::Mapped(m) => m.offsets(),
        }
    }

    /// The neighbor array, regardless of backing.
    #[inline]
    pub(crate) fn neighbors(&self) -> &[NodeId] {
        match self {
            CsrStorage::Owned { neighbors, .. } => neighbors,
            CsrStorage::Mapped(m) => m.neighbors(),
        }
    }

    /// What holds the arrays: `"owned"`, `"mapped"` (a memory-mapped
    /// file) or `"heap"` (a file read into memory without `mmap`).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            CsrStorage::Owned { .. } => "owned",
            CsrStorage::Mapped(m) if m.region.is_mapped() => "mapped",
            CsrStorage::Mapped(_) => "heap",
        }
    }
}
