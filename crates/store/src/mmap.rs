//! Read-only file regions for snapshot loads, dependency-free.
//!
//! The build environment has no crates.io, so this module carries its own
//! minimal `mmap`/`munmap` FFI surface instead of the `memmap2` crate: two
//! `extern "C"` declarations against the platform libc that `std` already
//! links, wrapped in one safe RAII type. Mapping is Linux-only (gated on
//! `target_os = "linux"`); on other platforms [`MmapRegion::map_file`]
//! reads the file into an 8-byte-aligned heap buffer instead
//! ([`MmapRegion::read_file`]), so the snapshot loader serves the same
//! payload windows from either backing.
//!
//! Safety model: the mapping is `PROT_READ` + `MAP_PRIVATE`, so the kernel
//! serves the pages straight from the page cache and writes through the
//! region are impossible. The one hazard a private read-only file mapping
//! cannot rule out is an *external* truncation of the underlying file while
//! mapped (touching a page past the new EOF raises `SIGBUS`); snapshot
//! files are written once and never shortened, and the format layer
//! additionally cross-checks the file length against the header before any
//! payload access.

use std::fs::File;
use std::io;

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_void};

    // The subset of <sys/mman.h> this module needs, declared against the
    // libc that std already links. Constants are the x86-64/aarch64 Linux
    // values (they are identical on every Linux ABI Rust targets here).
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
    }

    pub const PROT_READ: c_int = 0x1;
    pub const MAP_PRIVATE: c_int = 0x2;

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// The read-only bytes of an entire file: a memory mapping (unmapped on
/// drop) or an 8-byte-aligned heap copy.
///
/// Zero-length files are represented without a kernel mapping (POSIX
/// `mmap` rejects `length == 0`), so [`MmapRegion::bytes`] is total.
#[derive(Debug)]
pub struct MmapRegion {
    /// Base address of the bytes; null iff `len == 0` for a mapping.
    ptr: *mut u8,
    /// Length in bytes.
    len: usize,
    /// The heap words `ptr` points into when the file was read rather
    /// than mapped; `None` for a mapping.
    heap: Option<Vec<u64>>,
}

// SAFETY: the region is immutable for its whole lifetime (PROT_READ
// private mapping or a heap buffer no API hands out `&mut` to), so shared
// references from any thread are sound; a mapping is only freed once, in
// Drop.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl MmapRegion {
    /// Maps the whole of `file` read-only.
    ///
    /// # Errors
    /// Returns the OS error from `mmap`.
    #[cfg(target_os = "linux")]
    pub fn map_file(file: &File) -> io::Result<MmapRegion> {
        use std::os::unix::io::AsRawFd;
        let len = usize::try_from(file.metadata()?.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "file exceeds address space")
        })?;
        if len == 0 {
            return Ok(MmapRegion {
                ptr: std::ptr::null_mut(),
                len: 0,
                heap: None,
            });
        }
        // SAFETY: fd is a valid open file descriptor for `file`; length is
        // its exact current size; PROT_READ|MAP_PRIVATE never aliases
        // writable memory. The returned region is owned by the RAII value.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::map_failed() {
            return Err(io::Error::last_os_error());
        }
        Ok(MmapRegion {
            ptr: ptr.cast::<u8>(),
            len,
            heap: None,
        })
    }

    /// Without `mmap`: reads the whole of `file` via [`MmapRegion::read_file`].
    ///
    /// # Errors
    /// As [`MmapRegion::read_file`].
    #[cfg(not(target_os = "linux"))]
    pub fn map_file(file: &File) -> io::Result<MmapRegion> {
        MmapRegion::read_file(file)
    }

    /// Reads the whole of `file` into a heap buffer aligned to 8 bytes,
    /// the widest element a snapshot payload holds, so payload windows
    /// that are aligned in a page-aligned mapping are aligned here too.
    ///
    /// # Errors
    /// Returns the OS error from reading, or
    /// [`std::io::ErrorKind::UnexpectedEof`] if the file shrinks mid-read.
    pub fn read_file(mut file: &File) -> io::Result<MmapRegion> {
        use std::io::Read;
        let len = usize::try_from(file.metadata()?.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "file exceeds address space")
        })?;
        let mut words = vec![0u64; len.div_ceil(8)];
        let ptr = words.as_mut_ptr().cast::<u8>();
        // SAFETY: the buffer holds at least `len` initialized bytes, any
        // byte pattern is a valid u64, and this is the only live view.
        file.read_exact(unsafe { std::slice::from_raw_parts_mut(ptr, len) })?;
        // Moving the Vec into the region keeps its heap buffer (and so
        // `ptr`) where it is.
        Ok(MmapRegion {
            ptr,
            len,
            heap: Some(words),
        })
    }

    /// The mapped bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr/len describe a live PROT_READ mapping or heap buffer
        // owned by self; no mutable access exists anywhere.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for a memory mapping, `false` for a heap copy.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        self.heap.is_none()
    }

    /// `true` for a zero-length file.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if self.heap.is_none() && self.len != 0 {
            // SAFETY: ptr/len came from a successful mmap and are unmapped
            // exactly once. munmap failure is unrecoverable and ignored.
            unsafe {
                let _ = sys::munmap(self.ptr.cast(), self.len);
            }
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("tpp-mmap-{}-{name}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(contents).unwrap();
        path
    }

    #[test]
    fn maps_file_contents_exactly() {
        let path = tmp("basic", b"hello mapped world");
        let region = MmapRegion::map_file(&File::open(&path).unwrap()).unwrap();
        assert_eq!(region.bytes(), b"hello mapped world");
        assert_eq!(region.len(), 18);
        assert!(!region.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = tmp("empty", b"");
        let region = MmapRegion::map_file(&File::open(&path).unwrap()).unwrap();
        assert!(region.is_empty());
        assert_eq!(region.bytes(), b"");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn region_outlives_the_file_handle_and_is_shareable() {
        let path = tmp("shared", &[7u8; 9000]); // spans multiple pages
        let region = {
            let f = File::open(&path).unwrap();
            MmapRegion::map_file(&f).unwrap()
            // file handle dropped here; the mapping must stay valid
        };
        std::fs::remove_file(&path).ok(); // even unlinked: pages are held
        let region = std::sync::Arc::new(region);
        let r2 = std::sync::Arc::clone(&region);
        let t = std::thread::spawn(move || r2.bytes().iter().map(|&b| u64::from(b)).sum::<u64>());
        assert_eq!(t.join().unwrap(), 7 * 9000);
        assert_eq!(region.bytes()[8999], 7);
    }

    #[test]
    fn heap_read_matches_the_mapping_and_is_word_aligned() {
        let contents: Vec<u8> = (0..9001u32).map(|i| (i % 251) as u8).collect();
        let path = tmp("heap", &contents);
        let f = File::open(&path).unwrap();
        let mapped = MmapRegion::map_file(&f).unwrap();
        let heap = MmapRegion::read_file(&f).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(mapped.is_mapped());
        assert!(!heap.is_mapped());
        assert_eq!(heap.bytes(), mapped.bytes());
        assert_eq!(heap.len(), 9001);
        assert!((heap.bytes().as_ptr() as usize).is_multiple_of(8));
    }
}
