//! [`Words`]: a read-only `u32` array that is either owned or shared from
//! elsewhere — typically a window into a memory-mapped snapshot file, so
//! per-node arrays a snapshot persists are read in place, not copied.

use std::fmt;
use std::ops::Deref;
use std::panic::RefUnwindSafe;
use std::sync::Arc;

/// What can serve shared [`Words`]: any owner of a `u32` slice that may be
/// shared across threads (and, like the graphs holding it, read across a
/// `catch_unwind` boundary).
pub type WordSource = dyn AsRef<[u32]> + Send + Sync + RefUnwindSafe;

/// A read-only array of `u32` words: held on the heap, or shared from a
/// longer-lived owner (a snapshot file's mapping), whose clones share it.
/// Equality and `Debug` are by content.
#[derive(Clone)]
pub enum Words {
    /// Words on the heap.
    Owned(Vec<u32>),
    /// Words served by a shared owner for as long as any clone lives.
    Shared(Arc<WordSource>),
}

impl From<Vec<u32>> for Words {
    fn from(words: Vec<u32>) -> Self {
        Words::Owned(words)
    }
}

impl Deref for Words {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        match self {
            Words::Owned(words) => words,
            Words::Shared(source) => (**source).as_ref(),
        }
    }
}

impl PartialEq for Words {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Words {}

impl fmt::Debug for Words {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_and_shared_words_read_and_compare_alike() {
        let owned = Words::from(vec![1, 2, 3]);
        let shared = Words::Shared(Arc::new([1u32, 2, 3]));
        assert_eq!(owned, shared);
        assert_eq!(&shared[..], &[1, 2, 3]);
        assert_eq!(
            shared.clone().as_ptr(),
            shared.as_ptr(),
            "clones of shared words share them"
        );
        assert_eq!(format!("{owned:?}"), "[1, 2, 3]");
    }
}
