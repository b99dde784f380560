//! The range-balancing math every parallel layer splits work with.
//!
//! One boundary computation — [`balanced_prefix_ranges`] over a monotone
//! prefix-sum table, directly or via [`balanced_ranges`] over per-item
//! weights — backs every [`Parallelism::steal_spans`] span plan.
//! It lives beside the executor so the split and the dispatch share one
//! crate.
//!
//! [`Parallelism::steal_spans`]: crate::Parallelism::steal_spans

/// Cuts `0..prefix.len() - 1` items into up to `parts` contiguous ranges
/// with near-equal weight, where `prefix` is a monotone prefix-sum table
/// (`prefix[i]` = total weight of items `0..i`, so `prefix[0] == 0` — a
/// CSR offset table is exactly this shape). Every returned range is
/// non-empty, ranges ascend, and together they cover all items.
///
/// # Panics
/// Panics if `parts == 0` or `prefix` is empty.
#[must_use]
pub fn balanced_prefix_ranges(prefix: &[u64], parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(parts >= 1, "need at least one range");
    let n = prefix.len() - 1;
    let total = *prefix.last().expect("prefix table is never empty");
    let mut ranges = Vec::with_capacity(parts.min(n));
    let mut start = 0usize;
    for i in 1..=parts {
        if start >= n {
            break;
        }
        let end = if i == parts {
            n
        } else {
            // First boundary whose cumulative weight reaches i/parts of
            // the total, but always at least one item per range.
            let quota = (u128::from(total) * i as u128 / parts as u128) as u64;
            let window = &prefix[start + 1..=n];
            (start + 1 + window.partition_point(|&o| o < quota)).min(n)
        };
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Cuts `0..weights.len()` into at most `parts` contiguous ranges of
/// near-equal total weight (every range non-empty, ranges ascending and
/// covering the whole index space) — [`balanced_prefix_ranges`] after one
/// prefix-sum pass over per-item weights.
///
/// # Panics
/// Panics if `parts == 0`.
#[must_use]
pub fn balanced_ranges(weights: &[usize], parts: usize) -> Vec<std::ops::Range<usize>> {
    balanced_prefix_ranges(&prefix_sums(weights), parts)
}

/// The prefix-sum table of `weights` (`prefix[i]` = total weight of items
/// `0..i`, saturating), whose last entry is their total.
pub(crate) fn prefix_sums(weights: &[usize]) -> Vec<u64> {
    let mut prefix = Vec::with_capacity(weights.len() + 1);
    let mut acc = 0u64;
    prefix.push(0u64);
    for &w in weights {
        acc = acc.saturating_add(w as u64);
        prefix.push(acc);
    }
    prefix
}

/// Uniform contiguous ranges when no per-item weights are known.
pub(crate) fn uniform_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let chunk = len.div_ceil(parts.max(1)).max(1);
    (0..len.div_ceil(chunk))
        .map(|i| i * chunk..((i + 1) * chunk).min(len))
        .collect()
}

/// How far an explicit thread request may exceed the machine, as a
/// multiple of `available_parallelism`. Oversubscription up to this factor
/// is a legitimate experiment (the thread-invariance suites run 8 "threads"
/// on a 1-core container); beyond it a request is a typo or an attack
/// (`--threads 100000` would try to spawn 100k OS threads).
const MAX_THREAD_MULTIPLE: usize = 8;

/// The number of available cores (at least 1).
fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The largest thread count [`resolve_threads`] accepts without clamping:
/// `MAX_THREAD_MULTIPLE` times the available cores, floored at 64 so
/// small containers still allow the full oversubscription test matrix.
/// Serve-style frontends reject requests above this instead of clamping
/// (untrusted input should fail loudly, not silently degrade).
#[must_use]
pub fn max_threads() -> usize {
    (available_cores() * MAX_THREAD_MULTIPLE).max(64)
}

/// Resolves the `0 = all available cores` convention shared by every
/// thread-count knob in the workspace. Absurd explicit requests are
/// clamped to [`max_threads`] with a warning on stderr — every nonzero
/// value used to pass straight through to thread spawning.
#[must_use]
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        available_cores()
    } else if threads > max_threads() {
        let cap = max_threads();
        eprintln!(
            "warning: --threads {threads} clamped to {cap} \
             ({MAX_THREAD_MULTIPLE}x the {} available core(s))",
            available_cores()
        );
        cap
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_ranges_cover_and_balance() {
        let weights = vec![1usize, 9, 1, 1, 9, 1, 1, 9, 1, 1];
        for parts in 1..=6 {
            let ranges = balanced_ranges(&weights, parts);
            assert!(ranges.len() <= parts);
            let mut cursor = 0usize;
            for r in &ranges {
                assert_eq!(r.start, cursor);
                assert!(r.end > r.start, "empty range");
                cursor = r.end;
            }
            assert_eq!(cursor, weights.len());
        }
        // Degenerate inputs.
        assert!(balanced_ranges(&[], 4).is_empty());
        assert_eq!(balanced_ranges(&[5], 4), vec![0..1]);
        assert_eq!(uniform_ranges(0, 3), Vec::<std::ops::Range<usize>>::new());
    }

    #[test]
    fn prefix_ranges_match_weight_ranges() {
        let weights = [3usize, 0, 7, 2, 2, 11, 1];
        let mut prefix = vec![0u64];
        for &w in &weights {
            prefix.push(prefix.last().unwrap() + w as u64);
        }
        for parts in 1..=5 {
            assert_eq!(
                balanced_prefix_ranges(&prefix, parts),
                balanced_ranges(&weights, parts),
                "parts = {parts}"
            );
        }
    }

    #[test]
    fn resolve_threads_passthrough_and_auto() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn resolve_threads_clamps_absurd_requests() {
        let cap = max_threads();
        assert!(cap >= 64, "floor allows the oversubscription test matrix");
        // In-range values pass through exactly, including the cap itself.
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(cap), cap);
        // Beyond the cap: clamped, never spawned verbatim.
        assert_eq!(resolve_threads(cap + 1), cap);
        assert_eq!(resolve_threads(100_000), cap);
        assert_eq!(resolve_threads(usize::MAX), cap);
    }
}
