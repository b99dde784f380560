//! Size-adaptive sorted-neighbor intersection kernels.
//!
//! Every gain probe, similarity score, and motif count in the workspace
//! bottoms out in the intersection of two sorted adjacency lists. A scalar
//! two-pointer merge is optimal when the lists are comparable in length,
//! but it is the worst possible shape for the hub × leaf pairs that
//! dominate BA/power-law graphs: `O(d_hub + d_leaf)` work for an output
//! of at most `d_leaf` elements. This module provides two strategies and
//! one dispatcher that picks per `(deg(u), deg(v))` pair:
//!
//! * **merge** — the classic linear merge, `O(|a| + |b|)`. The fallback,
//!   and the single scalar merge the whole workspace shares.
//! * **gallop** — exponential probing + binary search from the smaller
//!   list into the larger, `O(|small| · log(|large| / |small|))`. Wins
//!   when the degree ratio is skewed (see [`GALLOP_RATIO`]).
//!
//! Both kernels emit exactly the same ids in exactly the same strictly
//! ascending order — the workspace's bit-identical-plan guarantee rides on
//! this, and the equivalence proptests pin it against a naive `HashSet`
//! oracle.
//!
//! ## Selection counters
//!
//! When enabled via [`set_counting`], the dispatcher tallies how often each
//! kernel fires in process-wide relaxed atomics ([`counts`]). Counting is
//! off by default (one relaxed load + branch on the hot path) and is only
//! switched on by `--stats` runs, which fold the deltas into the
//! `tpp-obs` report.

use crate::edge::NodeId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Minimum `|large| / |small|` ratio before galloping beats the merge.
///
/// Below this the binary-search log factor costs more than the linear scan
/// it saves; the crossover was measured on the `intersect_kernels` bench.
pub const GALLOP_RATIO: usize = 8;

/// Minimum larger-list length before galloping is considered at all —
/// for tiny lists the merge is already a handful of comparisons.
pub const GALLOP_MIN_LARGE: usize = 64;

/// Which strategy the dispatcher picked for one intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Linear two-pointer merge.
    Merge,
    /// Exponential + binary search from the smaller list.
    Gallop,
}

/// The pure selection heuristic, factored out so tests can pin it.
/// `small`/`large` are the two list lengths with `small <= large`.
fn choose(small: usize, large: usize) -> Kernel {
    if small > 0 && large >= GALLOP_MIN_LARGE && large / small >= GALLOP_RATIO {
        Kernel::Gallop
    } else {
        Kernel::Merge
    }
}

/// Linear two-pointer slice merge (the dispatcher's fallback kernel):
/// calls `f` on each element common to the strictly ascending `a` and `b`,
/// in ascending order.
///
/// This is the **one** scalar merge in the workspace.
pub fn intersect_merge<F: FnMut(NodeId)>(a: &[NodeId], b: &[NodeId], mut f: F) {
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(x);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Galloping intersection: for each element of `probe` (the smaller list),
/// exponential search then binary search into the still-unconsumed suffix
/// of `haystack`. Both inputs strictly ascending; output ascending.
pub fn intersect_gallop<F: FnMut(NodeId)>(probe: &[NodeId], mut haystack: &[NodeId], mut f: F) {
    for &x in probe {
        if haystack.is_empty() {
            return;
        }
        // Exponential bound: smallest power-of-two window whose last
        // element reaches x (haystack is ascending, so previous probe
        // elements already consumed the prefix below the moving bound).
        let mut hi = 1usize;
        while hi < haystack.len() && haystack[hi - 1] < x {
            hi <<= 1;
        }
        let window = &haystack[..hi.min(haystack.len())];
        let pos = window.partition_point(|&w| w < x);
        if pos < haystack.len() && haystack[pos] == x {
            f(x);
            haystack = &haystack[pos + 1..];
        } else {
            haystack = &haystack[pos..];
        }
    }
}

/// Dispatching intersection: picks a kernel per the size/ratio heuristic
/// and calls `f` on each common element, strictly ascending.
pub fn intersect_with<F: FnMut(NodeId)>(a: &[NodeId], b: &[NodeId], f: F) {
    if a.is_empty() || b.is_empty() {
        return;
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let kernel = choose(small.len(), large.len());
    record(kernel);
    match kernel {
        Kernel::Gallop => intersect_gallop(small, large, f),
        Kernel::Merge => intersect_merge(small, large, f),
    }
}

/// Dispatching count-only intersection: same heuristic as
/// [`intersect_with`], counting instead of materializing.
#[must_use]
pub fn count_with(a: &[NodeId], b: &[NodeId]) -> usize {
    let mut n = 0usize;
    intersect_with(a, b, |_| n += 1);
    n
}

// -- kernel-selection counters -----------------------------------------------

/// A point-in-time snapshot of the process-wide kernel-selection tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounts {
    /// Linear-merge selections.
    pub merge: u64,
    /// Galloping selections.
    pub gallop: u64,
    /// Always 0: no kernel tallies here. Kept only because the
    /// `perfbench` replay still reads the field.
    pub hub_probe: u64,
    /// Always 0, like [`Self::hub_probe`].
    pub hub_and: u64,
}

impl KernelCounts {
    /// Per-kernel increase since `baseline` (saturating, so a baseline
    /// taken on another thread never underflows).
    #[must_use]
    pub fn since(&self, baseline: KernelCounts) -> KernelCounts {
        KernelCounts {
            merge: self.merge.saturating_sub(baseline.merge),
            gallop: self.gallop.saturating_sub(baseline.gallop),
            hub_probe: 0,
            hub_and: 0,
        }
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static MERGE: AtomicU64 = AtomicU64::new(0);
static GALLOP: AtomicU64 = AtomicU64::new(0);

/// Turns kernel-selection counting on or off (process-wide). Off by
/// default: the dispatch hot path then pays one relaxed load + branch.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Snapshot of the selection tallies. Tallies are monotone while counting
/// stays on; diff two snapshots ([`KernelCounts::since`]) to attribute
/// selections to one run.
#[must_use]
pub fn counts() -> KernelCounts {
    KernelCounts {
        merge: MERGE.load(Relaxed),
        gallop: GALLOP.load(Relaxed),
        ..KernelCounts::default()
    }
}

#[inline]
fn record(k: Kernel) {
    if !COUNTING.load(Relaxed) {
        return;
    }
    match k {
        Kernel::Merge => &MERGE,
        Kernel::Gallop => &GALLOP,
    }
    .fetch_add(1, Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect<K: Fn(&[NodeId], &[NodeId], &mut dyn FnMut(NodeId))>(
        k: K,
        a: &[NodeId],
        b: &[NodeId],
    ) -> Vec<NodeId> {
        let mut out = Vec::new();
        k(a, b, &mut |w| out.push(w));
        out
    }

    fn oracle(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
        let set: std::collections::HashSet<NodeId> = b.iter().copied().collect();
        a.iter().copied().filter(|x| set.contains(x)).collect()
    }

    #[test]
    fn gallop_matches_merge_on_adversarial_shapes() {
        let cases: Vec<(Vec<NodeId>, Vec<NodeId>)> = vec![
            (vec![], vec![]),
            (vec![], vec![1, 2, 3]),
            (vec![5], (0..1000).collect()),
            (vec![999], (0..1000).collect()),
            (vec![0], (0..1000).collect()),
            (vec![1000], (0..1000).collect()),      // past the end
            ((0..50).collect(), (0..50).collect()), // identical
            (
                (0..50).map(|x| x * 2).collect(),
                (0..50).map(|x| x * 2 + 1).collect(),
            ), // disjoint
            (vec![3, 77, 501, 502, 999], (0..1000).collect()), // hub × leaf
            ((0..1000).collect(), vec![3, 77, 501, 502, 999]), // reversed roles
        ];
        for (a, b) in cases {
            let want = oracle(&a, &b);
            assert_eq!(
                collect(|x, y, f| intersect_gallop(x, y, f), &a, &b),
                want,
                "gallop {a:?} {b:?}"
            );
            assert_eq!(
                collect(|x, y, f| intersect_merge(x, y, f), &a, &b),
                want,
                "merge {a:?} {b:?}"
            );
            assert_eq!(
                collect(|x, y, f| intersect_with(x, y, f), &a, &b),
                want,
                "dispatch {a:?} {b:?}"
            );
            assert_eq!(count_with(&a, &b), want.len());
        }
    }

    #[test]
    fn heuristic_picks_the_expected_kernel() {
        // balanced → merge
        assert_eq!(choose(100, 110), Kernel::Merge);
        // skewed and large enough → gallop
        assert_eq!(choose(5, 1000), Kernel::Gallop);
        // skewed but tiny → merge
        assert_eq!(choose(3, 30), Kernel::Merge);
        // just under the ratio → merge
        assert_eq!(choose(100, 799), Kernel::Merge);
        // empty never dispatches past merge
        assert_eq!(choose(0, 1000), Kernel::Merge);
    }

    #[test]
    fn counters_tally_only_while_enabled() {
        // Process-wide counters: other tests (and threads) may also bump
        // them, so assert on deltas of *disjoint* kernels via `since`.
        let a: Vec<NodeId> = (0..1000).collect();
        let b: Vec<NodeId> = vec![5, 500];
        set_counting(false);
        let before = counts();
        intersect_with(&a, &b, |_| {});
        // Disabled: our gallop selection above left no trace... but other
        // threads may tally, so only check monotonicity, not equality.
        set_counting(true);
        let base = counts();
        intersect_with(&a, &b, |_| {});
        let n = count_with(&a, &b);
        assert_eq!(n, 2);
        let d = counts().since(base);
        assert!(d.gallop >= 2, "expected two gallop selections, got {d:?}");
        set_counting(false);
        let after = counts();
        assert!(after.merge >= before.merge && after.gallop >= before.gallop);
        assert_eq!((after.hub_probe, after.hub_and), (0, 0));
    }
}
