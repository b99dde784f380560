//! Size-adaptive sorted-neighbor intersection kernels.
//!
//! Every gain probe, similarity score, and motif count in the workspace
//! bottoms out in the intersection of two sorted adjacency lists. A scalar
//! two-pointer merge is optimal when the lists are comparable in length,
//! but it is the worst possible shape for the hub × leaf pairs that
//! dominate BA/power-law graphs: `O(d_hub + d_leaf)` work for an output
//! of at most `d_leaf` elements. This module provides three strategies and
//! one dispatcher that picks per `(deg(u), deg(v))` pair:
//!
//! * **merge** — the classic linear merge, `O(|a| + |b|)`. The fallback,
//!   and the single scalar merge the whole workspace shares.
//! * **gallop** — exponential probing + binary search from the smaller
//!   list into the larger, `O(|small| · log(|large| / |small|))`. Wins
//!   when the degree ratio is skewed (see [`GALLOP_RATIO`]).
//! * **hub bitset** — a packed `u64` row per top-K hub node, precomputed
//!   once per snapshot ([`HubBitsets`]). When the larger side owns a row,
//!   membership tests are `O(1)` per element of the smaller list
//!   (*hub-probe*); when both sides own rows and the universe is small
//!   relative to the lists, a word-wise AND sweep (*hub-AND*) intersects
//!   64 candidates per instruction.
//!
//! All kernels emit exactly the same ids in exactly the same strictly
//! ascending order as the merge — the workspace's bit-identical-plan
//! guarantee rides on this, and the equivalence proptests pin it against a
//! naive `HashSet` oracle.
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

/// Default number of hub rows a snapshot precomputes
/// (`CsrGraph::ensure_hub_bitsets`). 64 rows over a 1M-node graph cost
/// 64 · 1M/8 B = 8 MB — bounded, and the top 64 hubs cover the vast
/// majority of skewed intersections in power-law graphs.
pub const DEFAULT_HUB_COUNT: usize = 64;

/// Hubs with fewer neighbors than this never get a bitset row: probing a
/// short sorted slice is already cheap, and the row would waste memory.
pub const MIN_HUB_DEGREE: usize = 8;

/// Which strategy the dispatcher picked for one intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Linear two-pointer merge.
    Merge,
    /// Exponential + binary search from the smaller list.
    Gallop,
    /// Per-element bit tests against the larger side's hub row.
    HubProbe,
    /// Word-wise AND of two hub rows.
    HubAnd,
}

/// The pure selection heuristic, factored out so tests can pin it.
///
/// `small`/`large` are the two list lengths with `small <= large`;
/// `small_row`/`large_row` say which side owns a precomputed hub row;
/// `words` is the row length in `u64` words (the node universe / 64).
#[must_use]
pub fn choose(
    small: usize,
    large: usize,
    small_row: bool,
    large_row: bool,
    words: usize,
) -> Kernel {
    if small_row && large_row && words < small {
        // Sweeping the whole universe word-wise beats even probing the
        // smaller list element by element.
        Kernel::HubAnd
    } else if large_row {
        // O(1) membership per element of the smaller list.
        Kernel::HubProbe
    } else if small > 0 && large >= GALLOP_MIN_LARGE && large / small >= GALLOP_RATIO {
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

#[inline]
fn row_contains(row: &[u64], x: NodeId) -> bool {
    row[(x >> 6) as usize] & (1u64 << (x & 63)) != 0
}

/// Hub-probe kernel: test each element of the (smaller) `probe` list
/// against the larger side's packed row. `O(|probe|)`.
fn probe_row<F: FnMut(NodeId)>(probe: &[NodeId], row: &[u64], mut f: F) {
    for &x in probe {
        if row_contains(row, x) {
            f(x);
        }
    }
}

/// Hub-AND kernel: word-wise AND of two rows, emitting set bits in
/// ascending id order. `O(universe / 64)` regardless of degrees.
fn and_rows<F: FnMut(NodeId)>(a: &[u64], b: &[u64], mut f: F) {
    for (w, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        let mut bits = x & y;
        while bits != 0 {
            let t = bits.trailing_zeros();
            f((w as NodeId) << 6 | t);
            bits &= bits - 1;
        }
    }
}

fn and_rows_count(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x & y).count_ones() as usize)
        .sum()
}

/// Dispatching intersection: picks a kernel per the size/ratio heuristic
/// and calls `f` on each common element, strictly ascending.
///
/// `row_a`/`row_b` are the endpoints' precomputed hub rows when available
/// (`None` otherwise); rows must cover the same universe the lists draw
/// their ids from.
pub fn intersect_with<F: FnMut(NodeId)>(
    a: &[NodeId],
    b: &[NodeId],
    row_a: Option<&[u64]>,
    row_b: Option<&[u64]>,
    f: F,
) {
    if a.is_empty() || b.is_empty() {
        return;
    }
    let (small, large, srow, lrow) = if a.len() <= b.len() {
        (a, b, row_a, row_b)
    } else {
        (b, a, row_b, row_a)
    };
    let words = srow.map_or(0, <[u64]>::len);
    match choose(
        small.len(),
        large.len(),
        srow.is_some(),
        lrow.is_some(),
        words,
    ) {
        Kernel::HubAnd => {
            record(Kernel::HubAnd);
            and_rows(srow.expect("chosen"), lrow.expect("chosen"), f);
        }
        Kernel::HubProbe => {
            record(Kernel::HubProbe);
            probe_row(small, lrow.expect("chosen"), f);
        }
        Kernel::Gallop => {
            record(Kernel::Gallop);
            intersect_gallop(small, large, f);
        }
        Kernel::Merge => {
            record(Kernel::Merge);
            intersect_merge(small, large, f);
        }
    }
}

/// Dispatching count-only intersection: same heuristic as
/// [`intersect_with`], but never materializes anything — the hub-AND path
/// degenerates to a popcount sweep.
#[must_use]
pub fn count_with(
    a: &[NodeId],
    b: &[NodeId],
    row_a: Option<&[u64]>,
    row_b: Option<&[u64]>,
) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let (small, large, srow, lrow) = if a.len() <= b.len() {
        (a, b, row_a, row_b)
    } else {
        (b, a, row_b, row_a)
    };
    let words = srow.map_or(0, <[u64]>::len);
    let mut n = 0usize;
    match choose(
        small.len(),
        large.len(),
        srow.is_some(),
        lrow.is_some(),
        words,
    ) {
        Kernel::HubAnd => {
            record(Kernel::HubAnd);
            n = and_rows_count(srow.expect("chosen"), lrow.expect("chosen"));
        }
        Kernel::HubProbe => {
            record(Kernel::HubProbe);
            for &x in small {
                n += usize::from(row_contains(lrow.expect("chosen"), x));
            }
        }
        Kernel::Gallop => {
            record(Kernel::Gallop);
            intersect_gallop(small, large, |_| n += 1);
        }
        Kernel::Merge => {
            record(Kernel::Merge);
            intersect_merge(small, large, |_| n += 1);
        }
    }
    n
}

// -- hub bitsets -------------------------------------------------------------

/// Packed membership rows for the top-K highest-degree nodes of one
/// immutable snapshot.
///
/// Each hub owns one row of `ceil(node_count / 64)` `u64` words with bit
/// `v` set iff `v` is a neighbor of the hub — `node_count / 8` bytes per
/// hub, [`HubBitsets::memory_bytes`] in total. Rows are built once per
/// snapshot and are only valid while the owner's adjacency is unchanged
/// (overlay views must withhold rows for dirty nodes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HubBitsets {
    /// Row length in `u64` words: `ceil(node_count / 64)`.
    words_per_row: usize,
    /// Hub node ids, strictly ascending (binary-searched by [`Self::row`]).
    hubs: Vec<NodeId>,
    /// All rows concatenated in `hubs` order.
    rows: Vec<u64>,
    /// Smallest degree among the hubs — a cheap reject filter: any node
    /// with a lower degree certainly owns no row.
    min_hub_degree: usize,
}

impl HubBitsets {
    /// Builds rows for the `top_k` highest-degree nodes of `g` (ties break
    /// toward the lower id, so the hub set is deterministic). Nodes below
    /// [`MIN_HUB_DEGREE`] are never promoted to hubs.
    #[must_use]
    pub fn build<G: super::NeighborAccess + ?Sized>(g: &G, top_k: usize) -> Self {
        let n = g.node_count();
        let words_per_row = n.div_ceil(64);
        let mut ranked: Vec<NodeId> = (0..n as NodeId)
            .filter(|&u| g.degree(u) >= MIN_HUB_DEGREE)
            .collect();
        ranked.sort_unstable_by_key(|&u| (std::cmp::Reverse(g.degree(u)), u));
        ranked.truncate(top_k);
        ranked.sort_unstable();
        let hubs = ranked;
        let mut rows = vec![0u64; hubs.len() * words_per_row];
        for (i, &h) in hubs.iter().enumerate() {
            let row = &mut rows[i * words_per_row..(i + 1) * words_per_row];
            for &v in g.neighbors(h) {
                row[(v >> 6) as usize] |= 1u64 << (v & 63);
            }
        }
        let min_hub_degree = hubs
            .iter()
            .map(|&h| g.degree(h))
            .min()
            .unwrap_or(usize::MAX);
        HubBitsets {
            words_per_row,
            hubs,
            rows,
            min_hub_degree,
        }
    }

    /// The packed row of node `u`, if `u` is one of the hubs.
    #[inline]
    #[must_use]
    pub fn row(&self, u: NodeId) -> Option<&[u64]> {
        let i = self.hubs.binary_search(&u).ok()?;
        Some(&self.rows[i * self.words_per_row..(i + 1) * self.words_per_row])
    }

    /// Number of hub rows.
    #[must_use]
    pub fn hub_count(&self) -> usize {
        self.hubs.len()
    }

    /// The hub node ids, ascending.
    #[must_use]
    pub fn hubs(&self) -> &[NodeId] {
        &self.hubs
    }

    /// Row length in `u64` words.
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Smallest degree among the hubs (`usize::MAX` when there are none):
    /// nodes below this threshold need no [`Self::row`] lookup at all.
    #[must_use]
    pub fn min_hub_degree(&self) -> usize {
        self.min_hub_degree
    }

    /// Bytes held by the packed rows (the dominant cost; the hub-id list
    /// is negligible).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<u64>()
            + self.hubs.len() * std::mem::size_of::<NodeId>()
    }
}

// -- kernel-selection counters -----------------------------------------------

/// A point-in-time snapshot of the process-wide kernel-selection tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounts {
    /// Linear-merge selections.
    pub merge: u64,
    /// Galloping selections.
    pub gallop: u64,
    /// Hub-probe selections.
    pub hub_probe: u64,
    /// Hub-AND selections.
    pub hub_and: u64,
}

impl KernelCounts {
    /// Total selections across all kernels.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.merge + self.gallop + self.hub_probe + self.hub_and
    }

    /// Per-kernel increase since `baseline` (saturating, so a concurrent
    /// [`reset_counts`] never underflows).
    #[must_use]
    pub fn since(&self, baseline: KernelCounts) -> KernelCounts {
        KernelCounts {
            merge: self.merge.saturating_sub(baseline.merge),
            gallop: self.gallop.saturating_sub(baseline.gallop),
            hub_probe: self.hub_probe.saturating_sub(baseline.hub_probe),
            hub_and: self.hub_and.saturating_sub(baseline.hub_and),
        }
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static MERGE: AtomicU64 = AtomicU64::new(0);
static GALLOP: AtomicU64 = AtomicU64::new(0);
static HUB_PROBE: AtomicU64 = AtomicU64::new(0);
static HUB_AND: AtomicU64 = AtomicU64::new(0);

/// Turns kernel-selection counting on or off (process-wide). Off by
/// default: the dispatch hot path then pays one relaxed load + branch.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Whether selection counting is currently on.
#[must_use]
pub fn counting_enabled() -> bool {
    COUNTING.load(Relaxed)
}

/// Snapshot of the selection tallies. Tallies are monotone while counting
/// stays on; diff two snapshots ([`KernelCounts::since`]) to attribute
/// selections to one run.
#[must_use]
pub fn counts() -> KernelCounts {
    KernelCounts {
        merge: MERGE.load(Relaxed),
        gallop: GALLOP.load(Relaxed),
        hub_probe: HUB_PROBE.load(Relaxed),
        hub_and: HUB_AND.load(Relaxed),
    }
}

/// Zeroes the selection tallies (test helper; prefer
/// [`KernelCounts::since`] in production paths).
pub fn reset_counts() {
    MERGE.store(0, Relaxed);
    GALLOP.store(0, Relaxed);
    HUB_PROBE.store(0, Relaxed);
    HUB_AND.store(0, Relaxed);
}

#[inline]
fn record(k: Kernel) {
    if !COUNTING.load(Relaxed) {
        return;
    }
    match k {
        Kernel::Merge => &MERGE,
        Kernel::Gallop => &GALLOP,
        Kernel::HubProbe => &HUB_PROBE,
        Kernel::HubAnd => &HUB_AND,
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
                collect(|x, y, f| intersect_with(x, y, None, None, f), &a, &b),
                want,
                "dispatch {a:?} {b:?}"
            );
            assert_eq!(count_with(&a, &b, None, None), want.len());
        }
    }

    #[test]
    fn heuristic_picks_the_expected_kernel() {
        // balanced → merge
        assert_eq!(choose(100, 110, false, false, 0), Kernel::Merge);
        // skewed and large enough → gallop
        assert_eq!(choose(5, 1000, false, false, 0), Kernel::Gallop);
        // skewed but tiny → merge
        assert_eq!(choose(3, 30, false, false, 0), Kernel::Merge);
        // larger side owns a row → probe
        assert_eq!(choose(5, 1000, false, true, 20), Kernel::HubProbe);
        // both rows, narrow universe → AND sweep
        assert_eq!(choose(500, 900, true, true, 100), Kernel::HubAnd);
        // both rows, universe too wide for the lists → probe
        assert_eq!(choose(5, 70, true, true, 10_000), Kernel::HubProbe);
        // empty never dispatches past merge
        assert_eq!(choose(0, 1000, false, false, 0), Kernel::Merge);
    }

    #[test]
    fn hub_rows_agree_with_the_merge() {
        // A star hub (0) plus a ring: node 0 is the only hub candidate.
        let mut g = crate::Graph::new(64);
        for v in 1..64u32 {
            g.add_edge(0, v);
        }
        for v in 1..63u32 {
            g.add_edge(v, v + 1);
        }
        let hb = HubBitsets::build(&g, 4);
        assert!(hb.hub_count() >= 1);
        assert!(hb.row(0).is_some());
        assert_eq!(hb.words_per_row(), 1);
        let row0 = hb.row(0).unwrap();

        for v in 1..64u32 {
            let a = g.neighbors(0);
            let b = g.neighbors(v);
            let want = oracle(b, a);
            // probe path: b (small) against hub row of 0
            let mut got = Vec::new();
            intersect_with(a, b, Some(row0), None, |w| got.push(w));
            assert_eq!(got, want, "probe vs oracle at {v}");
            assert_eq!(count_with(a, b, Some(row0), None), want.len());
        }
        // AND path: two hubs of a dense blob
        let mut dense = crate::Graph::new(100);
        for u in 0..40u32 {
            for v in (u + 1)..40 {
                dense.add_edge(u, v);
            }
        }
        let hb = HubBitsets::build(&dense, 2);
        assert_eq!(hb.hubs(), &[0, 1]);
        let (r0, r1) = (hb.row(0).unwrap(), hb.row(1).unwrap());
        let want = oracle(dense.neighbors(0), dense.neighbors(1));
        let mut got = Vec::new();
        intersect_with(
            dense.neighbors(0),
            dense.neighbors(1),
            Some(r0),
            Some(r1),
            |w| got.push(w),
        );
        assert_eq!(got, want);
        assert_eq!(
            count_with(dense.neighbors(0), dense.neighbors(1), Some(r0), Some(r1)),
            want.len()
        );
    }

    #[test]
    fn hub_build_is_deterministic_and_bounded() {
        let g = crate::generators::barabasi_albert(500, 4, 7);
        let a = HubBitsets::build(&g, 8);
        let b = HubBitsets::build(&g, 8);
        assert_eq!(a, b);
        assert!(a.hub_count() <= 8);
        assert!(a.hubs().windows(2).all(|w| w[0] < w[1]));
        for &h in a.hubs() {
            assert!(g.degree(h) >= a.min_hub_degree());
            assert!(a.min_hub_degree() >= MIN_HUB_DEGREE);
        }
        assert_eq!(
            a.memory_bytes(),
            a.hub_count() * a.words_per_row() * 8 + a.hub_count() * 4
        );
        // Non-hubs own no row.
        let non_hub = (0..500u32).find(|u| a.row(*u).is_none()).unwrap();
        assert!(a.row(non_hub).is_none());
        // Empty graph: no hubs, nothing explodes.
        let empty = HubBitsets::build(&crate::Graph::new(0), 8);
        assert_eq!(empty.hub_count(), 0);
        assert_eq!(empty.min_hub_degree(), usize::MAX);
    }

    #[test]
    fn counters_tally_only_while_enabled() {
        // Process-wide counters: other tests (and threads) may also bump
        // them, so assert on deltas of *disjoint* kernels via `since`.
        let a: Vec<NodeId> = (0..1000).collect();
        let b: Vec<NodeId> = vec![5, 500];
        set_counting(false);
        let before = counts();
        intersect_with(&a, &b, None, None, |_| {});
        // Disabled: our gallop selection above left no trace... but other
        // threads may tally, so only check monotonicity, not equality.
        set_counting(true);
        let base = counts();
        intersect_with(&a, &b, None, None, |_| {});
        let n = count_with(&a, &b, None, None);
        assert_eq!(n, 2);
        let d = counts().since(base);
        assert!(d.gallop >= 2, "expected two gallop selections, got {d:?}");
        set_counting(false);
        assert!(counts().total() >= before.total());
    }
}
