//! Seeded inputs and op sequences for the three workloads, plus the
//! percentile rule. Everything here is a pure function of the run seed,
//! so a seed always names the same graphs, target lists, deltas and op
//! order (the `Cmd`-generator / working-set pattern of ixperf's
//! `opts.rs`, reduced to what these workloads need).

use tpp_graph::{Edge, FastSet, Graph};

/// SplitMix64: a tiny, fully specified generator, so a seed means the
/// same inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// `count` distinct CLI `--seed` values for one purpose (`stream`) of a
/// run seed, kept small so argv stays readable.
pub fn sub_seeds(seed: u64, stream: u64, count: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut out: Vec<u64> = Vec::with_capacity(count);
    while out.len() < count {
        let s = 1 + rng.below(999_999);
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

/// Seeded block order: `len` picks from `0..k`, each block of `k` a fresh
/// permutation, so every value recurs at least once per block.
fn blocked_cycle(rng: &mut Rng, k: usize, len: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(len + k);
    while out.len() < len {
        let mut block: Vec<usize> = (0..k).collect();
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out.truncate(len);
    out
}

/// `oneshot_ba200k`: distinct protect seeds cycled through the run, so
/// each seed is answered several times and every answer after the first
/// is checked against it.
pub const ONESHOT_SEEDS: usize = 3;

/// Indexes into the run's [`ONESHOT_SEEDS`] protect seeds, op by op.
pub fn oneshot_sequence(seed: u64, len: usize) -> Vec<usize> {
    blocked_cycle(&mut Rng::new(seed ^ 0x0E5E), ONESHOT_SEEDS, len)
}

/// `serve_engine_arenas`: target lists that always hit the index
/// registry.
pub const HOT_LISTS: usize = 2;
/// Target lists cycled so that each is evicted before it comes back.
pub const COLD_LISTS: usize = 12;
/// The daemon's `--max-indexes` LRU cap.
pub const INDEX_CAP: usize = 4;

/// One served protect request's target list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ListRef {
    Hot(usize),
    Cold(usize),
}

/// The engine workload's request order, in blocks of three: both hot
/// lists in seeded order, then the next cold list of a seeded cycle of
/// [`COLD_LISTS`]. The cold share is fixed at one third. Between two uses
/// of a hot list at most one cold list is touched, so a hot list needs
/// only three registry slots to stay resident: the cap of four leaves a
/// slot spare for the reordering two concurrent clients cause.
pub fn engine_sequence(seed: u64, len: usize) -> Vec<ListRef> {
    let mut rng = Rng::new(seed ^ 0x00E0_614E);
    let mut cold_cycle: Vec<usize> = (0..COLD_LISTS).collect();
    rng.shuffle(&mut cold_cycle);
    let mut out = Vec::with_capacity(len + 3);
    let mut block = 0usize;
    while out.len() < len {
        let first = rng.below(HOT_LISTS as u64) as usize;
        out.push(ListRef::Hot(first));
        out.push(ListRef::Hot(1 - first));
        out.push(ListRef::Cold(cold_cycle[block % COLD_LISTS]));
        block += 1;
    }
    out.truncate(len);
    out
}

/// Replays `seq` against an index registry of `cap` entries the way
/// `tpp serve` runs it: each request first evicts least-recently-used
/// entries down to the cap, then looks its key up, and a miss inserts its
/// freshly built entry. `warm` are looked up (and built) before `seq`.
/// Returns, per request of `seq`, whether it hit.
pub fn simulate_registry(warm: &[ListRef], seq: &[ListRef], cap: usize) -> Vec<bool> {
    // Entries with their last-use tick; the oldest tick is evicted first.
    let mut registry: Vec<(ListRef, usize)> = Vec::new();
    let mut hits = Vec::with_capacity(seq.len());
    for (tick, key) in warm.iter().chain(seq).enumerate() {
        while registry.len() > cap {
            let oldest = (0..registry.len())
                .min_by_key(|&i| registry[i].1)
                .expect("registry is non-empty");
            registry.remove(oldest);
        }
        match registry.iter_mut().find(|(k, _)| k == key) {
            Some(entry) => {
                entry.1 = tick;
                hits.push(true);
            }
            None => {
                registry.push((*key, tick));
                hits.push(false);
            }
        }
    }
    hits.split_off(warm.len())
}

/// `serve_dynamic_ba50k`: deltas in the fixed cycle.
pub const DELTAS: usize = 4;
/// Non-edges each delta inserts.
pub const DELTA_EDGES: usize = 32;

/// One step of the dynamic workload's four-step cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DynOp {
    /// `update` with `+D_i`.
    Grow(usize),
    /// `attack` on the graph mutated by `D_i`.
    Attack(usize),
    /// `update` with `-D_i`, restoring the base graph.
    Shrink(usize),
    /// Warm `protect` on the restored base graph.
    Protect,
}

/// `cycles` four-step cycles over the deltas in seeded block order.
pub fn dynamic_sequence(seed: u64, cycles: usize) -> Vec<DynOp> {
    blocked_cycle(&mut Rng::new(seed ^ 0xD7A), DELTAS, cycles)
        .into_iter()
        .flat_map(|i| {
            [
                DynOp::Grow(i),
                DynOp::Attack(i),
                DynOp::Shrink(i),
                DynOp::Protect,
            ]
        })
        .collect()
}

/// `count` deltas of `size` seeded non-edges of `g` each, pairwise
/// distinct across all deltas and never equal to a target, each sorted.
/// Inserting only absent edges keeps every `update` effective, and
/// missing every target keeps the warm index patchable in place. Each
/// edge joins a neighbour of one endpoint of a random target to a
/// neighbour of the other, closing a rectangle through that target, so
/// the index patch has instances to discover (uniform pairs when there
/// are no targets).
pub fn make_deltas(
    g: &Graph,
    targets: &[Edge],
    count: usize,
    size: usize,
    seed: u64,
) -> Vec<Vec<Edge>> {
    let n = g.node_count() as u64;
    assert!(n >= 2, "need two nodes to draw a non-edge");
    let mut rng = Rng::new(seed ^ 0xDE17A);
    let neighbour = |rng: &mut Rng, x: u32| {
        let nbrs = g.neighbors(x);
        nbrs[rng.below(nbrs.len() as u64) as usize]
    };
    let target_set: FastSet<Edge> = targets.iter().copied().collect();
    let mut used: FastSet<Edge> = FastSet::default();
    (0..count)
        .map(|_| {
            let mut delta = Vec::with_capacity(size);
            while delta.len() < size {
                let (u, v) = if targets.is_empty() {
                    (rng.below(n) as u32, rng.below(n) as u32)
                } else {
                    let t = targets[rng.below(targets.len() as u64) as usize];
                    (neighbour(&mut rng, t.u()), neighbour(&mut rng, t.v()))
                };
                if u == v || g.has_edge(u, v) {
                    continue;
                }
                let e = Edge::new(u, v);
                if !target_set.contains(&e) && used.insert(e) {
                    delta.push(e);
                }
            }
            delta.sort_unstable();
            delta
        })
        .collect()
}

/// A delta file adding (`+`) or removing (`-`) `edges`.
pub fn delta_text(edges: &[Edge], sign: char) -> String {
    edges
        .iter()
        .map(|e| format!("{sign} {} {}\n", e.u(), e.v()))
        .collect()
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank quantile: the smallest sample with at least `q` of the
/// samples at or below it.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The highest tail percentile with at least ten samples beyond it, as
/// `(suffix, q)`: p99 from 1000 samples, p90 from 100, none below.
pub fn reportable_tail(samples: usize) -> Option<(&'static str, f64)> {
    [("p99", 0.99), ("p90", 0.90)]
        .into_iter()
        .find(|&(_, q)| samples - ((q * samples as f64).ceil() as usize).min(samples) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_store::GraphDelta;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(reportable_tail(0), None);
        assert_eq!(reportable_tail(99), None);
        assert_eq!(reportable_tail(100), Some(("p90", 0.90)));
        assert_eq!(reportable_tail(999), Some(("p90", 0.90)));
        assert_eq!(reportable_tail(1000), Some(("p99", 0.99)));
        for n in 1..3000 {
            if let Some((_, q)) = reportable_tail(n) {
                let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let beyond = xs.iter().filter(|&&x| x > quantile(&xs, q)).count();
                assert!(beyond >= 10, "n={n}: only {beyond} samples beyond the tail");
            }
        }
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.90), 90.0);
        assert_eq!(quantile(&xs, 0.5), 50.0);
    }

    #[test]
    fn hot_lists_stay_inside_the_cap_and_cold_lists_never_hit() {
        let warm = [ListRef::Hot(0), ListRef::Hot(1)];
        for seed in 0..50 {
            let seq = engine_sequence(seed, 600);
            // One slot fewer than the daemon's cap still keeps every hot
            // list resident: the spare slot absorbs client reordering.
            for cap in [INDEX_CAP - 1, INDEX_CAP] {
                let hits = simulate_registry(&warm, &seq, cap);
                for (op, hit) in seq.iter().zip(&hits) {
                    assert_eq!(
                        *hit,
                        matches!(op, ListRef::Hot(_)),
                        "seed {seed} cap {cap}: {op:?}"
                    );
                }
            }
            // Two concurrent clients can swap neighbouring requests.
            let mut rng = Rng::new(seed);
            let mut swapped = seq.clone();
            for i in (0..swapped.len() - 1).step_by(2) {
                if rng.below(2) == 1 {
                    swapped.swap(i, i + 1);
                }
            }
            let hits = simulate_registry(&warm, &swapped, INDEX_CAP);
            for (op, hit) in swapped.iter().zip(&hits) {
                assert_eq!(
                    *hit,
                    matches!(op, ListRef::Hot(_)),
                    "seed {seed} swapped: {op:?}"
                );
            }
            let cold = seq
                .iter()
                .filter(|op| matches!(op, ListRef::Cold(_)))
                .count();
            assert_eq!(cold, 200, "cold share is fixed at one third");
        }
    }

    #[test]
    fn a_seed_always_yields_the_same_ops() {
        for seed in [1, 2, 77] {
            assert_eq!(engine_sequence(seed, 300), engine_sequence(seed, 300));
            assert_eq!(oneshot_sequence(seed, 30), oneshot_sequence(seed, 30));
            assert_eq!(dynamic_sequence(seed, 20), dynamic_sequence(seed, 20));
            assert_eq!(sub_seeds(seed, 3, 14), sub_seeds(seed, 3, 14));
            let g = tpp_graph::generators::barabasi_albert(2000, 4, seed);
            assert_eq!(
                make_deltas(&g, &[], 4, 32, seed),
                make_deltas(&g, &[], 4, 32, seed)
            );
        }
        assert_ne!(engine_sequence(1, 300), engine_sequence(2, 300));
        assert_ne!(dynamic_sequence(1, 20), dynamic_sequence(2, 20));
        let seeds = sub_seeds(5, 1, 14);
        assert_eq!(
            seeds
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            14,
            "sub-seeds are distinct"
        );
    }

    #[test]
    fn dynamic_cycle_is_grow_attack_shrink_protect() {
        let seq = dynamic_sequence(9, 12);
        for cycle in seq.chunks(4) {
            let DynOp::Grow(i) = cycle[0] else {
                panic!("cycle starts with +D: {cycle:?}")
            };
            assert_eq!(
                cycle,
                [
                    DynOp::Grow(i),
                    DynOp::Attack(i),
                    DynOp::Shrink(i),
                    DynOp::Protect
                ]
            );
        }
    }

    #[test]
    fn deltas_insert_non_edges_off_target_and_restore_the_base() {
        let g = tpp_graph::generators::barabasi_albert(3000, 4, 11);
        let targets = tpp_core::TppInstance::sample_targets(&g, 300, 5);
        let deltas = make_deltas(&g, &targets, DELTAS, DELTA_EDGES, 11);
        let mut seen = FastSet::default();
        for d in &deltas {
            assert_eq!(d.len(), DELTA_EDGES);
            for e in d {
                assert!(!g.contains(*e), "{e} is already an edge");
                assert!(!targets.contains(e), "{e} is a target");
                assert!(seen.insert(*e), "{e} repeats across deltas");
            }
            let grow = GraphDelta::parse(&delta_text(d, '+')).expect("delta parses");
            let grown = grow.apply(&g).expect("+D applies");
            assert_eq!(grown.added, *d);
            assert_eq!(grown.graph.edge_count(), g.edge_count() + DELTA_EDGES);
            let shrink = GraphDelta::parse(&delta_text(d, '-')).expect("delta parses");
            let restored = shrink.apply(&grown.graph).expect("-D applies");
            assert_eq!(restored.removed, *d);
            assert_eq!(
                restored.graph.edge_vec(),
                g.edge_vec(),
                "+D then -D restores the base"
            );
            assert_eq!(restored.graph.node_count(), g.node_count());
        }
    }
}
