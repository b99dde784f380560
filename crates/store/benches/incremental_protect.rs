//! Benchmark: repairing a protection plan against a small graph delta
//! (the `tpp protect --incremental` / `tpp serve update` fast path) vs
//! re-running the greedy from scratch, on the `ba_50k` workload
//! (Barabási–Albert, 50 000 nodes, rectangle motif, 2 500 hidden
//! targets) with a ≤1% edge delta.
//!
//! * `from_scratch` — `sgb_greedy` on the mutated instance with the
//!   scalable config: a full coverage-index build plus the lazy-queue
//!   rounds (one candidate sweep, then stale-top refreshes).
//! * `incremental_repair` — the resident-service shape end to end:
//!   clone the warm pre-delta index, patch it in place (`delete_edge`
//!   per removal, `insert_edge` per addition — localized
//!   through-enumeration, nothing re-enumerated), and hand it to the same
//!   `sgb_greedy` as an index seed. The repair saves the index build;
//!   its rounds are the from-scratch rounds.
//!
//! The delta touches the protected neighborhood on purpose: one removal
//! is an alive candidate the prior plan did not pick, and one addition
//! closes a rectangle for a target, so the patched index differs from
//! the warm one where the greedy looks. Before anything is timed the
//! bench asserts that the repaired plan is **bit-identical** to the
//! from-scratch plan and that, on a head-to-head measurement, the repair
//! is ≥5× faster in wall-clock time.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tpp_core::{sgb_greedy, GreedyConfig, TppInstance};
use tpp_graph::{Edge, FastSet, Graph};
use tpp_motif::{Motif, PartitionedCoverageIndex};
use tpp_obs::Recorder;

const MOTIF: Motif = Motif::Rectangle;
const BUDGET: usize = 16;
/// 200 removals + 200 additions ≈ 0.2% of the ~197k released edges.
const DELTA_HALF: usize = 200;

/// A ≤1% delta in the regime incremental repair targets: bulk churn
/// around a small change inside the protected neighborhood.
///
/// * The first removal is the first alive candidate (sorted order) that
///   the prior plan did not pick: its instances die, so the gains of
///   their other edges change.
/// * The first addition closes a rectangle `u – a – b – v` for the first
///   target that admits one (`a ∈ N(u)`, `b ∈ N(v)`, `(a, b)` absent).
/// * The rest is churn clear of the instances: stride-sampled removals
///   outside the Lemma-5 candidate pool (in no alive instance), and
///   additions between later low-degree nodes (BA hubs are the early
///   ids).
fn pick_delta(
    g: &Graph,
    targets: &[Edge],
    candidates: &[Edge],
    picked: &FastSet<Edge>,
    half: usize,
) -> (Vec<Edge>, Vec<Edge>) {
    let pool: FastSet<Edge> = candidates.iter().copied().collect();
    let inside = *candidates
        .iter()
        .find(|e| !picked.contains(e) && !targets.contains(e))
        .expect("an alive candidate the prior plan did not pick");
    let mut added = Vec::with_capacity(half);
    'close: for t in targets {
        for &a in g.neighbors(t.u()) {
            for &b in g.neighbors(t.v()) {
                if a == b || [t.u(), t.v()].contains(&a) || [t.u(), t.v()].contains(&b) {
                    continue;
                }
                let e = Edge::new(a, b);
                if !g.contains(e) && !targets.contains(&e) {
                    added.push(e);
                    break 'close;
                }
            }
        }
    }
    assert_eq!(added.len(), 1, "some target must admit a closing rectangle");

    let edges = g.edge_vec();
    let mut removed = Vec::with_capacity(half);
    removed.push(inside);
    let mut i = 0usize;
    while removed.len() < half {
        let e = edges[(i * 997 + 13) % edges.len()];
        if !targets.contains(&e) && !pool.contains(&e) && !removed.contains(&e) {
            removed.push(e);
        }
        i += 1;
    }
    let n = g.node_count() as u32;
    let mut j = 0u32;
    while added.len() < half {
        let u = n / 4 + (j * 9973 + 7) % (3 * n / 4);
        let v = u + 1 + (j * 31) % 977;
        j += 1;
        if v >= n || g.degree(u) > 16 || g.degree(v) > 16 {
            continue;
        }
        let e = Edge::new(u, v);
        if !g.contains(e) && !targets.contains(&e) && !added.contains(&e) {
            added.push(e);
        }
    }
    (removed, added)
}

fn bench_incremental_protect(c: &mut Criterion) {
    let (released, targets) = tpp_bench::fixtures::ba_50k_rectangle();
    let mut original = released.clone();
    for t in &targets {
        original.add_edge(t.u(), t.v());
    }
    let base = TppInstance::new(original, targets.clone()).expect("base instance");

    // The warm pre-delta index a resident service would hold; its alive
    // candidate pool and the prior plan steer the delta.
    let sequential = tpp_exec::Parallelism::sequential();
    let warm = PartitionedCoverageIndex::build_parallel(&released, &targets, MOTIF, 1, &sequential);
    let cfg = GreedyConfig::scalable(MOTIF);
    let prior = sgb_greedy(&base, BUDGET, &cfg);
    let picked: FastSet<Edge> = prior.steps.iter().map(|s| s.protector).collect();
    let (removed, added) = pick_delta(
        &released,
        &targets,
        &warm.alive_candidate_edges(),
        &picked,
        DELTA_HALF,
    );
    let mut mutated_released = released.clone();
    for e in &removed {
        mutated_released.remove_edge(e.u(), e.v());
    }
    for e in &added {
        mutated_released.add_edge(e.u(), e.v());
    }
    let mut mutated_original = mutated_released.clone();
    for t in &targets {
        mutated_original.add_edge(t.u(), t.v());
    }
    let mutated = TppInstance::new(mutated_original, targets.clone()).expect("mutated instance");

    // Insert-time graph progression (removals applied; additions join one
    // at a time so instances spanning two new edges are found exactly
    // once, at the later insert).
    let mut work = released.clone();
    for e in &removed {
        work.remove_edge(e.u(), e.v());
    }
    let patch_and_repair = |work: &mut Graph, cfg: &GreedyConfig| {
        let mut idx = warm.clone();
        for &e in &removed {
            idx.delete_edge(e);
        }
        for &e in &added {
            work.add_edge(e.u(), e.v());
            idx.insert_edge(&*work, e);
        }
        for &e in &added {
            work.remove_edge(e.u(), e.v());
        }
        let seeded = cfg.clone().with_index_seed(Arc::new(idx));
        sgb_greedy(&mutated, BUDGET, &seeded)
    };

    // Contract gate: bit-identity and ≥5× wall-clock.
    let scratch_obs = cfg.clone().with_obs(Recorder::enabled());
    let inc_obs = cfg.clone().with_obs(Recorder::enabled());
    let t0 = Instant::now();
    let scratch = sgb_greedy(&mutated, BUDGET, &scratch_obs);
    let scratch_ns = t0.elapsed().as_nanos();
    let t1 = Instant::now();
    let inc = patch_and_repair(&mut work, &inc_obs);
    let inc_ns = t1.elapsed().as_nanos();
    assert_eq!(scratch, inc, "repaired plan must be bit-identical");
    let probes = |cfg: &GreedyConfig| {
        let st = cfg.recorder.stats().expect("enabled recorder");
        st.round.candidates_probed.get()
    };
    let (scratch_probes, inc_probes) = (probes(&scratch_obs), probes(&inc_obs));
    println!(
        "incremental_protect: delta -{}/+{} | probes {scratch_probes} -> {inc_probes} | \
         wall {:.1}ms -> {:.1}ms",
        removed.len(),
        added.len(),
        scratch_ns as f64 / 1e6,
        inc_ns as f64 / 1e6,
    );
    assert!(
        scratch_ns >= 5 * inc_ns.max(1),
        "expected >=5x wall-clock, got {scratch_ns}ns vs {inc_ns}ns"
    );

    let mut group = c.benchmark_group("incremental_protect");
    group.sample_size(10);
    group.bench_function("from_scratch", |b| {
        b.iter(|| black_box(sgb_greedy(&mutated, BUDGET, &cfg)));
    });
    group.bench_function("incremental_repair", |b| {
        b.iter(|| black_box(patch_and_repair(&mut work, &cfg)));
    });
    group.finish();
}

criterion_group!(benches, bench_incremental_protect);
criterion_main!(benches);
