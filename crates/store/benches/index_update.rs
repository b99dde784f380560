//! Benchmark: keeping the coverage index current under a graph delta on
//! the `ba_50k` workload (Barabási–Albert, 50 000 nodes, rectangle motif
//! over 2 500 hidden targets — [`tpp_bench::fixtures::ba_50k_rectangle`]),
//! comparing the two maintenance disciplines at growing delta sizes
//! (up to ~1% of the edge supply):
//!
//! * `rebuild_d{D}` — throw the warm index away and rebuild it on the
//!   mutated graph with `PartitionedCoverageIndex::build_parallel` and a
//!   sequential handle (the only option before incremental patching); the
//!   cost is flat in the delta size.
//! * `patch_d{D}` — clone the warm index (the resident-service shape:
//!   `tpp serve` clones registry entries copy-on-write) and apply the
//!   delta in place: `delete_edge` per removal, then `insert_edge` per
//!   addition against the progressively mutated graph — localized
//!   through-enumeration around each new edge, nothing re-enumerated.
//!
//! The patched index is asserted equivalent to a fresh build on the
//! mutated graph (total/per-target similarities, alive candidates, every
//! candidate gain) before anything is timed — the same equivalence the
//! `insert_then_query_matches_fresh_build` proptest pins shape-randomized.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tpp_graph::{Edge, Graph};
use tpp_motif::{Motif, PartitionedCoverageIndex};

const MOTIF: Motif = Motif::Rectangle;

/// Splits a delta of `2 * half` edges off the workload: `half` removals
/// stride-sampled from the released edge list (never targets) and `half`
/// additions probed deterministically from the non-edge space (never
/// targets, never colliding with a removal).
fn pick_delta(g: &Graph, targets: &[Edge], half: usize) -> (Vec<Edge>, Vec<Edge>) {
    let edges = g.edge_vec();
    let mut removed = Vec::with_capacity(half);
    let mut i = 0usize;
    while removed.len() < half {
        let e = edges[(i * 997 + 13) % edges.len()];
        if !targets.contains(&e) && !removed.contains(&e) {
            removed.push(e);
        }
        i += 1;
    }
    let n = g.node_count() as u32;
    let mut added = Vec::with_capacity(half);
    let mut j = 0u32;
    while added.len() < half {
        let u = (j * 9973 + 7) % n;
        let v = (u + 1 + (j * 31) % 977) % n;
        j += 1;
        if u == v {
            continue;
        }
        let e = Edge::new(u, v);
        if !g.contains(e) && !targets.contains(&e) && !added.contains(&e) {
            added.push(e);
        }
    }
    (removed, added)
}

fn bench_index_update(c: &mut Criterion) {
    let (base, targets) = tpp_bench::fixtures::ba_50k_rectangle();
    let sequential = tpp_exec::Parallelism::sequential();
    let build =
        |g: &Graph| PartitionedCoverageIndex::build_parallel(g, &targets, MOTIF, 1, &sequential);
    let warm = build(&base);

    let mut group = c.benchmark_group("index_update");
    group.sample_size(10);
    // 32 edges ≈ 0.016%, 256 ≈ 0.13%, 2048 ≈ 1% of the ~197k released
    // edges — the ISSUE's "small daily churn" regime and its ceiling.
    for half in [16usize, 128, 1024] {
        let (removed, added) = pick_delta(&base, &targets, half);

        // The mutated graph after the whole delta, and the per-insert
        // progression base (removals applied, additions joining one at a
        // time — instances spanning two new edges are discovered exactly
        // once, at the later insert).
        let mut work = base.clone();
        for e in &removed {
            work.remove_edge(e.u(), e.v());
        }

        // Equivalence gate: patch == fresh rebuild on the mutated graph.
        {
            let mut patched = warm.clone();
            for &e in &removed {
                patched.delete_edge(e);
            }
            let mut g = work.clone();
            for &e in &added {
                g.add_edge(e.u(), e.v());
                patched.insert_edge(&g, e);
            }
            let fresh = build(&g);
            assert_eq!(patched.total_similarity(), fresh.total_similarity());
            assert_eq!(patched.similarities(), fresh.similarities());
            assert_eq!(
                patched.alive_candidate_edges(),
                fresh.alive_candidate_edges()
            );
            for p in fresh.alive_candidate_edges() {
                assert_eq!(patched.gain(p), fresh.gain(p), "gain({p}) diverged");
            }
            group.bench_function(format!("rebuild_d{}", 2 * half), |b| {
                b.iter(|| black_box(build(&g)));
            });
        }

        group.bench_function(format!("patch_d{}", 2 * half), |b| {
            b.iter(|| {
                let mut idx = warm.clone();
                for &e in &removed {
                    idx.delete_edge(e);
                }
                for &e in &added {
                    work.add_edge(e.u(), e.v());
                    idx.insert_edge(&work, e);
                }
                // Reset the shared progression graph for the next sample.
                for &e in &added {
                    work.remove_edge(e.u(), e.v());
                }
                black_box(idx.total_similarity())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_index_update);
criterion_main!(benches);
