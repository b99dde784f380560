//! Benchmark: one greedy candidate-evaluation sweep — "for every candidate
//! protector edge, how many target subgraphs would its deletion break?" —
//! under three evaluation disciplines:
//!
//! * `clone_per_candidate` — the pattern this subsystem exists to kill:
//!   materialize a full `Graph` copy per candidate, delete, recount.
//! * `mutate_restore` — one upfront clone, then delete/recount/restore on
//!   it (the old scratch-clone recount cost model).
//! * `delta_overlay_merged_slice` — the overlay as the recount oracle
//!   (`tpp_core::SnapshotOracle`) runs it: one fresh `DeltaView` per
//!   candidate, stacked over the committed view, holds the tentative
//!   deletion. Dirty nodes serve one cached contiguous slice, clean nodes
//!   forward the layer below's slice (here the CSR's).
//!
//! All disciplines compute identical gain vectors (asserted before
//! timing); the JSON output pins the margins between them.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tpp_graph::{Edge, Graph, NeighborAccess};
use tpp_motif::{count_all_targets, Motif};
use tpp_store::{CsrGraph, DeltaView};

const MOTIF: Motif = Motif::Triangle;

/// Sum of per-target similarities on any readable graph representation.
fn total_similarity<G: NeighborAccess>(g: &G, targets: &[Edge]) -> usize {
    count_all_targets(g, targets, MOTIF).iter().sum()
}

fn sweep_clone_per_candidate(g: &Graph, targets: &[Edge], candidates: &[Edge]) -> Vec<usize> {
    let before = total_similarity(g, targets);
    candidates
        .iter()
        .map(|p| {
            let mut trial = g.clone(); // the per-candidate materialization
            trial.remove_edge(p.u(), p.v());
            before - total_similarity(&trial, targets)
        })
        .collect()
}

fn sweep_mutate_restore(g: &Graph, targets: &[Edge], candidates: &[Edge]) -> Vec<usize> {
    let mut scratch = g.clone(); // one upfront clone
    let before = total_similarity(&scratch, targets);
    candidates
        .iter()
        .map(|p| {
            scratch.remove_edge(p.u(), p.v());
            let after = total_similarity(&scratch, targets);
            scratch.add_edge(p.u(), p.v());
            before - after
        })
        .collect()
}

fn sweep_delta_overlay<B: NeighborAccess>(
    base: &B,
    targets: &[Edge],
    candidates: &[Edge],
) -> Vec<usize> {
    let committed = DeltaView::new(base); // O(1) setup, zero clones
    let before = total_similarity(&committed, targets);
    candidates
        .iter()
        .map(|p| {
            // The committed view is only read: each candidate stacks its
            // own one-deletion view on it.
            let mut trial = DeltaView::new(&committed);
            trial.delete_edge(*p);
            before - total_similarity(&trial, targets)
        })
        .collect()
}

fn bench_delta_overlay_eval(c: &mut Criterion) {
    let mut g = tpp_datasets::arenas_email_like(1);
    // Phase 1: hide 20 deterministic pseudo-random target links.
    let all = g.edge_vec();
    let targets: Vec<Edge> = (0..20).map(|i| all[(i * 271 + 13) % all.len()]).collect();
    for t in &targets {
        g.remove_edge(t.u(), t.v());
    }
    // Candidate pool: every edge of an alive triangle instance of any
    // target (the paper's Lemma 5 restricted set, computed directly).
    let mut pool: Vec<Edge> = Vec::new();
    for t in &targets {
        g.for_each_common_neighbor(t.u(), t.v(), |w| {
            pool.push(Edge::new(t.u(), w));
            pool.push(Edge::new(w, t.v()));
        });
    }
    pool.sort_unstable();
    pool.dedup();
    let csr = CsrGraph::from_graph(&g);

    // Every discipline must agree before we time it.
    let expect = sweep_clone_per_candidate(&g, &targets, &pool);
    assert_eq!(expect, sweep_mutate_restore(&g, &targets, &pool));
    assert_eq!(expect, sweep_delta_overlay(&csr, &targets, &pool));
    assert!(
        expect.iter().any(|&gain| gain > 0),
        "sweep must evaluate real gains"
    );

    let mut group = c.benchmark_group("delta_overlay_eval");
    group.sample_size(10);
    group.bench_function("clone_per_candidate", |b| {
        b.iter(|| black_box(sweep_clone_per_candidate(&g, &targets, &pool)));
    });
    group.bench_function("mutate_restore", |b| {
        b.iter(|| black_box(sweep_mutate_restore(&g, &targets, &pool)));
    });
    group.bench_function("delta_overlay_merged_slice", |b| {
        b.iter(|| black_box(sweep_delta_overlay(&csr, &targets, &pool)));
    });
    group.bench_function("snapshot_build_plus_overlay", |b| {
        // End-to-end honesty: include the snapshot build in the overlay
        // path to show it amortizes within a single sweep.
        b.iter(|| {
            let csr = CsrGraph::from_graph(black_box(&g));
            black_box(sweep_delta_overlay(&csr, &targets, &pool))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_delta_overlay_eval);
criterion_main!(benches);
