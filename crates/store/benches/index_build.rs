//! Benchmark: **building** the coverage index with the one index builder,
//! `PartitionedCoverageIndex::build_parallel`, on two workloads:
//!
//! * `index_build/partitioned_direct_t{1,2,4}` — the `ba_50k` workload
//!   (Barabási–Albert, 50 000 nodes, m = 4, rectangle motif over 2 500
//!   hidden targets — the shared [`tpp_bench::fixtures::ba_50k_rectangle`]
//!   fixture): targets enumerate in spans into span-local arenas, which
//!   one count, prefix sum and fill lay out, across 1/2/4 worker threads
//!   (`t1` is the sequential build every single-threaded caller runs).
//! * `index_build_arenas_kpath4/t{1,2}` — the arenas graph
//!   (`tpp generate --model arenas --seed 1`: 1 133 nodes, 5 451 edges)
//!   with the 500 targets `tpp protect --random 500 --seed 7` samples,
//!   kpath4 motif — the cold index build of a served kpath4 protect,
//!   where the k-path half-path join and the fill carry the cost.
//!
//! On a single core `t2`/`t4` cannot beat `t1`; the threaded variants
//! document the scaling headroom for real cores. Every thread count is
//! asserted bit-identical to `t1` before anything is timed (the
//! differential build tests in `tpp-motif` pin the same equality against a
//! reference enumeration, property-style).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tpp_graph::{Edge, NeighborAccess};
use tpp_motif::{Motif, PartitionedCoverageIndex};

/// Asserts that every thread count in `threads` builds the same index as
/// the sequential build: totals, per-target similarities and the alive
/// candidate list.
fn assert_thread_invariant<G: NeighborAccess + Sync>(
    g: &G,
    targets: &[Edge],
    motif: Motif,
    threads: &[usize],
) {
    let sequential = tpp_exec::Parallelism::sequential();
    let t1 = PartitionedCoverageIndex::build_parallel(g, targets, motif, 1, &sequential);
    for &threads in threads {
        let exec = tpp_exec::Parallelism::new(threads);
        let direct = PartitionedCoverageIndex::build_parallel(g, targets, motif, 1, &exec);
        assert_eq!(direct.total_similarity(), t1.total_similarity());
        assert_eq!(direct.similarities(), t1.similarities());
        assert_eq!(
            direct.alive_candidate_edges(),
            t1.alive_candidate_edges(),
            "{motif} build t{threads} diverged"
        );
    }
}

fn bench_index_build(c: &mut Criterion) {
    let (g, targets) = tpp_bench::fixtures::ba_50k_rectangle();
    let motif = Motif::Rectangle;

    // Every thread count must agree exactly before anything is timed.
    assert_thread_invariant(&g, &targets, motif, &[2, 4]);

    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        // One persistent pool per thread count, shared by every timed
        // build.
        let exec = tpp_exec::Parallelism::new(threads);
        group.bench_function(format!("partitioned_direct_t{threads}"), |b| {
            b.iter(|| {
                black_box(PartitionedCoverageIndex::build_parallel(
                    &g, &targets, motif, 1, &exec,
                ))
            });
        });
    }
    group.finish();
}

fn bench_index_build_arenas_kpath4(c: &mut Criterion) {
    let inst =
        tpp_core::TppInstance::with_random_targets(tpp_datasets::arenas_email_like(1), 500, 7);
    let (g, targets) = (inst.released(), inst.targets());
    let motif = Motif::KPath(4);

    assert_thread_invariant(g, targets, motif, &[2]);

    let mut group = c.benchmark_group("index_build_arenas_kpath4");
    group.sample_size(10);
    for threads in [1usize, 2] {
        let exec = tpp_exec::Parallelism::new(threads);
        group.bench_function(format!("t{threads}"), |b| {
            b.iter(|| {
                black_box(PartitionedCoverageIndex::build_parallel(
                    g, targets, motif, 1, &exec,
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_index_build, bench_index_build_arenas_kpath4);
criterion_main!(benches);
