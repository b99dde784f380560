//! Benchmark: **building** the coverage index on the `ba_50k` workload
//! (Barabási–Albert, 50 000 nodes, m = 4, rectangle motif over 2 500
//! hidden targets — the shared [`tpp_bench::fixtures::ba_50k_rectangle`]
//! fixture) with the one index builder,
//! `PartitionedCoverageIndex::build_parallel`, over 16 degree-balanced
//! shards:
//!
//! * `partitioned_direct_t{1,2,4}` — targets enumerate in chunks into
//!   per-chunk shard fragments, merged per shard, across 1/2/4 worker
//!   threads (`t1` is the sequential build every single-threaded caller
//!   runs).
//!
//! On a single core `t2`/`t4` cannot beat `t1`; the threaded variants
//! document the scaling headroom for real cores. Every thread count is
//! asserted bit-identical to `t1` before anything is timed (the
//! differential build tests in `tpp-motif` pin the same equality against a
//! reference enumeration, property-style).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tpp_motif::{Motif, PartitionedCoverageIndex};

const MOTIF: Motif = Motif::Rectangle;
const PARTS: usize = 16;

fn bench_index_build(c: &mut Criterion) {
    let (g, targets) = tpp_bench::fixtures::ba_50k_rectangle();

    // Every thread count must agree exactly before anything is timed.
    {
        let sequential = tpp_exec::Parallelism::sequential();
        let t1 = PartitionedCoverageIndex::build_parallel(&g, &targets, MOTIF, PARTS, &sequential);
        for threads in [2usize, 4] {
            let exec = tpp_exec::Parallelism::new(threads);
            let direct =
                PartitionedCoverageIndex::build_parallel(&g, &targets, MOTIF, PARTS, &exec);
            assert_eq!(direct.total_similarity(), t1.total_similarity());
            assert_eq!(direct.similarities(), t1.similarities());
            assert_eq!(
                direct.alive_candidate_edges(),
                t1.alive_candidate_edges(),
                "build t{threads} diverged"
            );
        }
    }

    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        // One persistent pool per thread count, shared by every timed
        // build.
        let exec = tpp_exec::Parallelism::new(threads);
        group.bench_function(format!("partitioned_direct_t{threads}"), |b| {
            b.iter(|| {
                black_box(PartitionedCoverageIndex::build_parallel(
                    &g, &targets, MOTIF, PARTS, &exec,
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_index_build);
criterion_main!(benches);
