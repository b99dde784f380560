//! Microbenchmark: each Table II utility metric on the Arenas-email
//! substitute (identifies which metrics dominate the Tables III-V cost and
//! justifies the paper's reduced Table V metric set), plus the Table V
//! utility-loss report on a 50k-node Barabási–Albert graph: clustering,
//! the two base-statistics kernels (the oriented triangle pass and the
//! level-by-level core peel) and `BaseStats::compute` from scratch, the
//! h-index core patch for a 200-edge release, and the report for that
//! release, whose clustering and core numbers are patched from the
//! original's.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tpp_datasets::arenas_email_like;
use tpp_graph::generators::barabasi_albert;
use tpp_graph::Edge;
use tpp_metrics::clustering::triangle_counts;
use tpp_metrics::core_number::patch_core_numbers;
use tpp_metrics::{
    assortativity, average_clustering, average_core_number, core_numbers, louvain_modularity,
    sampled_path_length, second_largest_laplacian_eigenvalue, utility_loss, BaseStats,
    UtilityConfig,
};

fn bench_metrics(c: &mut Criterion) {
    let g = arenas_email_like(1);
    let mut group = c.benchmark_group("utility_metrics");
    group.sample_size(10);
    group.bench_function("clustering", |b| {
        b.iter(|| black_box(average_clustering(&g)));
    });
    group.bench_function("assortativity", |b| {
        b.iter(|| black_box(assortativity(&g)));
    });
    group.bench_function("core_number", |b| {
        b.iter(|| black_box(average_core_number(&g)));
    });
    group.bench_function("path_length_sampled_64", |b| {
        b.iter(|| black_box(sampled_path_length(&g, 64, 3)));
    });
    group.bench_function("second_eigenvalue", |b| {
        b.iter(|| black_box(second_largest_laplacian_eigenvalue(&g, 3)));
    });
    group.bench_function("louvain_modularity", |b| {
        b.iter(|| black_box(louvain_modularity(&g, 3)));
    });
    group.finish();

    let big = barabasi_albert(50_000, 4, 1);
    let edges = big.edge_vec();
    let deleted: Vec<Edge> = edges
        .iter()
        .step_by(edges.len() / 200)
        .take(200)
        .copied()
        .collect();
    let mut released = big.clone();
    for e in &deleted {
        released.remove_edge(e.u(), e.v());
    }
    let config = UtilityConfig::large_graph(1);
    let mut group = c.benchmark_group("utility_metrics");
    group.sample_size(10);
    group.bench_function("clustering_ba50k", |b| {
        b.iter(|| black_box(average_clustering(&big)));
    });
    group.bench_function("triangle_counts_ba50k", |b| {
        b.iter(|| black_box(triangle_counts(&big)));
    });
    group.bench_function("core_numbers_ba50k", |b| {
        b.iter(|| black_box(core_numbers(&big)));
    });
    group.bench_function("base_stats_ba50k", |b| {
        b.iter(|| black_box(BaseStats::compute(&big)));
    });
    let core = core_numbers(&big);
    group.bench_function("core_patch_ba50k_deleted200", |b| {
        b.iter(|| {
            let mut patched = core.clone();
            black_box(patch_core_numbers(&released, &mut patched, &deleted));
            black_box(patched)
        });
    });
    group.bench_function("utility_loss_ba50k_deleted200", |b| {
        b.iter(|| black_box(utility_loss(&big, &released, &config)));
    });
    group.finish();
}

criterion_group!(benches, bench_metrics);
criterion_main!(benches);
