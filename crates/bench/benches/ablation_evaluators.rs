//! Ablation bench (DESIGN.md §5): the three evaluation strategies for the
//! same SGB selection — naive recount over all edges (paper's plain cost
//! model), index over all edges (isolates the candidate restriction), index
//! over subgraph edges (`-R`), and CELF lazy greedy on top. SGB pops its
//! picks from the same lazy gain queue as CELF, so every `sgb/*` entry
//! times lazy selection (one sweep, then stale-top refreshes) and
//! `sgb/celf_lazy` does the same work as `sgb/scalable_r`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tpp_core::{celf_greedy, sgb_greedy, GreedyConfig, TppInstance};
use tpp_datasets::arenas_email_like;
use tpp_motif::Motif;

fn bench_ablation(c: &mut Criterion) {
    let instance = TppInstance::with_random_targets(arenas_email_like(1), 20, 7);
    let k = 3;
    let motif = Motif::Triangle;
    let mut group = c.benchmark_group("ablation_evaluators");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("sgb", "plain_naive"), |b| {
        b.iter(|| black_box(sgb_greedy(&instance, k, &GreedyConfig::plain(motif))));
    });
    group.bench_function(BenchmarkId::new("sgb", "indexed_all_edges"), |b| {
        b.iter(|| {
            black_box(sgb_greedy(
                &instance,
                k,
                &GreedyConfig::indexed_all_edges(motif),
            ))
        });
    });
    group.bench_function(BenchmarkId::new("sgb", "scalable_r"), |b| {
        b.iter(|| black_box(sgb_greedy(&instance, k, &GreedyConfig::scalable(motif))));
    });
    group.bench_function(BenchmarkId::new("sgb", "celf_lazy"), |b| {
        b.iter(|| black_box(celf_greedy(&instance, k, &GreedyConfig::scalable(motif))));
    });
    group.bench_function(BenchmarkId::new("sgb", "parallel_x4"), |b| {
        b.iter(|| {
            black_box(sgb_greedy(
                &instance,
                k,
                &GreedyConfig::scalable(motif).with_threads(4),
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
