//! Microbenchmark: building the coverage index (the one-time cost that the
//! scalable `-R` algorithms amortize across every greedy round).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tpp_core::TppInstance;
use tpp_datasets::arenas_email_like;
use tpp_motif::Motif;

fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("coverage_index_build");
    for &targets in &[20usize, 50] {
        let instance = TppInstance::with_random_targets(arenas_email_like(1), targets, 7);
        for motif in Motif::ALL {
            group.bench_with_input(
                BenchmarkId::new(format!("T{targets}"), motif.name()),
                &motif,
                |b, &motif| {
                    b.iter(|| black_box(instance.build_index(motif)));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_index_build);
criterion_main!(benches);
