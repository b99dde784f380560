//! Benchmark: CSR snapshot construction — the adjacency copy and the
//! edge-list (counting sort) build path — plus binary encode throughput. Pins the cost of "snapshot once" that the overlay evaluation
//! amortizes away.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tpp_graph::generators::barabasi_albert;
use tpp_store::{format, CsrGraph};

fn bench_csr_build(c: &mut Criterion) {
    let arenas = tpp_datasets::arenas_email_like(1);
    let big = barabasi_albert(50_000, 6, 7);
    let huge = barabasi_albert(200_000, 6, 7);

    let mut group = c.benchmark_group("csr_build");
    group.sample_size(15);

    for (name, g) in [
        ("arenas_1133", &arenas),
        ("ba_50k", &big),
        ("ba_200k", &huge),
    ] {
        group.bench_with_input(BenchmarkId::new("from_graph", name), g, |b, g| {
            b.iter(|| black_box(CsrGraph::from_graph(black_box(g))));
        });
        let edges = g.edge_vec();
        let n = g.node_count();
        group.bench_with_input(BenchmarkId::new("from_edges", name), &edges, |b, edges| {
            b.iter(|| black_box(CsrGraph::from_edges(n, black_box(edges)).unwrap()));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("csr_format");
    group.sample_size(15);
    for (name, g) in [("arenas_1133", &arenas), ("ba_50k", &big)] {
        let csr = CsrGraph::from_graph(g);
        let mut bytes = Vec::new();
        format::write_snapshot(&csr, None, &mut bytes).unwrap();
        group.bench_with_input(BenchmarkId::new("encode", name), &csr, |b, csr| {
            b.iter(|| {
                let mut out = Vec::with_capacity(bytes.len());
                format::write_snapshot(black_box(csr), None, &mut out).unwrap();
                black_box(out)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_csr_build);
criterion_main!(benches);
