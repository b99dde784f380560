//! Benchmark: CSR snapshot construction — sequential vs parallel fill, and
//! the edge-list (counting sort) build path — plus binary encode/decode
//! throughput. Pins the cost of "snapshot once" that the overlay evaluation
//! amortizes away.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tpp_graph::generators::barabasi_albert;
use tpp_obs::Recorder;
use tpp_store::{format, CsrGraph, VerifyMode};

fn bench_csr_build(c: &mut Criterion) {
    let arenas = tpp_datasets::arenas_email_like(1);
    let big = barabasi_albert(50_000, 6, 7);
    // Above the 1M-entry fallback threshold: the threaded fill really runs.
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
        for threads in [2usize, 4, 8] {
            // One persistent pool per thread count, reused by every timed
            // build — the executor's whole point.
            let exec = tpp_exec::Parallelism::new(threads);
            group.bench_with_input(
                BenchmarkId::new(format!("from_graph_parallel_t{threads}"), name),
                g,
                |b, g| {
                    b.iter(|| black_box(CsrGraph::from_graph_parallel(black_box(g), &exec)));
                },
            );
        }
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
        format::write_snapshot(&csr, &mut bytes).unwrap();
        group.bench_with_input(BenchmarkId::new("encode", name), &csr, |b, csr| {
            b.iter(|| {
                let mut out = Vec::with_capacity(bytes.len());
                format::write_snapshot(black_box(csr), &mut out).unwrap();
                black_box(out)
            });
        });
        group.bench_with_input(BenchmarkId::new("decode", name), &bytes, |b, bytes| {
            b.iter(|| {
                let mut r = black_box(bytes).as_slice();
                black_box(
                    format::read_snapshot_with(&mut r, VerifyMode::Full, &Recorder::disabled())
                        .unwrap(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_csr_build);
criterion_main!(benches);
