//! Benchmark: the size-adaptive neighbor-intersection kernels across a
//! degree-skew grid. Pins merge vs gallop vs hub-bitset on the tiers the
//! dispatcher distinguishes — hub×leaf (the gallop/bitset-probe tier),
//! hub×hub (the bitset-AND tier), and mid×mid (the merge tier) — plus
//! the end-to-end consumers: link-prediction scoring and motif counting
//! over a plain vs hub-augmented `CsrGraph`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tpp_graph::{generators, kernels, NeighborAccess, NodeId};
use tpp_linkpred::SimilarityIndex;
use tpp_motif::{count_target_subgraphs, Motif};
use tpp_store::CsrGraph;

const NODES: usize = 50_000;
const ATTACH: usize = 8;
const HUB_COUNT: usize = 64;

/// Node ids sorted by degree, highest first (ties by id).
fn by_degree_desc(csr: &CsrGraph) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = (0..csr.node_count() as NodeId).collect();
    ids.sort_by_key(|&v| (std::cmp::Reverse(CsrGraph::degree(csr, v)), v));
    ids
}

fn bench_kernel_grid(c: &mut Criterion) {
    let g = generators::barabasi_albert(NODES, ATTACH, 42);
    let csr = CsrGraph::from_graph(&g);
    csr.ensure_hub_bitsets(HUB_COUNT);

    let order = by_degree_desc(&csr);
    let hub_a = order[0];
    let hub_b = order[1];
    let mid_a = order[order.len() / 2];
    let mid_b = order[order.len() / 2 + 1];
    let leaf = *order.last().unwrap();
    let tiers = [
        ("hub_x_leaf", hub_a, leaf),
        ("hub_x_hub", hub_a, hub_b),
        ("mid_x_mid", mid_a, mid_b),
    ];

    let mut group = c.benchmark_group("intersect_kernels");
    for (tier, u, v) in tiers {
        let a = csr.neighbors(u);
        let b = csr.neighbors(v);
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        let (row_u, row_v) = (csr.hub_bits(u), csr.hub_bits(v));

        group.bench_with_input(BenchmarkId::new("merge", tier), &(), |bch, ()| {
            bch.iter(|| {
                let mut n = 0usize;
                kernels::intersect_merge(black_box(a), black_box(b), |w| n += w as usize & 1);
                black_box(n)
            });
        });
        group.bench_with_input(BenchmarkId::new("gallop", tier), &(), |bch, ()| {
            bch.iter(|| {
                let mut n = 0usize;
                kernels::intersect_gallop(black_box(small), black_box(large), |w| {
                    n += w as usize & 1;
                });
                black_box(n)
            });
        });
        group.bench_with_input(BenchmarkId::new("bitset", tier), &(), |bch, ()| {
            bch.iter(|| {
                let mut n = 0usize;
                kernels::intersect_with(black_box(a), black_box(b), row_u, row_v, |w| {
                    n += w as usize & 1;
                });
                black_box(n)
            });
        });
        group.bench_with_input(BenchmarkId::new("dispatch", tier), &(), |bch, ()| {
            bch.iter(|| {
                let mut n = 0usize;
                csr.for_each_common_neighbor(black_box(u), black_box(v), |w| {
                    n += w as usize & 1;
                });
                black_box(n)
            });
        });
        group.bench_with_input(BenchmarkId::new("dispatch_count", tier), &(), |bch, ()| {
            bch.iter(|| black_box(csr.common_neighbor_count(black_box(u), black_box(v))));
        });
    }
    group.finish();
}

/// End-to-end consumer 1: link-prediction scoring over a mixed pair set
/// (hub-incident and uniform pairs), plain snapshot vs hub-augmented.
fn bench_linkpred_score(c: &mut Criterion) {
    let g = generators::barabasi_albert(NODES, ATTACH, 42);
    let plain = CsrGraph::from_graph(&g);
    let hubbed = CsrGraph::from_graph(&g);
    hubbed.ensure_hub_bitsets(HUB_COUNT);

    let order = by_degree_desc(&plain);
    let n = plain.node_count() as NodeId;
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    // Hub-incident pairs (the skewed tier an attacker actually probes)...
    for (i, &h) in order.iter().take(8).enumerate() {
        pairs.push((h, (i as NodeId * 6151 + 13) % n));
    }
    // ...plus a spread of uniform pairs.
    for i in 0..56u64 {
        let u = (i * 48_271 + 7) % u64::from(n);
        let v = (i * 69_621 + 101) % u64::from(n);
        if u != v {
            pairs.push((u as NodeId, v as NodeId));
        }
    }

    let index = SimilarityIndex::ResourceAllocation;
    let mut group = c.benchmark_group("linkpred_score");
    group.bench_with_input(
        BenchmarkId::new("resource_allocation", "plain"),
        &(),
        |bch, ()| {
            bch.iter(|| {
                let mut acc = 0.0f64;
                for &(u, v) in &pairs {
                    acc += index.score(black_box(&plain), u, v);
                }
                black_box(acc)
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("resource_allocation", "hubbed"),
        &(),
        |bch, ()| {
            bch.iter(|| {
                let mut acc = 0.0f64;
                for &(u, v) in &pairs {
                    acc += index.score(black_box(&hubbed), u, v);
                }
                black_box(acc)
            });
        },
    );
    group.finish();
}

/// End-to-end consumer 2: triangle counting at the highest-stress hidden
/// pair (max degree-product edge), plain vs hub-augmented snapshot.
fn bench_motif_count(c: &mut Criterion) {
    let g = generators::barabasi_albert(NODES, ATTACH, 42);
    let target = g
        .edge_vec()
        .into_iter()
        .max_by_key(|e| g.degree(e.u()) * g.degree(e.v()))
        .unwrap();
    let plain = CsrGraph::from_graph(&g);
    let hubbed = CsrGraph::from_graph(&g);
    hubbed.ensure_hub_bitsets(HUB_COUNT);

    let mut group = c.benchmark_group("motif_with_hubs");
    group.bench_with_input(BenchmarkId::new("triangle", "plain"), &(), |bch, ()| {
        bch.iter(|| {
            black_box(count_target_subgraphs(
                black_box(&plain),
                target.u(),
                target.v(),
                Motif::Triangle,
            ))
        });
    });
    group.bench_with_input(BenchmarkId::new("triangle", "hubbed"), &(), |bch, ()| {
        bch.iter(|| {
            black_box(count_target_subgraphs(
                black_box(&hubbed),
                target.u(),
                target.v(),
                Motif::Triangle,
            ))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_kernel_grid,
    bench_linkpred_score,
    bench_motif_count
);
criterion_main!(benches);
