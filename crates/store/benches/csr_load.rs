//! Benchmark: the snapshot loader at each verification tier, plus the
//! streaming out-of-core build. Pins the claim of the mmap work: loading a
//! snapshot with `--verify header` is orders of magnitude cheaper than
//! a full verify, because nothing is copied and only the offset table is
//! touched.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tpp_graph::generators::barabasi_albert;
use tpp_graph::write_edge_list;
use tpp_obs::Recorder;
use tpp_store::{build_stream, format, BaseSection, CsrGraph, StreamConfig, VerifyMode};

/// The base statistics `tpp store build` writes into a snapshot.
fn base_of(g: &CsrGraph) -> BaseSection {
    BaseSection {
        triangles: tpp_metrics::clustering::triangle_counts(g).into(),
        cores: tpp_metrics::core_numbers(g).into(),
    }
}

fn bench_csr_load(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("tpp-bench-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let arenas = tpp_datasets::arenas_email_like(1);
    let big = barabasi_albert(50_000, 6, 7);

    let mut group = c.benchmark_group("csr_load");
    group.sample_size(15);
    for (name, g) in [("arenas_1133", &arenas), ("ba_50k", &big)] {
        let csr = CsrGraph::from_graph(g);
        let path = dir.join(format!("{name}.csr"));
        format::save(&csr, Some(&base_of(&csr)), &path).unwrap();

        // The zero-copy path at each verification tier. Work touched per
        // tier: full = whole payload (checksum + validation), header =
        // offset table only, none = header bytes only.
        for (label, verify) in [
            ("mapped_full", VerifyMode::Full),
            ("mapped_header", VerifyMode::Header),
            ("mapped_none", VerifyMode::None),
        ] {
            group.bench_with_input(BenchmarkId::new(label, name), &path, |b, path| {
                b.iter(|| black_box(format::load_mapped(black_box(path), verify).unwrap()));
            });
        }
        // Mapped load + one full sequential read of every neighbor slice:
        // the honest end-to-end cost when the payload is actually used
        // (page faults included), for comparison against mapped_full.
        group.bench_with_input(
            BenchmarkId::new("mapped_header_touch_all", name),
            &path,
            |b, path| {
                b.iter(|| {
                    let g = format::load_mapped(black_box(path), VerifyMode::Header).unwrap();
                    black_box(
                        g.neighbor_array()
                            .iter()
                            .map(|&v| u64::from(v))
                            .sum::<u64>(),
                    )
                });
            },
        );
    }
    group.finish();

    // The streaming builder against the in-memory build, on an edge list
    // big enough that a 1 MiB chunk buffer forces a genuinely multi-chunk
    // out-of-core run (ba_50k payload is ~2.3 MiB).
    let mut group = c.benchmark_group("csr_stream_build");
    group.sample_size(10);
    let edges_path = dir.join("ba_50k.txt");
    std::fs::write(&edges_path, write_edge_list(&big)).unwrap();
    let out_path = dir.join("ba_50k_streamed.csr");
    let cfg = StreamConfig {
        chunk_bytes: 1024 * 1024,
    };
    let report = build_stream(
        &edges_path,
        &out_path,
        &cfg,
        &base_of,
        &Recorder::disabled(),
    )
    .unwrap();
    assert!(report.chunks > 1, "tier must be multi-chunk: {report:?}");
    group.bench_function(BenchmarkId::new("stream_1mib_chunks", "ba_50k"), |b| {
        b.iter(|| {
            black_box(
                build_stream(
                    black_box(&edges_path),
                    &out_path,
                    &cfg,
                    &base_of,
                    &Recorder::disabled(),
                )
                .unwrap(),
            )
        });
    });
    group.bench_function(BenchmarkId::new("in_memory", "ba_50k"), |b| {
        b.iter(|| {
            let text = std::fs::read_to_string(black_box(&edges_path)).unwrap();
            let g = tpp_graph::parse_edge_list(&text).unwrap();
            let csr = CsrGraph::from_graph(&g);
            format::save(&csr, Some(&base_of(&csr)), black_box(&out_path)).unwrap();
        });
    });
    group.finish();

    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_csr_load);
criterion_main!(benches);
