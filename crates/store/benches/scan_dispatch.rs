//! Benchmark: **dispatch cost of one scan round** — the persistent
//! `tpp-exec` pool vs the pre-refactor per-call `std::thread::scope`
//! spawn, on the exact round shape the engine runs (contiguous spans
//! claimed through an atomic cursor, results reduced in span order).
//!
//! Every timed iteration runs `ROUNDS` back-to-back scan rounds over the
//! same candidate array — the k-round greedy pattern. The pool pays
//! thread creation once (outside the timed loop, at pool construction);
//! the scoped variant pays it every round, which is precisely what the
//! executor extraction removes. On the single-core CI container both
//! parallel variants lose to `sequential` by construction — the number
//! under test is the *gap between pool and scope at equal thread count*,
//! which is pure dispatch overhead and shows regardless of cores.
//!
//! All variants are asserted to produce identical results before anything
//! is timed.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use tpp_exec::Parallelism;

/// Candidates per round — the ba_50k workload's early-round candidate
/// list is this order of magnitude.
const ITEMS: usize = 4096;
/// Scan rounds per timed iteration (a small greedy run's worth).
const ROUNDS: usize = 64;
/// Spans the scoped baseline cuts per thread: the same count
/// `Parallelism::steal_spans` cuts, so both sides claim equal spans.
const SCOPED_SPANS_PER_THREAD: usize = 4;
/// The cost each candidate declares to `Parallelism::steal_spans`, in
/// entries read. A round of count-read-like candidates at weight 1 is
/// below the inline-or-pool threshold and would run inline; this bench
/// times the pool's dispatch itself, so every round declares enough work
/// (`ITEMS × 64` entries) to be pooled.
const POOLED_WEIGHT: usize = 64;

/// Per-candidate work: a short arithmetic chain, roughly an O(1) index
/// gain lookup's worth of latency.
fn eval(x: u64) -> u64 {
    (0..8u64).fold(x | 1, |acc, i| {
        acc.wrapping_mul(0x9E37_79B9).rotate_left(7) ^ i
    })
}

fn span_sum(chunk: &[u64]) -> u64 {
    chunk.iter().map(|&x| eval(x)).sum()
}

/// One scan round through the persistent pool.
fn pool_round(exec: &Parallelism, items: &[u64], weights: &[usize]) -> u64 {
    exec.steal_spans(
        items,
        || Some(weights.into()),
        || (),
        |(), chunk| span_sum(chunk),
    )
    .into_iter()
    .sum()
}

/// One scan round the pre-refactor way: fresh scoped threads every call,
/// same cursor-claimed spans, same in-order reduce.
fn scoped_round(items: &[u64], threads: usize) -> u64 {
    let span_count = threads * SCOPED_SPANS_PER_THREAD;
    let chunk = items.len().div_ceil(span_count).max(1);
    let spans: Vec<std::ops::Range<usize>> = (0..items.len().div_ceil(chunk))
        .map(|i| i * chunk..((i + 1) * chunk).min(items.len()))
        .collect();
    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, u64)> = std::thread::scope(|scope| {
        let (cursor, spans) = (&cursor, &spans);
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(span) = spans.get(i) else { break };
                        got.push((i, span_sum(&items[span.clone()])));
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("scan worker panicked"))
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, s)| s).sum()
}

fn bench_scan_dispatch(c: &mut Criterion) {
    let items: Vec<u64> = (0..ITEMS as u64)
        .map(|i| i.wrapping_mul(2654435761))
        .collect();
    let weights = vec![POOLED_WEIGHT; ITEMS];

    // Every dispatch discipline must agree exactly before anything is
    // timed.
    let expect: u64 = items.iter().map(|&x| eval(x)).sum();
    for threads in [2usize, 4] {
        let exec = Parallelism::new(threads);
        assert_eq!(expect, pool_round(&exec, &items, &weights));
        assert_eq!(expect, scoped_round(&items, threads));
    }

    let mut group = c.benchmark_group("scan_dispatch");
    group.sample_size(10);

    group.bench_function("sequential", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..ROUNDS {
                acc = acc.wrapping_add(black_box(span_sum(&items)));
            }
            acc
        });
    });

    for threads in [2usize, 4] {
        // Pool construction (the one-time thread spawn) happens here,
        // outside the timed loop — that is the refactor's contract.
        let exec = Parallelism::new(threads);
        group.bench_function(format!("pool_t{threads}"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for _ in 0..ROUNDS {
                    acc = acc.wrapping_add(black_box(pool_round(&exec, &items, &weights)));
                }
                acc
            });
        });
        group.bench_function(format!("scope_t{threads}"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for _ in 0..ROUNDS {
                    acc = acc.wrapping_add(black_box(scoped_round(&items, threads)));
                }
                acc
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scan_dispatch);
criterion_main!(benches);
