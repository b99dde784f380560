//! Benchmark: the **commit phase** of a greedy round — deleting a protector
//! edge from the coverage index, which keeps the per-edge alive counts the
//! candidate list is read off — on the `ba_50k` workload (Barabási–Albert,
//! 50 000 nodes, m = 4, rectangle motif over 2 500 hidden targets).
//!
//! What is being compared:
//!
//! * `partitioned_commit` — `PartitionedCoverageIndex::delete_edge` over
//!   the flat index: a posting walk, alive flags flipped, per-edge counts
//!   decremented (the bench keeps the name of the earlier sharded layout).
//! * `partitioned_commit_batch8` — the same deletion sequence through
//!   `delete_edges` in batches of 8 (the engine's `run_global(k, 8)`
//!   commit shape).
//! * `clone_partitioned` — the per-iteration index clone both commit
//!   benches pay (the served protect's seed copy: flags and counts, the
//!   layout shared), so the JSON keeps the commit-only margins readable.
//! * `rounds_sequential` vs `rounds_batch_j2` / `rounds_batch_j8` — 64
//!   greedy commits driven the round-loop way on the index:
//!   argmax-scan-per-commit versus one scan per 2 or 8 disjoint-gain-set
//!   commits (the batch-width sweep). Each scan reads the candidate list
//!   once (`alive_candidate_edges`, derived from the counts).
//! * `rounds_targeted_sequential` vs `rounds_targeted_batch_j8` — the same
//!   64 commits as **targeted** (CT/WT-shaped) rounds: lexicographic
//!   `(own, cross)` argmax per open target, versus 8 disjoint picks per
//!   scan capped per charged target.
//!
//! Sequential and batch commits, on indexes built on one thread and on
//! two, are asserted to produce identical break counts and final state
//! before anything is timed.
//!
//! The workload is the shared `ba_50k` fixture
//! ([`tpp_bench::fixtures::ba_50k_rectangle`]).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tpp_graph::Edge;
use tpp_motif::{InstanceId, Motif, PartitionedCoverageIndex};

const MOTIF: Motif = Motif::Rectangle;
const DELETES: usize = 512;
const BATCH_J: usize = 8;
const ROUND_COMMITS: usize = 64;

/// A fixed, spread deletion sequence over the initial candidate set.
fn deletion_sequence(index: &PartitionedCoverageIndex, n: usize) -> Vec<Edge> {
    let cands = index.alive_candidate_edges();
    let n = n.min(cands.len());
    (0..n).map(|i| cands[i * cands.len() / n]).collect()
}

/// 64 greedy commits, one argmax scan per commit (the sequential round
/// shape, O(1) maintained gains).
fn rounds_sequential(mut idx: PartitionedCoverageIndex) -> usize {
    let mut broken = 0usize;
    for _ in 0..ROUND_COMMITS {
        let mut best: Option<(usize, Edge)> = None;
        for e in idx.alive_candidate_edges() {
            let g = idx.gain(e);
            if best.is_none_or(|(bg, _)| g > bg) {
                best = Some((g, e));
            }
        }
        let Some((g, e)) = best else { break };
        if g == 0 {
            break;
        }
        broken += idx.delete_edge(e);
    }
    broken
}

/// The same number of commits, one scan per `j`: each round accepts the
/// top-`j` candidates with pairwise-disjoint gain sets and commits them as
/// one batch (the commit shape of the engine's batched `run_global`).
fn rounds_batch(mut idx: PartitionedCoverageIndex, j: usize) -> usize {
    let mut broken = 0usize;
    let mut committed = 0usize;
    while committed < ROUND_COMMITS {
        let mut scored: Vec<(usize, Edge)> = idx
            .alive_candidate_edges()
            .into_iter()
            .map(|e| (idx.gain(e), e))
            .collect();
        scored.sort_unstable_by_key(|&(g, e)| (std::cmp::Reverse(g), e));
        let mut batch: Vec<Edge> = Vec::with_capacity(j);
        let mut claimed: Vec<InstanceId> = Vec::new();
        for &(g, e) in &scored {
            if g == 0 || batch.len() >= j.min(ROUND_COMMITS - committed) {
                break;
            }
            let ids = idx.alive_instance_ids(e);
            if batch.is_empty() || ids.iter().all(|id| !claimed.contains(id)) {
                claimed.extend(ids);
                batch.push(e);
            }
        }
        if batch.is_empty() {
            break;
        }
        committed += batch.len();
        broken += idx.delete_edges(&batch).iter().sum::<usize>();
    }
    broken
}

/// Advances past fully protected targets (the WT budget-loop shape).
fn next_open_target(idx: &PartitionedCoverageIndex, from: usize) -> Option<usize> {
    (from..idx.targets().len()).find(|&t| idx.target_similarity(t) > 0)
}

/// 64 targeted (CT/WT-shaped) commits, one lexicographic `(own, cross)`
/// argmax scan per commit over the current open target.
fn rounds_targeted_sequential(mut idx: PartitionedCoverageIndex) -> usize {
    let mut broken = 0usize;
    let mut t = 0usize;
    for _ in 0..ROUND_COMMITS {
        let Some(open) = next_open_target(&idx, t) else {
            break;
        };
        t = open;
        let mut best: Option<((usize, usize), Edge)> = None;
        for e in idx.alive_candidate_edges() {
            let s = idx.gain_split(e, t);
            if best.is_none_or(|(bs, _)| s > bs) {
                best = Some((s, e));
            }
        }
        let Some((_, e)) = best else { break };
        broken += idx.delete_edge(e);
    }
    broken
}

/// The same targeted commits, one scan per 8: accepts up to 8 picks in
/// `(own desc, cross desc, edge)` order whose gain sets are pairwise
/// disjoint — the batch-aware targeted round's commit shape.
fn rounds_targeted_batch_j8(mut idx: PartitionedCoverageIndex) -> usize {
    let mut broken = 0usize;
    let mut committed = 0usize;
    let mut t = 0usize;
    while committed < ROUND_COMMITS {
        let Some(open) = next_open_target(&idx, t) else {
            break;
        };
        t = open;
        let mut scored: Vec<((usize, usize), Edge)> = idx
            .alive_candidate_edges()
            .into_iter()
            .map(|e| (idx.gain_split(e, t), e))
            .collect();
        scored.sort_unstable_by_key(|&((own, cross), e)| {
            (std::cmp::Reverse(own), std::cmp::Reverse(cross), e)
        });
        let mut batch: Vec<Edge> = Vec::with_capacity(BATCH_J);
        let mut claimed: Vec<InstanceId> = Vec::new();
        for &(_, e) in &scored {
            if batch.len() >= BATCH_J.min(ROUND_COMMITS - committed) {
                break;
            }
            let ids = idx.alive_instance_ids(e);
            if ids.is_empty() {
                break; // sorted by split: nothing below breaks anything
            }
            if batch.is_empty() || ids.iter().all(|id| !claimed.contains(id)) {
                claimed.extend(ids);
                batch.push(e);
            }
        }
        if batch.is_empty() {
            break;
        }
        committed += batch.len();
        broken += idx.delete_edges(&batch).iter().sum::<usize>();
    }
    broken
}

fn bench_commit_scaling(c: &mut Criterion) {
    let (g, targets) = tpp_bench::fixtures::ba_50k_rectangle();
    // Commits run on the calling thread.
    let sequential = tpp_exec::Parallelism::sequential();
    let part = PartitionedCoverageIndex::build_parallel(&g, &targets, MOTIF, 1, &sequential);
    let deletes = deletion_sequence(&part, DELETES);
    assert!(deletes.len() >= 256, "workload must yield a real sequence");

    // Every commit shape must agree exactly before anything is timed.
    {
        let two = tpp_exec::Parallelism::new(2);
        let mut m = PartitionedCoverageIndex::build_parallel(&g, &targets, MOTIF, 1, &two);
        let mut p = part.clone();
        let mut pb = part.clone();
        let batched: usize = pb.delete_edges(&deletes).iter().sum();
        let mut seq = 0usize;
        for &e in &deletes {
            let broken = m.delete_edge(e);
            assert_eq!(broken, p.delete_edge(e), "thread counts diverged at {e}");
            seq += broken;
        }
        assert!(seq > 0, "sequence must break instances");
        assert_eq!(seq, batched, "batch total must equal sequential total");
        assert_eq!(m.total_similarity(), p.total_similarity());
        assert_eq!(m.alive_candidate_edges(), p.alive_candidate_edges());
        assert_eq!(p.alive_candidate_edges(), pb.alive_candidate_edges());
    }

    let mut group = c.benchmark_group("commit_scaling");
    group.sample_size(10);
    group.bench_function("clone_partitioned", |b| {
        b.iter(|| black_box(part.clone()));
    });
    group.bench_function("partitioned_commit", |b| {
        b.iter(|| {
            let mut idx = part.clone();
            let mut broken = 0usize;
            for &e in &deletes {
                broken += idx.delete_edge(e);
            }
            black_box(broken)
        });
    });
    group.bench_function("partitioned_commit_batch8", |b| {
        b.iter(|| {
            let mut idx = part.clone();
            let mut broken = 0usize;
            for chunk in deletes.chunks(BATCH_J) {
                broken += idx.delete_edges(chunk).iter().sum::<usize>();
            }
            black_box(broken)
        });
    });
    group.bench_function("rounds_sequential", |b| {
        b.iter(|| black_box(rounds_sequential(part.clone())));
    });
    group.bench_function("rounds_batch_j2", |b| {
        b.iter(|| black_box(rounds_batch(part.clone(), 2)));
    });
    group.bench_function("rounds_batch_j8", |b| {
        b.iter(|| black_box(rounds_batch(part.clone(), BATCH_J)));
    });
    group.bench_function("rounds_targeted_sequential", |b| {
        b.iter(|| black_box(rounds_targeted_sequential(part.clone())));
    });
    group.bench_function("rounds_targeted_batch_j8", |b| {
        b.iter(|| black_box(rounds_targeted_batch_j8(part.clone())));
    });
    group.finish();
}

criterion_group!(benches, bench_commit_scaling);
criterion_main!(benches);
