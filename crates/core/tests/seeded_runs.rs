//! Plan invariance under warm-start seeding.
//!
//! `tpp serve` feeds runs a pre-built coverage index
//! (`GreedyConfig::with_index_seed`) and a shared executor pool
//! (`GreedyConfig::with_shared_pool`) instead of letting each run build
//! its own. Both are pure lifecycle knobs: a seeded run must produce a plan
//! bit-identical to an unseeded one, a matching index seed must skip the
//! index build entirely (the registry-hit acceptance criterion), and a
//! mismatched seed must be ignored rather than trusted.

use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;
use tpp_core::{
    sgb_greedy, wt_greedy, GreedyConfig, ProtectionPlan, TppInstance, DEFAULT_INDEX_PARTITIONS,
};
use tpp_exec::Parallelism;
use tpp_graph::generators;
use tpp_motif::{Motif, PartitionedCoverageIndex};
use tpp_obs::Recorder;

fn instance(seed: u64) -> TppInstance {
    let g = generators::barabasi_albert(100, 3, seed);
    let targets = TppInstance::sample_targets(&g, 4, seed);
    TppInstance::new(g, targets).unwrap()
}

/// Builds the same index a fresh `EvaluatorKind::Index` run would.
fn prebuilt(inst: &TppInstance, motif: Motif) -> Arc<PartitionedCoverageIndex> {
    Arc::new(PartitionedCoverageIndex::build_parallel(
        inst.released(),
        inst.targets(),
        motif,
        DEFAULT_INDEX_PARTITIONS,
        &Parallelism::sequential(),
    ))
}

fn run(inst: &TppInstance, config: &GreedyConfig) -> (ProtectionPlan, u64) {
    let recorder = Recorder::enabled();
    let plan = sgb_greedy(inst, 5, &config.clone().with_obs(recorder.clone()));
    let builds = recorder.stats().unwrap().index.builds.get();
    (plan, builds)
}

#[test]
fn matching_index_seed_skips_the_build_and_keeps_the_plan() {
    let inst = instance(11);
    let (cold, cold_builds) = run(&inst, &GreedyConfig::scalable(Motif::Triangle));
    assert_eq!(cold_builds, 1, "unseeded run builds its index");

    let seed = prebuilt(&inst, Motif::Triangle);
    let seeded_config = GreedyConfig::scalable(Motif::Triangle).with_index_seed(Arc::clone(&seed));
    let (warm, warm_builds) = run(&inst, &seeded_config);
    assert_eq!(warm_builds, 0, "matching seed skips the index build");
    assert_eq!(warm, cold, "seeding never changes the plan");
}

#[test]
fn mismatched_index_seed_is_ignored() {
    let inst = instance(12);
    let (fresh, _) = run(&inst, &GreedyConfig::scalable(Motif::Rectangle));

    // A triangle index offered to a rectangle run must be rejected.
    let wrong = prebuilt(&inst, Motif::Triangle);
    let config = GreedyConfig::scalable(Motif::Rectangle).with_index_seed(wrong);
    let (plan, builds) = run(&inst, &config);
    assert_eq!(builds, 1, "mismatched seed falls back to a fresh build");
    assert_eq!(plan, fresh);
}

#[test]
fn shared_pool_runs_match_private_pool_runs() {
    let inst = instance(13);
    let pool = Parallelism::new(3);
    for motif in [Motif::Triangle, Motif::Rectangle] {
        let private = sgb_greedy(&inst, 5, &GreedyConfig::scalable(motif).with_threads(3));
        let shared = sgb_greedy(
            &inst,
            5,
            &GreedyConfig::scalable(motif).with_shared_pool(pool.clone()),
        );
        assert_eq!(shared, private, "pool sharing never changes the plan");
    }

    // Back-to-back algorithms on the one pool, interleaved with the
    // private-pool reference runs above — the serve dispatch shape.
    let budgets = vec![1usize; inst.targets().len()];
    let wt_private = wt_greedy(&inst, &budgets, &GreedyConfig::scalable(Motif::Triangle)).unwrap();
    let wt_shared = wt_greedy(
        &inst,
        &budgets,
        &GreedyConfig::scalable(Motif::Triangle).with_shared_pool(pool),
    )
    .unwrap();
    assert_eq!(wt_shared, wt_private);
}

#[test]
fn seeded_and_shared_run_combines_both_knobs() {
    let inst = instance(14);
    let (cold, _) = run(&inst, &GreedyConfig::scalable(Motif::Triangle));

    let pool = Parallelism::new(2);
    let config = GreedyConfig::scalable(Motif::Triangle)
        .with_index_seed(prebuilt(&inst, Motif::Triangle))
        .with_shared_pool(pool);
    let (warm, builds) = run(&inst, &config);
    assert_eq!(builds, 0);
    assert_eq!(warm, cold);
}

#[test]
fn shared_pool_config_dispatches_on_that_pool_into_its_own_recorder() {
    // Large enough that the rectangle index build is worth a dispatch.
    let g = generators::barabasi_albert(2000, 4, 15);
    let targets = TppInstance::sample_targets(&g, 400, 15);
    let inst = TppInstance::new(g, targets).unwrap();
    let pool = Parallelism::new(2);
    let recorder = Recorder::enabled();
    let config = GreedyConfig::scalable(Motif::Rectangle)
        .with_shared_pool(pool.clone())
        .with_obs(recorder.clone());
    let exec = config.parallelism();
    assert!(
        exec.same_pool(&pool),
        "the run dispatches on the shared pool"
    );
    assert_eq!(
        exec.recorder(),
        &recorder,
        "and reports into the config's recorder"
    );
    assert!(
        !pool.recorder().is_enabled(),
        "the pool's own handle stays unrecorded"
    );

    let plan = sgb_greedy(&inst, 5, &config);
    let st = recorder.stats().unwrap();
    assert_eq!(
        st.exec.threads.get(),
        2,
        "the shared pool's width is the run's"
    );
    assert!(
        st.exec.dispatches.get() > 0,
        "the run's dispatches land in its recorder"
    );
    assert_eq!(st.round.rounds.get() as usize, plan.deletions());
    let sequential = GreedyConfig::scalable(Motif::Rectangle).with_threads(1);
    assert_eq!(
        plan,
        sgb_greedy(&inst, 5, &sequential),
        "the pooled plan is the sequential one"
    );
}

#[test]
fn seeded_protect_never_queues_behind_another_dispatch() {
    // Another thread holds the shared pool inside a dispatch that stays
    // blocked until the protect has returned. A seeded SGB run's only
    // pooled-looking work is its bound sweep of count reads, which runs
    // inline, so the run finishes without waiting for the pool.
    let inst = instance(16);
    let seed = prebuilt(&inst, Motif::Triangle);
    let pool = Parallelism::new(2);
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let blocker = {
        let pool = pool.clone();
        thread::spawn(move || {
            pool.pool().run(&|participant| {
                if participant == 0 {
                    entered_tx.send(()).unwrap();
                    release_rx.lock().unwrap().recv().unwrap();
                }
            });
        })
    };
    entered_rx.recv().unwrap();

    let recorder = Recorder::enabled();
    let config = GreedyConfig::scalable(Motif::Triangle)
        .with_index_seed(Arc::clone(&seed))
        .with_shared_pool(pool)
        .with_obs(recorder.clone());
    let (done_tx, done_rx) = mpsc::channel();
    let protect = {
        let inst = inst.clone();
        thread::spawn(move || done_tx.send(sgb_greedy(&inst, 5, &config)).unwrap())
    };
    // The blocker is released only after the protect has returned; the
    // guard below only turns a hang into a failure.
    let plan = done_rx.recv_timeout(Duration::from_secs(120));
    release_tx.send(()).unwrap();
    blocker.join().unwrap();
    protect.join().unwrap();
    let plan = plan.expect("the seeded protect waited for the blocked pool");

    let st = recorder.stats().unwrap();
    assert_eq!(st.exec.dispatches.get(), 0, "nothing was dispatched");
    assert_eq!(st.index.builds.get(), 0, "the seed was used");
    let sequential = GreedyConfig::scalable(Motif::Triangle).with_threads(1);
    assert_eq!(plan, sgb_greedy(&inst, 5, &sequential));
}
