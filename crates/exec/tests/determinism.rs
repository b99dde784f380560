//! Property tests pinning the executor's determinism contract: every
//! combinator's output is **bit-identical** to the sequential path for
//! every thread count and claim interleaving — the property all
//! downstream plan/build/commit equivalence guarantees rest on.

use proptest::prelude::*;
use std::borrow::Cow;
use tpp_exec::Parallelism;
use tpp_obs::Recorder;

/// Deterministic pseudo-random weights from a `(len, seed)` pair — the
/// offline proptest shim has no collection strategies, so quoting the pair
/// reproduces a failing case anywhere.
fn weights_for(len: usize, seed: u64) -> Vec<usize> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % 32
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `steal_spans` over a persistent pool, its per-span results
    /// flattened in span order, equals a plain sequential map over the
    /// items, for threads {1, 2, 3, 4, 8} × weighted and uniform splitting.
    #[test]
    fn steal_spans_matches_sequential(
        len in 0usize..120,
        seed in 0u64..10_000,
        weighted in 0u8..2,
    ) {
        let weights = weights_for(len, seed);
        let items: Vec<u64> = (0..weights.len() as u64).map(|i| i * 7 + 3).collect();
        let w = (weighted == 1).then_some(weights.as_slice());
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        let run = |_ctx: &mut (), chunk: &[u64]| -> Vec<u64> {
            chunk.iter().map(|&x| x * x + 1).collect()
        };
        for threads in [1usize, 2, 3, 4, 8] {
            let exec = Parallelism::new(threads);
            let par: Vec<u64> = exec.steal_spans(&items, || w.map(Cow::from), || (), run).concat();
            prop_assert_eq!(&expect, &par, "threads = {}", threads);
            // The same handle reused again (pool persistence) stays exact.
            let again: Vec<u64> = exec.steal_spans(&items, || w.map(Cow::from), || (), run).concat();
            prop_assert_eq!(&expect, &again, "reused pool, threads = {}", threads);
        }
    }

    /// The same property for jobs heavy enough to be pooled: every item
    /// alone weighs more than a job needs to be worth a dispatch, so
    /// every pool wider than one dispatches each job exactly once.
    #[test]
    fn pooled_steal_spans_matches_sequential(
        len in 2usize..120,
        seed in 0u64..10_000,
    ) {
        let weights: Vec<usize> = weights_for(len, seed).iter().map(|&w| (w + 1) << 20).collect();
        let items: Vec<u64> = (0..len as u64).map(|i| i * 7 + 3).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        let run = |_ctx: &mut (), chunk: &[u64]| -> Vec<u64> {
            chunk.iter().map(|&x| x * x + 1).collect()
        };
        for threads in [2usize, 3, 4, 8] {
            let recorder = Recorder::enabled();
            let exec = Parallelism::new(threads).attach_recorder(recorder.clone());
            let par: Vec<u64> = exec.steal_spans(&items, || Some(Cow::from(&weights)), || (), run).concat();
            prop_assert_eq!(&expect, &par, "threads = {}", threads);
            let dispatches = recorder.stats().unwrap().exec.dispatches.get();
            prop_assert_eq!(dispatches, 1, "threads = {}", threads);
        }
    }

    /// `run_indexed` returns index-ordered results, one per index, for
    /// threads {1, 2, 4}.
    #[test]
    fn indexed_and_mut_dispatch_are_deterministic(count in 0usize..150) {
        let expect: Vec<usize> = (0..count).map(|i| i.wrapping_mul(31) ^ 5).collect();
        for threads in [1usize, 2, 4] {
            let exec = Parallelism::new(threads);
            let got = exec.run_indexed(count, |i| i.wrapping_mul(31) ^ 5);
            prop_assert_eq!(&expect, &got, "run_indexed x{}", threads);
        }
    }
}
