//! Stress regression for [`SharedServeEngine`]: the engine's accounting
//! invariant and answer fidelity must survive genuinely concurrent callers.
//!
//! `ServeEngine` alone takes `&mut self` precisely because its hot-user LRU
//! and stats are not atomic; this suite pins the contract of the shared
//! wrapper that the async serving tier builds on:
//!
//! * `cache_hits + cache_misses == queries` stays **exact** across threads
//!   (no lost updates, no double counts);
//! * every answer is bit-identical to the model's direct `top_k`, hit or
//!   miss, eviction churn or not;
//! * concurrent hot-swaps never produce an answer that is neither the old
//!   nor the new model's (batch-atomicity of the swap).
//!
//! There is no `loom` in the dependency closure, so this is a preemption
//! stress test: small batches, a deliberately tiny LRU (eviction on nearly
//! every batch), and enough iterations that a torn critical section has real
//! odds of corrupting a counter — the exact-equality assertions then fail.

use std::sync::Arc;

use msopds_autograd::Tensor;
use msopds_recsys::snapshot::{ModelKind, Snapshot, SnapshotHeader};
use msopds_recsys::Backend;
use msopds_serve::{ServeConfig, ServeEngine, ServingModel, SharedServeEngine};

/// A deterministic LCG-filled model; `scale` lets tests mint "retrained"
/// variants with identical shapes and fingerprints but different answers.
fn lcg_model(n_users: usize, n_items: usize, d: usize, scale: f64) -> ServingModel {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        scale * (((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5)
    };
    let fill =
        |n: usize, next: &mut dyn FnMut() -> f64| -> Vec<f64> { (0..n).map(|_| next()).collect() };
    let snap = Snapshot {
        header: SnapshotHeader {
            kind: ModelKind::Mf,
            backend: Backend::Dense,
            seed: 3,
            social_fingerprint: 0xFEED,
            item_fingerprint: 0xF00D,
            n_users: n_users as u64,
            n_items: n_items as u64,
            mu: 3.1,
        },
        config_json: String::from("{}"),
        tensors: vec![
            (String::from("p"), Tensor::from_vec(fill(n_users * d, &mut next), &[n_users, d])),
            (String::from("q"), Tensor::from_vec(fill(n_items * d, &mut next), &[n_items, d])),
            (String::from("b_u"), Tensor::from_vec(fill(n_users, &mut next), &[n_users, 1])),
            (String::from("b_i"), Tensor::from_vec(fill(n_items, &mut next), &[n_items, 1])),
        ],
    };
    ServingModel::from_snapshot(&snap).expect("valid snapshot")
}

/// splitmix64 — per-thread deterministic query streams.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[test]
fn concurrent_batches_keep_accounting_exact_and_answers_bitwise() {
    const THREADS: usize = 4;
    const BATCHES_PER_THREAD: usize = 200;
    let model = lcg_model(40, 37, 8, 1.0);
    let reference: Vec<_> = (0..model.n_users()).map(|u| model.top_k(u, 5)).collect();
    // cache_capacity 8 over 40 users: almost every batch evicts.
    let shared = SharedServeEngine::new(ServeEngine::new(
        model,
        ServeConfig { top_k: 5, cache_capacity: 8, ..ServeConfig::default() },
    ));

    let mut expected_queries = 0u64;
    let mut plans: Vec<Vec<Vec<usize>>> = Vec::new();
    for t in 0..THREADS {
        let mut rng = 0x1000 + t as u64;
        let mut thread_plan = Vec::with_capacity(BATCHES_PER_THREAD);
        for _ in 0..BATCHES_PER_THREAD {
            let len = 1 + (splitmix(&mut rng) % 12) as usize;
            let batch: Vec<usize> = (0..len).map(|_| (splitmix(&mut rng) % 40) as usize).collect();
            expected_queries += len as u64;
            thread_plan.push(batch);
        }
        plans.push(thread_plan);
    }

    std::thread::scope(|scope| {
        for plan in &plans {
            let shared = shared.clone();
            let reference = &reference;
            scope.spawn(move || {
                for batch in plan {
                    let answers = shared.serve_batch(batch);
                    for (&u, answer) in batch.iter().zip(&answers) {
                        assert_eq!(**answer, reference[u], "torn answer for user {u}");
                    }
                }
            });
        }
    });

    let stats = shared.stats();
    assert_eq!(stats.queries, expected_queries);
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.queries);
    assert_eq!(stats.batches, (THREADS * BATCHES_PER_THREAD) as u64);
    let summary = shared.summary();
    assert_eq!(summary.queries, expected_queries);
    assert!(summary.p50_us <= summary.p99_us);
}

#[test]
fn concurrent_swaps_never_serve_a_torn_model() {
    const SWAPS: usize = 40;
    let old = lcg_model(24, 29, 6, 1.0);
    let new = lcg_model(24, 29, 6, -2.5);
    let ref_old: Vec<_> = (0..old.n_users()).map(|u| old.top_k(u, 4)).collect();
    let ref_new: Vec<_> = (0..new.n_users()).map(|u| new.top_k(u, 4)).collect();
    let old = Arc::new(old);
    let new = Arc::new(new);
    let shared = SharedServeEngine::new(ServeEngine::new_shared(
        Arc::clone(&old),
        ServeConfig { top_k: 4, cache_capacity: 16, ..ServeConfig::default() },
    ));

    std::thread::scope(|scope| {
        // One swapper flapping between the two retrained models...
        {
            let shared = shared.clone();
            let (old, new) = (Arc::clone(&old), Arc::clone(&new));
            scope.spawn(move || {
                for i in 0..SWAPS {
                    let next = if i % 2 == 0 { Arc::clone(&new) } else { Arc::clone(&old) };
                    shared.try_swap(next).expect("matching fingerprints");
                    std::thread::yield_now();
                }
            });
        }
        // ...while two serving threads require every answer to be exactly
        // one model's output — old or new, never a mixture.
        for t in 0..2usize {
            let shared = shared.clone();
            let (ref_old, ref_new) = (&ref_old, &ref_new);
            scope.spawn(move || {
                let mut rng = 0x77 + t as u64;
                for _ in 0..300 {
                    let u = (splitmix(&mut rng) % 24) as usize;
                    let answer = shared.serve_batch(&[u]);
                    let got = &*answer[0];
                    assert!(
                        *got == ref_old[u] || *got == ref_new[u],
                        "user {u}: answer matches neither model"
                    );
                }
            });
        }
    });

    let stats = shared.stats();
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.queries);
    assert_eq!(stats.queries, 600);
}
