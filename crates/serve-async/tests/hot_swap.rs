//! Hot-swap safety under load (ISSUE 7 satellite): a swap concurrent with
//! serving must never produce a *torn* response — every answer is
//! bit-identical to exactly what the old snapshot or the new snapshot would
//! return, never a mixture — and a fingerprint-mismatched snapshot is
//! refused with a typed error while serving continues untouched.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{lcg_model, lcg_snapshot, splitmix};
use msopds_serve_async::{
    AsyncServeConfig, AsyncServer, BatcherConfig, ScoredItem, ServeConfig, ServingModel,
    SnapshotSource, SwapError, SwapSnapshotError, SystemClock,
};

const K: usize = 5;
const N_USERS: usize = 40;
const N_ITEMS: usize = 60;
const DIM: usize = 4;

fn cfg() -> AsyncServeConfig {
    AsyncServeConfig {
        batcher: BatcherConfig {
            deadline: Duration::from_micros(50),
            max_batch: 32,
            queue_cap: 4096,
        },
        serve: ServeConfig { top_k: K, cache_capacity: 16, ..ServeConfig::default() },
    }
}

/// Per-user reference answers for one model.
fn refs(model: &ServingModel) -> Vec<Vec<ScoredItem>> {
    let all: Vec<usize> = (0..model.n_users()).collect();
    model.top_k_batch(&all, K)
}

fn bitwise_eq(got: &[ScoredItem], want: &[ScoredItem]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.item == w.item && g.score.to_bits() == w.score.to_bits())
}

#[test]
fn concurrent_swaps_under_load_never_serve_a_torn_model() {
    let old = Arc::new(lcg_model(N_USERS, N_ITEMS, DIM, 1.0));
    let new = Arc::new(lcg_model(N_USERS, N_ITEMS, DIM, 2.0));
    let ref_old = refs(&old);
    let ref_new = refs(&new);
    // The two models must genuinely disagree or the test proves nothing.
    assert!((0..N_USERS).any(|u| !bitwise_eq(&ref_old[u], &ref_new[u])));

    let server =
        AsyncServer::start_with_clock(Arc::clone(&old), cfg(), Arc::new(SystemClock::new()));
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let server = &server;
            let (ref_old, ref_new) = (&ref_old, &ref_new);
            scope.spawn(move || {
                let mut state = 0xC0FFEE ^ t;
                for _ in 0..150 {
                    let u = (splitmix(&mut state) % N_USERS as u64) as usize;
                    let answer =
                        server.submit(u).expect("cap covers the load").wait().expect("served");
                    assert!(
                        bitwise_eq(&answer, &ref_old[u]) || bitwise_eq(&answer, &ref_new[u]),
                        "user {u} got an answer matching neither snapshot"
                    );
                }
            });
        }
        // Swap back and forth while the clients hammer the queue.
        for i in 0..40 {
            let next = if i % 2 == 0 { &new } else { &old };
            server.swap_model(Arc::clone(next)).expect("same dataset, same shape");
            std::thread::yield_now();
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.swaps, 40);
    assert_eq!(stats.swaps_rejected, 0);
    assert_eq!(stats.completed, 300);
    assert_eq!(stats.batcher.accepted, 300);
    assert_eq!(
        stats.engine.cache_hits + stats.engine.cache_misses + stats.batcher.rejected,
        stats.batcher.offered
    );
}

#[test]
fn queries_after_a_swap_are_answered_by_the_new_model_only() {
    let old = Arc::new(lcg_model(N_USERS, N_ITEMS, DIM, 1.0));
    let new = Arc::new(lcg_model(N_USERS, N_ITEMS, DIM, 2.0));
    let ref_old = refs(&old);
    let ref_new = refs(&new);

    let server =
        AsyncServer::start_with_clock(Arc::clone(&old), cfg(), Arc::new(SystemClock::new()));
    // Before the swap: old answers (wait for each, so none straddles it).
    for (u, want) in ref_old.iter().enumerate().take(8) {
        assert!(bitwise_eq(&server.submit(u).unwrap().wait().expect("served"), want));
    }
    server.swap_model(Arc::clone(&new)).expect("accepted");
    // After the swap returns there is no path back to the old model: the
    // hot-user cache was cleared and the engine Arc now points at `new`.
    for (u, want) in ref_new.iter().enumerate() {
        assert!(
            bitwise_eq(&server.submit(u).unwrap().wait().expect("served"), want),
            "user {u} served a stale answer after the swap"
        );
    }
    let stats = server.shutdown();
    assert_eq!((stats.swaps, stats.swaps_rejected), (1, 0));
}

#[test]
fn fingerprint_mismatched_snapshot_is_rejected_and_serving_continues() {
    let old = Arc::new(lcg_model(N_USERS, N_ITEMS, DIM, 1.0));
    let ref_old = refs(&old);
    let server =
        AsyncServer::start_with_clock(Arc::clone(&old), cfg(), Arc::new(SystemClock::new()));

    // A structurally valid snapshot fitted on a *different* dataset: the
    // fingerprints disagree, so applying it would answer for the wrong world.
    let alien = lcg_snapshot(N_USERS, N_ITEMS, DIM, 3.0, (0xBAD, 0xF00D));
    match server.swap_snapshot(&alien) {
        Err(SwapSnapshotError::Rejected(SwapError::FingerprintMismatch { running, offered })) => {
            assert_eq!(running, (0xFEED, 0xF00D));
            assert_eq!(offered, (0xBAD, 0xF00D));
        }
        other => panic!("expected a fingerprint rejection, got {other:?}"),
    }

    // Same dataset but a different item universe: shape-checked, because a
    // swap that changed n_users would invalidate the admission-door id check.
    let resized = lcg_snapshot(N_USERS, N_ITEMS + 3, DIM, 1.0, (0xFEED, 0xF00D));
    match server.swap_snapshot(&resized) {
        Err(SwapSnapshotError::Rejected(SwapError::ShapeMismatch { running, offered })) => {
            assert_eq!(running, (N_USERS, N_ITEMS));
            assert_eq!(offered, (N_USERS, N_ITEMS + 3));
        }
        other => panic!("expected a shape rejection, got {other:?}"),
    }

    // Serving never blinked: still the old model's answers, bit for bit.
    for (u, want) in ref_old.iter().enumerate() {
        assert!(bitwise_eq(&server.submit(u).unwrap().wait().expect("served"), want));
    }
    let stats = server.shutdown();
    assert_eq!((stats.swaps, stats.swaps_rejected), (0, 2));
    assert_eq!(stats.completed, N_USERS as u64);
}

#[test]
fn swap_source_gates_on_the_peeked_header_and_swaps_zero_copy() {
    let old = Arc::new(lcg_model(N_USERS, N_ITEMS, DIM, 1.0));
    let server =
        AsyncServer::start_with_clock(Arc::clone(&old), cfg(), Arc::new(SystemClock::new()));
    let dir = std::env::temp_dir();
    let pid = std::process::id();

    // Wrong-world snapshot on disk: the 64-byte header peek alone refuses
    // it — no payload bytes are parsed, no model is built.
    let alien_path = dir.join(format!("msopds-swap-alien-{pid}.snap"));
    lcg_snapshot(N_USERS, N_ITEMS, DIM, 3.0, (0xBAD, 0xF00D)).save(&alien_path).unwrap();
    match server.swap_source(&SnapshotSource::mmap(&alien_path)) {
        Err(SwapSnapshotError::Rejected(SwapError::FingerprintMismatch { running, offered })) => {
            assert_eq!(running, (0xFEED, 0xF00D));
            assert_eq!(offered, (0xBAD, 0xF00D));
        }
        other => panic!("expected a header-gate fingerprint rejection, got {other:?}"),
    }

    // Same world on disk: passes the gate and swaps in through the mmap
    // path, serving the new model's answers bit for bit.
    let good = lcg_snapshot(N_USERS, N_ITEMS, DIM, 2.0, (0xFEED, 0xF00D));
    let ref_new = refs(&ServingModel::from_snapshot(&good).unwrap());
    let good_path = dir.join(format!("msopds-swap-good-{pid}.snap"));
    good.save(&good_path).unwrap();
    server.swap_source(&SnapshotSource::mmap(&good_path)).expect("same world, same shape");
    for (u, want) in ref_new.iter().enumerate() {
        assert!(
            bitwise_eq(&server.submit(u).unwrap().wait().expect("served"), want),
            "user {u} not served by the mmap-swapped model"
        );
    }
    let stats = server.shutdown();
    assert_eq!((stats.swaps, stats.swaps_rejected), (1, 1));
    std::fs::remove_file(&alien_path).ok();
    std::fs::remove_file(&good_path).ok();
}
