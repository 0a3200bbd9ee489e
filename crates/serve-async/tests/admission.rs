//! Admission-control accounting (ISSUE 7 satellite): at queue-cap
//! saturation every *accepted* request still completes, the rejected count
//! is exact, and after a drain the books balance to the query:
//! `engine hits + engine misses + rejected == offered` and
//! `completed == accepted`.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{lcg_model, splitmix};
use msopds_serve_async::{
    AsyncServeConfig, AsyncServer, AsyncStats, BatcherConfig, ScoredItem, ServeAsyncError,
    ServeConfig, ServingModel, SystemClock, Ticket,
};

const K: usize = 4;
const N_USERS: usize = 30;

fn server(queue_cap: usize, max_batch: usize) -> AsyncServer {
    AsyncServer::start_with_clock(
        Arc::new(lcg_model(N_USERS, 50, 3, 1.0)),
        AsyncServeConfig {
            batcher: BatcherConfig { deadline: Duration::from_micros(100), max_batch, queue_cap },
            serve: ServeConfig { top_k: K, cache_capacity: 8, ..ServeConfig::default() },
        },
        Arc::new(SystemClock::new()),
    )
}

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
fn saturation_sheds_exactly_the_overflow_and_serves_the_rest() {
    let (queue_cap, overflow) = (16usize, 5usize);
    let srv = server(queue_cap, 8);
    let want = refs(&lcg_model(N_USERS, 50, 3, 1.0));

    // Hold the dispatcher so the queue provably reaches the cap — without
    // the pause, a fast dispatcher could drain mid-fill and the rejection
    // count would be timing-dependent instead of exact.
    srv.pause();
    let mut tickets: Vec<(usize, Ticket)> = Vec::new();
    let mut rejected = 0u64;
    for i in 0..queue_cap + overflow {
        let u = i % N_USERS;
        match srv.submit(u) {
            Ok(t) => tickets.push((u, t)),
            Err(e) => {
                assert_eq!(e, ServeAsyncError::Overloaded { queue_cap });
                rejected += 1;
            }
        }
    }
    assert_eq!(tickets.len(), queue_cap, "exactly the cap admitted");
    assert_eq!(rejected, overflow as u64, "exactly the overflow shed");
    assert!(tickets.iter().all(|(_, t)| t.try_take().is_none()), "paused: nothing served yet");

    srv.resume();
    for (u, ticket) in &tickets {
        assert!(
            bitwise_eq(&ticket.wait().expect("served"), &want[*u]),
            "accepted answer for user {u}"
        );
    }
    let stats = srv.shutdown();
    assert_eq!(stats.batcher.offered, (queue_cap + overflow) as u64);
    assert_eq!(stats.batcher.accepted, queue_cap as u64);
    assert_eq!(stats.batcher.rejected, overflow as u64);
    assert_eq!(stats.completed, stats.batcher.accepted, "every accepted query completed");
    assert_eq!(
        stats.engine.cache_hits + stats.engine.cache_misses + stats.batcher.rejected,
        stats.batcher.offered,
        "hits + misses + rejected == offered"
    );
    assert_eq!(stats.batcher.peak_depth, queue_cap as u64);
    assert_latency_books(&stats);
}

/// After a drain the latency histogram holds one sample per completion and
/// its percentiles are ordered.
fn assert_latency_books(stats: &AsyncStats) {
    let l = stats.latency;
    assert_eq!(l.count, stats.completed, "one latency sample per completion");
    assert!(l.p50_us <= l.p99_us && l.p99_us <= l.p999_us && l.p999_us <= l.max_us, "{l:?}");
}

#[test]
fn concurrent_submitters_keep_the_books_balanced() {
    // A deliberately tiny cap under multi-threaded pressure: rejections are
    // expected and must be accounted exactly, never panicked on.
    let srv = server(4, 4);
    let want = refs(&lcg_model(N_USERS, 50, 3, 1.0));

    let (accepted, rejected): (u64, u64) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3u64)
            .map(|t| {
                let srv = &srv;
                let want = &want;
                scope.spawn(move || {
                    let mut state = 0xAD5EEDu64 ^ t;
                    let mut acc = 0u64;
                    let mut rej = 0u64;
                    for _ in 0..100 {
                        let u = (splitmix(&mut state) % N_USERS as u64) as usize;
                        match srv.submit(u) {
                            Ok(ticket) => {
                                acc += 1;
                                assert!(bitwise_eq(&ticket.wait().expect("served"), &want[u]));
                            }
                            Err(ServeAsyncError::Overloaded { queue_cap }) => {
                                assert_eq!(queue_cap, 4);
                                rej += 1;
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("unexpected rejection: {e}"),
                        }
                    }
                    (acc, rej)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter"))
            .fold((0, 0), |(a, r), (ta, tr)| (a + ta, r + tr))
    });

    let stats = srv.shutdown();
    assert_eq!(stats.batcher.offered, 300);
    assert_eq!(stats.batcher.accepted, accepted, "server and client agree on admissions");
    assert_eq!(stats.batcher.rejected, rejected, "server and client agree on sheds");
    assert_eq!(stats.batcher.offered, stats.batcher.accepted + stats.batcher.rejected);
    assert_eq!(stats.completed, stats.batcher.accepted);
    assert_eq!(
        stats.engine.cache_hits + stats.engine.cache_misses + stats.batcher.rejected,
        stats.batcher.offered
    );
    assert_latency_books(&stats);
}

#[test]
fn unknown_user_is_rejected_at_the_door_without_touching_the_queue() {
    let srv = server(64, 8);
    assert_eq!(
        srv.submit(N_USERS).err(),
        Some(ServeAsyncError::UnknownUser { user: N_USERS, n_users: N_USERS })
    );
    assert_eq!(
        srv.submit(usize::MAX).err(),
        Some(ServeAsyncError::UnknownUser { user: usize::MAX, n_users: N_USERS })
    );
    let stats = srv.shutdown();
    // Door rejections never enter the batcher's books: an id the model
    // cannot score is a caller bug, not shed load.
    assert_eq!(stats.batcher.offered, 0);
    assert_eq!(stats.batcher.rejected, 0);
    assert_eq!(stats.completed, 0);
}
