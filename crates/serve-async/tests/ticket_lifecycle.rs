//! Ticket lifecycle edges: a [`Ticket`] outlives the server that minted it,
//! and every terminal path — shutdown flush, mid-flight hot-swap, rejected
//! swap — resolves `wait`/`try_take` with an answer or a typed
//! [`TicketError`](msopds_serve_async::TicketError). Never a hang, never a
//! poisoned-mutex panic. An idle server answers a lone query at once, not
//! after its coalescing deadline, and reports its latency books while it
//! runs. The injected dispatch-panic path lives in
//! `ticket_faults.rs`: its drills arm a process-global fault plan, so they
//! get a binary of their own.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{lcg_model, lcg_snapshot};
use msopds_serve_async::{
    AsyncServeConfig, AsyncServer, BatcherConfig, ScoredItem, ServeConfig, ServingModel,
    SwapSnapshotError, Ticket,
};

fn cfg(queue_cap: usize) -> AsyncServeConfig {
    AsyncServeConfig {
        batcher: BatcherConfig { deadline: Duration::from_micros(100), max_batch: 64, queue_cap },
        serve: ServeConfig::default(),
    }
}

fn reference(model: &ServingModel, user: usize) -> Vec<ScoredItem> {
    let server = AsyncServer::start(model.clone(), cfg(64));
    let answer = server.submit(user).unwrap().wait().expect("reference serve").to_vec();
    server.shutdown();
    answer
}

fn bitwise_eq(got: &[ScoredItem], want: &[ScoredItem]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.item == b.item && a.score.to_bits() == b.score.to_bits())
}

/// Tickets held across `shutdown()` stay readable: the drain flush served
/// them, and both `wait` and `try_take` return the answer afterwards — the
/// ticket's cell is independent of the dead server.
#[test]
fn held_tickets_stay_readable_after_shutdown() {
    let server = AsyncServer::start(lcg_model(64, 48, 8, 1.0), cfg(64));
    server.pause(); // keep them mid-flight until the shutdown flush
    let tickets: Vec<Ticket> = (0..8).map(|u| server.submit(u).unwrap()).collect();
    for t in &tickets {
        assert_eq!(t.try_take(), None, "held queries are still in flight");
    }
    let stats = server.shutdown(); // drain flush serves all 8
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.failed, 0);

    for t in &tickets {
        let via_wait = t.wait().expect("served by the shutdown flush");
        assert!(!via_wait.is_empty());
        let via_take = t.try_take().expect("terminal state persists").expect("same answer");
        assert!(Arc::ptr_eq(&via_wait, &via_take), "both read the same resolved cell");
    }
}

/// A hot-swap landing while queries are held mid-flight: the batch dispatched
/// after the swap is answered by the NEW model, bit-for-bit, and no ticket
/// hangs or fails.
#[test]
fn mid_flight_swap_serves_held_queries_from_the_new_model() {
    let old = lcg_model(64, 48, 8, 1.0);
    let new = lcg_model(64, 48, 8, 3.0); // retrained variant, same shapes
    let want = reference(&new, 7);

    let server = AsyncServer::start(old, cfg(64));
    server.pause();
    let ticket = server.submit(7).unwrap();
    server.swap_model(Arc::new(lcg_model(64, 48, 8, 3.0))).expect("compatible swap");
    server.resume();

    let got = ticket.wait().expect("swap never strands a ticket");
    assert!(bitwise_eq(&got, &want), "mid-flight query must be served by the new model");
    server.shutdown();
}

/// A swap REJECTED mid-flight (fingerprint mismatch) leaves held queries
/// untouched: they resolve against the old model exactly as if the swap
/// never happened.
#[test]
fn rejected_mid_flight_swap_leaves_held_queries_on_the_old_model() {
    let old = lcg_model(64, 48, 8, 1.0);
    let want = reference(&old, 11);

    let server = AsyncServer::start(old, cfg(64));
    server.pause();
    let ticket = server.submit(11).unwrap();
    let alien = lcg_snapshot(64, 48, 8, 3.0, (0xDEAD, 0xBEEF));
    match server.swap_snapshot(&alien) {
        Err(SwapSnapshotError::Rejected(_)) => {}
        other => panic!("fingerprint mismatch must reject: {other:?}"),
    }
    server.resume();

    let got = ticket.wait().expect("rejected swap never strands a ticket");
    assert!(bitwise_eq(&got, &want), "old model keeps serving after a rejected swap");
    server.shutdown();
}

/// `wait` blocks, `try_take` does not: a held query reports `None` from
/// `try_take` while a parked `wait` on another thread resolves the moment
/// the dispatcher runs.
#[test]
fn try_take_is_nonblocking_while_wait_parks() {
    let server = AsyncServer::start(lcg_model(64, 48, 8, 1.0), cfg(64));
    server.pause();
    let ticket = server.submit(3).unwrap();
    assert_eq!(ticket.try_take(), None);

    let waiter = std::thread::spawn(move || ticket.wait().map(|a| a.len()));
    std::thread::sleep(Duration::from_millis(20)); // let the waiter park
    server.resume();
    let n = waiter.join().expect("wait never panics").expect("served");
    assert!(n > 0);
    server.shutdown();
}

/// The flush is work-conserving: an idle dispatcher sends a lone query at
/// once instead of holding it for company until its deadline. With a 5 s
/// deadline, a time-driven flush would block `wait` for 5 s; the 1 s bound
/// leaves a wide margin for a loaded host.
#[test]
fn idle_server_answers_a_lone_query_before_its_deadline() {
    let mut cfg = cfg(64);
    cfg.batcher.deadline = Duration::from_secs(5);
    let server = AsyncServer::start(lcg_model(64, 48, 8, 1.0), cfg);
    let started = Instant::now();
    let answer = server.submit(9).unwrap().wait().expect("served");
    let waited = started.elapsed();
    assert!(!answer.is_empty());
    assert!(waited < Duration::from_secs(1), "lone query waited {waited:?} for a 5 s deadline");
    let stats = server.shutdown();
    let c = stats.batcher;
    assert_eq!((c.batches, c.flush_idle, c.flush_deadline), (1, 1, 0));
    assert_eq!(stats.completed, 1);
}

/// `stats()` reads the latency histogram in place, so a running server
/// reports every completion so far without being drained, and keeps
/// serving afterwards. After the drain the books still match: one latency
/// sample per completion, percentiles in order.
#[test]
fn running_server_reports_its_latency_books_live() {
    let server = AsyncServer::start(lcg_model(64, 48, 8, 1.0), cfg(64));
    for round in 1..=3u64 {
        let tickets: Vec<Ticket> = (0..20).map(|u| server.submit(u).unwrap()).collect();
        for t in &tickets {
            t.wait().expect("served");
        }
        // The dispatcher records a query's latency before it fulfills the
        // ticket, so every answered query is on the books; `completed` is
        // bumped after the whole batch and may still trail here.
        let live = server.stats();
        assert_eq!(live.latency.count, 20 * round, "every answered query is on the books");
    }
    let stats = server.shutdown();
    let l = stats.latency;
    assert_eq!(l.count, stats.completed);
    assert!(l.p50_us <= l.p99_us && l.p99_us <= l.p999_us && l.p999_us <= l.max_us, "{l:?}");
    assert!(l.mean_us <= l.max_us as f64, "{l:?}");
}
