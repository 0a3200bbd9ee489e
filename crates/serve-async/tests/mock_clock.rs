//! Deterministic-time batcher tests: every flush label of the [`BatchQueue`]
//! core driven by a [`MockClock`], with **zero real sleeps** — time only
//! moves when a test advances it, so these can never be timing-flaky in CI.
//!
//! The batcher is work-conserving: `take` flushes any non-empty queue, and
//! time decides only the label (Full > Deadline > Shutdown > Idle). These
//! tests pin the batch cuts, the label boundaries to the nanosecond, and
//! that the per-label counters sum to `batches`.

use std::time::Duration;

use msopds_serve_async::{BatchQueue, BatcherConfig, Clock, FlushReason, MockClock};

fn cfg(deadline_us: u64, max_batch: usize, queue_cap: usize) -> BatcherConfig {
    BatcherConfig { deadline: Duration::from_micros(deadline_us), max_batch, queue_cap }
}

fn users<T>(batch: &[msopds_serve_async::Pending<T>]) -> Vec<usize> {
    batch.iter().map(|p| p.user).collect()
}

/// Every dispatched batch carries exactly one flush label.
fn assert_flush_books<T>(q: &BatchQueue<T>) {
    let c = q.counters();
    assert_eq!(
        c.batches,
        c.flush_full + c.flush_deadline + c.flush_shutdown + c.flush_idle,
        "flush counters must sum to batches: {c:?}"
    );
}

#[test]
fn empty_queue_dispatches_nothing() {
    let clock = MockClock::new();
    let mut q: BatchQueue<usize> = BatchQueue::new(cfg(200, 4, 64));
    assert!(q.take(clock.now_ns(), false).is_none());
    assert!(q.take(clock.now_ns(), true).is_none(), "shutdown of nothing");
    clock.advance_us(1_000);
    assert!(q.take(clock.now_ns(), false).is_none());
    assert_eq!(q.counters().batches, 0);
    assert_flush_books(&q);
}

#[test]
fn lone_query_flushes_idle_at_its_admission_instant() {
    let clock = MockClock::new();
    let mut q: BatchQueue<usize> = BatchQueue::new(cfg(200, 1024, 64));
    clock.advance_us(7);
    q.offer(5, 0, clock.now_ns()).unwrap();
    // No time passes: the query goes out without waiting for company.
    let (batch, reason) = q.take(clock.now_ns(), false).expect("idle flush");
    assert_eq!(reason, FlushReason::Idle);
    assert_eq!(batch.len(), 1);
    assert_eq!((batch[0].user, batch[0].enqueued_ns), (5, clock.now_ns()));
    assert!(q.is_empty());
    let c = q.counters();
    assert_eq!((c.batches, c.flush_idle, c.flush_deadline), (1, 1, 0));
    assert_flush_books(&q);
}

#[test]
fn max_batch_flush_fires_without_any_time_passing() {
    let clock = MockClock::new();
    let mut q: BatchQueue<usize> = BatchQueue::new(cfg(200, 4, 64));
    for i in 0..6usize {
        q.offer(i, i, clock.now_ns()).unwrap();
    }
    let (batch, reason) = q.take(clock.now_ns(), false).expect("full");
    assert_eq!(reason, FlushReason::Full, "Full outranks Idle");
    assert_eq!(users(&batch), vec![0, 1, 2, 3], "a Full flush takes exactly max_batch");
    assert_eq!(q.len(), 2, "the overflow stays queued");
    let (rest, reason) = q.take(clock.now_ns(), false).expect("idle remainder");
    assert_eq!(reason, FlushReason::Idle);
    assert_eq!(users(&rest), vec![4, 5]);
    let c = q.counters();
    assert_eq!((c.batches, c.flush_full, c.flush_idle), (2, 1, 1));
    assert_flush_books(&q);
}

#[test]
fn deadline_label_switches_exactly_at_the_front_budget() {
    let clock = MockClock::new();
    let mut q: BatchQueue<usize> = BatchQueue::new(cfg(200, 1024, 64));
    // (wait in ns, expected label): 1 ns before, at, and 1 ns past 200 µs.
    for (i, (wait_ns, want)) in [
        (199_999, FlushReason::Idle),
        (200_000, FlushReason::Deadline),
        (200_001, FlushReason::Deadline),
    ]
    .into_iter()
    .enumerate()
    {
        let admitted = clock.now_ns();
        q.offer(i, i, admitted).unwrap();
        clock.advance(wait_ns);
        let (batch, reason) = q.take(clock.now_ns(), false).expect("non-empty flushes");
        assert_eq!(reason, want, "front waited {wait_ns} ns");
        assert_eq!((batch.len(), batch[0].enqueued_ns), (1, admitted));
    }
    let c = q.counters();
    assert_eq!((c.batches, c.flush_idle, c.flush_deadline), (3, 1, 2));
    assert_flush_books(&q);
}

#[test]
fn deadline_label_is_judged_by_the_oldest_query_not_the_newest() {
    let clock = MockClock::new();
    let mut q: BatchQueue<usize> = BatchQueue::new(cfg(200, 1024, 64));
    q.offer(0, 0, clock.now_ns()).unwrap();
    // A stream of later arrivals must not push the budget forward.
    for i in 1..5usize {
        clock.advance_us(50);
        q.offer(i, i, clock.now_ns()).unwrap();
    }
    // t = 200µs: the newest query is fresh, but the front's clock rules.
    let (batch, reason) = q.take(clock.now_ns(), false).expect("non-empty flushes");
    assert_eq!(reason, FlushReason::Deadline);
    assert_eq!(users(&batch), vec![0, 1, 2, 3, 4], "a partial flush takes everything pending");
    assert_flush_books(&q);
}

#[test]
fn overflow_is_judged_by_its_own_admission_time() {
    let clock = MockClock::new();
    let mut q: BatchQueue<usize> = BatchQueue::new(cfg(200, 3, 64));
    for i in 0..3usize {
        q.offer(i, i, clock.now_ns()).unwrap();
        clock.advance_us(10);
    }
    // t = 30µs: a 4th query arrives on top of a full flush's worth.
    q.offer(3, 3, clock.now_ns()).unwrap();
    let (batch, reason) = q.take(clock.now_ns(), false).expect("full");
    assert_eq!(reason, FlushReason::Full);
    assert_eq!(batch.len(), 3);
    // The remainder's budget runs from ITS admission (30µs), not the flushed
    // front's (0µs): 1 ns before 230µs it is still an Idle flush.
    clock.advance(199_999);
    let (rest, reason) = q.take(clock.now_ns(), false).expect("overflow");
    assert_eq!(reason, FlushReason::Idle);
    assert_eq!(users(&rest), vec![3]);
    let c = q.counters();
    assert_eq!((c.batches, c.flush_full, c.flush_idle, c.flush_deadline), (2, 1, 1, 0));
    assert_flush_books(&q);
}

#[test]
fn shutdown_outranks_idle_but_not_deadline() {
    let clock = MockClock::new();
    let mut q: BatchQueue<usize> = BatchQueue::new(cfg(200, 1024, 64));
    q.offer(7, 0, clock.now_ns()).unwrap();
    clock.advance_us(1); // far from the 200µs deadline
    q.offer(8, 1, clock.now_ns()).unwrap();
    let (batch, reason) = q.take(clock.now_ns(), true).expect("shutdown drains");
    assert_eq!(reason, FlushReason::Shutdown);
    assert_eq!(users(&batch), vec![7, 8]);
    assert!(q.take(clock.now_ns(), true).is_none(), "nothing left to drain");

    // A front past its budget is labelled Deadline even while draining.
    q.offer(9, 2, clock.now_ns()).unwrap();
    clock.advance_us(200);
    let (_, reason) = q.take(clock.now_ns(), true).expect("drain");
    assert_eq!(reason, FlushReason::Deadline);
    let c = q.counters();
    assert_eq!((c.batches, c.flush_shutdown, c.flush_deadline, c.flush_idle), (2, 1, 1, 0));
    assert_flush_books(&q);
}

#[test]
fn shutdown_drains_a_long_queue_in_max_batch_chunks() {
    let clock = MockClock::new();
    let mut q: BatchQueue<usize> = BatchQueue::new(cfg(200, 4, 64));
    for i in 0..10usize {
        q.offer(i, i, clock.now_ns()).unwrap();
    }
    let mut chunks = Vec::new();
    while let Some((batch, reason)) = q.take(clock.now_ns(), true) {
        chunks.push((users(&batch), reason));
    }
    assert_eq!(
        chunks,
        vec![
            (vec![0, 1, 2, 3], FlushReason::Full),
            (vec![4, 5, 6, 7], FlushReason::Full),
            (vec![8, 9], FlushReason::Shutdown),
        ],
        "Full still cuts exactly max_batch; the remainder is a Shutdown flush"
    );
    let c = q.counters();
    assert_eq!((c.flush_full, c.flush_shutdown, c.flush_idle, c.batches), (2, 1, 0, 3));
    assert_flush_books(&q);
}

#[test]
fn exact_admission_accounting_at_the_cap() {
    let clock = MockClock::new();
    let mut q: BatchQueue<usize> = BatchQueue::new(cfg(200, 1024, 8));
    let mut rejected_tags = Vec::new();
    for i in 0..11usize {
        if let Err(tag) = q.offer(i, i, clock.now_ns()) {
            rejected_tags.push(tag);
        }
    }
    let c = q.counters();
    assert_eq!((c.offered, c.accepted, c.rejected), (11, 8, 3));
    assert_eq!(rejected_tags, vec![8, 9, 10], "exactly the overflow offers, in order");
    assert_eq!(c.peak_depth, 8);
    // Draining frees capacity: the next offer is admitted again.
    q.take(clock.now_ns(), true).expect("drain");
    assert!(q.offer(99, 99, clock.now_ns()).is_ok());
    let c = q.counters();
    assert_eq!((c.offered, c.accepted, c.rejected), (12, 9, 3));
    assert_eq!(c.offered, c.accepted + c.rejected, "books always balance");
    assert_flush_books(&q);
}
