//! Lost wake-up regression: every flag change that must wake the
//! dispatcher (`shutdown` through `AsyncServer::shutdown`/`Drop`, `resume`
//! through the server or a `PauseHandle`) lands under the queue lock, so a
//! dispatcher caught between its flag check and its `wait` still sees it.
//!
//! Each suite repeats its cycle thousands of times to hit that window, and
//! runs the cycles on a worker thread under a watchdog: a cycle that does
//! not finish within 5 s fails the test instead of hanging it.

mod common;

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use common::lcg_model;
use msopds_serve_async::{
    AsyncServeConfig, AsyncServer, BatcherConfig, Clock, ServeConfig, SystemClock,
};

const CYCLES: usize = 2_000;
const WATCHDOG: Duration = Duration::from_secs(5);

fn cfg(max_batch: usize) -> AsyncServeConfig {
    AsyncServeConfig {
        batcher: BatcherConfig { deadline: Duration::from_secs(60), max_batch, queue_cap: 64 },
        serve: ServeConfig::default(),
    }
}

/// The real clock, slowed to tens of microseconds per read. The dispatcher
/// reads its clock after checking its flags and before going to sleep, so a
/// slow read holds open exactly the window in which an unlocked flag store
/// and its notification would go unseen.
struct SlowClock(SystemClock);

impl Clock for SlowClock {
    fn now_ns(&self) -> u64 {
        std::thread::sleep(Duration::from_micros(20));
        self.0.now_ns()
    }
}

/// Runs `cycle(0..CYCLES)` on a worker thread and fails the test as soon as
/// any single cycle takes longer than [`WATCHDOG`]. A hung worker is left
/// behind; the test binary still exits when the harness finishes.
fn under_watchdog(mut cycle: impl FnMut(usize) + Send + 'static) {
    let (done, progress) = mpsc::channel();
    std::thread::spawn(move || {
        for i in 0..CYCLES {
            cycle(i);
            let _ = done.send(i);
        }
    });
    for i in 0..CYCLES {
        match progress.recv_timeout(WATCHDOG) {
            Ok(_) => {}
            Err(RecvTimeoutError::Timeout) => {
                panic!("cycle {i} stalled for {WATCHDOG:?}: the dispatcher missed a wake-up")
            }
            Err(RecvTimeoutError::Disconnected) => panic!("cycle {i} panicked"),
        }
    }
}

/// start → submit → shutdown. `max_batch = 1` flushes each query at once;
/// once its answer is in, the dispatcher heads for its empty-queue wait (no
/// timeout) through a slow clock read just as `shutdown` raises its flag.
/// The long deadline means no timer rescues a missed wake-up.
#[test]
fn shutdown_wakes_the_dispatcher_every_time() {
    let model = Arc::new(lcg_model(16, 8, 4, 1.0));
    under_watchdog(move |i| {
        let server = AsyncServer::start_with_clock(
            Arc::clone(&model),
            cfg(1),
            Arc::new(SlowClock(SystemClock::new())),
        );
        let ticket = server.submit(i % 16).expect("admitted");
        assert!(ticket.wait().is_ok(), "cycle {i}: admitted query was not served");
        let stats = server.shutdown();
        assert_eq!(stats.completed + stats.failed, stats.batcher.accepted, "cycle {i}");
    });
}

/// pause → submit → resume, alternating between the server's own controls
/// and a detached `PauseHandle`. With `max_batch = 1` the submit wakes the
/// paused dispatcher, which re-checks `paused` and sleeps again without a
/// timeout; the `resume` that follows must release it, or the query is
/// never answered.
#[test]
fn resume_wakes_the_dispatcher_every_time() {
    let server = Arc::new(AsyncServer::start(lcg_model(16, 8, 4, 1.0), cfg(1)));
    let handle = server.pause_handle();
    under_watchdog(move |i| {
        if i % 2 == 0 {
            server.pause();
        } else {
            handle.pause();
        }
        let ticket = server.submit(i % 16).expect("admitted");
        if i % 2 == 0 {
            server.resume();
        } else {
            handle.resume();
        }
        assert!(ticket.wait().is_ok(), "cycle {i}: resumed query was not served");
    });
}
