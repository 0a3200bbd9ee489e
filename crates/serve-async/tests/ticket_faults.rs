//! Injected dispatch-fault drills (`--features fault-injection`): a panic at
//! the `serve_async.batch.take` / `serve_async.engine.call` sites fails
//! exactly the in-flight batch with a typed error — readable before AND
//! after shutdown — and the dispatcher survives to serve the next batch.
//! The `serve_async.swap` site panics the swap caller without touching the
//! dispatcher.
//!
//! The fault plan is process-global, so these drills have their own binary:
//! an armed plan must never fire inside an unrelated test running beside
//! them. `SERIAL` keeps the drills themselves from overlapping.
#![cfg(feature = "fault-injection")]

mod common;

use std::sync::{Arc, Mutex};
use std::time::Duration;

use common::lcg_model;
use msopds_faultline::{set_plan, FaultPlan};
use msopds_serve_async::{AsyncServeConfig, AsyncServer, BatcherConfig, ServeConfig, TicketError};

static SERIAL: Mutex<()> = Mutex::new(());

fn cfg() -> AsyncServeConfig {
    AsyncServeConfig {
        batcher: BatcherConfig {
            deadline: Duration::from_micros(100),
            max_batch: 64,
            queue_cap: 64,
        },
        serve: ServeConfig::default(),
    }
}

fn arm(plan: &str) {
    set_plan(Some(FaultPlan::parse(plan).expect("valid drill plan")));
}

#[test]
fn dispatch_panic_fails_only_its_batch_and_wait_stays_typed_after_shutdown() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for site in ["serve_async.batch.take", "serve_async.engine.call"] {
        let server = AsyncServer::start(lcg_model(64, 48, 8, 1.0), cfg());
        server.pause();
        let doomed = server.submit(5).unwrap();
        arm(&format!("seed=11;{site}=panic@1"));
        server.resume();
        assert_eq!(
            doomed.wait(),
            Err(TicketError::DispatchFailed),
            "site {site}: the felled batch fails typed, no hang"
        );
        set_plan(None);

        // The dispatcher caught the unwind: the next batch serves.
        let healthy = server.submit(5).unwrap();
        assert!(!healthy.wait().expect("dispatcher survived").is_empty());

        let stats = server.shutdown();
        assert_eq!(stats.failed, 1, "site {site}");
        assert_eq!(stats.completed, 1, "site {site}");
        // Terminal states persist after shutdown — typed, not poisoned.
        assert_eq!(doomed.try_take(), Some(Err(TicketError::DispatchFailed)));
    }
}

#[test]
fn swap_site_panic_hits_the_caller_not_the_dispatcher() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = AsyncServer::start(lcg_model(64, 48, 8, 1.0), cfg());
    arm("seed=12;serve_async.swap=panic@1");
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = server.swap_model(Arc::new(lcg_model(64, 48, 8, 2.0)));
    }));
    set_plan(None);
    assert!(unwound.is_err(), "the swap site must fire on the calling thread");

    // Serving never noticed: the dispatcher thread was not involved.
    assert!(!server.submit(9).unwrap().wait().expect("unaffected").is_empty());
    let stats = server.shutdown();
    assert_eq!(stats.swaps, 0, "the panicked swap never landed");
}
