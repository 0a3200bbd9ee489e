//! Socket-level fault-injection drills (`--features fault-injection`).
//!
//! Each drill arms a deterministic `faultline` plan against one of the
//! transport's fault sites and asserts the degradation is *typed and
//! recoverable*: short reads/writes never corrupt a frame, severed paths
//! surface as client-visible disconnect errors (not hangs), an injected
//! dispatch panic becomes a wire-level typed reject, and disarming the plan
//! restores full service on the same rig.
//!
//! The plan is process-global, so every drill serializes on [`SERIAL`].
#![cfg(feature = "fault-injection")]

mod common;

use std::sync::Mutex;
use std::time::{Duration, Instant};

use common::start_rig;
use msopds_faultline::{set_plan, FaultPlan};
use msopds_serve_net::{NetClient, NetClientError, NetServeConfig, RejectReason, RetryPolicy};

static SERIAL: Mutex<()> = Mutex::new(());

fn arm(plan: &str) {
    set_plan(Some(FaultPlan::parse(plan).expect("valid drill plan")));
}

/// One-byte reads and one-byte writes on every syscall: the slowest possible
/// transport, but the frames that come out are bit-identical to the healthy
/// path — fragmentation can reorder *syscalls*, never bytes.
#[test]
fn short_reads_and_writes_never_corrupt_a_frame() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (net, _pause) = start_rig(64, NetServeConfig::default());
    let mut client = NetClient::connect(net.local_addr(), RetryPolicy::default()).unwrap();

    let healthy = client.query(9, 0, true).expect("healthy baseline");

    arm("seed=1;serve_net.read=trip@1;serve_net.write=trip@1");
    let degraded = client.query(9, 0, true).expect("short I/O still serves");
    set_plan(None);

    assert_eq!(healthy.len(), degraded.len());
    for (a, b) in healthy.iter().zip(&degraded) {
        assert_eq!(a.item, b.item);
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "byte-at-a-time I/O must be lossless");
    }

    let stats = net.drain();
    assert!(stats.balanced(), "{stats:?}");
    assert_eq!(stats.completed, 2);
}

/// A panic injected into the dispatcher's engine call crosses the wire as a
/// typed `Draining(detail=1)` reject — the accounting stays balanced, the
/// connection survives, and the next (fault-free) query on the *same*
/// connection is served: the panic was contained to its batch.
#[test]
fn injected_dispatch_panic_is_a_typed_wire_reject() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (net, _pause) = start_rig(64, NetServeConfig::default());
    let mut client = NetClient::connect(net.local_addr(), RetryPolicy::default()).unwrap();

    arm("seed=2;serve_async.engine.call=panic@1");
    match client.query(5, 0, true) {
        Err(NetClientError::Rejected { reason, detail }) => {
            assert_eq!(reason, RejectReason::Draining);
            assert_eq!(detail, 1, "detail=1 marks a dispatch failure, not a drain refusal");
        }
        other => panic!("expected a typed dispatch-failure reject, got {other:?}"),
    }
    set_plan(None);

    assert!(!client.query(5, 0, true).expect("dispatcher survived the panic").is_empty());

    let stats = net.drain();
    assert!(stats.balanced(), "{stats:?}");
    assert_eq!(stats.drained, 1, "the felled query lands in the drained bucket");
    assert_eq!(stats.completed, 1);
}

/// Severed paths — accept refusal and forced mid-stream disconnects — bound
/// the client's retry loop with a typed error instead of hanging it, and the
/// same rig serves again the moment the fault clears.
#[test]
fn severed_paths_exhaust_retries_typed_then_recover() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (net, _pause) = start_rig(64, NetServeConfig::default());
    let policy = RetryPolicy { max_retries: 2, base_backoff_ms: 1, max_backoff_ms: 4, seed: 3 };

    for plan in ["seed=4;serve_net.accept=trip@1", "seed=5;serve_net.conn=trip@1"] {
        arm(plan);
        let mut client = NetClient::connect(net.local_addr(), policy).unwrap();
        match client.query(7, 0, true) {
            Err(NetClientError::RetriesExhausted { attempts }) => {
                assert_eq!(attempts, 3, "initial try + max_retries, then a typed surrender")
            }
            Err(NetClientError::Disconnected | NetClientError::Io(_)) => {}
            other => panic!("plan `{plan}`: expected a typed failure, got {other:?}"),
        }
        set_plan(None);
        // Fresh connection, no faults: the rig itself was never damaged.
        let mut client = NetClient::connect(net.local_addr(), policy).unwrap();
        assert!(!client.query(7, 0, true).expect("recovers once disarmed").is_empty());
    }

    let stats = net.drain();
    assert!(stats.balanced(), "books balance through severed paths: {stats:?}");
}

/// The `serve_net.write.delay` site stalls the flush in place: end-to-end
/// latency absorbs the injected delay, but the answer is still intact.
#[test]
fn injected_write_delay_slows_but_never_breaks_delivery() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (net, _pause) = start_rig(64, NetServeConfig::default());
    let mut client = NetClient::connect(net.local_addr(), RetryPolicy::default()).unwrap();

    arm("seed=6;serve_net.write.delay=delay:60@1");
    let t0 = Instant::now();
    let items = client.query(3, 0, true).expect("delayed but served");
    let elapsed = t0.elapsed();
    set_plan(None);

    assert!(!items.is_empty());
    assert!(elapsed >= Duration::from_millis(60), "delay must be visible end-to-end: {elapsed:?}");

    let stats = net.drain();
    assert!(stats.balanced(), "{stats:?}");
    assert_eq!(stats.completed, 1);
}
