//! Release-mode throughput gates of the serving tier. Each one compares two
//! configurations on this host and asserts a strict ordering:
//!
//! - **G1** `batch1024_engine_outserves_batch1`: steady-state
//!   `ServeEngine::serve_batch` users/s at batch 1024 beats batch 1, for
//!   victims trained on the Dense and the Sparse backend.
//! - **G2** `dynamic_batching_outcompletes_batch1_at_equal_load`: at 3×,
//!   4× and 5× the measured batch-1 capacity, the async tier completes more
//!   queries per second than a forced batch-1 dispatcher offered the same
//!   open-loop load.
//! - **G3** `four_connect_processes_outcomplete_one`: four `serve connect`
//!   processes complete more per second against one `serve listen` than
//!   one process does.
//!
//! Timings only mean something in an optimized build, so every gate is
//! ignored by default. Run them with
//! `cargo test --release -p msopds-xp --test throughput_gates -- --ignored`.
//! The gates hold one lock, so they never time each other.

mod common;

use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use common::{json_of, serve, Json, Listener};
use msopds_recsys::Backend;
use msopds_serve::{ServeConfig, ServeEngine, ServingModel, SnapshotSource};
use msopds_serve_async::{
    run_open_loop, stream_user, AsyncServeConfig, AsyncServer, BatcherConfig, LoadGenConfig,
    LoadReport,
};
use msopds_xp::{write_victim_snapshot, DatasetKind, XpConfig};
use serde::Value;

static SERIAL: Mutex<()> = Mutex::new(());

/// Served list length.
const TOP_K: usize = 10;
/// Coalescing ceiling of the batched async configuration.
const MAX_BATCH: usize = 256;
const DEADLINE_US: u64 = 200;

/// A failed gate poisons the lock; it guards `()`, so the next gate still runs.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Trains the quick Ciao victim (scale 24, seed 5) on `backend` and saves
/// its snapshot under a per-gate name.
fn victim_snapshot(tag: &str, backend: Backend) -> PathBuf {
    let cfg = XpConfig {
        scale: 24.0,
        seeds: vec![5],
        datasets: vec![DatasetKind::Ciao],
        backend,
        ..XpConfig::quick()
    };
    let path = std::env::temp_dir()
        .join(format!("msopds-gate-{tag}-{backend}-{}.snap", std::process::id()));
    write_victim_snapshot(&cfg, &path).expect("write victim snapshot");
    path
}

fn load(path: &Path) -> ServingModel {
    ServingModel::open(&SnapshotSource::file(path)).expect("victim snapshot serves")
}

/// Median per-call time of `call` in ns: 15 samples of ~40 ms, each the
/// mean over a fixed iteration count calibrated up front.
fn median_call_ns(mut call: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut iters = 0u32;
    while start.elapsed() < Duration::from_millis(40) {
        call();
        iters += 1;
    }
    let mut samples: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                call();
            }
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[test]
#[ignore = "timing gate: release only"]
fn batch1024_engine_outserves_batch1() {
    let _serial = serial();
    for backend in [Backend::Dense, Backend::Sparse] {
        let snap = victim_snapshot("g1", backend);
        let model = load(&snap);
        std::fs::remove_file(&snap).ok();
        let n_users = model.n_users();
        let mut engine = ServeEngine::new(
            model,
            ServeConfig { top_k: TOP_K, cache_capacity: n_users, ..ServeConfig::default() },
        );
        // Warm the LRU over every user: each timed call is steady-state
        // serving (hit path + per-call overhead), not first-touch scoring.
        engine.serve_batch(&(0..n_users).collect::<Vec<_>>());
        let users_per_sec = |batch: usize, engine: &mut ServeEngine| {
            let users: Vec<usize> = (0..batch).map(|q| stream_user(q, n_users)).collect();
            batch as f64 * 1e9
                / median_call_ns(|| {
                    std::hint::black_box(engine.serve_batch(&users));
                })
        };
        let one = users_per_sec(1, &mut engine);
        let big = users_per_sec(1024, &mut engine);
        eprintln!("G1 {backend}: batch1 {one:.0} users/s, batch1024 {big:.0} users/s");
        assert!(big > one, "{backend}: batch 1024 {big:.0} users/s vs batch 1 {one:.0}");
    }
}

/// One open-loop run against a fresh server with a warm full-universe LRU.
fn open_loop(
    model: &ServingModel,
    max_batch: usize,
    requests: usize,
    offered_qps: f64,
) -> LoadReport {
    let n_users = model.n_users();
    let server = AsyncServer::start(
        model.clone(),
        AsyncServeConfig {
            batcher: BatcherConfig {
                deadline: Duration::from_micros(DEADLINE_US),
                max_batch,
                queue_cap: 256,
            },
            serve: ServeConfig { top_k: TOP_K, cache_capacity: n_users, ..ServeConfig::default() },
        },
    );
    server.warm(&(0..n_users).collect::<Vec<_>>());
    let report = run_open_loop(&server, &LoadGenConfig { requests, offered_qps });
    server.shutdown();
    report
}

#[test]
#[ignore = "timing gate: release only"]
fn dynamic_batching_outcompletes_batch1_at_equal_load() {
    let _serial = serial();
    let snap = victim_snapshot("g2", Backend::Dense);
    let model = load(&snap);
    std::fs::remove_file(&snap).ok();
    // Batch-1 saturation: offer far past capacity, after one warm-up run
    // that pages in the model and the dispatcher thread.
    open_loop(&model, 1, 1_000, 1e6);
    let capacity = open_loop(&model, 1, 4_000, 1e6).completed_per_sec;
    for point in [3.0, 4.0, 5.0] {
        // Past ~3.2M attempts/s one submit loop measures itself, not
        // the tier, so the offered rate is clamped there.
        let offered = (capacity * point).min(3.2e6);
        let requests = ((offered * 0.6) as usize).clamp(1_000, 8_000);
        let batched = open_loop(&model, MAX_BATCH, requests, offered);
        let single = open_loop(&model, 1, requests, offered);
        let (b, s) = (batched.completed_per_sec, single.completed_per_sec);
        eprintln!("G2 load{point}x ({offered:.0} qps): async {b:.0}/s, batch1 {s:.0}/s");
        assert!(b > s, "at {point}x batch-1 capacity: async {b:.0}/s vs batch1 {s:.0}/s");
    }
}

/// Runs `procs` concurrent `serve connect` clients of `requests` queries
/// each against `server`; returns total completed ÷ the slowest client's
/// `elapsed_s`.
fn aggregate_completions_per_sec(server: &Listener, procs: usize, requests: usize) -> f64 {
    let requests = requests.to_string();
    let args = [
        "connect",
        &server.addr,
        "--requests",
        &requests,
        "--users",
        &server.users,
        "--conn-window",
        "64",
    ];
    let children: Vec<_> = (0..procs)
        .map(|_| {
            serve(&args)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn serve connect")
        })
        .collect();
    let runs: Vec<Json> = children
        .into_iter()
        .map(|child| json_of(&args, child.wait_with_output().expect("wait for serve connect")))
        .collect();
    let completed: u64 = runs.iter().map(|r| r.int("completed")).sum();
    let slowest = runs.iter().map(|r| r.float("elapsed_s")).fold(1e-9, f64::max);
    completed as f64 / slowest
}

#[cfg(unix)]
#[test]
#[ignore = "timing gate: release only"]
fn four_connect_processes_outcomplete_one() {
    let _serial = serial();
    let snap = victim_snapshot("g3", Backend::Dense);
    let users = load(&snap).n_users().to_string();
    // Equal total traffic at both fan-outs.
    let total = 16_000;
    let server = Listener::spawn(
        &snap,
        &[
            "--cache",
            &users,
            "--deadline-us",
            &DEADLINE_US.to_string(),
            "--max-batch",
            &MAX_BATCH.to_string(),
            "--queue-cap",
            "8192",
            "--conn-window",
            "64",
        ],
    );
    // One untimed pass fills the server's LRU with every streamed user.
    aggregate_completions_per_sec(&server, 1, total);
    let one = aggregate_completions_per_sec(&server, 1, total);
    let four = aggregate_completions_per_sec(&server, 4, total / 4);
    let out = server.sigterm();
    assert!(out.status.success(), "listener exited {:?}", out.status);
    assert_eq!(Json::parse(&out.stdout).0.field("balanced"), &Value::Bool(true));
    eprintln!("G3: 1 process {one:.0}/s, 4 processes {four:.0}/s");
    assert!(four > one, "4 processes {four:.0}/s vs 1 process {one:.0}/s");
    std::fs::remove_file(&snap).ok();
}
