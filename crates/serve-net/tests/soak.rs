//! Bounded-memory soak gate: millions of queries through `NetServer` on
//! loopback, one pipelined connection against a fully warmed hot-user cache
//! (the shape of perfbench's `serve-net-hot` workload), must leave the
//! process's resident memory and its open file descriptors flat.
//!
//! A server that kept per-query state (a latency vector, a leaked buffer or
//! socket) grows with the query count and fails here: 8 bytes per query is
//! ~24 MB over the measured stretch. The run takes ~10 s and only means
//! something in an optimized build, so it is ignored by default. Run it with
//! `cargo test --release -p msopds-serve-net --test soak -- --ignored`.

#![cfg(target_os = "linux")]

#[allow(dead_code)] // the soak builds its own rig from the model fixture
mod common;

use common::lcg_model;
use msopds_serve_async::{stream_user, AsyncServeConfig, AsyncServer, BatcherConfig, ServeConfig};
use msopds_serve_net::{NetClient, NetServeConfig, NetServer, RetryPolicy};

const N_USERS: usize = 1024;
/// Queries per pipelined drive; the client's per-drive buffers are freed
/// between drives, so they stay out of the growth.
const CHUNK: u64 = 32_768;
const WINDOW: usize = 64;
/// Drives before the baseline reading, so allocator arenas, socket buffers
/// and the cache have reached their steady size.
const WARMUP_CHUNKS: u64 = 8;
/// Measured drives: 96 × 32,768 ≈ 3.1 M queries.
const MEASURED_CHUNKS: u64 = 96;
/// Allowed resident growth over the measured drives.
const MAX_GROWTH_MB: f64 = 2.0;

fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmRSS line");
    kb / 1024.0
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("list /proc/self/fd").count()
}

#[test]
#[ignore = "soak gate: release only"]
fn millions_of_queries_leave_rss_and_fds_flat() {
    let server = AsyncServer::start(
        lcg_model(N_USERS, 512, 8),
        AsyncServeConfig {
            batcher: BatcherConfig { max_batch: 256, queue_cap: 4096, ..BatcherConfig::default() },
            serve: ServeConfig { top_k: 10, cache_capacity: N_USERS, ..ServeConfig::default() },
        },
    );
    server.warm(&(0..N_USERS).collect::<Vec<_>>());
    let net_cfg = NetServeConfig { conn_window: WINDOW, ..NetServeConfig::default() };
    let net = NetServer::start("127.0.0.1:0", server, net_cfg).expect("bind loopback");
    let mut client =
        NetClient::connect(net.local_addr(), RetryPolicy::default()).expect("connect loopback");

    let mut completed = 0u64;
    let mut drive = |chunk: u64| {
        let first = chunk * CHUNK;
        let run = client
            .run_pipelined(CHUNK, WINDOW, 0, |i| stream_user((first + i) as usize, N_USERS) as u64)
            .expect("pipelined drive");
        assert_eq!((run.completed, run.rejected), (CHUNK, 0), "drive {chunk}");
        completed += run.completed;
    };
    for chunk in 0..WARMUP_CHUNKS {
        drive(chunk);
    }
    let (rss_before, fds_before) = (rss_mb(), open_fds());
    for chunk in WARMUP_CHUNKS..WARMUP_CHUNKS + MEASURED_CHUNKS {
        drive(chunk);
    }
    let (rss_after, fds_after) = (rss_mb(), open_fds());
    drop(client);

    let stats = net.drain();
    assert!(stats.balanced(), "{stats:?}");
    assert_eq!(stats.completed, completed, "{stats:?}");
    let growth = rss_after - rss_before;
    eprintln!(
        "soak: {} measured queries, VmRSS {rss_before:.1} -> {rss_after:.1} MB \
         ({growth:+.2} MB), fds {fds_before} -> {fds_after}",
        MEASURED_CHUNKS * CHUNK
    );
    assert!(growth < MAX_GROWTH_MB, "VmRSS grew {growth:.2} MB over the measured queries");
    assert_eq!(fds_after, fds_before, "open file descriptors changed");
}
