//! The `serve` binary end to end, one process per mode, on a tiny snapshot:
//! the stdout JSON identities of `batch` and `load`, a `listen` → `connect`
//! → SIGTERM drain with balanced books, and the exit-code convention
//! (2 usage or config error, 1 load failure).

mod common;

use std::path::PathBuf;

use common::{path_str, run, run_json, serve, Json, Listener};
use msopds_autograd::Tensor;
use msopds_recsys::snapshot::{ModelKind, Snapshot, SnapshotHeader};
use msopds_recsys::Backend;
use serde::Value;

const USERS: usize = 40;

/// A deterministic MF snapshot, saved under a per-test name.
fn tiny_snapshot(tag: &str) -> PathBuf {
    let (n, m, d) = (USERS, 30, 4);
    let fill = |len: usize, phase: f64| -> Vec<f64> {
        (0..len).map(|i| (i as f64 * 0.37 + phase).sin() * 0.5).collect()
    };
    let snap = Snapshot {
        header: SnapshotHeader {
            kind: ModelKind::Mf,
            backend: Backend::Dense,
            seed: 3,
            social_fingerprint: 0x50c1a1,
            item_fingerprint: 0x17e35,
            n_users: n as u64,
            n_items: m as u64,
            mu: 3.5,
        },
        config_json: "{}".to_string(),
        tensors: vec![
            ("p".to_string(), Tensor::from_vec(fill(n * d, 0.0), &[n, d])),
            ("q".to_string(), Tensor::from_vec(fill(m * d, 1.0), &[m, d])),
            ("b_u".to_string(), Tensor::from_vec(fill(n, 2.0), &[n, 1])),
            ("b_i".to_string(), Tensor::from_vec(fill(m, 3.0), &[m, 1])),
        ],
    };
    let path =
        std::env::temp_dir().join(format!("msopds-serve-cli-{tag}-{}.snap", std::process::id()));
    snap.save(&path).expect("save tiny snapshot");
    path
}

#[test]
fn batch_mode_books_balance_on_heap_and_mmap_loads() {
    let snap = tiny_snapshot("batch");
    for extra in [None, Some("--mmap")] {
        let mut args = vec!["batch", "--snapshot", path_str(&snap)];
        args.extend(extra);
        args.extend(["--batch", "64", "--queries", "2048", "--top-k", "10"]);
        let r = run_json(&args);
        assert_eq!((r.int("queries"), r.int("batches")), (2048, 32), "{r:?}");
        assert!(r.float("users_per_sec") > 0.0, "{r:?}");
        assert!(r.int("p99_us") >= r.int("p50_us"), "{r:?}");
        assert_eq!(r.int("cache_hits") + r.int("cache_misses"), 2048, "{r:?}");
    }
    std::fs::remove_file(&snap).ok();
}

#[test]
fn load_mode_books_balance() {
    let snap = tiny_snapshot("load");
    let r = run_json(&[
        "load",
        "--snapshot",
        path_str(&snap),
        "--requests",
        "4096",
        "--offered",
        "50000",
        "--deadline-us",
        "200",
        "--max-batch",
        "256",
        "--queue-cap",
        "1024",
    ]);
    std::fs::remove_file(&snap).ok();
    assert_eq!(r.int("accepted") + r.int("rejected"), 4096, "{r:?}");
    assert_eq!(r.int("requests"), 4096, "{r:?}");
    assert_eq!(r.int("completed"), r.int("accepted"), "{r:?}");
    assert_eq!(r.int("cache_hits") + r.int("cache_misses"), r.int("completed"), "{r:?}");
    assert!(r.int("p999_us") >= r.int("p99_us"), "{r:?}");
    assert!(r.int("p99_us") >= r.int("p50_us"), "{r:?}");
    assert!(r.float("completed_per_sec") > 0.0 && r.float("mean_batch_fill") >= 1.0, "{r:?}");
    let flushes: u64 = ["flush_full", "flush_deadline", "flush_shutdown", "flush_idle"]
        .iter()
        .map(|k| r.int(k))
        .sum();
    assert_eq!(flushes, r.int("batches"), "every batch has one flush reason: {r:?}");
}

#[cfg(unix)]
#[test]
fn listen_connect_then_sigterm_drains_balanced() {
    let snap = tiny_snapshot("net");
    let server = Listener::spawn(&snap, &[]);
    assert_eq!(server.users, USERS.to_string(), "ready line of {}", server.addr);

    let client =
        run_json(&["connect", &server.addr, "--requests", "2000", "--users", &server.users]);
    assert_eq!(client.int("completed"), 2000, "{client:?}");

    let out = server.sigterm();
    std::fs::remove_file(&snap).ok();
    assert!(out.status.success(), "listener exited {:?}", out.status);
    let r = Json::parse(&out.stdout);
    assert_eq!(r.0.field("balanced"), &Value::Bool(true), "{r:?}");
    assert_eq!(
        r.int("offered"),
        r.int("completed") + r.int("rejected") + r.int("drained"),
        "{r:?}"
    );
    assert_eq!(r.int("completed"), 2000, "{r:?}");
}

#[test]
fn usage_and_config_errors_exit_2() {
    let snap = tiny_snapshot("usage");
    let snap = path_str(&snap);
    for args in [
        &[][..],
        &["serve-net"][..],
        &["batch", "--snapshot", snap, "--requests", "5"][..],
        &["connect", "127.0.0.1:1", "--snapshot", snap][..],
        &["listen", "--snapshot", snap][..],
    ] {
        assert_eq!(run(args).status.code(), Some(2), "serve {args:?}");
    }
    let bad_plan = serve(&["batch", "--snapshot", snap])
        .env("MSOPDS_FAULT_PLAN", "seed=1;not-a-site")
        .output()
        .expect("spawn serve");
    assert_eq!(bad_plan.status.code(), Some(2), "malformed MSOPDS_FAULT_PLAN");
    std::fs::remove_file(snap).ok();
}

#[test]
fn v1_snapshot_exits_1() {
    let snap = tiny_snapshot("v1");
    let mut bytes = std::fs::read(&snap).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&snap, bytes).unwrap();
    for extra in [None, Some("--mmap")] {
        let mut args = vec!["batch", "--snapshot", path_str(&snap)];
        args.extend(extra);
        let out = run(&args);
        assert_eq!(out.status.code(), Some(1), "serve {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("repro snapshot"), "{err}");
    }
    std::fs::remove_file(&snap).ok();
}
