//! The `serve` binary end to end, one process per mode, on a tiny snapshot:
//! the stdout JSON identities of `batch` and `load`, a `listen` → `connect`
//! → SIGTERM drain with balanced books, and the exit-code convention
//! (2 usage or config error, 1 load failure).

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use msopds_autograd::Tensor;
use msopds_recsys::snapshot::{ModelKind, Snapshot, SnapshotHeader};
use msopds_recsys::Backend;
use serde::{DeError, Deserialize, Value};

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

fn serve(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_serve"));
    cmd.args(args).env_remove("MSOPDS_FAULT_PLAN");
    cmd
}

fn run(args: &[&str]) -> Output {
    serve(args).output().expect("spawn serve")
}

/// One stdout JSON object.
#[derive(Debug)]
struct Json(Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

impl Json {
    fn parse(stdout: &[u8]) -> Self {
        let text = std::str::from_utf8(stdout).expect("utf-8 stdout");
        serde_json::from_str(text).expect("stdout is one JSON object")
    }

    fn int(&self, key: &str) -> u64 {
        self.0.field(key).as_u64().unwrap_or_else(|| panic!("{key} missing from {self:?}"))
    }

    fn float(&self, key: &str) -> f64 {
        self.0.field(key).as_f64().unwrap_or_else(|| panic!("{key} missing from {self:?}"))
    }
}

/// Runs a mode that must succeed and returns its stdout JSON.
fn run_json(args: &[&str]) -> Json {
    let out = run(args);
    assert!(
        out.status.success(),
        "serve {args:?} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(&out.stdout)
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
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
}

#[cfg(unix)]
#[test]
fn listen_connect_then_sigterm_drains_balanced() {
    let snap = tiny_snapshot("net");
    let mut server = serve(&["listen", "127.0.0.1:0", "--snapshot", path_str(&snap)])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn listener");
    // Scrape the ready line the way CI does: address and user count.
    let mut log = BufReader::new(server.stderr.take().expect("piped stderr"));
    let ready = loop {
        let mut line = String::new();
        assert!(log.read_line(&mut line).expect("read stderr") > 0, "listener exited early");
        if line.contains("listening on ") {
            break line;
        }
    };
    let rest = ready.split("listening on ").nth(1).expect("ready line");
    let (addr, rest) = rest.split_once(" (").expect("address then user count");
    let users = rest.split_once(" users").expect("user count").0;
    assert_eq!(users, USERS.to_string(), "{ready}");

    let client = run_json(&["connect", addr, "--requests", "2000", "--users", users]);
    assert_eq!(client.int("completed"), 2000, "{client:?}");

    let killed = Command::new("kill").args(["-TERM", &server.id().to_string()]).status();
    assert!(killed.expect("run kill").success());
    std::thread::spawn(move || std::io::copy(&mut log, &mut std::io::sink()));
    let out = server.wait_with_output().expect("wait for listener");
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
