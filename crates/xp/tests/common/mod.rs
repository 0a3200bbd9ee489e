//! Process helpers for the tests that drive the `serve` binary: spawn a
//! mode, parse its stdout JSON, and run a `serve listen` on an ephemeral
//! loopback port. Each test binary uses a subset of them.
#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{ChildStderr, Command, Output, Stdio};

use serde::{DeError, Deserialize, Value};

pub fn serve(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_serve"));
    cmd.args(args).env_remove("MSOPDS_FAULT_PLAN");
    cmd
}

pub fn run(args: &[&str]) -> Output {
    serve(args).output().expect("spawn serve")
}

/// One stdout JSON object.
#[derive(Debug)]
pub struct Json(pub Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

impl Json {
    pub fn parse(stdout: &[u8]) -> Self {
        let text = std::str::from_utf8(stdout).expect("utf-8 stdout");
        serde_json::from_str(text).expect("stdout is one JSON object")
    }

    pub fn int(&self, key: &str) -> u64 {
        self.0.field(key).as_u64().unwrap_or_else(|| panic!("{key} missing from {self:?}"))
    }

    pub fn float(&self, key: &str) -> f64 {
        self.0.field(key).as_f64().unwrap_or_else(|| panic!("{key} missing from {self:?}"))
    }
}

/// Checks that a mode succeeded and returns its stdout JSON.
pub fn json_of(args: &[&str], out: Output) -> Json {
    assert!(
        out.status.success(),
        "serve {args:?} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(&out.stdout)
}

/// Runs a mode that must succeed and returns its stdout JSON.
pub fn run_json(args: &[&str]) -> Json {
    json_of(args, run(args))
}

pub fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

/// A `serve listen 127.0.0.1:0` process, past its stderr ready line.
pub struct Listener {
    child: std::process::Child,
    log: BufReader<ChildStderr>,
    /// The bound address, scraped from the ready line.
    pub addr: String,
    /// The served user count, scraped from the ready line.
    pub users: String,
}

impl Listener {
    /// Spawns `serve listen` on an ephemeral port over `snapshot` (plus
    /// `extra` flags) and scrapes the ready line the way CI does.
    pub fn spawn(snapshot: &Path, extra: &[&str]) -> Self {
        let mut args = vec!["listen", "127.0.0.1:0", "--snapshot", path_str(snapshot)];
        args.extend(extra);
        let mut child = serve(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn listener");
        let mut log = BufReader::new(child.stderr.take().expect("piped stderr"));
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
        Listener { addr: addr.to_string(), users: users.to_string(), child, log }
    }

    /// Sends SIGTERM, waits for the drain and returns the listener's output.
    pub fn sigterm(self) -> Output {
        let Listener { child, mut log, .. } = self;
        let killed = Command::new("kill").args(["-TERM", &child.id().to_string()]).status();
        assert!(killed.expect("run kill").success());
        std::thread::spawn(move || std::io::copy(&mut log, &mut std::io::sink()));
        child.wait_with_output().expect("wait for listener")
    }
}
