//! Self-test of the benchmark, at smoke-test sizes (`--tiny`):
//!
//! * every workload runs clean, traced and untraced, and prints exactly the
//!   metric names and units `BENCHMARK.json` declares;
//! * a one-bit corruption of an observed score or outcome trips every
//!   workload's oracle and fails the run;
//! * game outcomes are pinned across processes;
//! * usage errors and an armed fault plan are refused without a result.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

use serde::{DeError, Deserialize, Value};

const WORKLOADS: [&str; 4] = ["plan-mca", "zoo-cell", "serve-cold", "serve-net-hot"];

/// Any JSON document, as the vendored data model.
struct Json(Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

fn parse(text: &str) -> Value {
    serde_json::from_str::<Json>(text).unwrap_or_else(|e| panic!("bad JSON {text:?}: {e}")).0
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

/// `(name, unit)` of every entry of the `BENCHMARK.json` list `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = parse(&std::fs::read_to_string(&path).expect("read BENCHMARK.json"));
    let Value::Seq(entries) = spec.field(key) else { panic!("{key} is not a list") };
    entries
        .iter()
        .map(|e| (str_of(e.field("name")).to_string(), str_of(e.field("unit")).to_string()))
        .collect()
}

struct Run {
    code: Option<i32>,
    stdout: String,
}

impl Run {
    fn result(&self) -> Value {
        parse(self.stdout.lines().last().expect("a result line"))
    }

    fn outcome_lines(&self) -> Vec<&str> {
        self.stdout.lines().filter(|l| l.starts_with("outcome ")).collect()
    }
}

fn run(workload: &str, seed: u64, extra: &[&str]) -> Run {
    run_with_env(workload, seed, extra, &[])
}

fn run_with_env(workload: &str, seed: u64, extra: &[&str], env: &[(&str, &str)]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "2", "--tiny"])
        .args(extra)
        .envs(env.iter().copied())
        .output()
        .expect("spawn perfbench");
    Run { code: out.status.code(), stdout: String::from_utf8(out.stdout).expect("utf-8 stdout") }
}

fn metrics_of(result: &Value) -> Vec<(String, String, f64)> {
    let Value::Map(entries) = result.field("metrics") else { panic!("metrics is not an object") };
    entries
        .iter()
        .map(|(name, m)| {
            let value = m.field("value").as_f64().expect("numeric value");
            (name.clone(), str_of(m.field("unit")).to_string(), value)
        })
        .collect()
}

#[test]
fn every_workload_prints_the_declared_metrics() {
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(key);
        for workload in WORKLOADS {
            let run = run(workload, 3, &["--trace", trace]);
            assert_eq!(run.code, Some(0), "{workload} trace {trace}:\n{}", run.stdout);
            let result = run.result();
            let Value::Map(keys) = &result else { panic!("result is not an object") };
            let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.field("correct"), &Value::Bool(true));
            assert_eq!(result.field("failed").as_u64(), Some(0));
            assert!(result.field("attempted").as_u64().unwrap() >= 1);
            let got = metrics_of(&result);
            let names: Vec<(String, String)> =
                got.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect();
            assert_eq!(names, want, "{workload} trace {trace}");
            if trace == "0" {
                for (name, _, value) in &got {
                    assert!(*value > 0.0, "{workload}: end-to-end {name} reads {value}");
                }
            }
        }
    }
}

#[test]
fn a_flipped_bit_trips_every_oracle() {
    for workload in WORKLOADS {
        let run = run(workload, 4, &["--trace", "0", "--flip-bit"]);
        assert_eq!(run.code, Some(1), "{workload} must fail:\n{}", run.stdout);
        let result = run.result();
        assert_eq!(result.field("correct"), &Value::Bool(false), "{workload}");
        assert!(result.field("failed").as_u64().unwrap() >= 1, "{workload}");
    }
}

#[test]
fn game_outcomes_are_pinned_across_processes() {
    for workload in ["plan-mca", "zoo-cell"] {
        let a = run(workload, 5, &["--trace", "0"]);
        let b = run(workload, 5, &["--trace", "0"]);
        let c = run(workload, 6, &["--trace", "0"]);
        assert!(!a.outcome_lines().is_empty(), "{workload} prints outcomes");
        assert_eq!(a.outcome_lines(), b.outcome_lines(), "{workload}: same seed, same bits");
        assert_ne!(a.outcome_lines(), c.outcome_lines(), "{workload}: the seed picks the games");
    }
}

#[test]
fn refuses_bad_usage_and_armed_faults_without_a_result() {
    let faulted = run_with_env(
        "plan-mca",
        1,
        &["--trace", "0"],
        &[("MSOPDS_FAULT_PLAN", "seed=1;xp.cell=panic@1")],
    );
    let unknown = run("no-such-workload", 1, &["--trace", "0"]);
    let bad_trace = run("plan-mca", 1, &["--trace", "2"]);
    for r in [faulted, unknown, bad_trace] {
        assert_eq!(r.code, Some(2));
        assert!(!r.stdout.contains("\"correct\""), "no result may be printed:\n{}", r.stdout);
    }
}
