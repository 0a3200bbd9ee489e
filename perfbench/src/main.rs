//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan-mca --seed 1 --seconds 15 --trace 0
//! ```
//!
//! It prints an environment stamp, one outcome line per pinned game seed,
//! every metric with unit and sample count, and — as the last line — one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics). It exits
//! 1 when any oracle fails and 2 on a usage or environment error. See
//! `perfbench/README.md` for the workloads and metrics.

mod measure;
mod planning;
mod report;
mod serving;

use std::process::ExitCode;

use report::Report;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["plan-mca", "zoo-cell", "serve-cold", "serve-net-hot"];

/// Parsed command line plus the pinned pool width.
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced run: telemetry on, per-layer metrics.
    pub traced: bool,
    /// Smoke-test sizes (the self-test); not used for measurements.
    pub tiny: bool,
    /// Arm the one-bit corruption of the first oracle comparison.
    pub flip_bit: bool,
    /// Kernel-pool lanes, pinned to the core count.
    pub lanes: usize,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15,
        traced: false,
        tiny: false,
        flip_bit: false,
        lanes,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => args.tiny = true,
            "--flip-bit" => args.flip_bit = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Pins every environment-driven default of the program, so a stray
/// variable in the caller's shell cannot change what is measured: the
/// dense backend (read by the `HetRecConfig`, `PdsConfig` and `XpConfig`
/// defaults), the thread budget, exact f64 scoring, and telemetry (off
/// until a traced section switches it on). Refuses an armed fault plan.
fn pin_environment(args: &Args) -> Result<(), String> {
    if std::env::var("MSOPDS_FAULT_PLAN").is_ok_and(|v| !v.trim().is_empty()) {
        return Err("MSOPDS_FAULT_PLAN is set; refusing to measure with faults armed".into());
    }
    std::env::set_var("MSOPDS_BACKEND", "dense");
    std::env::set_var("MSOPDS_THREADS", args.lanes.to_string());
    std::env::set_var("MSOPDS_PRECISION", "exact64");
    std::env::set_var("MSOPDS_METRICS", "0");
    msopds_telemetry::set_enabled(false);
    msopds_autograd::pool::configure_threads(args.lanes);
    Ok(())
}

/// The commit being measured, or `unknown` outside a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv).and_then(|a| pin_environment(&a).map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} lanes={} commit={} profile={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        msopds_autograd::pool::lanes(),
        commit(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    if args.flip_bit {
        measure::arm_flip();
    }

    let mut report = Report::default();
    match args.workload.as_str() {
        "plan-mca" => planning::run(planning::Kind::Mca, &args, &mut report),
        "zoo-cell" => planning::run(planning::Kind::Zoo, &args, &mut report),
        "serve-cold" => serving::run_cold(&args, &mut report),
        "serve-net-hot" => serving::run_net(&args, &mut report),
        _ => unreachable!("validated by parse"),
    }
    report.set("peak_rss_mb", measure::proc_status_mb("VmHWM"), 1);
    print!("{}", report.render(args.traced));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
