//! `serve` — answer top-K queries from a persisted model snapshot (written
//! by `repro snapshot`). One binary; the first argument picks the mode (see
//! `USAGE` for each mode's flags):
//!
//! - **batch** replays `--queries` user queries through a `ServeEngine` in
//!   batches of `--batch`.
//! - **load** offers `--requests` queries at `--offered` QPS, open loop, to
//!   an `AsyncServer` — the dynamic batcher with bounded admission — and
//!   reports admission→response tail latency.
//! - **listen ADDR** fronts that `AsyncServer` with a TCP `NetServer`
//!   (`127.0.0.1:0` binds an ephemeral port) until `SIGTERM`, then drains
//!   gracefully and prints the exact accounting
//!   `offered == completed + rejected + drained`. Its stderr ready line
//!   (`listening on ADDR (N users, …)`) is what harnesses scrape.
//! - **connect ADDR** drives `--requests` pipelined queries over `--users`
//!   users against a listening server.
//!
//! Every mode walks the same deterministic query stream
//! (`msopds_serve_async::stream_user`) and takes the `RuntimeConfig` flags
//! it shares with `repro`. Each prints a human summary to stderr and one
//! JSON object to stdout.
//!
//! Exit status: 0 success (including a drained `listen` run); 2 usage or
//! config error, including a malformed `MSOPDS_FAULT_PLAN`; 1 snapshot
//! load, bind, connect or runtime failure.

use std::net::ToSocketAddrs;
use std::path::PathBuf;
use std::time::Duration;

use msopds_serve::{ServeConfig, ServeEngine, ServingModel, SnapshotSource};
use msopds_serve_async::{
    run_open_loop, stream_user, AsyncServeConfig, AsyncServer, BatcherConfig, LoadGenConfig,
};
use msopds_serve_net::{
    drain_requested, install_drain_handler, NetClient, NetServeConfig, NetServer, RetryPolicy,
};
use msopds_xp::RuntimeConfig;

const USAGE: &str = "usage: serve batch --snapshot FILE [--mmap] [--batch N=64] [--queries Q=1024] [--top-k K=10] [--cache N=256]
       serve load --snapshot FILE [--mmap] [--requests N=4096] [--offered QPS=20000] [--top-k K=10] [--cache N=256]
       serve listen ADDR --snapshot FILE [--mmap] [--top-k K=10] [--cache N=256]
       serve connect ADDR [--requests N=4096] [--users N=64] [--query-deadline-us N=0]
every mode also takes [--threads N] [--backend dense|sparse] [--metrics-out FILE] [--deadline-us N] [--max-batch N] [--queue-cap N] [--conn-window N] [--drain-ms N]";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Batch,
    Load,
    Listen,
    Connect,
}

/// The mode flags and their defaults (see `USAGE`).
struct Opts {
    snapshot: Option<PathBuf>,
    mmap: bool,
    top_k: usize,
    cache: usize,
    batch: usize,
    queries: usize,
    requests: usize,
    offered_qps: f64,
    users: usize,
    query_deadline_us: u32,
}

impl Opts {
    /// The one flag loop. A flag another mode owns is a usage error, not
    /// silently ignored.
    fn parse(mode: Mode, args: &[String]) -> Result<Self, String> {
        use Mode::*;
        let mut o = Opts {
            snapshot: None,
            mmap: false,
            top_k: 10,
            cache: 256,
            batch: 64,
            queries: 1024,
            requests: 4096,
            offered_qps: 20_000.0,
            users: 64,
            query_deadline_us: 0,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let owners: &[Mode] = match flag.as_str() {
                "--snapshot" | "--mmap" | "--top-k" | "--cache" => &[Batch, Load, Listen],
                "--batch" | "--queries" => &[Batch],
                "--requests" => &[Load, Connect],
                "--offered" => &[Load],
                "--users" | "--query-deadline-us" => &[Connect],
                other => return Err(format!("unknown flag {other}")),
            };
            if !owners.contains(&mode) {
                return Err(format!("{flag} belongs to another mode"));
            }
            if flag == "--mmap" {
                o.mmap = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} requires a value"))?;
            let count = || match value.parse::<usize>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(format!("{flag} takes a positive integer")),
            };
            match flag.as_str() {
                "--snapshot" => o.snapshot = Some(PathBuf::from(value)),
                "--top-k" => o.top_k = count()?,
                "--cache" => {
                    o.cache = value.parse().map_err(|_| format!("{flag} takes an integer"))?
                }
                "--batch" => o.batch = count()?,
                "--queries" => o.queries = count()?,
                "--requests" => o.requests = count()?,
                "--offered" => {
                    o.offered_qps = value
                        .parse()
                        .ok()
                        .filter(|&q: &f64| q > 0.0)
                        .ok_or_else(|| format!("{flag} takes a positive rate"))?
                }
                "--users" => o.users = count()?,
                _ => {
                    o.query_deadline_us =
                        value.parse().map_err(|_| format!("{flag} takes an integer"))?
                }
            }
        }
        if mode != Connect && o.snapshot.is_none() {
            return Err("--snapshot FILE is required".to_string());
        }
        Ok(o)
    }

    /// The shared snapshot loader: `--snapshot` (plus `--mmap`) through
    /// `ServingModel::open`.
    fn load_model(&self) -> Result<ServingModel, i32> {
        let path = self.snapshot.as_ref().expect("checked at parse time");
        let source =
            if self.mmap { SnapshotSource::mmap(path) } else { SnapshotSource::file(path) };
        let model = ServingModel::open(&source).map_err(|e| {
            eprintln!("serve: cannot load {}: {e}", path.display());
            1
        })?;
        eprintln!(
            "serve: {:?} model, {} users × {} items, dim {} (trained on {} backend, seed {}){}",
            model.kind(),
            model.n_users(),
            model.n_items(),
            model.dim(),
            model.backend(),
            model.seed(),
            if model.is_zero_copy() { ", zero-copy mmap" } else { "" }
        );
        Ok(model)
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig { top_k: self.top_k, cache_capacity: self.cache, ..ServeConfig::default() }
    }

    fn async_config(&self, runtime: &RuntimeConfig) -> AsyncServeConfig {
        AsyncServeConfig {
            batcher: BatcherConfig {
                deadline: Duration::from_micros(runtime.deadline_us),
                max_batch: runtime.max_batch,
                queue_cap: runtime.queue_cap,
            },
            serve: self.serve_config(),
        }
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, flags_at) = match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => usage_error("missing mode"),
        Some("batch") => (Mode::Batch, 1),
        Some("load") => (Mode::Load, 1),
        Some("listen") => (Mode::Listen, 2),
        Some("connect") => (Mode::Connect, 2),
        Some(other) => usage_error(&format!("unknown mode {other:?}")),
    };
    let addr = match args.get(1) {
        Some(a) if flags_at == 2 && !a.starts_with("--") => a.clone(),
        _ if flags_at == 2 => usage_error(&format!("{} requires ADDR", args[0])),
        _ => String::new(),
    };

    let (runtime, rest) =
        RuntimeConfig::parse(&args[flags_at..]).unwrap_or_else(|e| usage_error(&e));
    let opts = Opts::parse(mode, &rest).unwrap_or_else(|e| usage_error(&e));

    runtime.install();
    msopds_autograd::pool::configure_threads(runtime.threads);
    let code = match mode {
        Mode::Batch => run_batch(&opts),
        Mode::Load => run_load(&opts, &runtime),
        Mode::Listen => run_listen(&addr, &opts, &runtime),
        Mode::Connect => run_connect(&addr, &opts, &runtime),
    };
    runtime.export_metrics();
    std::process::exit(code.err().unwrap_or(0));
}

/// Batch mode: the query stream through the synchronous engine.
fn run_batch(opts: &Opts) -> Result<(), i32> {
    let model = opts.load_model()?;
    let n_users = model.n_users();
    let mut engine = ServeEngine::new(model, opts.serve_config());
    let stream: Vec<usize> = (0..opts.queries).map(|q| stream_user(q, n_users)).collect();
    for chunk in stream.chunks(opts.batch) {
        engine.serve_batch(chunk);
    }

    let s = engine.summary();
    eprintln!(
        "serve: {} queries in {} batches — {:.0} users/sec, p50 {} µs, p99 {} µs, {} cache hits / {} misses",
        s.queries,
        s.batches,
        s.users_per_sec,
        s.p50_us,
        s.p99_us,
        s.cache_hits,
        s.cache_misses
    );
    println!(
        "{{\"queries\":{},\"batches\":{},\"batch\":{},\"top_k\":{},\"users_per_sec\":{:.1},\"mean_us\":{:.1},\"p50_us\":{},\"p99_us\":{},\"cache_hits\":{},\"cache_misses\":{}}}",
        s.queries,
        s.batches,
        opts.batch,
        opts.top_k,
        s.users_per_sec,
        s.mean_us,
        s.p50_us,
        s.p99_us,
        s.cache_hits,
        s.cache_misses
    );
    Ok(())
}

/// Load mode: open-loop load through the in-process async tier.
fn run_load(opts: &Opts, runtime: &RuntimeConfig) -> Result<(), i32> {
    let model = opts.load_model()?;
    let server = AsyncServer::start(model, opts.async_config(runtime));
    let report = run_open_loop(
        &server,
        &LoadGenConfig { requests: opts.requests, offered_qps: opts.offered_qps },
    );
    let stats = server.shutdown();

    eprintln!(
        "serve: offered {:.0} qps (achieved {:.0}) — {}/{} accepted, {} shed, {:.0} completions/sec, fill {:.1}, p50 {} µs p99 {} µs p99.9 {} µs",
        report.offered_qps,
        report.achieved_qps,
        report.accepted,
        report.offered,
        report.rejected,
        report.completed_per_sec,
        report.mean_batch_fill,
        report.latency.p50_us,
        report.latency.p99_us,
        report.latency.p999_us,
    );
    println!(
        "{{\"requests\":{},\"offered_qps\":{:.1},\"achieved_qps\":{:.1},\"accepted\":{},\"rejected\":{},\"completed\":{},\"completed_per_sec\":{:.1},\"batches\":{},\"flush_full\":{},\"flush_deadline\":{},\"flush_shutdown\":{},\"flush_idle\":{},\"mean_batch_fill\":{:.2},\"deadline_us\":{},\"max_batch\":{},\"queue_cap\":{},\"top_k\":{},\"mean_us\":{:.1},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"cache_hits\":{},\"cache_misses\":{}}}",
        opts.requests,
        report.offered_qps,
        report.achieved_qps,
        report.accepted,
        report.rejected,
        report.completed,
        report.completed_per_sec,
        stats.batcher.batches,
        stats.batcher.flush_full,
        stats.batcher.flush_deadline,
        stats.batcher.flush_shutdown,
        stats.batcher.flush_idle,
        report.mean_batch_fill,
        runtime.deadline_us,
        runtime.max_batch,
        runtime.queue_cap,
        opts.top_k,
        report.latency.mean_us,
        report.latency.p50_us,
        report.latency.p99_us,
        report.latency.p999_us,
        stats.engine.cache_hits,
        stats.engine.cache_misses,
    );
    Ok(())
}

/// Listen mode: serve over TCP until SIGTERM, then drain gracefully and
/// report the exact accounting.
fn run_listen(addr: &str, opts: &Opts, runtime: &RuntimeConfig) -> Result<(), i32> {
    let model = opts.load_model()?;
    let n_users = model.n_users();
    let net_cfg = NetServeConfig {
        conn_window: runtime.conn_window,
        drain_ms: runtime.drain_ms,
        ..NetServeConfig::default()
    };
    install_drain_handler().map_err(|e| {
        eprintln!("serve: cannot install SIGTERM handler: {e}");
        1
    })?;
    let server = AsyncServer::start(model, opts.async_config(runtime));
    let net = NetServer::start(addr, server, net_cfg).map_err(|e| {
        eprintln!("serve: cannot bind {addr}: {e}");
        1
    })?;
    // The ready line carries the resolved port (`listen 127.0.0.1:0` binds
    // ephemeral) so harnesses can scrape where to connect.
    eprintln!(
        "serve: listening on {} ({} users, top-{}, window {}, drain bound {} ms)",
        net.local_addr(),
        n_users,
        opts.top_k,
        runtime.conn_window,
        runtime.drain_ms,
    );

    while !drain_requested() {
        std::thread::sleep(Duration::from_millis(25));
    }
    eprintln!("serve: SIGTERM — draining");
    let stats = net.drain();
    eprintln!(
        "serve: drained — offered {} = completed {} + rejected {} + drained {} (balanced: {})",
        stats.offered,
        stats.completed,
        stats.rejected,
        stats.drained,
        stats.balanced(),
    );
    println!(
        "{{\"offered\":{},\"completed\":{},\"rejected\":{},\"rejected_overload\":{},\"rejected_unknown_user\":{},\"rejected_deadline\":{},\"drained\":{},\"undelivered\":{},\"balanced\":{},\"conns_accepted\":{},\"conns_evicted\":{},\"torn_disconnects\":{},\"codec_errors\":{},\"deadline_us\":{},\"max_batch\":{},\"queue_cap\":{},\"conn_window\":{},\"drain_ms\":{},\"top_k\":{}}}",
        stats.offered,
        stats.completed,
        stats.rejected,
        stats.rejected_overload,
        stats.rejected_unknown_user,
        stats.rejected_deadline,
        stats.drained,
        stats.undelivered,
        stats.balanced(),
        stats.conns_accepted,
        stats.conns_evicted,
        stats.torn_disconnects,
        stats.codec_errors,
        runtime.deadline_us,
        runtime.max_batch,
        runtime.queue_cap,
        runtime.conn_window,
        runtime.drain_ms,
        opts.top_k,
    );
    if !stats.balanced() {
        eprintln!("serve: accounting identity violated after drain");
        return Err(1);
    }
    Ok(())
}

/// Connect mode: pipelined load over the shared deterministic user stream.
fn run_connect(addr: &str, opts: &Opts, runtime: &RuntimeConfig) -> Result<(), i32> {
    let resolved = match addr.to_socket_addrs().map(|mut a| a.next()) {
        Ok(Some(a)) => a,
        Ok(None) | Err(_) => usage_error(&format!("serve: cannot resolve {addr}")),
    };
    let mut client = NetClient::connect(resolved, RetryPolicy::default()).map_err(|e| {
        eprintln!("serve: cannot connect to {resolved}: {e:?}");
        1
    })?;
    let report = client
        .run_pipelined(opts.requests as u64, runtime.conn_window, opts.query_deadline_us, |i| {
            stream_user(i as usize, opts.users) as u64
        })
        .map_err(|e| {
            eprintln!("serve: pipelined run failed: {e:?}");
            1
        })?;
    let secs = report.elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "serve: {} offered in {:.3}s — {} completed ({:.0}/sec), {} rejected ({} overload, {} deadline), {} drained, p50 {} µs p99 {} µs",
        report.offered,
        secs,
        report.completed,
        report.completed as f64 / secs,
        report.rejected,
        report.rejected_overload,
        report.rejected_deadline,
        report.drained,
        report.latency_pct_us(0.50),
        report.latency_pct_us(0.99),
    );
    println!(
        "{{\"offered\":{},\"completed\":{},\"completed_per_sec\":{:.1},\"rejected\":{},\"rejected_overload\":{},\"rejected_deadline\":{},\"drained\":{},\"elapsed_s\":{:.4},\"p50_us\":{},\"p99_us\":{},\"window\":{},\"users\":{},\"query_deadline_us\":{}}}",
        report.offered,
        report.completed,
        report.completed as f64 / secs,
        report.rejected,
        report.rejected_overload,
        report.rejected_deadline,
        report.drained,
        secs,
        report.latency_pct_us(0.50),
        report.latency_pct_us(0.99),
        runtime.conn_window,
        opts.users,
        opts.query_deadline_us,
    );
    Ok(())
}
