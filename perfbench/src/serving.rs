//! The serving workloads.
//!
//! * `serve-cold`: a planted MF model over a 200k-user × 50k-item world,
//!   streamed from `WorldBuilder`, written by `SnapshotWriter` and opened by
//!   mmap, served by an in-process `AsyncServer` whose 256-entry LRU almost
//!   never hits on the uniform user stream. Saturate slices (closed loop,
//!   one thread, fixed ticket window) give the throughput; paced slices
//!   (open loop at a fixed rate far below capacity, with hot swaps between
//!   two snapshots of the same world running beside it) give the latency,
//!   timed from each query's scheduled send time. The two alternate in
//!   rounds over the whole run.
//! * `serve-net-hot`: a trained HetRec victim behind `NetServer` on
//!   loopback, its LRU warmed over the whole user universe, driven by one
//!   `NetClient` connection with a pipelined window (closed loop). Nearly
//!   every query is a cache hit, so the codec, poll loop and batcher
//!   bookkeeping dominate.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use msopds_het_graph::CsrBuilder;
use msopds_recdata::{DatasetSpec, WorldBuilder};
use msopds_recsys::snapshot::{ModelKind, SnapshotHeader, SnapshotWriter, TensorDecl};
use msopds_recsys::Backend;
use msopds_serve::{ScorePrecision, ScoredItem, ServeConfig, ServingModel, SnapshotSource};
use msopds_serve_async::{
    stream_user, AsyncServeConfig, AsyncServer, AsyncStats, BatcherConfig, PauseHandle, Ticket,
};
use msopds_serve_net::{Frame, FrameDecoder, NetClient, NetServeConfig, NetServer, RetryPolicy};
use msopds_telemetry as telemetry;
use msopds_xp::{train_clean_victim, DatasetKind, XpConfig};

use crate::measure::{
    counter, gauge, median, mix, percentile, proc_status_mb, same_bits, UsHistogram,
};
use crate::report::Report;
use crate::Args;

const TOP_K: usize = 10;
/// Batcher settings of the repository's serving benches.
const DEADLINE: Duration = Duration::from_micros(200);
const MAX_BATCH: usize = 256;
const QUEUE_CAP: usize = 8192;
/// The engine's default hot-user LRU.
const CACHE_ENTRIES: usize = 256;
/// Setup repetitions per run; `setup_s` is their median. A `serve-cold`
/// set-up takes seconds, a `serve-net-hot` one a fraction of a second.
const COLD_SETUP_REPS: usize = 5;
const NET_SETUP_REPS: usize = 7;

/// Planted-model dimensions of `serve-cold`.
const COLD_DIM: usize = 8;
const CHUNK_ROWS: usize = 65_536;
/// Saturate-phase tickets in flight: two full batches, so the dispatcher
/// always finds a full batch waiting.
const SATURATE_WINDOW: usize = 2 * MAX_BATCH;
/// Paced-phase offered rate: far below the ~5k users/s capacity.
const PACED_QPS: f64 = 1500.0;
/// Hot-swap period of the paced slices.
const SWAP_EVERY: Duration = Duration::from_millis(500);
/// Untimed saturate warm-up before the measured phases.
const WARMUP_QUERIES: u64 = 2048;
/// Rounds of (saturate slice, paced slice) per run. Interleaving spreads
/// both measurements over the whole run, so a stretch of host load lands
/// on both phases instead of filling one of them.
const COLD_ROUNDS: usize = 4;
/// Share of each round given to its saturate slice.
const SATURATE_SHARE: f64 = 0.5;
/// Nominal saturate rate, about the measured capacity, that sizes each
/// saturate slice's fixed work from `--seconds`.
const COLD_NOMINAL_QPS: f64 = 5000.0;
/// Completions per throughput sample; `ops_per_s` is the median sample.
const RATE_CHUNK: u64 = 1024;
/// Every this many queries one answer is kept for the oracle.
const SAMPLE_EVERY: u64 = 16;

/// `serve-net-hot` pipelined window and requests per `run_pipelined` call.
const NET_WINDOW: usize = 64;
const NET_CHUNK: u64 = 32_768;
/// Nominal `serve-net-hot` rate that sizes a run's fixed work from
/// `--seconds`.
const NET_NOMINAL_QPS: f64 = 150_000.0;

fn server_config() -> AsyncServeConfig {
    AsyncServeConfig {
        batcher: BatcherConfig { deadline: DEADLINE, max_batch: MAX_BATCH, queue_cap: QUEUE_CAP },
        serve: ServeConfig {
            top_k: TOP_K,
            cache_capacity: CACHE_ENTRIES,
            precision: ScorePrecision::Exact64,
        },
    }
}

/// Runs `stop`, which shuts down the `AsyncServer` that `handle` controls,
/// while waking that server's dispatcher every millisecond.
/// `AsyncServer::shutdown` raises its flag and sends a single wake-up
/// without holding the queue lock, so a dispatcher caught between its flag
/// check and its wait misses the wake-up and the join never returns.
/// `resume`, a no-op on a server that is not paused, repeats the wake-up
/// until the dispatcher has seen the flag.
fn waking<R>(handle: PauseHandle, stop: impl FnOnce() -> R) -> R {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                handle.resume();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let out = stop();
        done.store(true, Ordering::SeqCst);
        out
    })
}

/// `AsyncServer::shutdown`, safe against the lost wake-up (see [`waking`]).
fn shut_down(server: AsyncServer) -> AsyncStats {
    waking(server.pause_handle(), || server.shutdown())
}

/// True when `got` is `want` bit for bit.
fn same_answer(want: &[ScoredItem], got: &[ScoredItem]) -> bool {
    want.len() == got.len()
        && want.iter().zip(got).all(|(w, g)| w.item == g.item && same_bits(w.score, g.score))
}

/// Scratch directory for snapshot files, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<Self> {
        let dir = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Ciao's density profile (≈17 ratings and ≈19 links per user) carried to
/// the served world's size.
fn cold_spec(tiny: bool) -> DatasetSpec {
    let (n_users, n_items) = if tiny { (20_000, 5_000) } else { (200_000, 50_000) };
    let mut spec = DatasetSpec::ciao();
    spec.name = format!("ciao-cold-{n_users}");
    spec.n_users = n_users;
    spec.n_items = n_items;
    spec.n_ratings = n_users * 17;
    spec.n_links = n_users * 19;
    spec.latent_dim = COLD_DIM;
    spec
}

/// The two planted models of one world (same factors and fingerprints,
/// different item biases, so their answers differ) and their files.
struct ColdModels {
    a: ServingModel,
    b: ServingModel,
    paths: [PathBuf; 2],
}

/// One `serve-cold` setup: stream the world, write both snapshots, mmap
/// them. Returns the models and (world build, snapshot write, mmap open)
/// seconds.
fn build_cold(spec: &DatasetSpec, seed: u64, dir: &Path) -> (ColdModels, [f64; 3]) {
    let start = Instant::now();
    let builder = WorldBuilder::streaming(spec.clone(), seed);
    let mut social = CsrBuilder::with_capacity(spec.n_users, spec.n_links);
    let mut user_latent = Vec::with_capacity(spec.n_users * COLD_DIM);
    builder.for_each_chunk(CHUNK_ROWS, |chunk| {
        social.add_edges(chunk.social_edges.iter().copied());
        user_latent.extend_from_slice(&chunk.user_latent);
    });
    let social = social.finish();
    let item_latent = builder.item_latent();
    let build_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let (n_users, n_items) = (spec.n_users, spec.n_items);
    let header = SnapshotHeader {
        kind: ModelKind::Mf,
        backend: Backend::Dense,
        seed,
        social_fingerprint: social.fingerprint(),
        item_fingerprint: 0,
        n_users: n_users as u64,
        n_items: n_items as u64,
        mu: 3.5,
    };
    let paths = [dir.join("planted-a.snap"), dir.join("planted-b.snap")];
    let zeros = vec![0.0f64; n_users.max(n_items)];
    let shifted: Vec<f64> = (0..n_items as u64)
        .map(|i| ((mix(seed ^ (i << 20)) >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.5)
        .collect();
    for (path, b_i) in paths.iter().zip([&zeros[..n_items], &shifted[..]]) {
        let mut writer = SnapshotWriter::create(
            path,
            header,
            "{\"planted\":true}",
            vec![
                TensorDecl::matrix("p", n_users, COLD_DIM),
                TensorDecl::matrix("q", n_items, COLD_DIM),
                TensorDecl::vector("b_u", n_users),
                TensorDecl::vector("b_i", n_items),
            ],
        )
        .expect("create snapshot");
        writer.write(&user_latent).expect("write user factors");
        writer.write(&item_latent).expect("write item factors");
        writer.write(&zeros[..n_users]).expect("write user biases");
        writer.write(b_i).expect("write item biases");
        writer.finish().expect("seal snapshot");
    }
    let write_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let a = ServingModel::open(&SnapshotSource::mmap(&paths[0])).expect("mmap snapshot a");
    let b = ServingModel::open(&SnapshotSource::mmap(&paths[1])).expect("mmap snapshot b");
    let open_s = start.elapsed().as_secs_f64() / 2.0;
    (ColdModels { a, b, paths }, [build_s, write_s, open_s])
}

/// The uniform user stream of `serve-cold`.
fn cold_user(seed: u64, i: u64, n_users: usize) -> usize {
    (mix(seed.wrapping_mul(0x0000_0100_0000_01B3) ^ i) % n_users as u64) as usize
}

/// An answer kept for the oracle: user, index of the model live for the
/// query's whole lifetime (0 = a, 1 = b), answer.
type Sample = (usize, usize, Arc<Vec<ScoredItem>>);

/// What the load generator keeps besides latencies: answers for the
/// oracle, and the wall time of every `submit` call.
#[derive(Default)]
struct Books {
    samples: Vec<Sample>,
    submit_secs: Vec<f64>,
}

/// Closed loop with a fixed ticket window over queries `first..first + n`.
/// Returns the completion rate of each run of [`RATE_CHUNK`] completions.
fn saturate(
    server: &AsyncServer,
    seed: u64,
    first: u64,
    n: u64,
    report: &mut Report,
    books: &mut Books,
) -> Vec<f64> {
    let n_users = server.n_users();
    let mut window: VecDeque<(u64, usize, Ticket)> = VecDeque::with_capacity(SATURATE_WINDOW);
    let (mut next, mut completed) = (first, 0u64);
    let mut rates = Vec::new();
    let mut chunk_start = Instant::now();
    loop {
        while next < first + n && window.len() < SATURATE_WINDOW {
            let user = cold_user(seed, next, n_users);
            let t = Instant::now();
            let submitted = server.submit(user);
            books.submit_secs.push(t.elapsed().as_secs_f64());
            match submitted {
                Ok(ticket) => window.push_back((next, user, ticket)),
                Err(e) => {
                    eprintln!("perfbench: submit refused: {e}");
                    report.op(false);
                }
            }
            next += 1;
        }
        let Some((i, user, ticket)) = window.pop_front() else { break };
        match ticket.wait() {
            Ok(answer) => {
                report.op(true);
                completed += 1;
                if i % SAMPLE_EVERY == 0 {
                    books.samples.push((user, 0, answer));
                }
                if completed % RATE_CHUNK == 0 {
                    rates.push(RATE_CHUNK as f64 / chunk_start.elapsed().as_secs_f64());
                    chunk_start = Instant::now();
                }
            }
            Err(e) => {
                eprintln!("perfbench: ticket failed: {e}");
                report.op(false);
            }
        }
    }
    rates
}

/// What a paced slice measured.
#[derive(Default)]
struct Paced {
    latencies_s: Vec<f64>,
    lag_s: Vec<f64>,
    swap_s: Vec<f64>,
}

/// Open loop at [`PACED_QPS`] for `secs`, hot-swapping between the two
/// snapshots every [`SWAP_EVERY`].
fn paced(
    server: &AsyncServer,
    models: &ColdModels,
    seed: u64,
    first: u64,
    secs: f64,
    report: &mut Report,
    books: &mut Books,
) -> Paced {
    let n_users = server.n_users();
    let n = (PACED_QPS * secs) as u64;
    let interval = Duration::from_secs_f64(1.0 / PACED_QPS);
    // Even = no swap in flight; `epoch / 2` swaps have completed, so the
    // live model is a when that count is even.
    let epoch = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut out = Paced::default();
    std::thread::scope(|s| {
        let swapper = s.spawn(|| {
            let mut swaps = Vec::new();
            let mut next_at = Instant::now() + SWAP_EVERY;
            let mut to = 1;
            while !stop.load(Ordering::SeqCst) {
                let now = Instant::now();
                if now < next_at {
                    std::thread::sleep((next_at - now).min(Duration::from_millis(20)));
                    continue;
                }
                epoch.fetch_add(1, Ordering::SeqCst);
                let t = Instant::now();
                let swapped = server.swap_source(&SnapshotSource::mmap(&models.paths[to]));
                swaps.push((t.elapsed().as_secs_f64(), swapped.is_ok()));
                epoch.fetch_add(1, Ordering::SeqCst);
                to ^= 1;
                next_at += SWAP_EVERY;
            }
            swaps
        });
        let (tx, rx) = mpsc::channel::<(u64, usize, Instant, u64, Ticket)>();
        let epoch_ref = &epoch;
        let collector = s.spawn(move || {
            let (mut lat, mut kept, mut failed) = (Vec::new(), Vec::new(), 0u64);
            for (i, user, due, e0, ticket) in rx {
                let answer = ticket.wait();
                let done = Instant::now();
                let e1 = epoch_ref.load(Ordering::SeqCst);
                match answer {
                    Ok(answer) => {
                        lat.push((done - due).as_secs_f64());
                        if i % SAMPLE_EVERY == 0 && e0 == e1 && e0 % 2 == 0 {
                            kept.push((user, ((e0 / 2) % 2) as usize, answer));
                        }
                    }
                    Err(e) => {
                        eprintln!("perfbench: ticket failed: {e}");
                        failed += 1;
                    }
                }
            }
            (lat, kept, failed)
        });

        let start = Instant::now();
        for k in 0..n {
            let due = start + interval.mul_f64(k as f64);
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                let gap = due - now;
                if gap > Duration::from_micros(500) {
                    std::thread::sleep(gap - Duration::from_micros(200));
                } else {
                    std::thread::yield_now();
                }
            }
            out.lag_s.push(due.elapsed().as_secs_f64());
            let i = first + k;
            let user = cold_user(seed, i, n_users);
            let e0 = epoch.load(Ordering::SeqCst);
            let t = Instant::now();
            let submitted = server.submit(user);
            books.submit_secs.push(t.elapsed().as_secs_f64());
            match submitted {
                Ok(ticket) => tx.send((i, user, due, e0, ticket)).expect("collector alive"),
                Err(e) => {
                    eprintln!("perfbench: submit refused: {e}");
                    report.op(false);
                }
            }
        }
        drop(tx);
        let (lat, kept, failed) = collector.join().expect("collector thread");
        stop.store(true, Ordering::SeqCst);
        let swaps = swapper.join().expect("swapper thread");
        report.ops(lat.len() as u64, failed);
        if let Some(bad) = swaps.iter().position(|&(_, ok)| !ok) {
            report.violation(format!("hot swap {bad} was refused"));
        }
        out.swap_s = swaps.iter().map(|&(s, _)| s).collect();
        out.latencies_s = lat;
        books.samples.extend(kept);
    });
    out
}

/// Mean wall time per user of `f` over fresh uniform batches of `batch`
/// users, for about `secs`.
fn per_user_us(
    model: &ServingModel,
    seed: u64,
    batch: usize,
    secs: f64,
    f: impl Fn(&ServingModel, &[usize]),
) -> f64 {
    let (mut users, mut i) = (0usize, 0u64);
    let start = Instant::now();
    while users == 0 || start.elapsed().as_secs_f64() < secs {
        let batch: Vec<usize> =
            (0..batch).map(|k| cold_user(seed ^ 0xBA7C, i + k as u64, model.n_users())).collect();
        f(model, &batch);
        users += batch.len();
        i += batch.len() as u64;
    }
    start.elapsed().as_secs_f64() * 1e6 / users as f64
}

/// The `AsyncStats` identities of a fault-free run with no warm-up batch.
fn check_async_identities(report: &mut Report, stats: &AsyncStats, swaps: u64) {
    let b = &stats.batcher;
    let identities = [
        ("offered == accepted + rejected", b.offered == b.accepted + b.rejected),
        ("accepted == completed + failed", b.accepted == stats.completed + stats.failed),
        ("nothing failed or shed", stats.failed == 0 && b.rejected == 0),
        (
            "engine hits + misses == accepted",
            stats.engine.cache_hits + stats.engine.cache_misses == b.accepted,
        ),
        ("every swap applied", stats.swaps == swaps && stats.swaps_rejected == 0),
    ];
    for (what, ok) in identities {
        if !ok {
            report.violation(format!("AsyncStats identity broken: {what}: {stats:?}"));
        }
    }
}

/// `serve-cold`: see the module docs.
pub fn run_cold(args: &Args, report: &mut Report) {
    let dir = WorkDir::create().expect("create work directory");
    let spec = cold_spec(args.tiny);
    let mut setup = Vec::new();
    let mut parts: [Vec<f64>; 3] = Default::default();
    let mut models = None;
    for _ in 0..COLD_SETUP_REPS {
        drop(models.take());
        let start = Instant::now();
        let (m, times) = build_cold(&spec, args.seed, &dir.0);
        setup.push(start.elapsed().as_secs_f64());
        for (p, t) in parts.iter_mut().zip(times) {
            p.push(t);
        }
        models = Some(m);
    }
    let models = models.expect("at least one setup");
    report.set("setup_s", median(&setup), setup.len());

    let round_secs = args.seconds as f64 / COLD_ROUNDS as f64;
    let sat_n = (round_secs * SATURATE_SHARE * COLD_NOMINAL_QPS) as u64;
    let paced_secs = round_secs * (1.0 - SATURATE_SHARE);
    let mut books = Books::default();
    let rss_before = proc_status_mb("VmRSS");

    // An untimed warm-up on a server of its own pages the model in and
    // starts the kernel pool; a traced run then also measures an untraced
    // stretch as long as all the saturate slices, the reference for the
    // telemetry overhead.
    let server = AsyncServer::start(models.a.clone(), server_config());
    let mut next = WARMUP_QUERIES;
    saturate(&server, args.seed, 0, next, report, &mut books);
    let mut untraced_rates = Vec::new();
    if args.traced {
        let n = sat_n * COLD_ROUNDS as u64;
        untraced_rates = saturate(&server, args.seed, next, n, report, &mut books);
        next += n;
    }
    check_async_identities(report, &shut_down(server), 0);
    if args.traced {
        telemetry::reset();
        telemetry::set_enabled(true);
    }

    // Rounds of a saturate slice then a paced slice, each on a fresh
    // server so its books hold only its own queries. Saturate slices have
    // a fixed query count, so the server's latency books have the same
    // length in every run.
    let mut rates = Vec::new();
    let mut all = Paced::default();
    let mut rounds: Vec<(AsyncStats, AsyncStats)> = Vec::new();
    for _ in 0..COLD_ROUNDS {
        let server = AsyncServer::start(models.a.clone(), server_config());
        rates.extend(saturate(&server, args.seed, next, sat_n, report, &mut books));
        next += sat_n;
        let saturated = shut_down(server);
        check_async_identities(report, &saturated, 0);

        let server = AsyncServer::start(models.a.clone(), server_config());
        let p = paced(&server, &models, args.seed, next, paced_secs, report, &mut books);
        next += p.lag_s.len() as u64;
        let stats = shut_down(server);
        check_async_identities(report, &stats, p.swap_s.len() as u64);
        all.latencies_s.extend(p.latencies_s);
        all.lag_s.extend(p.lag_s);
        all.swap_s.extend(p.swap_s);
        rounds.push((saturated, stats));
    }
    let rss_growth = proc_status_mb("VmRSS") - rss_before;
    let rate = median(&rates);
    report.set("ops_per_s", rate, rates.len() * RATE_CHUNK as usize);
    report.set("op_p50_ms", median(&all.latencies_s) * 1e3, all.latencies_s.len());

    let refs = [&models.a, &models.b];
    for (user, live, answer) in &books.samples {
        if !same_answer(&refs[*live].top_k(*user, TOP_K), answer) {
            eprintln!("perfbench: user {user} answer differs from model {live}'s top_k");
            report.failed += 1;
        }
    }
    println!("serve-cold: {} answers checked against the live model", books.samples.len());

    if args.traced {
        let [build, write, open] = &parts;
        report.set("recdata.world_build_s", median(build), build.len());
        report.set("recsys.snapshot_write_s", median(write), write.len());
        report.set("serve.mmap_open_ms", median(open) * 1e3, open.len());
        // Server-side summaries cannot be merged across servers: each is
        // the median of its per-round values.
        let per_round = |f: &dyn Fn(&(AsyncStats, AsyncStats)) -> f64| {
            median(&rounds.iter().map(f).collect::<Vec<_>>())
        };
        let (mut hits, mut lookups) = (0, 0);
        for (sat, paced) in &rounds {
            for e in [&sat.engine, &paced.engine] {
                hits += e.cache_hits;
                lookups += e.cache_hits + e.cache_misses;
            }
        }
        report.set("serve.cache_hit_ratio", hits as f64 / lookups as f64, lookups as usize);
        let engine_batches = rounds.iter().map(|(_, p)| p.engine.batches).sum::<u64>() as usize;
        let batch_p50 = per_round(&|(_, p)| p.engine.p50_us as f64);
        report.set("serve.batch_p50_us", batch_p50, engine_batches);
        let sat_batches = rounds.iter().map(|(s, _)| s.batcher.batches).sum::<u64>() as usize;
        let fill = per_round(&|(s, _)| s.mean_batch_fill());
        report.set("serve_async.batch_fill", fill, sat_batches);
        let full = per_round(&|(s, _)| s.batcher.flush_full as f64 / s.batcher.batches as f64);
        report.set("serve_async.flush_full_ratio", full, sat_batches);
        let served = rounds.iter().map(|(_, p)| p.latency.count).sum::<u64>() as usize;
        let server_p50 = per_round(&|(_, p)| p.latency.p50_us as f64);
        report.set("serve_async.server_p50_us", server_p50, served);
        let server_p99 = per_round(&|(_, p)| p.latency.p99_us as f64);
        report.set("serve_async.server_p99_us", server_p99, served);
        report.set(
            "serve_async.submit_us",
            median(&books.submit_secs) * 1e6,
            books.submit_secs.len(),
        );
        report.set("serve_async.swap_ms", median(&all.swap_s) * 1e3, all.swap_s.len());
        report.set("serve_async.rss_growth_mb", rss_growth, 1);
        report.set("loadgen.gen_lag_us", percentile(&all.lag_s, 0.99) * 1e6, all.lag_s.len());
        report.set(
            "loadgen.client_p99_us",
            percentile(&all.latencies_s, 0.99) * 1e6,
            all.latencies_s.len(),
        );
        let overhead = 100.0 * (median(&untraced_rates) / rate - 1.0);
        report.set("telemetry.overhead_pct", overhead, rates.len() * RATE_CHUNK as usize);
        telemetry::set_enabled(false);

        let probe = 0.3;
        for (name, batch) in [
            ("serve.top_k_batch_us_per_user.b1", 1),
            ("serve.top_k_batch_us_per_user.b64", 64),
            ("serve.top_k_batch_us_per_user.b256", 256),
        ] {
            let us = per_user_us(&models.a, args.seed, batch, probe, |m, u| {
                std::hint::black_box(m.top_k_batch(u, TOP_K));
            });
            report.set(name, us, batch);
        }
        let us = per_user_us(&models.a, args.seed, 256, probe, |m, u| {
            std::hint::black_box(m.score_batch(u));
        });
        report.set("serve.score_batch_us_per_user", us, 256);
    }
}

/// `serve-net-hot`: see the module docs.
pub fn run_net(args: &Args, report: &mut Report) {
    let xp = XpConfig {
        scale: if args.tiny { 24.0 } else { 12.0 },
        seeds: vec![args.seed],
        datasets: vec![DatasetKind::Ciao],
        threads: args.lanes,
        backend: Backend::Dense,
        ..XpConfig::quick()
    };
    let mut setup = Vec::new();
    let mut model = None;
    for _ in 0..NET_SETUP_REPS {
        let start = Instant::now();
        let (data, victim) = train_clean_victim(&xp);
        let m = ServingModel::from_snapshot(&victim.snapshot(&data)).expect("victim serves");
        setup.push(start.elapsed().as_secs_f64());
        model = Some(m);
    }
    let model = model.expect("at least one setup");
    report.set("setup_s", median(&setup), setup.len());
    let n_users = model.n_users();

    let server = AsyncServer::start(model.clone(), server_config());
    server.warm(&(0..n_users).collect::<Vec<_>>());
    let dispatcher = server.pause_handle();
    let net_cfg = NetServeConfig { conn_window: NET_WINDOW, ..NetServeConfig::default() };
    let net = NetServer::start("127.0.0.1:0", server, net_cfg).expect("bind loopback");
    let mut client =
        NetClient::connect(net.local_addr(), RetryPolicy::default()).expect("connect loopback");

    // A fixed amount of work sized from `--seconds`: the server's latency
    // books grow by one entry per completion, so a fixed count keeps
    // `peak_rss_mb` comparable between runs of different speed.
    let rss_before = proc_status_mb("VmRSS");
    let base = mix(args.seed) >> 40;
    let chunks = ((args.seconds as f64 * NET_NOMINAL_QPS) as u64).div_ceil(NET_CHUNK).max(2);
    let (mut offered, mut completed) = (0u64, 0u64);
    let (mut all, mut traced) = (UsHistogram::default(), UsHistogram::default());
    let (mut rates, mut untraced_rates) = (Vec::new(), Vec::new());
    for c in 0..chunks {
        if args.traced && c == chunks / 2 {
            untraced_rates = std::mem::take(&mut rates);
            telemetry::reset();
            telemetry::set_enabled(true);
        }
        let first = base + c * NET_CHUNK;
        let run = client
            .run_pipelined(NET_CHUNK, NET_WINDOW, 0, move |i| {
                stream_user((first + i) as usize, n_users) as u64
            })
            .expect("pipelined run");
        offered += run.offered;
        completed += run.completed;
        rates.push(run.completed as f64 / run.elapsed.as_secs_f64());
        for &us in &run.latencies_us {
            all.record(us);
            if args.traced && c >= chunks / 2 {
                traced.record(us);
            }
        }
        report.ops(run.completed, run.rejected);
    }
    let rss_growth = proc_status_mb("VmRSS") - rss_before;
    let rate = median(&rates);
    report.set("ops_per_s", rate, completed as usize);
    report.set("op_p50_ms", all.median() / 1e3, all.count() as usize);

    // Wire answers against in-process scoring, for every user.
    let answers: Vec<Vec<ScoredItem>> = (0..n_users).map(|u| model.top_k(u, TOP_K)).collect();
    for (user, want) in answers.iter().enumerate() {
        let ok = match client.query(user as u64, 0, true) {
            Ok(got) => same_answer(want, &got),
            Err(e) => {
                eprintln!("perfbench: oracle query for user {user} failed: {e}");
                false
            }
        };
        if !ok {
            eprintln!("perfbench: user {user} wire answer differs from in-process top_k");
        }
        report.op(ok);
        offered += 1;
        completed += u64::from(ok);
    }
    drop(client);
    let stats = waking(dispatcher, || net.drain());
    let checks = [
        ("balanced", stats.balanced()),
        ("offered matches the client", stats.offered == offered),
        ("completed matches the client", stats.completed == completed),
        ("nothing shed, drained or evicted", {
            stats.rejected + stats.drained + stats.conns_evicted + stats.codec_errors == 0
        }),
    ];
    for (what, ok) in checks {
        if !ok {
            report.violation(format!("NetStats check failed: {what}: {stats:?}"));
        }
    }

    if args.traced {
        let tel = telemetry::report();
        telemetry::set_enabled(false);
        let submitted = counter(&tel, "serve_async.submitted");
        let done = counter(&tel, "serve_async.completed");
        let shed = counter(&tel, "serve_async.rejected") + counter(&tel, "serve_async.failed");
        if submitted != done + shed || shed != 0 {
            report.violation(format!(
                "AsyncStats identity broken: submitted {submitted} != completed {done} + shed {shed}"
            ));
        }
        let batches = counter(&tel, "serve_async.batches");
        let hits = counter(&tel, "serve.cache.hits");
        let lookups = hits + counter(&tel, "serve.cache.misses");
        report.set("serve.cache_hit_ratio", hits as f64 / lookups as f64, lookups as usize);
        report.set("serve.batch_p50_us", gauge(&tel, "serve.latency.p50_us"), batches as usize);
        report.set("serve_async.batch_fill", done as f64 / batches as f64, batches as usize);
        report.set(
            "serve_async.flush_full_ratio",
            counter(&tel, "serve_async.flush.full") as f64 / batches as f64,
            batches as usize,
        );
        let server_p50 = gauge(&tel, "serve_async.latency.p50_us");
        report.set("serve_async.server_p50_us", server_p50, done as usize);
        report.set(
            "serve_async.server_p99_us",
            gauge(&tel, "serve_async.latency.p99_us"),
            done as usize,
        );
        report.set("serve_async.rss_growth_mb", rss_growth, 1);
        let n = traced.count() as usize;
        report.set("serve-net.transport_p50_us", traced.median() - server_p50, n);
        report.set("loadgen.client_p99_us", traced.percentile(0.99), n);
        let overhead = 100.0 * (median(&untraced_rates) / rate - 1.0);
        report.set("telemetry.overhead_pct", overhead, n);
        codec_timing(report, &answers, base, n.min(65_536));
    }
}

/// Encode and decode timing of the run's own frames: the query frames of
/// the first `n` requests of the stream and the top-K frames answering them.
fn codec_timing(report: &mut Report, answers: &[Vec<ScoredItem>], base: u64, n: usize) {
    let n_users = answers.len();
    let frames: Vec<Frame> = (0..n as u64)
        .flat_map(|i| {
            let user = stream_user((base + i) as usize, n_users);
            [
                Frame::Query { request_id: i, user: user as u64, deadline_us: 0, idempotent: true },
                Frame::TopK { request_id: i, items: answers[user].clone() },
            ]
        })
        .collect();
    let mut wire = Vec::new();
    let start = Instant::now();
    for f in &frames {
        f.encode(&mut wire);
    }
    let encode_ns = start.elapsed().as_nanos() as f64 / frames.len() as f64;
    let mut decoder = FrameDecoder::new();
    let mut decoded = Vec::with_capacity(frames.len());
    let start = Instant::now();
    decoder.extend(&wire);
    while let Ok(Some(f)) = decoder.next() {
        decoded.push(f);
    }
    let decode_ns = start.elapsed().as_nanos() as f64 / frames.len() as f64;
    if decoded != frames {
        report.violation("frames do not survive an encode/decode round trip");
    }
    report.set("serve-net.frame_encode_ns", encode_ns, frames.len());
    report.set("serve-net.frame_decode_ns", decode_ns, frames.len());
}
