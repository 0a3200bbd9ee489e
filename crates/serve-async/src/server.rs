//! The threaded async serving front end over a [`SharedServeEngine`].
//!
//! One dispatcher thread drives the deterministic [`BatchQueue`] core:
//! clients [`AsyncServer::submit`] single-user queries and get a [`Ticket`]
//! back immediately (or a typed [`ServeAsyncError::Overloaded`] rejection at
//! the admission door); whenever the dispatcher is idle it takes everything
//! pending (up to `max_batch`) at once, dispatches **one** blocked
//! `serve_batch` call for the whole batch, and fulfills every ticket with
//! its row. Queries that arrive while a batch is being scored coalesce into
//! the next one, so batches grow with load and a lone query never waits.
//!
//! ## Fidelity
//!
//! Batching never changes answers: each top-K row depends only on its own
//! user's embedding row (the serve crate's batch-invariance contract), so
//! any coalescing of a query stream returns bit-identical lists to one
//! synchronous `top_k_batch` over the same stream — the property suite in
//! `tests/batcher_props.rs` pins exactly that.
//!
//! ## Hot-swap
//!
//! [`AsyncServer::swap_model`] replaces the served [`ServingModel`] by an
//! atomic `Arc` swap inside the engine, serialized with dispatch on the
//! engine lock: a swap happens *between* batches, so every response is
//! computed entirely against exactly one model — old or new, never torn.
//! Snapshots are fingerprint-checked against the running dataset; a
//! mismatch is refused with a typed error while serving continues.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use msopds_serve::{
    ScoredItem, ServeConfig, ServeEngine, ServeSummary, ServingModel, SharedServeEngine, Snapshot,
    SnapshotError, SnapshotSource, SwapError,
};
use msopds_telemetry::{self as telemetry, Counter, Gauge, Histogram};

use crate::batcher::{BatchQueue, BatcherConfig, BatcherCounters, FlushReason, Pending};
use crate::clock::{Clock, SystemClock};

static SUBMITTED: Counter = Counter::new("serve_async.submitted");
static REJECTED: Counter = Counter::new("serve_async.rejected");
static COMPLETED: Counter = Counter::new("serve_async.completed");
static FAILED: Counter = Counter::new("serve_async.failed");
static BATCHES: Counter = Counter::new("serve_async.batches");
static FLUSH_FULL: Counter = Counter::new("serve_async.flush.full");
static FLUSH_DEADLINE: Counter = Counter::new("serve_async.flush.deadline");
static FLUSH_SHUTDOWN: Counter = Counter::new("serve_async.flush.shutdown");
static FLUSH_IDLE: Counter = Counter::new("serve_async.flush.idle");
static SWAPS: Counter = Counter::new("serve_async.swaps");
static SWAPS_REJECTED: Counter = Counter::new("serve_async.swaps_rejected");
static QUEUE_PEAK: Gauge = Gauge::new("serve_async.queue_peak");
static BATCH_FILL: Gauge = Gauge::new("serve_async.batch_fill");
static P50_US: Gauge = Gauge::new("serve_async.latency.p50_us");
static P99_US: Gauge = Gauge::new("serve_async.latency.p99_us");
static P999_US: Gauge = Gauge::new("serve_async.latency.p999_us");

/// Knobs of the async tier: the batcher policy plus the wrapped engine's
/// own configuration (top-K length, hot-user cache).
#[derive(Clone, Copy, Debug, Default)]
pub struct AsyncServeConfig {
    /// Latency budget, max batch, and admission cap.
    pub batcher: BatcherConfig,
    /// The inner [`ServeEngine`] knobs (list length, LRU).
    pub serve: ServeConfig,
}

/// Typed failures of the async submission path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeAsyncError {
    /// The admission queue is at capacity; the query was shed instead of
    /// queued into unbounded latency. Retry with backoff or shed upstream.
    Overloaded {
        /// The configured admission cap that was hit.
        queue_cap: usize,
    },
    /// The server is draining and accepts no new queries.
    ShuttingDown,
    /// The user id is outside the served model's universe (validated at the
    /// door so a bad id becomes a typed rejection, not an engine panic that
    /// would strand every co-batched ticket).
    UnknownUser {
        /// The offending user id.
        user: usize,
        /// The model's user-universe size.
        n_users: usize,
    },
}

impl std::fmt::Display for ServeAsyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeAsyncError::Overloaded { queue_cap } => {
                write!(f, "admission queue at capacity ({queue_cap}); query shed")
            }
            ServeAsyncError::ShuttingDown => write!(f, "server is shutting down"),
            ServeAsyncError::UnknownUser { user, n_users } => {
                write!(f, "user id {user} out of range for {n_users} users")
            }
        }
    }
}

impl std::error::Error for ServeAsyncError {}

/// Why an admitted query's [`Ticket`] terminated without an answer. Every
/// admitted ticket reaches a terminal state — [`Ticket::wait`] never hangs
/// on a dead server and never panics on a poisoned mutex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TicketError {
    /// The batch this query was coalesced into panicked inside dispatch
    /// (engine call or an injected fault). The server caught the unwind and
    /// keeps serving later batches; only this batch's tickets fail.
    DispatchFailed,
    /// The server shut down before this query's batch was dispatched. Only
    /// reachable through the submit/shutdown race — the drain flush serves
    /// everything the dispatcher can still see — but "only" races must still
    /// terminate, not hang.
    ServerClosed,
}

impl std::fmt::Display for TicketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TicketError::DispatchFailed => write!(f, "batch dispatch panicked; query not served"),
            TicketError::ServerClosed => write!(f, "server closed before the query was served"),
        }
    }
}

impl std::error::Error for TicketError {}

/// Why [`AsyncServer::swap_snapshot`] failed.
#[derive(Debug)]
pub enum SwapSnapshotError {
    /// The snapshot does not build a serving model at all.
    Invalid(SnapshotError),
    /// The snapshot builds, but was rejected against the running dataset
    /// (fingerprint or shape mismatch); serving continues on the old model.
    Rejected(SwapError),
}

impl std::fmt::Display for SwapSnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapSnapshotError::Invalid(e) => write!(f, "snapshot rejected: {e}"),
            SwapSnapshotError::Rejected(e) => write!(f, "swap rejected: {e}"),
        }
    }
}

impl std::error::Error for SwapSnapshotError {}

/// Percentile summary of per-request latency (admission → response ready),
/// microseconds, read from the server's fixed-size [`Histogram`]. Count,
/// mean and max are exact; each percentile is the nearest-rank sample
/// within the histogram's relative error bound of 1/64 (exact below 64 µs),
/// and `p50_us <= p99_us <= p999_us <= max_us` always holds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyProfile {
    /// Requests measured.
    pub count: u64,
    /// Mean latency.
    pub mean_us: f64,
    /// Median.
    pub p50_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// 99.9th percentile.
    pub p999_us: u64,
    /// Worst observed.
    pub max_us: u64,
}

/// A point-in-time view of the async tier's accounting. After a drain
/// ([`AsyncServer::shutdown`]) the books balance exactly:
/// `batcher.accepted == completed + failed` and — in a fault-free run, where
/// `failed == 0` — `engine.cache_hits + engine.cache_misses +
/// batcher.rejected == batcher.offered` and `completed == batcher.accepted`.
#[derive(Clone, Debug)]
pub struct AsyncStats {
    /// Admission and flush accounting from the batcher core.
    pub batcher: BatcherCounters,
    /// Tickets fulfilled with an answer.
    pub completed: u64,
    /// Tickets failed with a typed [`TicketError`] (dispatch panic or
    /// shutdown race); zero in a fault-free run.
    pub failed: u64,
    /// Model hot-swaps applied.
    pub swaps: u64,
    /// Hot-swaps refused (fingerprint/shape mismatch).
    pub swaps_rejected: u64,
    /// Per-request latency summary (admission → response ready).
    pub latency: LatencyProfile,
    /// The wrapped engine's own summary (hits/misses/queries, per-batch
    /// percentiles).
    pub engine: ServeSummary,
}

impl AsyncStats {
    /// Mean coalesced-batch fill (queries per dispatched batch).
    pub fn mean_batch_fill(&self) -> f64 {
        if self.batcher.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batcher.batches as f64
        }
    }
}

enum TicketState {
    Waiting,
    Ready(Arc<Vec<ScoredItem>>),
    Failed(TicketError),
}

struct TicketCell {
    state: Mutex<TicketState>,
    cv: Condvar,
}

impl TicketCell {
    fn new() -> Self {
        Self { state: Mutex::new(TicketState::Waiting), cv: Condvar::new() }
    }

    fn fulfill(&self, answer: Arc<Vec<ScoredItem>>) {
        let mut state = lock_clean(&self.state);
        *state = TicketState::Ready(answer);
        self.cv.notify_all();
    }

    fn fail(&self, error: TicketError) {
        let mut state = lock_clean(&self.state);
        // A ticket that already has its answer keeps it; failure is only a
        // terminal state for tickets still waiting.
        if matches!(*state, TicketState::Waiting) {
            *state = TicketState::Failed(error);
        }
        self.cv.notify_all();
    }
}

/// The response handle of an admitted query. Cheap to move across threads;
/// dropping it without waiting discards the answer but never blocks the
/// server.
pub struct Ticket {
    cell: Arc<TicketCell>,
}

impl Ticket {
    /// Blocks until the query's coalesced batch is served, then returns the
    /// top-K list (shared with the hot-user cache) — or the typed
    /// [`TicketError`] if the batch's dispatch panicked or the server closed
    /// first. Never hangs: every admitted ticket reaches a terminal state,
    /// even across shutdown races and dispatcher panics.
    pub fn wait(&self) -> Result<Arc<Vec<ScoredItem>>, TicketError> {
        let mut state = lock_clean(&self.cell.state);
        loop {
            match &*state {
                TicketState::Ready(answer) => return Ok(Arc::clone(answer)),
                TicketState::Failed(error) => return Err(*error),
                TicketState::Waiting => {
                    state =
                        self.cell.cv.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            }
        }
    }

    /// Non-blocking poll: the terminal outcome if the batch already resolved.
    pub fn try_take(&self) -> Option<Result<Arc<Vec<ScoredItem>>, TicketError>> {
        match &*lock_clean(&self.cell.state) {
            TicketState::Ready(answer) => Some(Ok(Arc::clone(answer))),
            TicketState::Failed(error) => Some(Err(*error)),
            TicketState::Waiting => None,
        }
    }
}

fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct Inner {
    queue: Mutex<BatchQueue<Arc<TicketCell>>>,
    cv: Condvar,
    engine: SharedServeEngine,
    clock: Arc<dyn Clock>,
    cfg: AsyncServeConfig,
    n_users: usize,
    shutdown: AtomicBool,
    paused: AtomicBool,
    completed: AtomicU64,
    failed: AtomicU64,
    swaps: AtomicU64,
    swaps_rejected: AtomicU64,
    /// Admission → response latency of every completed query, µs. Fixed
    /// size, recorded lock-free by the dispatcher and read live by `stats`.
    latencies_us: Histogram,
}

impl Inner {
    /// Sets one of the dispatcher's control flags (`shutdown`, `paused`)
    /// and wakes it. The store happens under the queue lock: the dispatcher
    /// reads its flags and enters `wait` while holding that lock, so a flag
    /// change can never land between its check and its sleep — the wake-up
    /// that follows is never lost.
    fn set_flag(&self, flag: &AtomicBool, on: bool) {
        let q = lock_clean(&self.queue);
        flag.store(on, Ordering::Release);
        drop(q);
        self.cv.notify_one();
    }
}

/// The async serving front end; see the module docs. Construction spawns
/// the dispatcher thread; [`AsyncServer::shutdown`] (or drop) drains the
/// queue and joins it.
pub struct AsyncServer {
    inner: Arc<Inner>,
    dispatcher: Option<JoinHandle<()>>,
}

impl AsyncServer {
    /// Starts a server over `model` on the real monotonic clock.
    pub fn start(model: ServingModel, cfg: AsyncServeConfig) -> Self {
        Self::start_with_clock(Arc::new(model), cfg, Arc::new(SystemClock::new()))
    }

    /// Starts a server with an injected [`Clock`] (shared-model form; the
    /// deterministic suites pass a [`crate::MockClock`] and drive the
    /// batcher core directly, so the dispatcher clock only affects pacing).
    pub fn start_with_clock(
        model: Arc<ServingModel>,
        cfg: AsyncServeConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let n_users = model.n_users();
        let inner = Arc::new(Inner {
            queue: Mutex::new(BatchQueue::new(cfg.batcher)),
            cv: Condvar::new(),
            engine: SharedServeEngine::new(ServeEngine::new_shared(model, cfg.serve)),
            clock,
            cfg,
            n_users,
            shutdown: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            swaps_rejected: AtomicU64::new(0),
            latencies_us: Histogram::new(),
        });
        let dispatcher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-async-dispatch".to_string())
                .spawn(move || dispatcher_loop(&inner))
                .expect("spawn dispatcher")
        };
        Self { inner, dispatcher: Some(dispatcher) }
    }

    /// The configured knobs.
    pub fn config(&self) -> AsyncServeConfig {
        self.inner.cfg
    }

    /// The served user-universe size (constant across hot-swaps — swaps are
    /// shape-checked).
    pub fn n_users(&self) -> usize {
        self.inner.n_users
    }

    /// Submits one user query. Returns a [`Ticket`] immediately on
    /// admission, or a typed rejection: [`ServeAsyncError::Overloaded`] at
    /// the queue cap, [`ServeAsyncError::UnknownUser`] for an out-of-range
    /// id, [`ServeAsyncError::ShuttingDown`] during drain.
    pub fn submit(&self, user: usize) -> Result<Ticket, ServeAsyncError> {
        if user >= self.inner.n_users {
            return Err(ServeAsyncError::UnknownUser { user, n_users: self.inner.n_users });
        }
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeAsyncError::ShuttingDown);
        }
        SUBMITTED.incr();
        let cell = Arc::new(TicketCell::new());
        let mut q = lock_clean(&self.inner.queue);
        let was_empty = q.is_empty();
        match q.offer(user, Arc::clone(&cell), self.inner.clock.now_ns()) {
            Ok(()) => {
                // The dispatcher sleeps only on an empty queue (or while
                // paused), so only the empty → non-empty edge can find it
                // asleep. A submit to a non-empty queue finds it busy (or
                // paused), and it re-polls the queue before it sleeps again;
                // notifying on every submit would just burn wakeups on the
                // hot path.
                drop(q);
                if was_empty {
                    self.inner.cv.notify_one();
                }
                Ok(Ticket { cell })
            }
            Err(_cell) => {
                REJECTED.incr();
                Err(ServeAsyncError::Overloaded { queue_cap: self.inner.cfg.batcher.queue_cap })
            }
        }
    }

    /// Atomically replaces the served model (see the module docs). The swap
    /// serializes with dispatch on the engine lock, so it lands between
    /// batches; the engine's hot-user cache is cleared, its stats carry
    /// over, and a fingerprint/shape mismatch is refused with serving
    /// untouched.
    pub fn swap_model(&self, model: Arc<ServingModel>) -> Result<(), SwapError> {
        msopds_faultline::fault_point!("serve_async.swap");
        match self.inner.engine.try_swap(model) {
            Ok(_old) => {
                self.inner.swaps.fetch_add(1, Ordering::Relaxed);
                SWAPS.incr();
                Ok(())
            }
            Err(e) => {
                self.inner.swaps_rejected.fetch_add(1, Ordering::Relaxed);
                SWAPS_REJECTED.incr();
                Err(e)
            }
        }
    }

    /// Pre-scores `users` straight through the wrapped engine, bypassing the
    /// queue: warms the hot-user LRU so a steady-state benchmark measures
    /// serving, not first-touch scoring (the same convention as the serve
    /// bench's engine rows). The engine's own counters do record the warm-up
    /// batch; the async tier's admission books and latency profile do not,
    /// so a warmed server no longer satisfies the post-drain identity
    /// `engine hits + misses + rejected == offered`.
    pub fn warm(&self, users: &[usize]) {
        let _ = self.inner.engine.serve_batch(users);
    }

    /// [`AsyncServer::swap_model`] from a parsed snapshot file.
    pub fn swap_snapshot(&self, snap: &Snapshot) -> Result<(), SwapSnapshotError> {
        let model = ServingModel::from_snapshot(snap).map_err(SwapSnapshotError::Invalid)?;
        self.swap_model(Arc::new(model)).map_err(SwapSnapshotError::Rejected)
    }

    /// [`AsyncServer::swap_model`] from any [`SnapshotSource`], with an
    /// early header gate: the 64-byte prefix is peeked first, and a
    /// snapshot whose CSR fingerprints disagree with the running dataset
    /// is refused **before a single tensor payload is read** — offering a
    /// multi-gigabyte snapshot of the wrong world costs one tiny read,
    /// not a full parse. A source that passes the gate loads through
    /// [`ServingModel::open`], so `SnapshotSource::Mmap` swaps in
    /// zero-copy.
    pub fn swap_source(&self, source: &SnapshotSource) -> Result<(), SwapSnapshotError> {
        let head = Snapshot::peek(source).map_err(SwapSnapshotError::Invalid)?;
        let offered = (head.social_fingerprint, head.item_fingerprint);
        let running = self.inner.engine.model_arc().fingerprints();
        if offered != running {
            self.inner.swaps_rejected.fetch_add(1, Ordering::Relaxed);
            SWAPS_REJECTED.incr();
            return Err(SwapSnapshotError::Rejected(SwapError::FingerprintMismatch {
                running,
                offered,
            }));
        }
        let model = ServingModel::open(source).map_err(SwapSnapshotError::Invalid)?;
        self.swap_model(Arc::new(model)).map_err(SwapSnapshotError::Rejected)
    }

    /// Holds the dispatcher: admitted queries keep queueing (and shedding at
    /// the cap) but nothing flushes until [`AsyncServer::resume`]. Used by
    /// the admission tests to pin exact rejection counts, and usable to
    /// stage a swap + warm-up before taking traffic.
    pub fn pause(&self) {
        self.inner.set_flag(&self.inner.paused, true);
    }

    /// Releases a [`AsyncServer::pause`]d dispatcher.
    pub fn resume(&self) {
        self.inner.set_flag(&self.inner.paused, false);
    }

    /// A detachable pause/resume control, usable after the server itself has
    /// been moved elsewhere (the socket front end owns the `AsyncServer`
    /// inside its poll thread; chaos tests still need to hold the dispatcher
    /// to pin exact admission counts).
    pub fn pause_handle(&self) -> PauseHandle {
        PauseHandle { inner: Arc::clone(&self.inner) }
    }

    /// A snapshot of the tier's accounting; also publishes the
    /// `serve_async.*` gauges. Safe to call on a running server: it reads
    /// the latency histogram in place, in time independent of how many
    /// queries were served, and does not stall the dispatcher. A live read
    /// already counts the latency of every answered ticket, while
    /// `completed` is bumped once per batch and may trail by the batch in
    /// flight; after a drain `latency.count == completed`.
    pub fn stats(&self) -> AsyncStats {
        let batcher = lock_clean(&self.inner.queue).counters();
        let h = self.inner.latencies_us.snapshot();
        let latency = LatencyProfile {
            count: h.count,
            mean_us: h.mean(),
            p50_us: h.quantile(0.50),
            p99_us: h.quantile(0.99),
            p999_us: h.quantile(0.999),
            max_us: h.max,
        };
        let stats = AsyncStats {
            batcher,
            completed: self.inner.completed.load(Ordering::Relaxed),
            failed: self.inner.failed.load(Ordering::Relaxed),
            swaps: self.inner.swaps.load(Ordering::Relaxed),
            swaps_rejected: self.inner.swaps_rejected.load(Ordering::Relaxed),
            latency,
            engine: self.inner.engine.summary(),
        };
        QUEUE_PEAK.set(batcher.peak_depth as f64);
        BATCH_FILL.set(stats.mean_batch_fill());
        P50_US.set(latency.p50_us as f64);
        P99_US.set(latency.p99_us as f64);
        P999_US.set(latency.p999_us as f64);
        stats
    }

    /// Stops admissions, drains every pending query (a final
    /// [`FlushReason::Shutdown`] flush per remaining chunk), joins the
    /// dispatcher, and returns the final accounting.
    pub fn shutdown(mut self) -> AsyncStats {
        self.join_dispatcher();
        self.stats()
    }

    fn join_dispatcher(&mut self) {
        if let Some(handle) = self.dispatcher.take() {
            self.inner.set_flag(&self.inner.shutdown, true);
            let _ = handle.join();
            // Submit/shutdown race sweep: an offer can land between the
            // dispatcher's last empty take() and its exit. Fail any such
            // straggler with a typed error so no ticket ever hangs.
            let mut q = lock_clean(&self.inner.queue);
            while let Some((batch, _reason)) = q.take(self.inner.clock.now_ns(), true) {
                for pending in batch {
                    pending.tag.fail(TicketError::ServerClosed);
                    self.inner.failed.fetch_add(1, Ordering::Relaxed);
                    FAILED.incr();
                }
            }
        }
    }
}

impl Drop for AsyncServer {
    fn drop(&mut self) {
        self.join_dispatcher();
    }
}

/// A clonable remote control for [`AsyncServer::pause`] /
/// [`AsyncServer::resume`], detached from the server's ownership. Holding
/// one does not keep the server alive in any user-visible way — it only
/// pins the shared state block; pausing after shutdown is a harmless no-op.
#[derive(Clone)]
pub struct PauseHandle {
    inner: Arc<Inner>,
}

impl PauseHandle {
    /// [`AsyncServer::pause`] through the handle.
    pub fn pause(&self) {
        self.inner.set_flag(&self.inner.paused, true);
    }

    /// [`AsyncServer::resume`] through the handle.
    pub fn resume(&self) {
        self.inner.set_flag(&self.inner.paused, false);
    }
}

fn dispatcher_loop(inner: &Inner) {
    let mut q = lock_clean(&inner.queue);
    loop {
        let shutting = inner.shutdown.load(Ordering::Acquire);
        if inner.paused.load(Ordering::Acquire) && !shutting {
            q = inner.cv.wait(q).unwrap_or_else(|poisoned| poisoned.into_inner());
            continue;
        }
        // The dispatcher polls only between batches, when it is idle:
        // take() flushes anything pending and declines only an empty queue.
        let now = inner.clock.now_ns();
        if let Some((batch, reason)) = q.take(now, shutting) {
            drop(q);
            dispatch(inner, batch, reason);
            q = lock_clean(&inner.queue);
            continue;
        }
        if shutting {
            return;
        }
        // Empty queue: sleep until the next submit.
        q = inner.cv.wait(q).unwrap_or_else(|poisoned| poisoned.into_inner());
    }
}

/// Serves one coalesced batch and fulfills its tickets. Runs with no queue
/// lock held — admissions proceed while the engine scores.
///
/// The engine call is panic-guarded: a batch that unwinds (a model bug, or
/// an injected fault at the `serve_async.batch.take` / `serve_async.engine.call`
/// sites) fails exactly its own tickets with [`TicketError::DispatchFailed`]
/// and the dispatcher keeps serving later batches. The guard closure borrows
/// only the user ids — the tickets stay outside, so an unwind can never drop
/// a waiting ticket without a terminal state.
fn dispatch(inner: &Inner, batch: Vec<Pending<Arc<TicketCell>>>, reason: FlushReason) {
    let _span = telemetry::span("serve_async_batch");
    let users: Vec<usize> = batch.iter().map(|p| p.user).collect();
    let answers = catch_unwind(AssertUnwindSafe(|| {
        msopds_faultline::fault_point!("serve_async.batch.take");
        msopds_faultline::fault_point!("serve_async.engine.call");
        inner.engine.serve_batch(&users)
    }));
    BATCHES.incr();
    match reason {
        FlushReason::Full => FLUSH_FULL.incr(),
        FlushReason::Deadline => FLUSH_DEADLINE.incr(),
        FlushReason::Shutdown => FLUSH_SHUTDOWN.incr(),
        FlushReason::Idle => FLUSH_IDLE.incr(),
    }
    let answers = match answers {
        Ok(answers) => answers,
        Err(_) => {
            let n = batch.len() as u64;
            for pending in batch {
                pending.tag.fail(TicketError::DispatchFailed);
            }
            inner.failed.fetch_add(n, Ordering::Relaxed);
            FAILED.add(n);
            return;
        }
    };
    let done_ns = inner.clock.now_ns();
    let n = batch.len() as u64;
    for (pending, answer) in batch.into_iter().zip(answers) {
        inner.latencies_us.record(done_ns.saturating_sub(pending.enqueued_ns) / 1_000);
        pending.tag.fulfill(answer);
    }
    inner.completed.fetch_add(n, Ordering::Relaxed);
    COMPLETED.add(n);
}
