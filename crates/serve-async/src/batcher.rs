//! The dynamic batcher's deterministic core.
//!
//! [`BatchQueue`] is a *pure state machine*: admission, batch cuts and flush
//! labels are functions of the operations applied to it and the explicit
//! inputs passed in (the `now_ns` timestamp, and whether the dispatcher is
//! shutting down) — it never reads a clock, spawns a thread, or sleeps. The
//! threaded [`crate::AsyncServer`] drives it under a mutex with a real
//! clock; the unit tests drive it with a [`crate::MockClock`] and cover
//! every flush label (full, deadline, shutdown, idle) without real sleeps.
//! Same transitions either way — that is what makes the concurrency suite
//! deterministic.
//!
//! ## Flush policy
//!
//! The batcher is *work-conserving*: the dispatcher calls
//! [`BatchQueue::take`] only when it is idle, and `take` flushes any
//! non-empty queue at once (at most `max_batch` queries), so no query ever
//! waits for company while nothing is being scored. Coalescing happens
//! while the dispatcher is busy: queries that arrive during a running batch
//! pile up and leave together as the next batch. Under load batches
//! therefore fill by themselves, and at low load a query pays no coalescing
//! delay.
//!
//! The deadline makes no one wait. It is each query's latency budget, and
//! it only decides how a flush is counted. Each flush is labelled by the
//! first rule that holds, in the precedence Full > Deadline > Shutdown >
//! Idle:
//!
//! * **Full** — `max_batch` queries are pending; the flush takes exactly
//!   `max_batch` and leaves the overflow queued.
//! * **Deadline** — the *oldest* pending query was admitted at least
//!   `deadline` ago, i.e. it waited past its budget behind a running batch.
//! * **Shutdown** — the batcher is draining its remainder.
//! * **Idle** — none of the above: the usual flush of a lightly loaded
//!   server.
//!
//! ## Admission
//!
//! The queue is bounded by `queue_cap`: an offer beyond the cap is rejected
//! *at admission time* with exact accounting (`offered == accepted +
//! rejected`, always). Shedding at the door keeps the latency of accepted
//! queries bounded — an unbounded queue would instead convert overload into
//! unbounded waiting, the failure mode the SLO bench measures.

use std::collections::VecDeque;
use std::time::Duration;

/// Knobs of the dynamic batcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatcherConfig {
    /// A query's latency budget in the queue. It delays no flush; it only
    /// decides whether a flush is labelled [`FlushReason::Deadline`] (the
    /// front query waited at least this long).
    pub deadline: Duration,
    /// The largest batch a single dispatch hands the engine; a flush of
    /// this many is labelled [`FlushReason::Full`].
    pub max_batch: usize,
    /// Bounded-queue admission cap: offers beyond this many pending queries
    /// are shed with a typed `Overloaded` rejection.
    pub queue_cap: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self { deadline: Duration::from_micros(200), max_batch: 1024, queue_cap: 8192 }
    }
}

impl BatcherConfig {
    /// Validates the knobs (`max_batch` and `queue_cap` must be positive).
    pub fn validate(&self) -> Result<(), String> {
        if self.max_batch == 0 {
            return Err("max_batch must be positive".to_string());
        }
        if self.queue_cap == 0 {
            return Err("queue_cap must be positive".to_string());
        }
        Ok(())
    }

    fn deadline_ns(&self) -> u64 {
        self.deadline.as_nanos() as u64
    }
}

/// How a flush is labelled (first match in the precedence Full > Deadline >
/// Shutdown > Idle; see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// `max_batch` queries were pending.
    Full,
    /// The oldest pending query had waited past its latency budget.
    Deadline,
    /// The batcher is shutting down and drained its remainder.
    Shutdown,
    /// None of the above: the dispatcher was free, so the pending queries
    /// went out at once.
    Idle,
}

/// One admitted query waiting for dispatch. `T` is the caller's tag —
/// the threaded server stores the response ticket, tests store the query's
/// position in the original stream.
#[derive(Clone, Debug)]
pub struct Pending<T> {
    /// User id to score.
    pub user: usize,
    /// Caller payload, handed back on dispatch.
    pub tag: T,
    /// Admission timestamp (the clock reading passed to `offer`).
    pub enqueued_ns: u64,
}

/// Exact admission/dispatch accounting (`offered == accepted + rejected`
/// by construction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatcherCounters {
    /// Queries presented to `offer`.
    pub offered: u64,
    /// Queries admitted to the queue.
    pub accepted: u64,
    /// Queries shed at the admission door.
    pub rejected: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Batches dispatched because the queue hit `max_batch`.
    pub flush_full: u64,
    /// Batches whose oldest query had waited past its deadline.
    pub flush_deadline: u64,
    /// Batches drained at shutdown.
    pub flush_shutdown: u64,
    /// Batches no other label applied to: the dispatcher was free and took
    /// what was pending. `batches == flush_full + flush_deadline +
    /// flush_shutdown + flush_idle`.
    pub flush_idle: u64,
    /// Largest queue depth ever observed after an admission.
    pub peak_depth: u64,
}

/// The deterministic batching state machine. See the module docs for the
/// flush and admission policy.
#[derive(Debug)]
pub struct BatchQueue<T> {
    cfg: BatcherConfig,
    queue: VecDeque<Pending<T>>,
    counters: BatcherCounters,
}

impl<T> BatchQueue<T> {
    /// An empty queue with knobs `cfg`.
    ///
    /// # Panics
    /// Panics on an invalid config (zero `max_batch` or `queue_cap`);
    /// callers that parse user input validate first via
    /// [`BatcherConfig::validate`].
    pub fn new(cfg: BatcherConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("BatcherConfig: {e}");
        }
        Self {
            cfg,
            queue: VecDeque::with_capacity(cfg.max_batch.min(4096)),
            counters: BatcherCounters::default(),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> BatcherConfig {
        self.cfg
    }

    /// Pending query count.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The running exact counters.
    pub fn counters(&self) -> BatcherCounters {
        self.counters
    }

    /// Admits `user` at time `now_ns`, or sheds it if the queue is at
    /// `queue_cap`. Returns the rejected tag so the caller can fail the
    /// response handle it minted.
    pub fn offer(&mut self, user: usize, tag: T, now_ns: u64) -> Result<(), T> {
        self.counters.offered += 1;
        if self.queue.len() >= self.cfg.queue_cap {
            self.counters.rejected += 1;
            return Err(tag);
        }
        self.counters.accepted += 1;
        self.queue.push_back(Pending { user, tag, enqueued_ns: now_ns });
        self.counters.peak_depth = self.counters.peak_depth.max(self.queue.len() as u64);
        Ok(())
    }

    /// Dispatches the next batch: up to `max_batch` queries in admission
    /// order, plus the reason the flush is labelled with (see the module
    /// docs). The caller polls only when its dispatcher is idle, so any
    /// non-empty queue flushes; `None` means the queue is empty.
    ///
    /// A `Full` flush of a longer queue leaves the remainder pending; the
    /// next flush's label is judged by the *remaining* front's admission
    /// time, so overflow queries carry their own latency budget, not the
    /// flushed batch's.
    pub fn take(&mut self, now_ns: u64, shutdown: bool) -> Option<(Vec<Pending<T>>, FlushReason)> {
        let front_ns = self.queue.front()?.enqueued_ns;
        let reason = if self.queue.len() >= self.cfg.max_batch {
            FlushReason::Full
        } else if now_ns >= front_ns.saturating_add(self.cfg.deadline_ns()) {
            FlushReason::Deadline
        } else if shutdown {
            FlushReason::Shutdown
        } else {
            FlushReason::Idle
        };
        let n = self.queue.len().min(self.cfg.max_batch);
        let batch: Vec<Pending<T>> = self.queue.drain(..n).collect();
        self.counters.batches += 1;
        match reason {
            FlushReason::Full => self.counters.flush_full += 1,
            FlushReason::Deadline => self.counters.flush_deadline += 1,
            FlushReason::Shutdown => self.counters.flush_shutdown += 1,
            FlushReason::Idle => self.counters.flush_idle += 1,
        }
        Some((batch, reason))
    }
}
