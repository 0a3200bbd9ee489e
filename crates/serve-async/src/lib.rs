//! # msopds-serve-async
//!
//! The *online* serving tier: an asynchronous front end over
//! `msopds-serve`'s engine that turns one-query-at-a-time traffic — the
//! arrival pattern of the victim platform the paper's multiplayer game
//! models — into the large batches the scoring kernels are fast at.
//!
//! Batch-1 serving runs several times below batch-1024 throughput (the
//! `batch1024_engine_outserves_batch1` gate in
//! `crates/xp/tests/throughput_gates.rs`); this crate closes that gap with
//! a **request scheduler** rather than a faster kernel:
//!
//! * [`AsyncServer`] — submit single-user queries, get a [`Ticket`] back;
//!   one dispatcher thread dispatches one blocked `serve_batch` for
//!   everything pending (up to `max_batch`, default 1024) the moment it is
//!   idle. The flush is work-conserving: queries coalesce only while the
//!   previous batch scores, so batches grow with load and a lone query is
//!   served at once. The deadline (default 200 µs) is each query's latency
//!   budget: a batch whose oldest query waited past it is counted as a
//!   Deadline flush.
//! * **Admission control** — the pending queue is bounded
//!   ([`BatcherConfig::queue_cap`]); overload sheds with a typed
//!   [`ServeAsyncError::Overloaded`] instead of queueing into unbounded
//!   latency. Accounting is exact: `offered == accepted + rejected`, and
//!   after a drain `hits + misses + rejected == offered`.
//! * **Hot-swap** — [`AsyncServer::swap_model`] atomically replaces the
//!   served `Arc<ServingModel>`, fingerprint- and shape-checked against the
//!   running dataset, serialized with dispatch so every response is exactly
//!   one model's answer (never torn). Rejected swaps leave serving
//!   untouched.
//! * [`run_open_loop`] — an open-loop load generator reporting
//!   p50/p99/p99.9 admission→response latency vs offered load; `serve
//!   load` and perfbench's `serve-cold` workload drive the tier through it.
//!
//! ## Fidelity
//!
//! Dynamic batching never changes answers: each top-K row depends only on
//! its own user (the serve crate's batch-invariance contract), so any
//! coalescing/partition of a query stream is bit-identical to one
//! synchronous `top_k_batch` call, bit for bit. The property suite
//! (`tests/batcher_props.rs`) pins this.
//!
//! ## Determinism in tests
//!
//! All time-dependent behavior lives in the pure [`BatchQueue`] state
//! machine, which reads time only as explicit `now_ns` arguments via the
//! injectable [`Clock`]. The unit suites drive it with a [`MockClock`] —
//! every flush label (full, deadline, shutdown, idle) and its boundary is
//! covered without one real sleep, so nothing in CI is timing-flaky. The
//! threaded [`AsyncServer`] adds only lock/condvar plumbing around that
//! core.

#![warn(missing_docs)]

mod batcher;
mod clock;
mod loadgen;
pub mod net;
mod server;

pub use batcher::{BatchQueue, BatcherConfig, BatcherCounters, FlushReason, Pending};
pub use clock::{Clock, MockClock, SystemClock};
pub use loadgen::{run_open_loop, stream_user, LoadGenConfig, LoadReport};
pub use net::{Completion, CompletionPump};
pub use server::{
    AsyncServeConfig, AsyncServer, AsyncStats, LatencyProfile, PauseHandle, ServeAsyncError,
    SwapSnapshotError, Ticket, TicketError,
};

pub use msopds_serve::{
    ScoredItem, ServeConfig, ServingModel, Snapshot, SnapshotError, SnapshotSource, SwapError,
};
