//! # msopds-serve-net
//!
//! A fault-tolerant TCP transport in front of the async serving tier
//! (`msopds-serve-async`): real sockets, a versioned length-prefixed binary
//! protocol, per-connection backpressure, graceful drain, and a retrying
//! client — the layer that turns the in-process `submit`/`Ticket` API into
//! something a victim platform's query traffic can actually reach.
//!
//! The design center is **robustness with exact accounting**:
//!
//! * [`frame`] — the wire codec. Hostile bytes can never panic the decoder:
//!   truncation is "wait for more", everything else is a typed
//!   [`FrameError`]. Pinned by a truncation-at-every-byte fuzz suite.
//! * [`conn`] — per-connection nonblocking buffers and the in-flight window
//!   whose fill state *is* the backpressure signal (a full window stops
//!   reads; TCP pushes back on the client).
//! * [`server`] — [`NetServer`], one `poll(2)` thread over every socket,
//!   bridged to the batcher by `serve-async`'s `CompletionPump`. Typed
//!   failures map to wire rejects (`Overloaded` → `ResourceExhausted` with
//!   the queue cap, out-of-universe users, per-query deadline propagation
//!   with server-side deadline sheds counted separately). Slow clients are
//!   evicted; `SIGTERM` triggers a graceful drain after which
//!   `offered == completed + rejected + drained` holds **exactly** —
//!   the chaos suite (`tests/chaos.rs`) kills clients mid-batch and drains
//!   under load to pin that identity.
//! * [`client`] — [`NetClient`], blocking request/response with
//!   deterministic capped-exponential-backoff reconnects (resubmit only for
//!   idempotent queries), plus the pipelined windowed driver behind
//!   `serve connect`, so load generation scales with client processes.
//!
//! Socket-level fault sites (`serve_net.accept`, `serve_net.read`,
//! `serve_net.write`, `serve_net.conn`, `serve_net.write.delay`) are
//! drillable through `msopds-faultline`'s `MSOPDS_FAULT_PLAN` when built
//! with `--features fault-injection`.

#![warn(missing_docs)]

pub mod client;
pub mod conn;
pub mod frame;
pub mod poll;
pub mod server;

pub use client::{NetClient, NetClientError, PipelineReport, RetryPolicy};
pub use conn::{Conn, ReadOutcome, WRITE_HIGH_WATER};
pub use frame::{
    Frame, FrameDecoder, FrameError, FrameKind, RejectReason, MAX_PAYLOAD, WIRE_VERSION,
};
pub use poll::{drain_requested, install_drain_handler, request_drain};
pub use server::{NetServeConfig, NetServer, NetStats};

pub use msopds_serve::ScoredItem;
