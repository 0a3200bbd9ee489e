//! # msopds-serve
//!
//! The first *read path* of the workspace: load a trained-model [`Snapshot`]
//! into an immutable [`ServingModel`] and answer batched top-K
//! recommendation queries, without retraining and without the write-side
//! crates (planners, games, experiment harness) anywhere on the call stack.
//!
//! ## Fidelity contract
//!
//! On the default [`ScorePrecision::Exact64`] path, served scores are
//! **bit-identical** to what the in-process model would predict:
//! [`ServingModel::score_batch`] reproduces the exact floating-point
//! association order of `HetRec::predict` / `MF::predict`
//! (`((μ + b_u) + b_i) + Σ_k u_k·i_k`, with the dot product accumulated in
//! `k` order by the pooled matmul kernel). The fused top-K scan computes
//! every score in that same order without storing any, so its lists equal
//! a full selection over `score_batch` bit for bit. That makes a snapshot +
//! serve round trip a *regression fixture*: any drift between served lists
//! and in-process evaluation is a bug, not noise.
//!
//! The opt-in [`ScorePrecision::Fast32`] path trades that bit fidelity for
//! throughput: the same association order evaluated in `f32` by a
//! lane-unrolled panel kernel, tolerance-bounded against the exact path
//! (≤ 1e-4 on the golden worlds) rather than bit-equal. It never runs
//! unless explicitly selected per engine/batch, and cache entries are keyed
//! on `(user, precision)` so the two paths cannot contaminate each other.
//!
//! ## Determinism contract
//!
//! Top-K lists — ties included — are identical for any kernel-pool lane
//! count and for any batch size: each user's list is computed by one lane
//! from that user's row alone (and `score_batch`'s matmul is
//! bit-deterministic per DESIGN.md §6).
//! Ordering is total: score descending, then item id ascending, compared
//! with `f64::total_cmp` so even exotic payloads order reproducibly.
//!
//! ## Layers
//!
//! * [`ServingModel`] — immutable scorer: `score_batch` (the full score
//!   matrix, a pooled matmul), and `top_k` / `top_k_batch`, which score item
//!   panels straight into each user's bounded heap on the autograd worker
//!   pool and never build a score matrix;
//! * [`LruCache`] — a bounded, dependency-free LRU used for hot users;
//! * [`ServeEngine`] — stateful front end: per-user top-K cache, batch
//!   dedup, telemetry spans/counters and QPS / p50 / p99 latency tracking,
//!   plus fingerprint-checked model hot-swap ([`ServeEngine::try_swap`]);
//! * [`SharedServeEngine`] — the `Send + Sync` handle concurrent serving
//!   tiers (`msopds-serve-async`) use: one lock around the engine's whole
//!   batch-level critical section, so the hit/miss accounting invariant and
//!   swap atomicity survive concurrent callers.

#![warn(missing_docs)]

mod engine;
mod lru;
mod model;
mod shared;

pub use engine::{ServeConfig, ServeEngine, ServeStats, ServeSummary, SwapError};
pub use lru::LruCache;
pub use model::{ScorePrecision, ScoredItem, ServingModel};
pub use shared::SharedServeEngine;

pub use msopds_recsys::snapshot::{MappedSnapshot, Snapshot, SnapshotError, SnapshotSource};
