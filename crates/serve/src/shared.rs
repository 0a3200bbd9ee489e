//! A thread-safe handle over [`ServeEngine`] for concurrent serving tiers.
//!
//! `ServeEngine` itself takes `&mut self`: every serve call mutates the
//! hot-user LRU (lookups refresh recency, misses insert, full caches evict)
//! and the running [`ServeStats`] totals. None of that state is atomic, and
//! the *invariant* the engine promises — `cache_hits + cache_misses ==
//! queries`, duplicate misses scored once — spans the whole lookup → score →
//! insert → account sequence. Two callers interleaving inside that sequence
//! could double-score a user, miscount a hit as a miss, or tear the LRU's
//! recency stamps.
//!
//! [`SharedServeEngine`] makes the engine's batch granularity the
//! concurrency granularity: one mutex around the entire engine, held for the
//! full critical section of each batch. That is the right lock scope for the
//! async serving tier, whose dynamic batcher dispatches one coalesced batch
//! at a time anyway — the lock adds one uncontended acquisition per *batch*,
//! not per query. Hot-swaps ([`SharedServeEngine::try_swap`]) take the same
//! lock, so a swap can only happen *between* batches: every response is
//! computed entirely against one model, never a torn mix.
//!
//! The `serve.*` telemetry counters are atomics and remain exact under
//! concurrency. The `serve.*` *gauges* published by
//! [`ServeStats::summarize`] are process-global last-writer-wins; publishing
//! through [`SharedServeEngine::summary`] serializes them with serving, so
//! one shared engine never publishes a half-updated summary.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::engine::{ServeConfig, ServeEngine, ServeStats, ServeSummary, SwapError};
use crate::model::{ScoredItem, ServingModel};

/// A cloneable, `Send + Sync` front end over one [`ServeEngine`].
///
/// All clones share the same engine (model, hot-user LRU, stats); each
/// method locks the engine for exactly one batch-level critical section.
/// See the module docs for why the whole engine is one lock domain.
#[derive(Clone)]
pub struct SharedServeEngine {
    inner: Arc<Mutex<ServeEngine>>,
}

impl SharedServeEngine {
    /// Wraps `engine` for shared use.
    pub fn new(engine: ServeEngine) -> Self {
        Self { inner: Arc::new(Mutex::new(engine)) }
    }

    /// The engine guard, recovering from a poisoned lock: the engine's state
    /// is batch-atomic (a panicking batch leaves no partial LRU or stats
    /// mutation observable to later batches that could violate the
    /// accounting invariant), so serving continues after a poisoned panic.
    fn lock(&self) -> MutexGuard<'_, ServeEngine> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// [`ServeEngine::serve_batch`] under the engine lock.
    ///
    /// # Panics
    /// Panics if any user id is out of range for the model.
    pub fn serve_batch(&self, users: &[usize]) -> Vec<Arc<Vec<ScoredItem>>> {
        self.lock().serve_batch(users)
    }

    /// [`ServeEngine::try_swap`] under the engine lock: the swap waits for
    /// any in-flight batch and the next batch serves the new model.
    pub fn try_swap(&self, model: Arc<ServingModel>) -> Result<Arc<ServingModel>, SwapError> {
        self.lock().try_swap(model)
    }

    /// A shared handle to the currently-served model.
    pub fn model_arc(&self) -> Arc<ServingModel> {
        self.lock().model_arc()
    }

    /// The engine's configuration.
    pub fn config(&self) -> ServeConfig {
        self.lock().config()
    }

    /// A snapshot of the running totals (cloned out under the lock, so the
    /// accounting invariant holds within the returned value).
    pub fn stats(&self) -> ServeStats {
        self.lock().stats().clone()
    }

    /// Summarizes and publishes run metrics under the engine lock (see
    /// [`ServeStats::summarize`] and the module docs on gauge publishing).
    pub fn summary(&self) -> ServeSummary {
        self.lock().summary()
    }
}

impl std::fmt::Debug for SharedServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedServeEngine").finish_non_exhaustive()
    }
}
