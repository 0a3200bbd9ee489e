//! The stateful serving front end: caching, batching, and request metrics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use msopds_telemetry::{self as telemetry, Counter, Gauge, Histogram};

use crate::lru::LruCache;
use crate::model::{ScorePrecision, ScoredItem, ServingModel};

static BATCHES: Counter = Counter::new("serve.batches");
static QUERIES: Counter = Counter::new("serve.queries");
static CACHE_HITS: Counter = Counter::new("serve.cache.hits");
static CACHE_MISSES: Counter = Counter::new("serve.cache.misses");
static USERS_PER_SEC: Gauge = Gauge::new("serve.users_per_sec");
static P50_US: Gauge = Gauge::new("serve.latency.p50_us");
static P99_US: Gauge = Gauge::new("serve.latency.p99_us");

/// Engine knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// List length returned per user.
    pub top_k: usize,
    /// Hot-user LRU capacity; 0 disables caching.
    pub cache_capacity: usize,
    /// Ignored: Exact64 is the only scoring kernel. Kept so existing
    /// `ServeConfig` literals still compile.
    pub precision: ScorePrecision,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { top_k: 10, cache_capacity: 256, precision: ScorePrecision::Exact64 }
    }
}

/// Running totals accumulated across [`ServeEngine::serve_batch`] calls.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Batches served.
    pub batches: u64,
    /// User queries answered (cache hits included).
    pub queries: u64,
    /// Queries answered from the hot-user cache.
    pub cache_hits: u64,
    /// Queries not found in the cache at lookup time. Every query is either
    /// a hit or a miss (`cache_hits + cache_misses == queries`); duplicate
    /// missing users within one batch each count a miss but are scored once.
    pub cache_misses: u64,
    /// Per-batch wall-clock latencies, microseconds, in a fixed-size
    /// histogram (15 KB however many batches are served).
    pub latencies_us: Histogram,
    /// Total wall-clock time inside `serve_batch`.
    pub total_time: Duration,
}

impl ServeStats {
    /// Condenses the running totals into summary rates and percentiles, and
    /// publishes them to the telemetry gauges. Reads the latency histogram
    /// in place: the cost does not grow with the number of batches served.
    pub fn summarize(&self) -> ServeSummary {
        let latency = self.latencies_us.snapshot();
        let secs = self.total_time.as_secs_f64();
        let summary = ServeSummary {
            batches: self.batches,
            queries: self.queries,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            users_per_sec: if secs > 0.0 { self.queries as f64 / secs } else { 0.0 },
            mean_us: if self.batches > 0 {
                self.total_time.as_micros() as f64 / self.batches as f64
            } else {
                0.0
            },
            p50_us: latency.quantile(0.50),
            p99_us: latency.quantile(0.99),
        };
        USERS_PER_SEC.set(summary.users_per_sec);
        P50_US.set(summary.p50_us as f64);
        P99_US.set(summary.p99_us as f64);
        summary
    }
}

/// Summary view of a serving run, suitable for logging or JSON export.
#[derive(Clone, Copy, Debug)]
pub struct ServeSummary {
    /// Batches served.
    pub batches: u64,
    /// User queries answered.
    pub queries: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Throughput over the whole run.
    pub users_per_sec: f64,
    /// Mean per-batch latency, microseconds.
    pub mean_us: f64,
    /// Median per-batch latency, microseconds: the nearest-rank median of
    /// the batch latencies within the [`Histogram`] error bound (1/64 of
    /// the value; exact below 64 µs).
    pub p50_us: u64,
    /// 99th-percentile per-batch latency, microseconds (same bound).
    pub p99_us: u64,
}

/// Why a snapshot hot-swap was refused. The engine keeps serving the running
/// model after a rejected swap — rejection is a per-call error, not a fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwapError {
    /// The offered model was fitted on different graph structure than the
    /// running one: its `(social, item)` CSR fingerprints disagree. Serving
    /// it would silently answer for the wrong world.
    FingerprintMismatch {
        /// Fingerprints of the model currently serving.
        running: (u64, u64),
        /// Fingerprints of the rejected snapshot.
        offered: (u64, u64),
    },
    /// The offered model's `(n_users, n_items)` universe differs from the
    /// running one's — front ends validate ids against a fixed universe, so
    /// a swap may retrain the world but never resize it.
    ShapeMismatch {
        /// `(n_users, n_items)` of the model currently serving.
        running: (usize, usize),
        /// `(n_users, n_items)` of the rejected snapshot.
        offered: (usize, usize),
    },
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::FingerprintMismatch { running, offered } => write!(
                f,
                "snapshot fingerprints {offered:?} do not match the running dataset {running:?}"
            ),
            SwapError::ShapeMismatch { running, offered } => write!(
                f,
                "snapshot universe {offered:?} does not match the served universe {running:?}"
            ),
        }
    }
}

impl std::error::Error for SwapError {}

/// A stateful serving front end over an immutable [`ServingModel`].
///
/// Each `serve_batch` call deduplicates the uncached users of the batch,
/// scores them in one top-K scan, refreshes the hot-user LRU, and
/// records latency. Caching never changes answers — the model is immutable
/// and its top-K order total — so a hit returns exactly what scoring would.
///
/// # Thread safety
///
/// `ServeEngine` is **not** `Sync`-shareable: every serve call mutates the
/// hot-user LRU and the running [`ServeStats`], so concurrent callers must
/// serialize through [`crate::SharedServeEngine`] (one mutex around the
/// whole lookup → score → insert → account critical section — that is what
/// keeps `cache_hits + cache_misses == queries` exact under concurrency).
/// The `serve.*` telemetry counters are atomic and may be incremented from
/// any engine in the process; the `serve.*` gauges published by
/// [`ServeStats::summarize`] are last-writer-wins process-global, so a
/// deployment with several engines should publish from one summary site.
pub struct ServeEngine {
    model: Arc<ServingModel>,
    cfg: ServeConfig,
    cache: LruCache<u32, Arc<Vec<ScoredItem>>>,
    stats: ServeStats,
}

impl ServeEngine {
    /// A new engine serving `model` with knobs `cfg`.
    pub fn new(model: ServingModel, cfg: ServeConfig) -> Self {
        Self::new_shared(Arc::new(model), cfg)
    }

    /// [`ServeEngine::new`] over an already-shared model (hot-swap tiers keep
    /// the previous `Arc` alive until its last in-flight batch retires).
    pub fn new_shared(model: Arc<ServingModel>, cfg: ServeConfig) -> Self {
        let cache = LruCache::new(cfg.cache_capacity);
        Self { model, cfg, cache, stats: ServeStats::default() }
    }

    /// The underlying immutable model.
    pub fn model(&self) -> &ServingModel {
        &self.model
    }

    /// A shared handle to the underlying model (the `Arc` a hot-swap
    /// replaces).
    pub fn model_arc(&self) -> Arc<ServingModel> {
        Arc::clone(&self.model)
    }

    /// Atomically replaces the served model, returning the previous one.
    ///
    /// The offered model must carry the **same CSR fingerprints** as the
    /// running one — the snapshot-invalidation rule of DESIGN.md §12 applied
    /// to swaps: a replacement is a *retrained* model of the same world, not
    /// a model of a different graph. On mismatch the swap is refused with a
    /// typed [`SwapError`] and the engine keeps serving the running model.
    ///
    /// On success the hot-user LRU is cleared (its entries are answers from
    /// the outgoing model) while the running [`ServeStats`] carry over, so
    /// accounting spans swaps. Because the caller holds `&mut self`, a swap
    /// can never interleave with a `serve_batch` — every batch is answered
    /// entirely by one model.
    pub fn try_swap(&mut self, model: Arc<ServingModel>) -> Result<Arc<ServingModel>, SwapError> {
        if model.fingerprints() != self.model.fingerprints() {
            return Err(SwapError::FingerprintMismatch {
                running: self.model.fingerprints(),
                offered: model.fingerprints(),
            });
        }
        let running = (self.model.n_users(), self.model.n_items());
        let offered = (model.n_users(), model.n_items());
        if running != offered {
            return Err(SwapError::ShapeMismatch { running, offered });
        }
        self.cache.clear();
        Ok(std::mem::replace(&mut self.model, model))
    }

    /// The engine's configuration.
    pub fn config(&self) -> ServeConfig {
        self.cfg
    }

    /// Running totals so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Answers a batch of user queries with top-K lists, in query order.
    /// Duplicate users within a batch are scored once.
    ///
    /// # Panics
    /// Panics if any user id is out of range for the model.
    pub fn serve_batch(&mut self, users: &[usize]) -> Vec<Arc<Vec<ScoredItem>>> {
        let _span = telemetry::span("serve_batch");
        let start = Instant::now();

        // Partition the batch into cache hits and misses; scoring dedupes
        // the missing users but every missed slot still counts as a miss.
        let mut answers: Vec<Option<Arc<Vec<ScoredItem>>>> = vec![None; users.len()];
        let mut misses: Vec<usize> = Vec::new();
        let mut miss_slots: u64 = 0;
        for (slot, &u) in users.iter().enumerate() {
            assert!(u < self.model.n_users(), "user id {u} out of range");
            if let Some(hit) = self.cache.get(&(u as u32)) {
                self.stats.cache_hits += 1;
                answers[slot] = Some(Arc::clone(hit));
            } else {
                miss_slots += 1;
                if !misses.contains(&u) {
                    misses.push(u);
                }
            }
        }
        let hits = users.len() as u64 - miss_slots;

        // One fused top-K scan over all missing users.
        if !misses.is_empty() {
            let lists = self.model.top_k_batch(&misses, self.cfg.top_k);
            for (&u, list) in misses.iter().zip(lists) {
                let shared = Arc::new(list);
                self.cache.insert(u as u32, Arc::clone(&shared));
                for (slot, &q) in users.iter().enumerate() {
                    if q == u && answers[slot].is_none() {
                        answers[slot] = Some(Arc::clone(&shared));
                    }
                }
            }
        }

        let elapsed = start.elapsed();
        self.stats.batches += 1;
        self.stats.queries += users.len() as u64;
        self.stats.cache_misses += miss_slots;
        self.stats.latencies_us.record(elapsed.as_micros() as u64);
        self.stats.total_time += elapsed;
        BATCHES.incr();
        QUERIES.add(users.len() as u64);
        CACHE_HITS.add(hits);
        CACHE_MISSES.add(miss_slots);

        answers.into_iter().map(|a| a.expect("every slot answered")).collect()
    }

    /// Summarizes and publishes run metrics (see [`ServeStats::summarize`]).
    pub fn summary(&self) -> ServeSummary {
        self.stats.summarize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msopds_autograd::Tensor;
    use msopds_recsys::snapshot::{ModelKind, Snapshot, SnapshotHeader};
    use msopds_recsys::Backend;

    fn tiny_model() -> ServingModel {
        // 3 users × 4 items × d=2, hand-picked so scores are exact.
        let user = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let item = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], &[4, 2]);
        let b_u = Tensor::from_vec(vec![0.1, 0.2, 0.3], &[3, 1]);
        let b_i = Tensor::from_vec(vec![0.0, 0.0, 0.0, 0.0], &[4, 1]);
        let snap = Snapshot {
            header: SnapshotHeader {
                kind: ModelKind::Mf,
                backend: Backend::Dense,
                seed: 7,
                social_fingerprint: 0,
                item_fingerprint: 0,
                n_users: 3,
                n_items: 4,
                mu: 3.0,
            },
            config_json: String::from("{}"),
            tensors: vec![
                (String::from("p"), user),
                (String::from("q"), item),
                (String::from("b_u"), b_u),
                (String::from("b_i"), b_i),
            ],
        };
        ServingModel::from_snapshot(&snap).expect("valid snapshot")
    }

    #[test]
    fn cached_answers_equal_fresh_answers() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(
            model.clone(),
            ServeConfig { top_k: 3, cache_capacity: 8, ..ServeConfig::default() },
        );
        // Items and score bits, so a hit that changed even a zero's sign
        // would show.
        let bits = |list: &[ScoredItem]| -> Vec<(u32, u64)> {
            list.iter().map(|s| (s.item, s.score.to_bits())).collect()
        };
        let first = engine.serve_batch(&[0, 1, 2]);
        let second = engine.serve_batch(&[2, 0]); // both should hit
        assert_eq!(bits(&second[0]), bits(&first[2]));
        assert_eq!(bits(&second[1]), bits(&first[0]));
        assert_eq!(engine.stats().cache_hits, 2);
        assert_eq!(engine.stats().cache_misses, 3);
        // And both match the model answered directly.
        assert_eq!(bits(&first[1]), bits(&model.top_k(1, 3)));
        assert_eq!(bits(&second[0]), bits(&model.top_k(2, 3)));
    }

    #[test]
    fn duplicate_users_in_batch_are_scored_once() {
        let mut engine = ServeEngine::new(
            tiny_model(),
            ServeConfig { top_k: 2, cache_capacity: 8, ..ServeConfig::default() },
        );
        let out = engine.serve_batch(&[1, 1, 1]);
        // All three slots miss (hits + misses always equals queries), but
        // the user is scored once and cached: a follow-up query hits.
        assert_eq!(engine.stats().cache_misses, 3);
        assert_eq!(engine.stats().cache_hits, 0);
        assert_eq!(engine.stats().queries, 3);
        assert_eq!(*out[0], *out[1]);
        assert_eq!(*out[1], *out[2]);
        let again = engine.serve_batch(&[1]);
        assert_eq!(engine.stats().cache_hits, 1);
        assert_eq!(*again[0], *out[0]);
    }

    #[test]
    fn zero_capacity_cache_still_serves_correctly() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(
            model.clone(),
            ServeConfig { top_k: 4, cache_capacity: 0, ..ServeConfig::default() },
        );
        let a = engine.serve_batch(&[0, 2]);
        let b = engine.serve_batch(&[0, 2]);
        assert_eq!(*a[0], *b[0]);
        assert_eq!(engine.stats().cache_hits, 0);
        assert_eq!(engine.stats().cache_misses, 4);
        assert_eq!(*a[1], model.top_k(2, 4));
    }

    /// `tiny_model` with every embedding value doubled: same shapes and
    /// fingerprints, different answers — a retrained model of the same world.
    fn tiny_model_doubled() -> ServingModel {
        let user = Tensor::from_vec(vec![2.0, 0.0, 0.0, 2.0, 2.0, 2.0], &[3, 2]);
        let item = Tensor::from_vec(vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0], &[4, 2]);
        let b_u = Tensor::from_vec(vec![0.2, 0.4, 0.6], &[3, 1]);
        let b_i = Tensor::from_vec(vec![0.0, 0.0, 0.0, 0.0], &[4, 1]);
        let snap = Snapshot {
            header: SnapshotHeader {
                kind: ModelKind::Mf,
                backend: Backend::Dense,
                seed: 8,
                social_fingerprint: 0,
                item_fingerprint: 0,
                n_users: 3,
                n_items: 4,
                mu: 3.0,
            },
            config_json: String::from("{}"),
            tensors: vec![
                (String::from("p"), user),
                (String::from("q"), item),
                (String::from("b_u"), b_u),
                (String::from("b_i"), b_i),
            ],
        };
        ServingModel::from_snapshot(&snap).expect("valid snapshot")
    }

    #[test]
    fn swap_clears_cache_and_serves_new_model() {
        let old = tiny_model();
        let new = tiny_model_doubled();
        let mut engine = ServeEngine::new(
            old.clone(),
            ServeConfig { top_k: 4, cache_capacity: 8, ..ServeConfig::default() },
        );
        let before = engine.serve_batch(&[0, 1]);
        assert_eq!(*before[0], old.top_k(0, 4));
        let prev = engine.try_swap(Arc::new(new.clone())).expect("fingerprints match");
        assert_eq!(prev.top_k(0, 4), old.top_k(0, 4));
        // The cache was cleared: the same users re-score (a miss each) and
        // the answers are the new model's, bit for bit.
        let after = engine.serve_batch(&[0, 1]);
        assert_eq!(*after[0], new.top_k(0, 4));
        assert_eq!(*after[1], new.top_k(1, 4));
        assert_eq!(engine.stats().cache_misses, 4);
        assert_eq!(engine.stats().queries, 4); // stats carried across the swap
    }

    #[test]
    fn swap_rejects_fingerprint_mismatch_and_keeps_serving() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(model.clone(), ServeConfig::default());
        let snap_mismatch = Snapshot {
            header: SnapshotHeader {
                kind: ModelKind::Mf,
                backend: Backend::Dense,
                seed: 7,
                social_fingerprint: 0xDEAD,
                item_fingerprint: 0xBEEF,
                n_users: 3,
                n_items: 4,
                mu: 3.0,
            },
            config_json: String::from("{}"),
            tensors: vec![
                (String::from("p"), Tensor::from_vec(vec![0.0; 6], &[3, 2])),
                (String::from("q"), Tensor::from_vec(vec![0.0; 8], &[4, 2])),
                (String::from("b_u"), Tensor::from_vec(vec![0.0; 3], &[3, 1])),
                (String::from("b_i"), Tensor::from_vec(vec![0.0; 4], &[4, 1])),
            ],
        };
        let offered = ServingModel::from_snapshot(&snap_mismatch).expect("valid snapshot");
        let err = engine.try_swap(Arc::new(offered)).unwrap_err();
        assert_eq!(
            err,
            SwapError::FingerprintMismatch { running: (0, 0), offered: (0xDEAD, 0xBEEF) }
        );
        // Serving continues on the old model.
        let served = engine.serve_batch(&[2]);
        assert_eq!(*served[0], model.top_k(2, 10));
    }

    #[test]
    fn summary_percentiles_are_ordered() {
        let mut engine = ServeEngine::new(tiny_model(), ServeConfig::default());
        for _ in 0..10 {
            engine.serve_batch(&[0, 1, 2]);
        }
        let s = engine.summary();
        assert_eq!(s.batches, 10);
        assert_eq!(s.queries, 30);
        assert!(s.p50_us <= s.p99_us);
        assert!(s.users_per_sec > 0.0);
    }
}
