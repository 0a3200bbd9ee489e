//! The immutable serving model and its batched scoring kernels.

use std::path::Path;
use std::sync::{Arc, OnceLock};

use msopds_autograd::{pool, Tensor};
use msopds_recsys::snapshot::{MappedSnapshot, ModelKind, Snapshot, SnapshotError, SnapshotSource};
use msopds_recsys::Backend;

/// Items per panel of the fused exact top-K scan: one panel of `item_t` is
/// `d` strips of 64 contiguous f64 (4 KB at d = 8), small enough to stay in
/// L1 while every user of a lane's chunk scores against it.
const ITEM_PANEL: usize = 64;

/// Items whose dot products one user accumulates together inside a panel:
/// 16 independent f64 sums keep the add pipeline busy (one sum's chain of
/// `d` dependent adds no longer sets the pace) and still fit in registers.
const ITEM_GROUP: usize = 16;

/// Lane width of the f32 fast-path kernel: item embeddings are packed into
/// panels of 8 items so the inner loop reads one contiguous 8-wide block per
/// embedding component (8 × f32 = one 256-bit vector register).
const F32_LANES: usize = 8;

/// Which scoring kernel a serving call runs.
///
/// [`Exact64`](ScorePrecision::Exact64) is the default and the only path the
/// golden traces exercise: every score is bit-identical to
/// [`ServingModel::predict`] and therefore to training. [`Fast32`]
/// (ScorePrecision::Fast32) is the opt-in throughput path: scores are
/// computed in `f32` with the **same association order** as the exact kernel
/// (`((μ + b_u) + b_i) + Σₖ uₖ·qₖ`, the dot product accumulated in `k`
/// order), so the only deviation is rounding — bounded by the tolerance
/// trace tests at 1e-4 on the golden worlds. Top-K *sets* may differ from
/// exact only where neighboring scores are closer than that rounding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ScorePrecision {
    /// Bit-exact `f64` scoring (the training association order).
    #[default]
    Exact64,
    /// Lane-unrolled `f32` scoring; tolerance-bounded.
    Fast32,
}

impl ScorePrecision {
    /// Canonical lowercase name (`exact64` | `fast32`).
    pub fn as_str(&self) -> &'static str {
        match self {
            ScorePrecision::Exact64 => "exact64",
            ScorePrecision::Fast32 => "fast32",
        }
    }

    /// The precision named by the `MSOPDS_PRECISION` environment variable,
    /// or `Exact64` when unset.
    ///
    /// # Panics
    /// Panics on an unrecognized value — a misspelled precision must not
    /// silently serve different numbers.
    pub fn from_env() -> Self {
        match std::env::var("MSOPDS_PRECISION") {
            Ok(s) => s.parse().unwrap_or_else(|e: String| panic!("MSOPDS_PRECISION: {e}")),
            Err(_) => ScorePrecision::Exact64,
        }
    }
}

impl std::str::FromStr for ScorePrecision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "exact64" | "exact" | "f64" => Ok(ScorePrecision::Exact64),
            "fast32" | "fast" | "f32" => Ok(ScorePrecision::Fast32),
            other => Err(format!("unknown precision {other:?} (expected exact64|fast32)")),
        }
    }
}

impl std::fmt::Display for ScorePrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One entry of a top-K answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredItem {
    /// Item id.
    pub item: u32,
    /// Predicted rating (unclamped, same scale as `HetRec::predict`).
    pub score: f64,
}

/// Where one model tensor's payload lives: copied onto the heap (the classic
/// path) or still inside a shared snapshot mapping (the zero-copy path of
/// [`ServingModel::open`] with [`SnapshotSource::Mmap`]). Both hand out the
/// same row-major `&[f64]`, so every kernel downstream is storage-agnostic
/// and bit-identical across the two.
#[derive(Clone)]
enum Store {
    Owned(Tensor),
    Mapped { map: Arc<MappedSnapshot>, name: &'static str, rows: usize, cols: usize },
}

impl Store {
    fn rows(&self) -> usize {
        match self {
            Store::Owned(t) => t.rows(),
            Store::Mapped { rows, .. } => *rows,
        }
    }

    fn cols(&self) -> usize {
        match self {
            Store::Owned(t) => t.cols(),
            Store::Mapped { cols, .. } => *cols,
        }
    }

    /// The row-major payload. The mapped arm re-resolves the directory entry
    /// (a handful of name compares) — callers on hot paths hoist this once
    /// per batch, never per row.
    fn data(&self) -> &[f64] {
        match self {
            Store::Owned(t) => t.data(),
            Store::Mapped { map, name, .. } => map.view(name).expect("validated at load").data(),
        }
    }

    /// Flat index read (cold paths only).
    fn get(&self, i: usize) -> f64 {
        self.data()[i]
    }

    /// Copies the given rows into a dense `[rows.len(), cols]` tensor — the
    /// same gather the owned tensor performs, so `score_batch`'s matmul sees
    /// bit-identical inputs regardless of storage.
    fn gather_rows(&self, rows: &[usize]) -> Tensor {
        match self {
            Store::Owned(t) => t.gather_rows(rows),
            Store::Mapped { cols, .. } => {
                let d = *cols;
                let data = self.data();
                let mut out = Vec::with_capacity(rows.len() * d);
                for &r in rows {
                    out.extend_from_slice(&data[r * d..(r + 1) * d]);
                }
                Tensor::from_vec(out, &[rows.len(), d])
            }
        }
    }

    fn is_mapped(&self) -> bool {
        matches!(self, Store::Mapped { .. })
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Store::Owned(t) => t.numel() * 8,
            Store::Mapped { .. } => 0,
        }
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Store::Owned(t) => write!(f, "Owned[{}, {}]", t.rows(), t.cols()),
            Store::Mapped { name, rows, cols, .. } => write!(f, "Mapped({name})[{rows}, {cols}]"),
        }
    }
}

/// An immutable trained recommender loaded from a [`Snapshot`], holding only
/// what the read path needs: the final user/item embeddings, the bias
/// vectors and μ. Construction validates shapes once; serving then runs
/// without any checks on the hot path.
#[derive(Clone, Debug)]
pub struct ServingModel {
    kind: ModelKind,
    backend: Backend,
    seed: u64,
    social_fingerprint: u64,
    item_fingerprint: u64,
    mu: f64,
    b_u: Store,
    b_i: Store,
    /// Final user embeddings, `[n_users, d]`.
    user_f: Store,
    /// Final item embeddings, `[n_items, d]` (row-major; the scoring kernels
    /// use the transposed copy below).
    item_f: Store,
    /// `item_f` transposed once at load time: `[d, n_items]`. Always owned —
    /// it is a derived layout, not a snapshot payload.
    item_t: Tensor,
    /// Lazily-built f32 fast-path tables (shared across clones; built on the
    /// first [`ScorePrecision::Fast32`] call and never on the exact path).
    fast: Arc<OnceLock<FastPath>>,
}

/// The precomputed `f32` tables of the fast scoring kernel.
///
/// Item embeddings are packed into ⌈m/8⌉ *panels*: panel `p` holds items
/// `8p..8p+8` interleaved by component, entry `(p·d + k)·8 + j` being
/// component `k` of item `8p + j` (tail items zero-padded). One panel's
/// scoring pass reads `d` contiguous 8-lane blocks — unit-stride streams the
/// autovectorizer turns into one fused multiply-add per block — instead of 8
/// strided item rows.
struct FastPath {
    mu: f32,
    b_u: Vec<f32>,
    b_i: Vec<f32>,
    /// User embeddings, row-major `[n_users, d]`.
    user_f: Vec<f32>,
    /// Panel-packed item embeddings, `⌈m/8⌉ · d · 8` entries.
    item_panels: Vec<f32>,
    d: usize,
    m: usize,
}

impl std::fmt::Debug for FastPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FastPath")
            .field("users", &self.b_u.len())
            .field("items", &self.m)
            .field("dim", &self.d)
            .finish()
    }
}

impl FastPath {
    fn build(model: &ServingModel) -> Self {
        let (d, m) = (model.dim(), model.n_items());
        let item = model.item_f.data();
        let n_panels = m.div_ceil(F32_LANES);
        let mut item_panels = vec![0.0f32; n_panels * d * F32_LANES];
        for p in 0..n_panels {
            for k in 0..d {
                for j in 0..F32_LANES {
                    let i = p * F32_LANES + j;
                    if i < m {
                        item_panels[(p * d + k) * F32_LANES + j] = item[i * d + k] as f32;
                    }
                }
            }
        }
        Self {
            mu: model.mu as f32,
            b_u: model.b_u.data().iter().map(|&v| v as f32).collect(),
            b_i: model.b_i.data().iter().map(|&v| v as f32).collect(),
            user_f: model.user_f.data().iter().map(|&v| v as f32).collect(),
            item_panels,
            d,
            m,
        }
    }

    /// Scores every item for `user` into `out` (length `m`).
    ///
    /// Association order per item: `((μ + b_u) + b_i) + Σₖ uₖ·qₖ` with the
    /// dot product accumulated strictly in `k` order — the exact kernel's
    /// order, in `f32`. The 8-wide unroll runs *across items* (8 independent
    /// accumulators), never inside one dot product, so the order is
    /// deterministic and documented rather than lane-count-dependent.
    fn score_into(&self, user: usize, out: &mut [f32]) {
        let (d, m) = (self.d, self.m);
        debug_assert_eq!(out.len(), m);
        let u = &self.user_f[user * d..(user + 1) * d];
        let base = self.mu + self.b_u[user];
        for (p, panel) in self.item_panels.chunks_exact(d * F32_LANES).enumerate() {
            let mut acc = [0.0f32; F32_LANES];
            for (k, lane) in panel.chunks_exact(F32_LANES).enumerate() {
                let uk = u[k];
                for j in 0..F32_LANES {
                    acc[j] += uk * lane[j];
                }
            }
            let i0 = p * F32_LANES;
            for (j, &a) in acc.iter().take(m - i0).enumerate() {
                out[i0 + j] = (base + self.b_i[i0 + j]) + a;
            }
        }
    }
}

/// The snapshot tensor names a model kind serves from.
fn embedding_names(kind: ModelKind) -> (&'static str, &'static str) {
    match kind {
        ModelKind::HetRec => ("finals.user", "finals.item"),
        ModelKind::Mf => ("p", "q"),
    }
}

/// Shared shape validation for both storage paths.
fn check_shapes(
    n_users: usize,
    n_items: usize,
    user: (usize, usize),
    item: (usize, usize),
    b_u: usize,
    b_i: usize,
) -> Result<(), SnapshotError> {
    if user.0 != n_users || item.0 != n_items {
        return Err(SnapshotError::Corrupt {
            context: format!(
                "embedding row counts {}×{} disagree with header {n_users}×{n_items}",
                user.0, item.0
            ),
        });
    }
    if user.1 != item.1 {
        return Err(SnapshotError::Corrupt {
            context: format!("user dim {} != item dim {}", user.1, item.1),
        });
    }
    if b_u != n_users || b_i != n_items {
        return Err(SnapshotError::Corrupt {
            context: format!("bias lengths {b_u}/{b_i} disagree with header {n_users}×{n_items}"),
        });
    }
    Ok(())
}

/// `[rows, cols]` row-major data transposed into an owned `[cols, rows]`
/// tensor — a pure copy, so both storage paths derive bit-identical `item_t`.
fn transposed(data: &[f64], rows: usize, cols: usize) -> Tensor {
    let mut out = vec![0.0f64; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = data[r * cols + c];
        }
    }
    Tensor::from_vec(out, &[cols, rows])
}

impl ServingModel {
    /// Builds a serving model from a parsed snapshot. For
    /// [`ModelKind::HetRec`] the served embeddings are the post-convolution
    /// finals; for [`ModelKind::Mf`] the factor matrices themselves.
    pub fn from_snapshot(snap: &Snapshot) -> Result<Self, SnapshotError> {
        let (user_name, item_name) = embedding_names(snap.header.kind);
        let user_f = snap.require(user_name)?.clone();
        let item_f = snap.require(item_name)?.clone();
        let b_u = snap.require("b_u")?.clone();
        let b_i = snap.require("b_i")?.clone();
        let (n_users, n_items) = (snap.header.n_users as usize, snap.header.n_items as usize);
        check_shapes(
            n_users,
            n_items,
            (user_f.rows(), user_f.cols()),
            (item_f.rows(), item_f.cols()),
            b_u.numel(),
            b_i.numel(),
        )?;
        let item_t = transposed(item_f.data(), n_items, item_f.cols());
        Ok(Self {
            kind: snap.header.kind,
            backend: snap.header.backend,
            seed: snap.header.seed,
            social_fingerprint: snap.header.social_fingerprint,
            item_fingerprint: snap.header.item_fingerprint,
            mu: snap.header.mu,
            b_u: Store::Owned(b_u),
            b_i: Store::Owned(b_i),
            user_f: Store::Owned(user_f),
            item_f: Store::Owned(item_f),
            item_t,
            fast: Arc::new(OnceLock::new()),
        })
    }

    /// Builds a serving model over a mapped snapshot without copying any
    /// payload except the derived `item_t` transpose and the lazily-built
    /// f32 tables: embeddings and biases are served straight out of the map.
    ///
    /// Payload checksums are *not* verified here (that would read every byte
    /// and defeat the O(header) load); call
    /// [`MappedSnapshot::verify_payloads`] first when integrity matters.
    pub fn from_mapped(map: Arc<MappedSnapshot>) -> Result<Self, SnapshotError> {
        let header = *map.header();
        let (user_name, item_name) = embedding_names(header.kind);
        let (n_users, n_items) = (header.n_users as usize, header.n_items as usize);
        let store = |name: &'static str| -> Result<Store, SnapshotError> {
            let v = map.require_view(name)?;
            Ok(Store::Mapped { map: Arc::clone(&map), name, rows: v.rows(), cols: v.cols() })
        };
        let user_f = store(user_name)?;
        let item_f = store(item_name)?;
        let b_u = store("b_u")?;
        let b_i = store("b_i")?;
        check_shapes(
            n_users,
            n_items,
            (user_f.rows(), user_f.cols()),
            (item_f.rows(), item_f.cols()),
            b_u.rows() * b_u.cols(),
            b_i.rows() * b_i.cols(),
        )?;
        let item_t = transposed(item_f.data(), n_items, item_f.cols());
        Ok(Self {
            kind: header.kind,
            backend: header.backend,
            seed: header.seed,
            social_fingerprint: header.social_fingerprint,
            item_fingerprint: header.item_fingerprint,
            mu: header.mu,
            b_u,
            b_i,
            user_f,
            item_f,
            item_t,
            fast: Arc::new(OnceLock::new()),
        })
    }

    /// The single loading entry point: heap-parses `Owned`/`File` sources,
    /// memory-maps files behind [`SnapshotSource::Mmap`], and serves
    /// bit-identical scores either way.
    pub fn open(source: &SnapshotSource) -> Result<Self, SnapshotError> {
        match source {
            SnapshotSource::Mmap(path) => Self::from_mapped(Arc::new(MappedSnapshot::open(path)?)),
            _ => Self::from_snapshot(&Snapshot::open(source)?),
        }
    }

    /// Reads a snapshot file and builds the serving model — a thin wrapper
    /// over [`ServingModel::open`] with a [`SnapshotSource::File`] (one
    /// buffered read; use [`SnapshotSource::Mmap`] for zero-copy loads).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::open(&SnapshotSource::file(path))
    }

    /// True when embeddings and biases are served out of a file mapping
    /// rather than heap copies.
    pub fn is_zero_copy(&self) -> bool {
        self.user_f.is_mapped()
    }

    /// Heap bytes held for model parameters (owned payloads plus the derived
    /// `item_t` transpose; the lazily-built f32 tables are excluded). On the
    /// mmap path this is just `item_t` — flat in user count.
    pub fn heap_param_bytes(&self) -> usize {
        self.b_u.heap_bytes()
            + self.b_i.heap_bytes()
            + self.user_f.heap_bytes()
            + self.item_f.heap_bytes()
            + self.item_t.numel() * 8
    }

    /// User universe size.
    pub fn n_users(&self) -> usize {
        self.user_f.rows()
    }

    /// Item universe size.
    pub fn n_items(&self) -> usize {
        self.item_f.rows()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.user_f.cols()
    }

    /// Model family the snapshot held.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Training-time GraphOps backend (provenance only; serving math is
    /// backend-independent).
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Model init seed (provenance).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The `(social, item)` CSR fingerprints stamped at fit time.
    pub fn fingerprints(&self) -> (u64, u64) {
        (self.social_fingerprint, self.item_fingerprint)
    }

    /// Predicted rating of one `(user, item)` pair, in the exact
    /// floating-point association order of `HetRec::predict`.
    ///
    /// # Panics
    /// Panics on out-of-range ids (serving front ends validate ids once per
    /// batch; see [`ServingModel::score_batch`]).
    pub fn predict(&self, user: usize, item: usize) -> f64 {
        let d = self.user_f.cols();
        let u = &self.user_f.data()[user * d..(user + 1) * d];
        let q = &self.item_f.data()[item * d..(item + 1) * d];
        self.mu + self.b_u.get(user) + self.b_i.get(item) + (0..d).map(|k| u[k] * q[k]).sum::<f64>()
    }

    /// Scores every item for a batch of users: returns `[batch, n_items]`.
    ///
    /// The heavy step is a matmul `U[batch] · Iᵀ` that row-partitions
    /// across the autograd worker pool (bit-deterministic at any lane count);
    /// the bias/μ combine is a linear pass in the same association order as
    /// [`ServingModel::predict`], so every score is bit-identical to the
    /// in-process model's.
    ///
    /// # Panics
    /// Panics if any user id is out of range.
    pub fn score_batch(&self, users: &[usize]) -> Tensor {
        let m = self.n_items();
        let rows = self.user_f.gather_rows(users);
        let dots = rows.matmul(&self.item_t);
        let dot_data = dots.data();
        let bi = self.b_i.data();
        let bu = self.b_u.data();
        let mut out = Vec::with_capacity(users.len() * m);
        for (r, &u) in users.iter().enumerate() {
            let base = self.mu + bu[u];
            let drow = &dot_data[r * m..(r + 1) * m];
            for i in 0..m {
                out.push(base + bi[i] + drow[i]);
            }
        }
        Tensor::from_vec(out, &[users.len(), m])
    }

    /// The top `k` items for one user, ordered by score descending with item
    /// id as the (ascending) tiebreak — a total, reproducible order.
    pub fn top_k(&self, user: usize, k: usize) -> Vec<ScoredItem> {
        self.top_k_batch(&[user], k).pop().expect("one row per user")
    }

    /// The top `k` items for each user of a batch. Each row's list depends
    /// only on that user's embedding row, so answers are invariant to how
    /// queries are batched.
    ///
    /// Scoring and selection are fused: item panels of `item_t` are scored
    /// straight into each user's bounded heap, so no score matrix is ever
    /// built. The batch is split across the worker pool by user (disjoint
    /// rows, so parallel answers are identical to sequential ones).
    ///
    /// # Panics
    /// Panics if any user id is out of range.
    pub fn top_k_batch(&self, users: &[usize], k: usize) -> Vec<Vec<ScoredItem>> {
        self.top_k_batch_with(users, k, ScorePrecision::Exact64)
    }

    /// [`ServingModel::top_k_batch`] with an explicit scoring kernel.
    ///
    /// [`ScorePrecision::Exact64`] runs the fused bit-exact scan;
    /// [`ScorePrecision::Fast32`] scores in `f32` (see [`ScorePrecision`] for
    /// the fidelity contract) and upcasts each score as it is offered, so
    /// returned `score` fields are exactly the f32 kernel's values.
    ///
    /// # Panics
    /// Panics if any user id is out of range.
    pub fn top_k_batch_with(
        &self,
        users: &[usize],
        k: usize,
        precision: ScorePrecision,
    ) -> Vec<Vec<ScoredItem>> {
        for &u in users {
            assert!(u < self.n_users(), "user id {u} out of range");
        }
        match precision {
            ScorePrecision::Exact64 => self.top_k_batch_exact(users, k),
            ScorePrecision::Fast32 => self.top_k_batch_fast(users, k),
        }
    }

    /// The exact path: one fused scan per lane. Each lane takes a contiguous
    /// share of the batch and walks `item_t` in [`ITEM_PANEL`]-wide panels;
    /// for every user of its share it accumulates the panel's dot products
    /// [`ITEM_GROUP`] items at a time on the stack, adds the biases and
    /// offers the scores to that user's [`TopK`] heap, so the panel is
    /// reused from L1 by the whole share and no score row is ever stored.
    ///
    /// Bitwise equal to a full selection over [`ServingModel::score_batch`]:
    /// each dot product starts at `0.0` and accumulates in `k` order,
    /// skipping `u_k == 0` — the sequence the `ikj` matmul applies to each
    /// output element — the combine is `((μ + b_u) + b_i) + dot`, and items
    /// are offered in ascending id order.
    fn top_k_batch_exact(&self, users: &[usize], k: usize) -> Vec<Vec<ScoredItem>> {
        let (d, m) = (self.dim(), self.n_items());
        let k = k.min(m);
        if k == 0 {
            return vec![Vec::new(); users.len()];
        }
        let (uf, bu, bi) = (self.user_f.data(), self.b_u.data(), self.b_i.data());
        let it = self.item_t.data();
        let slots: Vec<OnceLock<Vec<ScoredItem>>> =
            (0..users.len()).map(|_| OnceLock::new()).collect();
        let chunk = users.len().div_ceil(pool::lanes()).max(1);
        pool::for_each_range(users.len(), chunk, |start, end| {
            let share = &users[start..end];
            let mut heaps: Vec<TopK> = share.iter().map(|_| TopK::new(k)).collect();
            for i0 in (0..m).step_by(ITEM_PANEL) {
                let i1 = (i0 + ITEM_PANEL).min(m);
                for (&u, heap) in share.iter().zip(&mut heaps) {
                    let urow = &uf[u * d..(u + 1) * d];
                    let base = self.mu + bu[u];
                    let mut i = i0;
                    while i + ITEM_GROUP <= i1 {
                        let dots = item_dots::<ITEM_GROUP>(urow, it, m, i);
                        let mut scores = [0.0f64; ITEM_GROUP];
                        for ((s, &b), &dot) in scores.iter_mut().zip(&bi[i..]).zip(&dots) {
                            *s = base + b + dot;
                        }
                        heap.offer_run(i as u32, &scores);
                        i += ITEM_GROUP;
                    }
                    for (i, &b) in (i..i1).zip(&bi[i..i1]) {
                        let [dot] = item_dots::<1>(urow, it, m, i);
                        heap.offer(i as u32, base + b + dot);
                    }
                }
            }
            for (r, heap) in (start..end).zip(heaps) {
                let _ = slots[r].set(heap.finish());
            }
        });
        slots.into_iter().map(|s| s.into_inner().expect("every row computed")).collect()
    }

    /// The f32 fast path: the panel-packed kernel scores whole rows, and the
    /// shared [`TopK`] heap selects over the f32 scores upcast one at a time
    /// — no f64 score matrix is ever materialized.
    fn top_k_batch_fast(&self, users: &[usize], k: usize) -> Vec<Vec<ScoredItem>> {
        let m = self.n_items();
        let fast = self.fast();
        let slots: Vec<OnceLock<Vec<ScoredItem>>> =
            (0..users.len()).map(|_| OnceLock::new()).collect();
        let chunk = users.len().div_ceil(pool::lanes()).max(1);
        pool::for_each_range(users.len(), chunk, |start, end| {
            let mut scratch = vec![0.0f32; m];
            for r in start..end {
                fast.score_into(users[r], &mut scratch);
                let mut heap = TopK::new(k.min(m));
                for (i, &s) in scratch.iter().enumerate() {
                    heap.offer(i as u32, s as f64);
                }
                let _ = slots[r].set(heap.finish());
            }
        });
        slots.into_iter().map(|s| s.into_inner().expect("every row computed")).collect()
    }

    /// Scores every item for a batch of users in `f32`: returns a row-major
    /// `[batch, n_items]` buffer from the panel-packed fast kernel. This is
    /// the raw-score counterpart of [`ServingModel::score_batch`] for
    /// [`ScorePrecision::Fast32`] consumers and benchmarks.
    ///
    /// # Panics
    /// Panics if any user id is out of range.
    pub fn score_batch_f32(&self, users: &[usize]) -> Vec<f32> {
        let m = self.n_items();
        for &u in users {
            assert!(u < self.n_users(), "user id {u} out of range");
        }
        let fast = self.fast();
        let slots: Vec<OnceLock<Vec<f32>>> = (0..users.len()).map(|_| OnceLock::new()).collect();
        let chunk = users.len().div_ceil(pool::lanes()).max(1);
        pool::for_each_range(users.len(), chunk, |start, end| {
            for r in start..end {
                let mut row = vec![0.0f32; m];
                fast.score_into(users[r], &mut row);
                let _ = slots[r].set(row);
            }
        });
        let mut out = Vec::with_capacity(users.len() * m);
        for s in slots {
            out.extend(s.into_inner().expect("every row computed"));
        }
        out
    }

    /// The lazily-built f32 tables (one build per model, shared by clones).
    fn fast(&self) -> &FastPath {
        self.fast.get_or_init(|| FastPath::build(self))
    }
}

/// The dot products of one user row `u` with items `i..i + N`, read from
/// the `[d, m]` transposed item matrix `it`. Each sum starts at `0.0` and
/// accumulates in `k` order, skipping `u_k == 0`: per item, the exact
/// sequence of the `ikj` matmul behind [`ServingModel::score_batch`].
#[inline(always)]
fn item_dots<const N: usize>(u: &[f64], it: &[f64], m: usize, i: usize) -> [f64; N] {
    let mut acc = [0.0f64; N];
    for (k, &uk) in u.iter().enumerate() {
        if uk == 0.0 {
            continue;
        }
        let strip: &[f64; N] = it[k * m + i..][..N].try_into().expect("N items in range");
        for (a, &q) in acc.iter_mut().zip(strip) {
            *a += uk * q;
        }
    }
    acc
}

/// The serving total order: score descending, then item id ascending.
fn rank(a: &ScoredItem, b: &ScoredItem) -> std::cmp::Ordering {
    b.score.total_cmp(&a.score).then(a.item.cmp(&b.item))
}

/// Streaming selection of the top `k` candidates under [`rank`], shared by
/// the exact and fast paths so both make the same selection for the same
/// scores: candidates are offered one at a time into a bounded
/// worst-at-root heap, and [`TopK::finish`] returns them best first.
///
/// Most candidates score below the current k-th and are rejected by one
/// comparison against the cached `floor`; a survivor replaces the root and
/// sifts down in O(log k). Since [`rank`] is a strict total order (item ids
/// are distinct), the selected set and its sorted output do not depend on
/// the data structure. The heap's own buffer is the only allocation and
/// becomes the answer.
struct TopK {
    k: usize,
    /// The root's score once the heap is full, `-∞` while it fills: a
    /// candidate scoring below it cannot be selected. Ties, ±0.0 and NaN
    /// are not below it and go on to the full total order.
    floor: f64,
    heap: Vec<ScoredItem>,
}

impl TopK {
    /// An empty selection of at most `k` entries (callers clamp `k` to the
    /// candidate count, which bounds the allocation).
    fn new(k: usize) -> Self {
        Self { k, floor: f64::NEG_INFINITY, heap: Vec::with_capacity(k) }
    }

    /// Offers one candidate.
    #[inline]
    fn offer(&mut self, item: u32, score: f64) {
        if score < self.floor {
            return;
        }
        let cand = ScoredItem { item, score };
        if self.heap.len() < self.k {
            self.heap.push(cand);
            if self.heap.len() == self.k {
                // Heapify once the buffer is full: worst element to the root.
                for n in (0..self.k / 2).rev() {
                    sift_down(&mut self.heap, n);
                }
                self.floor = self.heap[0].score;
            }
            return;
        }
        match self.heap.first() {
            Some(worst) if rank(&cand, worst).is_lt() => {
                self.heap[0] = cand;
                sift_down(&mut self.heap, 0);
                self.floor = self.heap[0].score;
            }
            _ => {}
        }
    }

    /// Offers `scores[j]` as item `first + j`, in order — the same as one
    /// [`TopK::offer`] each, but a run with no score at or above the floor
    /// is rejected by one branch-free pass.
    #[inline]
    fn offer_run(&mut self, first: u32, scores: &[f64]) {
        let floor = self.floor;
        if !scores.iter().fold(false, |any, &s| any | (s >= floor || s.is_nan())) {
            return;
        }
        for (j, &s) in scores.iter().enumerate() {
            self.offer(first + j as u32, s);
        }
    }

    /// The selected entries, best first.
    fn finish(mut self) -> Vec<ScoredItem> {
        self.heap.sort_unstable_by(rank);
        self.heap
    }
}

/// Restores the worst-at-root heap property from node `n` downward: every
/// parent must rank no *better* than its children, so the root is always the
/// current k-th (worst kept) entry and eviction is a root replacement.
fn sift_down(heap: &mut [ScoredItem], mut n: usize) {
    loop {
        let (l, r) = (2 * n + 1, 2 * n + 2);
        let mut worst = n;
        if l < heap.len() && rank(&heap[l], &heap[worst]).is_gt() {
            worst = l;
        }
        if r < heap.len() && rank(&heap[r], &heap[worst]).is_gt() {
            worst = r;
        }
        if worst == n {
            return;
        }
        heap.swap(n, worst);
        n = worst;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msopds_recsys::snapshot::SnapshotHeader;

    /// An in-memory Mf model whose payloads (embeddings, then biases) are
    /// drawn in order from `draw`.
    fn mf_model(
        n_users: usize,
        n_items: usize,
        d: usize,
        mut draw: impl FnMut() -> f64,
    ) -> ServingModel {
        let mut fill = |n: usize| -> Vec<f64> { (0..n).map(|_| draw()).collect() };
        let snap = Snapshot {
            header: SnapshotHeader {
                kind: ModelKind::Mf,
                backend: Backend::Dense,
                seed: 11,
                social_fingerprint: 0,
                item_fingerprint: 0,
                n_users: n_users as u64,
                n_items: n_items as u64,
                mu: 3.2,
            },
            config_json: String::from("{}"),
            tensors: vec![
                (String::from("p"), Tensor::from_vec(fill(n_users * d), &[n_users, d])),
                (String::from("q"), Tensor::from_vec(fill(n_items * d), &[n_items, d])),
                (String::from("b_u"), Tensor::from_vec(fill(n_users), &[n_users, 1])),
                (String::from("b_i"), Tensor::from_vec(fill(n_items), &[n_items, 1])),
            ],
        };
        ServingModel::from_snapshot(&snap).expect("valid snapshot")
    }

    /// Uniform draws in [-0.5, 0.5) from an LCG.
    fn lcg() -> impl FnMut() -> f64 {
        let mut state = 0x2545F4914F6CDD1Du64;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        }
    }

    /// An Mf model with pseudo-random (LCG) embeddings so the f32 kernel sees
    /// non-trivial rounding; `n_items` is deliberately not a multiple of
    /// [`F32_LANES`] so every panel-tail branch runs.
    fn lcg_model(n_users: usize, n_items: usize, d: usize) -> ServingModel {
        mf_model(n_users, n_items, d, lcg())
    }

    /// The three-pass oracle's selection: every score of one row offered to
    /// [`TopK`] in item order.
    fn top_k_row(row: &[f64], k: usize) -> Vec<ScoredItem> {
        let mut heap = TopK::new(k.min(row.len()));
        for (i, &s) in row.iter().enumerate() {
            heap.offer(i as u32, s);
        }
        heap.finish()
    }

    /// The fused exact scan must equal `top_k_row` over `score_batch` bit
    /// for bit — items, order and `score.to_bits()` — on both sides of every
    /// panel boundary, for users with zero (and negative-zero) embedding
    /// components, duplicate users in one batch, and 1 or 2 pool lanes.
    #[test]
    fn fused_exact_top_k_matches_score_batch_oracle_across_panels() {
        const P: usize = ITEM_PANEL;
        let d = 5;
        for m in [1, P - 1, P, P + 1, 3 * P + 5] {
            // Half the draws sit on a coarse grid, so exact zeros and tied
            // scores are common; the rest are LCG values with full mantissas.
            let mut lcg = lcg();
            let mut n = 0u64;
            let mut model = mf_model(6, m, d, move || {
                n += 1;
                let x = lcg();
                if n.is_multiple_of(2) {
                    (x * 8.0).round() * 0.25
                } else {
                    x
                }
            });
            // User 0 has an all-zero embedding; user 1 mixes ±0.0 components.
            let mut p = model.user_f.data().to_vec();
            p[..d].fill(0.0);
            p[d] = -0.0;
            p[d + 2] = 0.0;
            model.user_f = Store::Owned(Tensor::from_vec(p, &[model.n_users(), d]));
            let users = [2usize, 0, 1, 3, 4, 5, 2, 0, 5];
            let scores = model.score_batch(&users);
            for k in [0, 1, 10, m, m + 5] {
                let expect: Vec<Vec<ScoredItem>> = (0..users.len())
                    .map(|r| top_k_row(&scores.data()[r * m..(r + 1) * m], k))
                    .collect();
                for lanes in [1, 2] {
                    pool::configure_threads(lanes);
                    let got = model.top_k_batch(&users, k);
                    assert_eq!(got.len(), users.len());
                    for (r, (g, e)) in got.iter().zip(&expect).enumerate() {
                        assert_eq!(g.len(), k.min(m), "m {m} k {k} lanes {lanes} row {r}");
                        for (x, y) in g.iter().zip(e) {
                            assert_eq!(
                                (x.item, x.score.to_bits()),
                                (y.item, y.score.to_bits()),
                                "m {m} k {k} lanes {lanes} row {r}"
                            );
                        }
                    }
                }
            }
        }
        pool::configure_threads(0);
    }

    #[test]
    fn fast32_scores_track_exact_within_tolerance() {
        // 29 items: 3 full panels + a 5-item tail.
        let model = lcg_model(7, 29, 16);
        let users: Vec<usize> = (0..model.n_users()).collect();
        let exact = model.score_batch(&users);
        let fast = model.score_batch_f32(&users);
        assert_eq!(fast.len(), users.len() * model.n_items());
        for (e, f) in exact.data().iter().zip(&fast) {
            assert!((e - *f as f64).abs() < 1e-4, "exact {e} vs fast {f}");
        }
    }

    #[test]
    fn fast32_top_k_matches_exact_on_separated_scores() {
        let model = lcg_model(5, 23, 8);
        let users = [0usize, 3, 4, 1];
        let exact = model.top_k_batch_with(&users, 6, ScorePrecision::Exact64);
        let fast = model.top_k_batch_with(&users, 6, ScorePrecision::Fast32);
        assert_eq!(exact, model.top_k_batch(&users, 6));
        for (erow, frow) in exact.iter().zip(&fast) {
            assert_eq!(erow.len(), frow.len());
            for (e, f) in erow.iter().zip(frow) {
                // With random embeddings neighboring scores are far apart
                // relative to f32 rounding, so the item *sets and order*
                // agree; only the score bits differ.
                assert_eq!(e.item, f.item);
                assert!((e.score - f.score).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn fast32_top_k_handles_k_edge_cases() {
        let model = lcg_model(3, 10, 4);
        assert!(model.top_k_batch_with(&[1], 0, ScorePrecision::Fast32)[0].is_empty());
        let all = model.top_k_batch_with(&[1], 50, ScorePrecision::Fast32);
        assert_eq!(all[0].len(), 10);
    }

    #[test]
    fn precision_parses_and_round_trips() {
        assert_eq!("exact64".parse::<ScorePrecision>().unwrap(), ScorePrecision::Exact64);
        assert_eq!("f64".parse::<ScorePrecision>().unwrap(), ScorePrecision::Exact64);
        assert_eq!("Fast32".parse::<ScorePrecision>().unwrap(), ScorePrecision::Fast32);
        assert_eq!("f32".parse::<ScorePrecision>().unwrap(), ScorePrecision::Fast32);
        assert!("quad".parse::<ScorePrecision>().is_err());
        assert_eq!(ScorePrecision::Fast32.to_string(), "fast32");
        assert_eq!(ScorePrecision::default(), ScorePrecision::Exact64);
    }

    #[test]
    fn top_k_row_orders_and_breaks_ties_by_id() {
        let row = [1.0, 3.0, 3.0, -2.0, 5.0];
        let top = top_k_row(&row, 3);
        assert_eq!(
            top,
            vec![
                ScoredItem { item: 4, score: 5.0 },
                ScoredItem { item: 1, score: 3.0 },
                ScoredItem { item: 2, score: 3.0 },
            ]
        );
    }

    #[test]
    fn top_k_row_handles_k_edge_cases() {
        let row = [2.0, 1.0];
        assert!(top_k_row(&row, 0).is_empty());
        assert_eq!(top_k_row(&row, 5).len(), 2);
        assert_eq!(top_k_row(&row, 5)[0].item, 0);
    }

    #[test]
    fn total_order_handles_negative_zero() {
        let row = [0.0, -0.0];
        let top = top_k_row(&row, 2);
        // total_cmp: +0.0 > -0.0, so item 0 leads.
        assert_eq!(top[0].item, 0);
        assert_eq!(top[1].item, 1);
    }
}
