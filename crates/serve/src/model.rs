//! The immutable serving model and its batched scoring kernels.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use msopds_autograd::{pool, Tensor};
use msopds_recsys::snapshot::{MappedSnapshot, ModelKind, Snapshot, SnapshotError, SnapshotSource};
use msopds_recsys::Backend;
use msopds_telemetry::Counter;

static ITEMS_SCORED: Counter = Counter::new("serve.topk.items_scored");
static ITEMS_TOTAL: Counter = Counter::new("serve.topk.items_total");

/// Items per panel of the fused exact top-K scan: one panel of
/// [`ItemPanels`] is `d` strips of 64 f64, contiguous in memory (4 KB at
/// d = 8), small enough to stay in L1 while every user of a lane's chunk
/// scores against it.
const ITEM_PANEL: usize = 64;

/// Items whose dot products one user accumulates together inside a panel:
/// 16 independent f64 sums keep the add pipeline busy (one sum's chain of
/// `d` dependent adds no longer sets the pace) and still fit in registers.
const ITEM_GROUP: usize = 16;

/// The scoring kernel a serving call runs. Exact64 is the only one: every
/// score is bit-identical to [`ServingModel::predict`] and therefore to
/// training. The type is kept only so existing [`crate::ServeConfig`]
/// literals still compile; it selects nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScorePrecision {
    /// Bit-exact `f64` scoring (the training association order).
    #[default]
    Exact64,
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
    /// Final item embeddings, `[n_items, d]` (row-major; the top-K scan uses
    /// the bound-ordered copy below).
    item_f: Store,
    /// `item_f` and `b_i` re-laid once at load for the top-K scan. Always
    /// owned — it is a derived layout, not a snapshot payload.
    items: ItemPanels,
}

/// The item side of the top-K scan, built once at load: items sorted by
/// descending [`norm_bound`] (ties by ascending id) and packed panel-major,
/// so the items that can score highest come first and every panel carries
/// the maxima its skip test needs.
#[derive(Clone)]
struct ItemPanels {
    /// Embeddings in slot order, `[panel][d][ITEM_PANEL]`: strip `k` of a
    /// panel holds component `k` of its 64 items. The last panel is padded
    /// with zeros.
    q: Vec<f64>,
    /// The item id in each slot, `[n_items]`.
    ids: Vec<u32>,
    /// `b_i` in slot order, padded with zeros to whole panels.
    b: Vec<f64>,
    /// Per panel: the largest `norm_bound` of its items. The order makes this
    /// the panel's first slot's, and also the suffix maximum over this and
    /// every later panel.
    norm: Vec<f64>,
    /// Per panel: the largest `b_i`, a NaN counting as `+∞`.
    b_max: Vec<f64>,
    /// Suffix maxima of `b_max`: the largest `b_i` in this or any later panel.
    b_suffix: Vec<f64>,
}

impl ItemPanels {
    /// Lays out `n_items` rows of `q` (`[n_items, d]`, row-major) and their
    /// biases `b`. Sorts precomputed `(key, id)` pairs, where the key is the
    /// complemented bit pattern of the positive, never-NaN `norm_bound`, so
    /// integer order is descending norm and the id breaks ties.
    fn build(q: &[f64], b: &[f64], n_items: usize, d: usize) -> Self {
        let mut order: Vec<(u64, u32)> = (0..n_items)
            .map(|i| (!norm_bound(&q[i * d..(i + 1) * d]).to_bits(), i as u32))
            .collect();
        order.sort_unstable();
        let panels = n_items.div_ceil(ITEM_PANEL);
        let mut packed = vec![0.0f64; panels * d * ITEM_PANEL];
        let mut slot_b = vec![0.0f64; panels * ITEM_PANEL];
        let mut norm = Vec::with_capacity(panels);
        let mut b_max = vec![f64::NEG_INFINITY; panels];
        for (slot, &(key, id)) in order.iter().enumerate() {
            let (p, j) = (slot / ITEM_PANEL, slot % ITEM_PANEL);
            if j == 0 {
                norm.push(f64::from_bits(!key));
            }
            let strips = &mut packed[p * d * ITEM_PANEL..][..d * ITEM_PANEL];
            for (strip, &x) in strips.chunks_exact_mut(ITEM_PANEL).zip(&q[id as usize * d..]) {
                strip[j] = x;
            }
            let bi = b[id as usize];
            slot_b[slot] = bi;
            b_max[p] = if bi.is_nan() { f64::INFINITY } else { b_max[p].max(bi) };
        }
        let mut b_suffix = b_max.clone();
        for p in (1..panels).rev() {
            b_suffix[p - 1] = b_suffix[p - 1].max(b_suffix[p]);
        }
        let ids = order.into_iter().map(|(_, id)| id).collect();
        Self { q: packed, ids, b: slot_b, norm, b_max, b_suffix }
    }

    fn heap_bytes(&self) -> usize {
        8 * (self.q.len() + self.b.len() + self.norm.len() + self.b_max.len() + self.b_suffix.len())
            + 4 * self.ids.len()
    }
}

impl std::fmt::Debug for ItemPanels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ItemPanels[{} items, {} panels]", self.ids.len(), self.norm.len())
    }
}

/// The smallest value [`norm_bound`] returns, `2^-448`: keeps every bound
/// product `‖u‖·‖q‖` at or above `2^-896`, in the normal range.
const NORM_FLOOR: f64 = f64::from_bits((1023 - 448) << 52);

/// `1 + (2d + 16)·ε` with `ε = 2^-53`: the relative pad of [`norm_bound`]
/// and of the dot bound, large enough for both error budgets below.
fn bound_pad(d: usize) -> f64 {
    1.0 + (2 * d + 16) as f64 * f64::EPSILON / 2.0
}

/// An upper bound on the Euclidean norm `‖v‖` of `v`, as a real number:
/// `max(fl(fl(√S)·pad), 2^-448)`, with `S = fl(Σ v_k²)` summed in `k` order
/// and `pad = bound_pad(d)`. A NaN component gives `+∞`, never NaN, so an
/// item with one sorts first and its panel is never skipped.
///
/// Why it is an upper bound. Write `ε = 2^-53` and `η = 2^-1075`. Each
/// square rounds as `v_k²(1+δ) + η_k` (`|δ| ≤ ε`, `|η_k| ≤ η`, the second
/// only when the result is subnormal), and each addition of non-negative
/// terms by at most a factor `1 - ε` downward, so
/// `Σ v_k² ≤ S/(1-ε)^d + d·η`.
/// * If `S ≥ 2^-898`, then `d·η ≤ S·d·2^-177`, and with `√` and the product
///   by `pad` each correctly rounded (each loses at most a factor `1 - ε`),
///   `fl(fl(√S)·pad) ≥ ‖v‖·pad·(1-ε)^(d/2+2)/(1 + d·2^-177) ≥ ‖v‖` whenever
///   `d·ε ≤ 1/4`, i.e. for every `d` that fits in memory. An overflow gives
///   `+∞`, which bounds anything.
/// * If `S < 2^-898`, then `Σ v_k² < 2^-897`, so `‖v‖ < 2^-448`, the floor.
fn norm_bound(v: &[f64]) -> f64 {
    let s = v.iter().fold(0.0f64, |s, &x| s + x * x);
    if s.is_nan() {
        return f64::INFINITY;
    }
    (s.sqrt() * bound_pad(v.len())).max(NORM_FLOOR)
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
/// tensor — a pure copy, so `score_batch` sees the same operand on both
/// storage paths.
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
        let items = ItemPanels::build(item_f.data(), b_i.data(), n_items, item_f.cols());
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
            items,
        })
    }

    /// Builds a serving model over a mapped snapshot without copying any
    /// payload: embeddings and biases are served straight out of the map.
    /// Only the derived, bound-ordered item layout of the top-K scan is built
    /// on the heap.
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
        let items = ItemPanels::build(item_f.data(), b_i.data(), n_items, item_f.cols());
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
            items,
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

    /// Heap bytes held for model parameters: owned payloads plus the derived
    /// item layout of the top-K scan (the item embeddings and biases in bound
    /// order, one `u32` id per item and three `f64` per 64-item panel). On
    /// the mmap path this is just the derived layout — flat in user count.
    pub fn heap_param_bytes(&self) -> usize {
        self.b_u.heap_bytes()
            + self.b_i.heap_bytes()
            + self.user_f.heap_bytes()
            + self.item_f.heap_bytes()
            + self.items.heap_bytes()
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
    /// It is the oracle the top-K scan is tested against; serving never
    /// calls it.
    ///
    /// The heavy step is a matmul `U[batch] · Iᵀ` that row-partitions
    /// across the autograd worker pool (bit-deterministic at any lane count);
    /// the bias/μ combine is a linear pass in the same association order as
    /// [`ServingModel::predict`], so every score is bit-identical to the
    /// in-process model's. The `[d, n_items]` operand `Iᵀ` is built per
    /// call, so the model keeps no second resident copy of the items.
    ///
    /// # Panics
    /// Panics if any user id is out of range.
    pub fn score_batch(&self, users: &[usize]) -> Tensor {
        let m = self.n_items();
        let rows = self.user_f.gather_rows(users);
        let dots = rows.matmul(&transposed(self.item_f.data(), m, self.dim()));
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
    /// Scoring and selection are fused into one scan per lane. Each lane
    /// takes a contiguous share of the batch (disjoint rows, so parallel
    /// answers are identical to sequential ones) and walks the bound-ordered
    /// item layout in [`ITEM_PANEL`]-wide panels, largest `‖q‖` first. For
    /// every user of its share still active it first tests the panel's bound
    /// against the user's heap floor, then, unless skipped, accumulates the
    /// panel's dot products [`ITEM_GROUP`] items at a time on the stack, adds
    /// the biases and offers the scores to that user's [`TopK`] heap. The
    /// panel is reused from L1 by the whole share and no score matrix is
    /// ever built.
    ///
    /// **Pruning.** For user `u` and panel `P`, with `base = μ + b_u`,
    /// `bound = (base + max_{i∈P} b_i) + D` in the score's own association
    /// order, where `D = fl(fl(‖u‖⁺·max_{i∈P} ‖q_i‖⁺)·pad)` and `‖·‖⁺` is
    /// [`norm_bound`]. If `bound < floor` the user skips the panel; if the
    /// same bound over the suffix maxima (this and every later panel) is
    /// below the floor, the user leaves the lane's active list.
    ///
    /// Why a skipped item cannot enter. Let `ε = 2^-53`, `η = 2^-1075`.
    /// Every computed dot satisfies
    /// `|fl(u·q)| ≤ (1+γ_d)·(Σ_k |u_k q_k| + d·η)`, `γ_d = dε/(1-dε)`
    /// (recursive summation from `0.0`; skipping `u_k == 0` only drops
    /// terms; `η` covers products that land subnormal). By Cauchy–Schwarz
    /// `Σ|u_k q_k| ≤ ‖u‖‖q‖ ≤ ‖u‖⁺‖q‖⁺`, both factors are at least `2^-448`,
    /// so `d·η ≤ 2^-179·d·‖u‖⁺‖q‖⁺`, and the two roundings in `D` each lose at
    /// most a factor `1 - ε` on a normal product. With `pad = 1 + (2d+16)ε`,
    /// `pad·(1-ε)² ≥ (1+γ_d)(1 + d·2^-179)` for `dε ≤ 1/4`, hence
    /// `D ≥ |fl(u·q)|` for every item of the panel (or `D = +∞` on overflow).
    /// Round-to-nearest is monotone, so from `b_i ≤ max b` and
    /// `fl(u·q) ≤ D`: `((base + b_i) + fl(u·q)) ≤ ((base + max b) + D)`,
    /// i.e. `score ≤ bound < floor`: the `k` items already in the heap all
    /// rank above the item, so it is not in the list. The suffix bound
    /// bounds every later panel's bound the same way, so dropping the user
    /// loses nothing either.
    /// A NaN or `±∞` anywhere (in `u`, `q`, `b_u`, `b_i`, or an overflowed
    /// dot) makes `‖u‖⁺`, `‖q‖⁺`, `max b`, `D` or `base` infinite or NaN,
    /// so `bound` is `+∞` or NaN and `bound < floor` is false: nothing is
    /// skipped. The test is strict, so an item tied with the floor can still
    /// enter by its id.
    ///
    /// Bitwise equal to a full selection over [`ServingModel::score_batch`]:
    /// each computed dot product starts at `0.0` and accumulates in `k`
    /// order, skipping `u_k == 0` — the sequence the `ikj` matmul applies to
    /// each output element — and the combine is `((μ + b_u) + b_i) + dot`.
    /// Items are offered out of id order, which selects the same list
    /// because [`rank`] is a strict total order.
    ///
    /// Each call adds the items it scored and `users × n_items` to the
    /// `serve.topk.items_scored` and `serve.topk.items_total` counters.
    ///
    /// # Panics
    /// Panics if any user id is out of range.
    pub fn top_k_batch(&self, users: &[usize], k: usize) -> Vec<Vec<ScoredItem>> {
        let (lists, scored) = self.scan(users, k);
        ITEMS_SCORED.add(scored as u64);
        ITEMS_TOTAL.add((users.len() * self.n_items()) as u64);
        lists
    }

    /// The body of [`ServingModel::top_k_batch`]; also returns how many
    /// items were scored, summed over users.
    fn scan(&self, users: &[usize], k: usize) -> (Vec<Vec<ScoredItem>>, usize) {
        for &u in users {
            assert!(u < self.n_users(), "user id {u} out of range");
        }
        let (d, m) = (self.dim(), self.n_items());
        let k = k.min(m);
        if k == 0 {
            return (vec![Vec::new(); users.len()], 0);
        }
        let (uf, bu) = (self.user_f.data(), self.b_u.data());
        let items = &self.items;
        let pad = bound_pad(d);
        let scored = AtomicUsize::new(0);
        let slots: Vec<OnceLock<Vec<ScoredItem>>> =
            (0..users.len()).map(|_| OnceLock::new()).collect();
        let chunk = users.len().div_ceil(pool::lanes()).max(1);
        pool::for_each_range(users.len(), chunk, |start, end| {
            let mut share: Vec<UserScan> = users[start..end]
                .iter()
                .map(|&u| {
                    let row = &uf[u * d..(u + 1) * d];
                    UserScan {
                        row,
                        base: self.mu + bu[u],
                        norm: norm_bound(row),
                        heap: TopK::new(k),
                    }
                })
                .collect();
            let mut active: Vec<usize> = (0..share.len()).collect();
            let mut lane_scored = 0;
            for (p, &q_norm) in items.norm.iter().enumerate() {
                if active.is_empty() {
                    break;
                }
                let first = p * ITEM_PANEL;
                let ids = &items.ids[first..(first + ITEM_PANEL).min(m)];
                let b = &items.b[first..first + ITEM_PANEL];
                let panel = &items.q[first * d..(first + ITEM_PANEL) * d];
                active.retain(|&j| {
                    let user = &mut share[j];
                    let dot_bound = user.norm * q_norm * pad;
                    let floor = user.heap.floor;
                    if user.base + items.b_suffix[p] + dot_bound < floor {
                        return false;
                    }
                    if user.base + items.b_max[p] + dot_bound < floor {
                        return true;
                    }
                    for g in (0..ids.len()).step_by(ITEM_GROUP) {
                        let dots = panel_dots(user.row, panel, g);
                        let mut scores = [0.0f64; ITEM_GROUP];
                        for ((s, &bi), &dot) in scores.iter_mut().zip(&b[g..]).zip(&dots) {
                            *s = user.base + bi + dot;
                        }
                        user.heap.offer_run(&ids[g..(g + ITEM_GROUP).min(ids.len())], &scores);
                    }
                    lane_scored += ids.len();
                    true
                });
            }
            scored.fetch_add(lane_scored, Ordering::Relaxed);
            for (r, user) in (start..end).zip(share) {
                let _ = slots[r].set(user.heap.finish());
            }
        });
        let lists =
            slots.into_iter().map(|s| s.into_inner().expect("every row computed")).collect();
        (lists, scored.into_inner())
    }
}

/// One user's state in a lane of the top-K scan.
struct UserScan<'a> {
    /// The user's embedding row.
    row: &'a [f64],
    /// `μ + b_u`, the first step of every score.
    base: f64,
    /// [`norm_bound`] of `row`.
    norm: f64,
    heap: TopK,
}

/// The dot products of one user row `u` with items `g..g + ITEM_GROUP` of a
/// `[d][ITEM_PANEL]` panel. Each sum starts at `0.0` and accumulates in `k`
/// order, skipping `u_k == 0`: per item, the exact sequence of the `ikj`
/// matmul behind [`ServingModel::score_batch`].
#[inline(always)]
fn panel_dots(u: &[f64], panel: &[f64], g: usize) -> [f64; ITEM_GROUP] {
    let mut acc = [0.0f64; ITEM_GROUP];
    for (&uk, strip) in u.iter().zip(panel.chunks_exact(ITEM_PANEL)) {
        if uk == 0.0 {
            continue;
        }
        let strip: &[f64; ITEM_GROUP] =
            strip[g..g + ITEM_GROUP].try_into().expect("group in panel");
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

/// Streaming selection of the top `k` candidates under [`rank`]: candidates are offered one at a time into a bounded
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

    /// Offers `scores[j]` as item `ids[j]`, in order — the same as one
    /// [`TopK::offer`] each, but a run with no score at or above the floor
    /// is rejected by one branch-free pass. `scores` may run past `ids`
    /// (the padding slots of the last panel); those extras are never offered.
    #[inline]
    fn offer_run(&mut self, ids: &[u32], scores: &[f64]) {
        let floor = self.floor;
        if !scores.iter().fold(false, |any, &s| any | (s >= floor || s.is_nan())) {
            return;
        }
        for (&id, &s) in ids.iter().zip(scores) {
            self.offer(id, s);
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
        let (p, q) = (fill(n_users * d), fill(n_items * d));
        let (b_u, b_i) = (fill(n_users), fill(n_items));
        model_of(3.2, d, p, q, b_u, b_i)
    }

    /// An in-memory Mf model with the given `μ` and row-major payloads.
    fn model_of(
        mu: f64,
        d: usize,
        p: Vec<f64>,
        q: Vec<f64>,
        b_u: Vec<f64>,
        b_i: Vec<f64>,
    ) -> ServingModel {
        let (n_users, n_items) = (b_u.len(), b_i.len());
        let snap = Snapshot {
            header: SnapshotHeader {
                kind: ModelKind::Mf,
                backend: Backend::Dense,
                seed: 11,
                social_fingerprint: 0,
                item_fingerprint: 0,
                n_users: n_users as u64,
                n_items: n_items as u64,
                mu,
            },
            config_json: String::from("{}"),
            tensors: vec![
                (String::from("p"), Tensor::from_vec(p, &[n_users, d])),
                (String::from("q"), Tensor::from_vec(q, &[n_items, d])),
                (String::from("b_u"), Tensor::from_vec(b_u, &[n_users, 1])),
                (String::from("b_i"), Tensor::from_vec(b_i, &[n_items, 1])),
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

    /// A model whose item norms spread over `e^-4..1` in a shuffled id
    /// order (random directions), with small item biases: most panels fall
    /// below a user's floor once the heap fills.
    fn skewed_model(n_users: usize, n_items: usize, d: usize) -> ServingModel {
        let mut draw = lcg();
        let p: Vec<f64> = (0..n_users * d).map(|_| draw()).collect();
        let mut q: Vec<f64> = (0..n_items * d).map(|_| draw()).collect();
        for (i, row) in q.chunks_exact_mut(d).enumerate() {
            let rank = (i * 7919) % n_items;
            let scale = (-4.0 * rank as f64 / n_items as f64).exp();
            row.iter_mut().for_each(|x| *x *= scale);
        }
        let b_u = (0..n_users).map(|_| draw()).collect();
        let b_i = (0..n_items).map(|_| 0.1 * draw()).collect();
        model_of(3.2, d, p, q, b_u, b_i)
    }

    /// Asserts the scan equals `top_k_row` over `score_batch` bit for bit for
    /// every user of `users` and returns the scanned-item count.
    fn assert_matches_oracle(model: &ServingModel, users: &[usize], k: usize) -> usize {
        let m = model.n_items();
        let scores = model.score_batch(users);
        let (got, scored) = model.scan(users, k);
        assert_eq!(got.len(), users.len());
        for (r, g) in got.iter().enumerate() {
            let e = top_k_row(&scores.data()[r * m..(r + 1) * m], k);
            let bits = |l: &[ScoredItem]| -> Vec<(u32, u64)> {
                l.iter().map(|x| (x.item, x.score.to_bits())).collect()
            };
            assert_eq!(bits(g), bits(&e), "m {m} k {k} row {r} user {}", users[r]);
        }
        scored
    }

    /// Every item scores exactly `μ = 2^52`: each dot is below half an ulp
    /// of it, so every panel's bound rounds to `2^52` too and equals the
    /// floor once the heap fills. Lower ids sit in later panels (smaller
    /// norms), so the answer needs every panel: a `bound <= floor` skip
    /// would keep ids 192.. instead of 0..10.
    #[test]
    fn bound_equal_to_floor_is_not_skipped() {
        let m = 4 * ITEM_PANEL;
        let q = (0..m).map(|i| (i + 1) as f64 * 2f64.powi(-30)).collect();
        let model = model_of(2f64.powi(52), 1, vec![1.0], q, vec![0.0], vec![0.0; m]);
        let scored = assert_matches_oracle(&model, &[0], 10);
        assert_eq!(scored, m);
        let top = model.top_k(0, 10);
        assert_eq!(top.iter().map(|x| x.item).collect::<Vec<_>>(), (0..10).collect::<Vec<_>>());
        assert!(top.iter().all(|x| x.score == 2f64.powi(52)));
    }

    /// The pad in the dot bound is needed: for `u = x = (a, b, 0)` the
    /// computed `fl(fl(√S)·fl(√S))` is one ulp below the computed dot `S`.
    /// Panel 0 holds item 1 (`(a, b, 1)`, score exactly `S`, so the floor at
    /// `k = 1` is `S`) and 63 items scoring `-S`; item 0 (`x`, a smaller
    /// norm) alone in panel 1 ties at `S` and wins by its id. An unpadded
    /// bound would drop it.
    #[test]
    fn dot_bound_pad_covers_rounding_of_the_norms() {
        let (a, b) = (0.6864336754504866f64, 0.8098510160219619f64);
        let s = a * a + b * b;
        assert!(s.sqrt() * s.sqrt() < s, "the case needs an unpadded bound below S");
        let mut q = vec![a, b, 0.0, a, b, 1.0];
        for _ in 0..ITEM_PANEL - 1 {
            q.extend_from_slice(&[-a, -b, 1.0]);
        }
        let m = ITEM_PANEL + 1;
        let model = model_of(0.0, 3, vec![a, b, 0.0], q, vec![0.0], vec![0.0; m]);
        assert_eq!(&model.items.ids[..2], &[1, 2]);
        assert_eq!(model.items.ids[ITEM_PANEL], 0);
        assert_matches_oracle(&model, &[0], 1);
        assert_eq!(model.top_k(0, 1), vec![ScoredItem { item: 0, score: s }]);
    }

    /// Items with identical computed norms keep ascending id order across
    /// panel boundaries, behind the larger-norm items they follow.
    #[test]
    fn equal_norms_across_a_panel_boundary_keep_id_order() {
        let m = 2 * ITEM_PANEL + 2;
        let (a, b) = (0.375, 0.5);
        let mut q = Vec::with_capacity(2 * m);
        for i in 0..m {
            // Sign flips keep the squares and their summation order, so the
            // computed norms are bitwise equal; ids 100.. get twice the norm.
            let s = if i >= 100 { 2.0 } else { 1.0 };
            let (x, y) = if i % 2 == 0 { (a, b) } else { (-a, b) };
            q.extend_from_slice(&[s * x, if i % 3 == 0 { -s * y } else { s * y }]);
        }
        let mut draw = lcg();
        let p: Vec<f64> = (0..6 * 2).map(|_| draw()).collect();
        let model = model_of(3.2, 2, p, q, vec![0.0; 6], vec![0.0; m]);
        let expect: Vec<u32> = (100..m as u32).chain(0..100).collect();
        assert_eq!(model.items.ids, expect);
        for k in [1, 5, ITEM_PANEL, ITEM_PANEL + 1, m] {
            assert_matches_oracle(&model, &[0, 1, 2, 3, 4, 5], k);
        }
    }

    /// NaN and ±∞ in `q`, `b_i` and `u` make the bound infinite or NaN, so
    /// no panel holding them is skipped and no user is dropped before them;
    /// the lists still equal the oracle's bit for bit (NaN payloads
    /// included). The bad `b_i` sit on small-norm items, in panels a
    /// finite user would otherwise skip.
    #[test]
    fn non_finite_payloads_are_never_skipped() {
        let (m, d, n_users) = (5 * ITEM_PANEL + 7, 4, 8);
        let base = skewed_model(n_users, m, d);
        let low = |rank: usize| (0..m).find(|&i| (i * 7919) % m == rank).expect("a rank");
        let (p0, q0) = (base.user_f.data().to_vec(), base.item_f.data().to_vec());
        let (bu0, bi0) = (base.b_u.data().to_vec(), base.b_i.data().to_vec());
        let mut cases: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = Vec::new();
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut q = q0.clone();
            q[low(m - 3) * d + 1] = x;
            cases.push((p0.clone(), q, bi0.clone()));
            let mut b = bi0.clone();
            b[low(m - 1)] = x;
            cases.push((p0.clone(), q0.clone(), b));
            let mut p = p0.clone();
            p[2 * d + 3] = x;
            p[3 * d..4 * d].fill(0.0);
            cases.push((p, q0.clone(), bi0.clone()));
        }
        let users: Vec<usize> = (0..n_users).collect();
        for (p, q, b_i) in cases {
            let model = model_of(3.2, d, p, q, bu0.clone(), b_i);
            for k in [1, 3, 10] {
                assert_matches_oracle(&model, &users, k);
            }
        }
    }

    /// With `k ≥ n_items` the heap never fills before the last item, so
    /// nothing is skipped and every item is listed.
    #[test]
    fn k_at_or_past_n_items_scores_everything() {
        let (m, n_users) = (2 * ITEM_PANEL + 9, 5);
        let model = skewed_model(n_users, m, 3);
        let users: Vec<usize> = (0..n_users).collect();
        for k in [m, m + 10] {
            assert_eq!(assert_matches_oracle(&model, &users, k), n_users * m);
        }
    }

    /// The pruned scan equals the oracle on the `fastpath` bench's item
    /// counts (multiples of 512), at 1 and 2 lanes.
    #[test]
    fn pruned_scan_matches_oracle_at_512_and_4096_items() {
        for m in [512, 4096] {
            let model = skewed_model(24, m, 8);
            let users: Vec<usize> = (0..24).chain([3, 3, 7]).collect();
            for lanes in [1, 2] {
                pool::configure_threads(lanes);
                for k in [1, 10] {
                    let scored = assert_matches_oracle(&model, &users, k);
                    assert!(scored < users.len() * m, "m {m} k {k}: nothing skipped");
                }
            }
        }
        pool::configure_threads(0);
    }

    /// The scored-item count: under half of `batch × n_items` on a skewed
    /// model, and exactly all of it when every item has the same norm and
    /// bias (each bound then bounds every score, so never drops below a
    /// floor, which is itself a score).
    #[test]
    fn scored_count_tracks_the_norm_spread() {
        let (m, d, batch) = (4096, 8, 32);
        let users: Vec<usize> = (0..batch).collect();
        let skewed = skewed_model(batch, m, d);
        let (_, scored) = skewed.scan(&users, 10);
        assert!(2 * scored < batch * m, "skewed model scored {scored} of {}", batch * m);

        let mut draw = lcg();
        let v: Vec<f64> = (0..d).map(|_| draw()).collect();
        let q: Vec<f64> =
            (0..m * d).map(|j| if draw() < 0.0 { -v[j % d] } else { v[j % d] }).collect();
        let p: Vec<f64> = (0..batch * d).map(|_| draw()).collect();
        let flat = model_of(3.2, d, p, q, vec![0.1; batch], vec![-0.2; m]);
        let (_, scored) = flat.scan(&users, 10);
        assert_eq!(scored, batch * m);
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
