//! Graph → operator bridges for the convolution of eq. (15), plus the
//! structure cache behind the [`crate::graphops::GraphOps`] backend API.
//!
//! Representation builders (`dense_adjacency`, `sparse_adjacency`,
//! `inv_degree`) are crate-private: models go through `GraphOps`, which is
//! the only public way to obtain an adjacency operator. Derived structures
//! are memoized per thread on the graph's structural fingerprint, with a
//! process-wide generation counter so [`clear_graph_tensor_cache`] empties
//! *every* thread's cache — including pooled workers — not just the caller's.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use msopds_autograd::{SparseMatrix, SparseOperand, Tensor, Var};
use msopds_het_graph::CsrGraph;
use msopds_telemetry as telemetry;

use crate::graphops::AdjacencyOp;

/// Derived-graph-structure requests served from the thread-local LRU.
static LRU_HITS: telemetry::Counter = telemetry::Counter::new("recsys.adjacency_lru.hits");
/// Derived-graph-structure requests that rebuilt the structure.
static LRU_MISSES: telemetry::Counter = telemetry::Counter::new("recsys.adjacency_lru.misses");

/// What a cached derived structure represents; part of the cache key.
#[derive(Clone, Copy, PartialEq, Eq)]
enum GraphTensorKind {
    Adjacency,
    InvDegree,
    SparseAdjacency,
}

/// A cached derived structure: a dense tensor or a CSR operand pair.
#[derive(Clone)]
enum CachedValue {
    Dense(Tensor),
    Sparse(Arc<SparseOperand>),
}

/// One cached derived structure, keyed by (structural fingerprint, node
/// count, kind). The node count guards the (already negligible) fingerprint
/// collision case across differently-sized graphs.
struct CacheEntry {
    fingerprint: u64,
    n: usize,
    kind: GraphTensorKind,
    value: CachedValue,
}

const GRAPH_TENSOR_CACHE_CAP: usize = 8;

/// Process-wide cache generation. [`clear_graph_tensor_cache`] bumps it; each
/// thread-local cache records the generation it was filled at and lazily
/// empties itself when it falls behind — so a clear issued from any thread
/// reaches the pooled worker threads' caches on their next access, and long
/// sweeps cannot pin stale graph structures per worker.
static CACHE_GENERATION: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Small per-thread LRU of derived graph structures, tagged with the
    /// [`CACHE_GENERATION`] it was last valid at.
    ///
    /// `build_pds` re-derives the same adjacency/inverse-degree constants on
    /// every outer MSO iteration (the graphs only change when X̂ candidates
    /// change the *candidate set*, not per iteration), and the victim's fit
    /// loop re-derives them per retrain. Tensors are `Arc`-backed, so a cache
    /// hit is a cheap clone; the cache holding a reference also means the
    /// tape's buffer reclamation (`Arc::try_unwrap`) never recycles a cached
    /// tensor's storage out from under the cache.
    static GRAPH_TENSOR_CACHE: RefCell<(u64, VecDeque<CacheEntry>)> =
        const { RefCell::new((0, VecDeque::new())) };
}

/// Looks up `(g, kind)` in the thread-local cache, computing and inserting on
/// miss. LRU order: hits move to the back, evictions pop the front.
fn cached_graph_structure(
    g: &CsrGraph,
    kind: GraphTensorKind,
    build: impl FnOnce() -> CachedValue,
) -> CachedValue {
    let fingerprint = g.fingerprint();
    let n = g.num_nodes();
    GRAPH_TENSOR_CACHE.with(|cache| {
        let mut guard = cache.borrow_mut();
        let (generation, cache) = &mut *guard;
        let current = CACHE_GENERATION.load(Ordering::Acquire);
        if *generation != current {
            cache.clear();
            *generation = current;
        }
        if let Some(pos) =
            cache.iter().position(|e| e.fingerprint == fingerprint && e.n == n && e.kind == kind)
        {
            LRU_HITS.incr();
            let entry = cache.remove(pos).expect("position came from iter");
            let value = entry.value.clone();
            cache.push_back(entry);
            return value;
        }
        LRU_MISSES.incr();
        let value = build();
        if cache.len() == GRAPH_TENSOR_CACHE_CAP {
            cache.pop_front();
        }
        cache.push_back(CacheEntry { fingerprint, n, kind, value: value.clone() });
        value
    })
}

/// Empties the graph-structure cache of **every** thread (test isolation /
/// releasing memory between experiments).
///
/// The calling thread's cache is dropped immediately; other threads —
/// including the kernel pool's workers — observe the generation bump and
/// drop theirs on their next cache access.
pub fn clear_graph_tensor_cache() {
    CACHE_GENERATION.fetch_add(1, Ordering::Release);
    GRAPH_TENSOR_CACHE.with(|cache| {
        let mut guard = cache.borrow_mut();
        guard.1.clear();
        guard.0 = CACHE_GENERATION.load(Ordering::Acquire);
    });
}

/// Dense symmetric 0/1 adjacency of `g` as a tensor.
///
/// Memoized per thread on the graph's structural fingerprint — planners call
/// this with the same base graph once per MSO iteration.
pub(crate) fn dense_adjacency(g: &CsrGraph) -> Tensor {
    match cached_graph_structure(g, GraphTensorKind::Adjacency, || {
        CachedValue::Dense(dense_adjacency_uncached(g))
    }) {
        CachedValue::Dense(t) => t,
        CachedValue::Sparse(_) => unreachable!("Adjacency entries are dense"),
    }
}

/// [`dense_adjacency`] without the cache.
pub(crate) fn dense_adjacency_uncached(g: &CsrGraph) -> Tensor {
    let n = g.num_nodes();
    let mut data = vec![0.0; n * n];
    for u in 0..n {
        for v in g.neighbors(u) {
            data[u * n + v] = 1.0;
        }
    }
    Tensor::from_vec(data, &[n, n])
}

/// The CSR adjacency of `g` paired with itself (symmetric), ready for the
/// `Spmm` tape op. Memoized per thread like [`dense_adjacency`], keyed on the
/// same structural fingerprint.
pub(crate) fn sparse_adjacency(g: &CsrGraph) -> Arc<SparseOperand> {
    match cached_graph_structure(g, GraphTensorKind::SparseAdjacency, || {
        CachedValue::Sparse(SparseOperand::symmetric(sparse_adjacency_uncached(g)))
    }) {
        CachedValue::Sparse(s) => s,
        CachedValue::Dense(_) => unreachable!("SparseAdjacency entries are sparse"),
    }
}

/// [`sparse_adjacency`] without the cache or the transpose pairing.
pub(crate) fn sparse_adjacency_uncached(g: &CsrGraph) -> SparseMatrix {
    let n = g.num_nodes();
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let mut col_idx = Vec::with_capacity(2 * g.num_edges());
    for u in 0..n {
        for v in g.neighbors(u) {
            col_idx.push(v as u32);
        }
        row_ptr.push(col_idx.len());
    }
    let vals = vec![1.0; col_idx.len()];
    SparseMatrix::from_csr(n, n, row_ptr, col_idx, vals)
}

/// Per-node inverse degree `1/|N(u)|` (0 for isolated nodes) of `g`.
///
/// Used as the constant normalization of eq. (15); the degree is taken in the
/// *fully-poisoned* graph 𝒢′ (all candidate edges inserted), per Algorithm 1
/// step 2. Memoized per thread like [`dense_adjacency`].
pub(crate) fn inv_degree(g: &CsrGraph) -> Tensor {
    match cached_graph_structure(g, GraphTensorKind::InvDegree, || {
        CachedValue::Dense(inv_degree_uncached(g))
    }) {
        CachedValue::Dense(t) => t,
        CachedValue::Sparse(_) => unreachable!("InvDegree entries are dense"),
    }
}

/// [`inv_degree`] without the cache.
pub(crate) fn inv_degree_uncached(g: &CsrGraph) -> Tensor {
    let n = g.num_nodes();
    let data: Vec<f64> = (0..n)
        .map(|u| {
            let d = g.degree(u);
            if d == 0 {
                0.0
            } else {
                1.0 / d as f64
            }
        })
        .collect();
    Tensor::from_vec(data, &[n])
}

/// The candidate-edge contribution to a *dense* Â for one player: each
/// candidate edge `(a, b)` receives its X̂ entry symmetrically. Returns `None`
/// when the player has no edge candidates. Multiple players' patches are
/// summed onto the shared base adjacency by
/// [`crate::graphops::GraphOps::poisoned_adjacency`].
pub(crate) fn adjacency_patch<'t>(
    base: &CsrGraph,
    candidates: &[(usize, (usize, usize))],
    xhat: Var<'t>,
) -> Option<Var<'t>> {
    if candidates.is_empty() {
        return None;
    }
    let n = base.num_nodes();
    let mut gather_idx = Vec::with_capacity(candidates.len() * 2);
    let mut scatter_pos = Vec::with_capacity(candidates.len() * 2);
    for &(xi, (a, b)) in candidates {
        debug_assert!(a < n && b < n, "candidate edge ({a},{b}) out of range");
        debug_assert!(!base.has_edge(a, b), "candidate edge ({a},{b}) already real");
        gather_idx.push(xi);
        scatter_pos.push(a * n + b);
        gather_idx.push(xi);
        scatter_pos.push(b * n + a);
    }
    let weights = xhat.gather_elems(Arc::new(gather_idx));
    Some(weights.scatter_add_elems(Arc::new(scatter_pos), n * n).reshape(&[n, n]))
}

/// Mean-aggregation graph convolution of eq. (15):
/// `out = Wᵀ (H ⊕ Â·H / |N|)` row-wise, where `inv_deg` holds `1/|N(u)|` and
/// `adjacency` is any [`AdjacencyOp`] produced by the `GraphOps` backend API.
pub fn mean_convolve<'t>(
    h: Var<'t>,
    adjacency: &AdjacencyOp<'t>,
    inv_deg: Var<'t>,
    w: Var<'t>,
) -> Var<'t> {
    let d = h.value().cols();
    let agg = adjacency.matmul(h).mul(inv_deg.broadcast_cols(d));
    h.concat_cols(agg).matmul(w)
}

/// Attention-aggregation convolution used by the ConsisRec-style victim:
/// neighbor weights are a masked softmax of embedding similarity
/// ("consistency scores"), so more-consistent neighbors dominate. Inherently
/// dense — `mask` comes from [`crate::graphops::GraphOps::attention_mask`].
pub fn attention_convolve<'t>(h: Var<'t>, mask: Var<'t>, w: Var<'t>) -> Var<'t> {
    let n = h.value().rows();
    // Similarity logits, exponentiated with a detached row-max for stability,
    // then masked to the adjacency and row-normalized.
    let s = h.matmul(h.t());
    let sv = s.value();
    let mut maxes = vec![0.0f64; n];
    for (i, mx) in maxes.iter_mut().enumerate() {
        *mx = (0..n).map(|j| sv.at(i, j)).fold(f64::NEG_INFINITY, f64::max);
    }
    let max_c = s.tape().constant(Tensor::from_vec(maxes, &[n])).broadcast_cols(n);
    let e = s.sub(max_c).exp().mul(mask);
    let denom = e.sum_rows().add_scalar(1e-9);
    let att = e.div(denom.broadcast_cols(n));
    let agg = att.matmul(h);
    h.concat_cols(agg).matmul(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphops::{Backend, EdgePatch, GraphOps};
    use msopds_autograd::Tape;

    #[test]
    fn dense_adjacency_symmetric() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let a = dense_adjacency(&g);
        assert_eq!(a.at(0, 1), 1.0);
        assert_eq!(a.at(1, 0), 1.0);
        assert_eq!(a.at(0, 2), 0.0);
        assert_eq!(a.at(0, 0), 0.0);
    }

    #[test]
    fn sparse_adjacency_matches_dense() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (0, 4)]);
        let sparse = sparse_adjacency_uncached(&g);
        assert_eq!(sparse.to_dense().to_vec(), dense_adjacency_uncached(&g).to_vec());
        assert_eq!(sparse.nnz(), 2 * g.num_edges());
    }

    #[test]
    fn inv_degree_handles_isolated() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        let d = inv_degree(&g);
        assert_eq!(d.to_vec(), vec![1.0, 1.0, 0.0]);
    }

    #[test]
    fn poisoned_adjacency_injects_candidates() {
        let tape = Tape::new();
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        let xhat = tape.leaf(Tensor::from_vec(vec![1.0, 0.0], &[2]));
        // Candidate 0 -> edge (0,2) selected; candidate 1 -> edge (1,2) unselected.
        let candidates = [(0, (0, 2)), (1, (1, 2))];
        let a = GraphOps::new(Backend::Dense).poisoned_adjacency(
            &tape,
            &g,
            &[EdgePatch { candidates: &candidates, xhat }],
        );
        // Probe Â through the operator API: Â·e_j reads column j.
        let id = tape
            .constant(Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]));
        let av = a.matmul(id).value();
        assert_eq!(av.at(0, 1), 1.0); // real edge untouched
        assert_eq!(av.at(0, 2), 1.0); // selected candidate
        assert_eq!(av.at(2, 0), 1.0); // symmetric
        assert_eq!(av.at(1, 2), 0.0); // unselected candidate
    }

    #[test]
    fn poisoned_adjacency_gradient_reaches_xhat() {
        for backend in [Backend::Dense, Backend::Sparse] {
            let tape = Tape::new();
            let g = CsrGraph::from_edges(3, &[(0, 1)]);
            let xhat = tape.leaf(Tensor::from_vec(vec![1.0, 0.0], &[2]));
            let candidates = [(0, (0, 2)), (1, (1, 2))];
            let a = GraphOps::new(backend).poisoned_adjacency(
                &tape,
                &g,
                &[EdgePatch { candidates: &candidates, xhat }],
            );
            // Loss touching only entry (1,2): gradient must flow to x̂[1] even
            // though its value is 0 — the key PDS property (§IV-C).
            let h = tape.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1]));
            let loss = a.matmul(h).gather_rows(Arc::new(vec![1])).sum();
            let grad = tape.grad(loss, &[xhat]).remove(0);
            assert_eq!(grad.get(1), 3.0, "unselected candidate still receives gradient");
            assert_eq!(grad.get(0), 0.0, "edge (0,2) does not affect row 1");
        }
    }

    #[test]
    fn mean_convolve_shapes_and_values() {
        for backend in [Backend::Dense, Backend::Sparse] {
            let tape = Tape::new();
            let g = CsrGraph::from_edges(2, &[(0, 1)]);
            let ops = GraphOps::new(backend);
            let h = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2, 1]));
            let a = ops.adjacency(&tape, &g);
            let inv = ops.inv_degree(&tape, &g);
            let w = tape.leaf(Tensor::from_vec(vec![1.0, 1.0], &[2, 1])); // sums the concat
            let out = mean_convolve(h, &a, inv, w);
            // Row 0: h=1, agg = 2/1 = 2 → 3. Row 1: 2 + 1 = 3.
            assert_eq!(out.value().to_vec(), vec![3.0, 3.0]);
        }
    }

    #[test]
    fn graph_tensor_cache_hits_and_evicts() {
        clear_graph_tensor_cache();
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let a1 = dense_adjacency(&g);
        let a2 = dense_adjacency(&g);
        // Hit: the same Arc-backed storage is handed back.
        assert!(std::ptr::eq(a1.data().as_ptr(), a2.data().as_ptr()));
        assert_eq!(a1.to_vec(), dense_adjacency_uncached(&g).to_vec());
        // A different kind for the same graph is a distinct entry.
        assert_eq!(inv_degree(&g).to_vec(), inv_degree_uncached(&g).to_vec());
        let s1 = sparse_adjacency(&g);
        let s2 = sparse_adjacency(&g);
        assert!(Arc::ptr_eq(&s1, &s2), "sparse operands are cached too");
        // Filling the cache with other graphs evicts the oldest entry.
        for k in 0..GRAPH_TENSOR_CACHE_CAP {
            let other = CsrGraph::from_edges(k + 4, &[(0, k + 3)]);
            let _ = dense_adjacency(&other);
        }
        let a3 = dense_adjacency(&g);
        assert!(
            !std::ptr::eq(a1.data().as_ptr(), a3.data().as_ptr()),
            "entry should have been evicted"
        );
        assert_eq!(a1.to_vec(), a3.to_vec());
        clear_graph_tensor_cache();
    }

    #[test]
    fn cache_clear_reaches_other_threads() {
        // The per-thread LRU honors clears issued by *other* threads via the
        // generation counter — the pooled-worker staleness fix.
        clear_graph_tensor_cache();
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let a1 = dense_adjacency(&g);
        let a2 = dense_adjacency(&g);
        assert!(std::ptr::eq(a1.data().as_ptr(), a2.data().as_ptr()), "warm hit expected");
        std::thread::spawn(clear_graph_tensor_cache).join().unwrap();
        let a3 = dense_adjacency(&g);
        assert!(
            !std::ptr::eq(a1.data().as_ptr(), a3.data().as_ptr()),
            "a clear from another thread must invalidate this thread's cache"
        );
        clear_graph_tensor_cache();
    }

    #[test]
    fn attention_convolve_weights_sum_to_one() {
        let tape = Tape::new();
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2)]);
        let h = tape.leaf(Tensor::from_vec(vec![1.0, 0.5, -0.5, 0.3, 0.2, 0.9], &[3, 2]));
        let mask = GraphOps::default().attention_mask(&tape, &g);
        let w = tape.leaf(Tensor::from_vec(vec![1.0; 8], &[4, 2]));
        let out = attention_convolve(h, mask, w);
        assert_eq!(out.value().shape(), &[3, 2]);
        assert!(out.value().all_finite());
    }
}
