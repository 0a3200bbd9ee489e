//! The `GraphOps` backend API: graph convolutions without a representation
//! commitment.
//!
//! Models ask for *graph operations* — "aggregate neighbors", "normalize by
//! degree", "patch candidate edges" — and the backend decides how the
//! adjacency is materialized:
//!
//! * [`Backend::Dense`]: the adjacency is an O(n²) tensor constant, exactly
//!   as the original reproduction built it. Numerically bit-identical to the
//!   pre-backend code, so every existing seed test still anchors correctness.
//! * [`Backend::Sparse`]: the adjacency is a CSR constant multiplied through
//!   the `Spmm` tape op of `msopds-autograd` in O(nnz·d), and the poisoned
//!   delta (candidate edges modulated by X̂) is applied as a *sparse* op
//!   chain — gather the touched rows, weight them by the gathered X̂
//!   entries, scatter-add back — so Â stays differentiable in X̂ without
//!   ever densifying. The two backends agree to ≤1e-10 (they differ only in
//!   floating-point summation order); see `tests/backend_equivalence.rs`.
//!
//! The attention victim (`attention_convolve`) is inherently dense — its
//! masked softmax normalizes over *all* pairs — so [`GraphOps::attention_mask`]
//! always materializes the dense 0/1 mask regardless of backend. Choosing
//! `Backend::Sparse` therefore accelerates the mean-aggregation paths (the
//! PDS surrogate and the `attention: false` victim), which are the O(n²)
//! bottlenecks of Algorithm 1.
//!
//! Derived structures (dense tensors, CSR operands, inverse degrees) are
//! memoized on the graph's structural fingerprint; see `crate::convolve`.

use std::sync::Arc;

use msopds_autograd::{sparse, SparseOperand, Tape, Var};
use msopds_het_graph::CsrGraph;
use serde::{Deserialize, Serialize};

use crate::convolve::{
    adjacency_patch, dense_adjacency, inv_degree, sparse_adjacency, sparse_adjacency_sharded,
};

/// How a [`GraphOps`] materializes adjacency operators.
///
/// Serialized by variant name (`"Dense"` / `"Sparse"` / `"Sharded"`); parsed
/// case-insensitively from strings via [`FromStr`](std::str::FromStr).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backend {
    /// O(n²) dense adjacency tensors (the original representation).
    #[default]
    Dense,
    /// CSR adjacency through the `Spmm` tape op; O(nnz·d) per aggregation.
    Sparse,
    /// CSR adjacency split into the given number of row-range shards. Same
    /// `Spmm` math as `Sparse` — per-row CSR-order accumulation makes any
    /// row partition bit-identical — but each shard owns a contiguous band
    /// of rows, the layout million-user worlds stream into and the worker
    /// pool parallelizes over.
    Sharded(u16),
}

impl Backend {
    /// The backend named by the `MSOPDS_BACKEND` environment variable
    /// (`dense` | `sparse` | `sharded[:k]`), or `Dense` when unset. This is
    /// what config defaults use, so `MSOPDS_BACKEND=sparse cargo test` runs
    /// the whole suite on the sparse path (the CI backend matrix).
    ///
    /// # Panics
    /// Panics on an unrecognized value — a misspelled backend must not
    /// silently fall back to dense.
    pub fn from_env() -> Self {
        match std::env::var("MSOPDS_BACKEND") {
            Ok(s) => s.parse().unwrap_or_else(|e: String| panic!("MSOPDS_BACKEND: {e}")),
            Err(_) => Backend::Dense,
        }
    }

    /// Canonical lowercase family name (`dense` | `sparse` | `sharded`).
    /// Drops the shard count; use `Display` for the round-trippable form.
    pub fn as_str(&self) -> &'static str {
        match self {
            Backend::Dense => "dense",
            Backend::Sparse => "sparse",
            Backend::Sharded(_) => "sharded",
        }
    }
}

/// Shard count used when `"sharded"` is parsed without an explicit `:k`.
pub const DEFAULT_SHARDS: u16 = 4;

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.trim().to_ascii_lowercase();
        match norm.as_str() {
            "dense" => Ok(Backend::Dense),
            "sparse" => Ok(Backend::Sparse),
            "sharded" => Ok(Backend::Sharded(DEFAULT_SHARDS)),
            other => match other.strip_prefix("sharded:") {
                Some(k) => match k.parse::<u16>() {
                    Ok(k) if k >= 1 => Ok(Backend::Sharded(k)),
                    _ => Err(format!("bad shard count {k:?} (expected 1..=65535)")),
                },
                None => {
                    Err(format!("unknown backend {other:?} (expected dense|sparse|sharded[:k])"))
                }
            },
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Sharded(k) => write!(f, "sharded:{k}"),
            other => f.write_str(other.as_str()),
        }
    }
}

/// One player's candidate-edge contribution to a poisoned adjacency: each
/// candidate edge `(a, b)` enters Â symmetrically, weighted by its entry of
/// the player's X̂ leaf.
#[derive(Clone, Copy)]
pub struct EdgePatch<'a, 't> {
    /// `(xhat index, (a, b))` per candidate edge, as partitioned by the PDS
    /// builder. Edges must be absent from the base graph.
    pub candidates: &'a [(usize, (usize, usize))],
    /// The player's importance-vector leaf.
    pub xhat: Var<'t>,
}

/// Factory for adjacency operators under a chosen [`Backend`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphOps {
    backend: Backend,
}

impl GraphOps {
    /// A factory producing `backend`-flavored operators.
    pub const fn new(backend: Backend) -> Self {
        Self { backend }
    }

    /// The configured backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The (constant) adjacency operator of `g`.
    pub fn adjacency<'t>(&self, tape: &'t Tape, g: &CsrGraph) -> AdjacencyOp<'t> {
        self.poisoned_adjacency(tape, g, &[])
    }

    /// The poisoned adjacency Â of eq. (15): the base graph plus every
    /// player's candidate edges weighted by their X̂ entries, differentiable
    /// in each X̂.
    pub fn poisoned_adjacency<'t>(
        &self,
        tape: &'t Tape,
        g: &CsrGraph,
        patches: &[EdgePatch<'_, 't>],
    ) -> AdjacencyOp<'t> {
        let n = g.num_nodes();
        let repr = match self.backend {
            Backend::Dense => {
                let base = tape.constant(dense_adjacency(g));
                let a = patches.iter().fold(base, |acc, p| {
                    match adjacency_patch(g, p.candidates, p.xhat) {
                        Some(patch) => acc.add(patch),
                        None => acc,
                    }
                });
                Repr::Dense(a)
            }
            Backend::Sparse | Backend::Sharded(_) => {
                let deltas = patches
                    .iter()
                    .filter(|p| !p.candidates.is_empty())
                    .map(|p| SparseDelta::build(g, p))
                    .collect();
                let base = match self.backend {
                    Backend::Sharded(k) => sparse_adjacency_sharded(g, k),
                    _ => sparse_adjacency(g),
                };
                Repr::Sparse { base, deltas }
            }
        };
        AdjacencyOp { n, repr }
    }

    /// Per-node inverse degree `1/|N(u)|` of `g` as a tape constant — the
    /// normalization of eq. (15). A dense vector under every backend (it is
    /// O(n), never the bottleneck).
    pub fn inv_degree<'t>(&self, tape: &'t Tape, g: &CsrGraph) -> Var<'t> {
        tape.constant(inv_degree(g))
    }

    /// The dense 0/1 mask consumed by `attention_convolve`. Attention is a
    /// masked softmax over all node pairs and cannot be sparsified here, so
    /// this materializes densely under every backend.
    pub fn attention_mask<'t>(&self, tape: &'t Tape, g: &CsrGraph) -> Var<'t> {
        tape.constant(dense_adjacency(g))
    }
}

/// A (possibly X̂-poisoned) adjacency operator tied to a tape.
///
/// The only consumer-facing operation is [`AdjacencyOp::matmul`] — models
/// never see the representation.
pub struct AdjacencyOp<'t> {
    n: usize,
    repr: Repr<'t>,
}

enum Repr<'t> {
    /// The fully-materialized adjacency (base + patches) as one tape node.
    Dense(Var<'t>),
    /// CSR base plus per-player sparse deltas, combined at multiply time.
    Sparse { base: Arc<SparseOperand>, deltas: Vec<SparseDelta<'t>> },
}

/// One player's candidate edges in multiply-ready form: entry `k` adds
/// `weights[k] · H[cols[k], :]` into row `rows[k]` of Â·H.
struct SparseDelta<'t> {
    /// X̂ entries gathered per directed entry (two per undirected edge), so
    /// gradients flow back to the player's leaf through `GatherElems`.
    weights: Var<'t>,
    rows: Arc<Vec<usize>>,
    cols: Arc<Vec<usize>>,
}

impl<'t> SparseDelta<'t> {
    fn build(base: &CsrGraph, patch: &EdgePatch<'_, 't>) -> Self {
        let n = base.num_nodes();
        let k = patch.candidates.len();
        let mut gather_idx = Vec::with_capacity(2 * k);
        let mut rows = Vec::with_capacity(2 * k);
        let mut cols = Vec::with_capacity(2 * k);
        for &(xi, (a, b)) in patch.candidates {
            debug_assert!(a < n && b < n, "candidate edge ({a},{b}) out of range");
            debug_assert!(!base.has_edge(a, b), "candidate edge ({a},{b}) already real");
            gather_idx.push(xi);
            rows.push(a);
            cols.push(b);
            gather_idx.push(xi);
            rows.push(b);
            cols.push(a);
        }
        Self {
            weights: patch.xhat.gather_elems(Arc::new(gather_idx)),
            rows: Arc::new(rows),
            cols: Arc::new(cols),
        }
    }
}

impl<'t> AdjacencyOp<'t> {
    /// Node count of the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The neighbor aggregation `Â·H`, recorded on the tape.
    ///
    /// Dense: one `Matmul` against the materialized Â. Sparse: an `Spmm`
    /// against the CSR base plus, per player, a gather → weight → scatter-add
    /// chain for the candidate edges — every piece is an existing tape op
    /// with higher-order-capable VJPs, so HVPs through Â work identically on
    /// both backends.
    pub fn matmul(&self, h: Var<'t>) -> Var<'t> {
        match &self.repr {
            Repr::Dense(a) => a.matmul(h),
            Repr::Sparse { base, deltas } => {
                let d = h.value().cols();
                let mut out = sparse::spmm(base, h);
                for delta in deltas {
                    let contribution = h
                        .gather_rows(Arc::clone(&delta.cols))
                        .mul(delta.weights.broadcast_cols(d))
                        .scatter_add_rows(Arc::clone(&delta.rows), self.n);
                    out = out.add(contribution);
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msopds_autograd::Tensor;

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("dense".parse::<Backend>().unwrap(), Backend::Dense);
        assert_eq!("SPARSE".parse::<Backend>().unwrap(), Backend::Sparse);
        assert_eq!("sharded".parse::<Backend>().unwrap(), Backend::Sharded(DEFAULT_SHARDS));
        assert_eq!("Sharded:9".parse::<Backend>().unwrap(), Backend::Sharded(9));
        assert!("dens".parse::<Backend>().is_err());
        assert!("sharded:0".parse::<Backend>().is_err());
        assert!("sharded:lots".parse::<Backend>().is_err());
        assert_eq!(Backend::Sparse.to_string(), "sparse");
        assert_eq!(Backend::Sharded(9).to_string(), "sharded:9");
        assert_eq!(Backend::Sharded(9).as_str(), "sharded");
        assert_eq!("sharded:9".parse::<Backend>().unwrap().to_string(), "sharded:9");
        assert_eq!(Backend::default(), Backend::Dense);
    }

    #[test]
    fn dense_and_sparse_adjacency_agree() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let h0 = Tensor::from_vec((0..10).map(|i| i as f64 * 0.3 - 1.0).collect(), &[5, 2]);
        let tape = Tape::new();
        let h = tape.constant(h0);
        let dense = GraphOps::new(Backend::Dense).adjacency(&tape, &g).matmul(h);
        let sparse = GraphOps::new(Backend::Sparse).adjacency(&tape, &g).matmul(h);
        assert!(dense.value().max_abs_diff(&sparse.value()) < 1e-12);
        // Sharded is the same math partitioned by row band: bit-identical to
        // sparse, not merely close.
        for k in [1u16, 2, 3, 5] {
            let sharded = GraphOps::new(Backend::Sharded(k)).adjacency(&tape, &g).matmul(h);
            let (a, b) = (sparse.value(), sharded.value());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "shard count {k} drifted");
            }
        }
    }

    #[test]
    fn poisoned_adjacency_backends_agree_with_gradients() {
        let g = CsrGraph::from_edges(4, &[(0, 1)]);
        let candidates = [(0usize, (0usize, 2usize)), (1, (1, 3))];
        let h0 = Tensor::from_vec((0..8).map(|i| (i as f64).cos()).collect(), &[4, 2]);
        let xhat0 = Tensor::from_vec(vec![0.7, 0.0], &[2]);

        let run = |backend: Backend| -> (Tensor, Tensor) {
            let tape = Tape::new();
            let xhat = tape.leaf(xhat0.clone());
            let h = tape.constant(h0.clone());
            let ops = GraphOps::new(backend);
            let a =
                ops.poisoned_adjacency(&tape, &g, &[EdgePatch { candidates: &candidates, xhat }]);
            let out = a.matmul(h);
            let loss = out.square().sum();
            let grad = tape.grad(loss, &[xhat]).remove(0);
            (out.value(), grad)
        };
        let (dense_out, dense_grad) = run(Backend::Dense);
        let (sparse_out, sparse_grad) = run(Backend::Sparse);
        assert!(dense_out.max_abs_diff(&sparse_out) < 1e-12);
        assert!(dense_grad.max_abs_diff(&sparse_grad) < 1e-12);
        // The unselected candidate (x̂ = 0) still receives gradient — the key
        // PDS property — on both backends.
        assert!(sparse_grad.get(1).abs() > 1e-12);
        // The sharded base composes with the same delta chain, bit-for-bit.
        let (sharded_out, sharded_grad) = run(Backend::Sharded(3));
        for (x, y) in sparse_out.data().iter().zip(sharded_out.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in sparse_grad.data().iter().zip(sharded_grad.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn attention_mask_is_dense_under_both_backends() {
        let g = CsrGraph::from_edges(3, &[(0, 2)]);
        for backend in [Backend::Dense, Backend::Sparse, Backend::Sharded(2)] {
            let tape = Tape::new();
            let mask = GraphOps::new(backend).attention_mask(&tape, &g);
            assert_eq!(mask.value().shape(), &[3, 3]);
            assert_eq!(mask.value().at(0, 2), 1.0);
        }
    }
}
