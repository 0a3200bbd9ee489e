//! Sparse CSR matrices and the `Spmm` tape operation.
//!
//! Dense graph convolutions materialize O(n²) adjacency tensors, which caps
//! the reproduction at toy graph sizes. This module stores graph operators in
//! compressed sparse row form and multiplies them against dense tensors in
//! O(nnz·d): the SpMM kernel family behind the `GraphOps` backend API of
//! `msopds-recsys`.
//!
//! ## Differentiation
//!
//! A [`SparseMatrix`] is a *constant* of the computation — gradients flow
//! through the dense operand only. The tape op records `Y = A·X` (or `Aᵀ·X`)
//! and its VJP is another `Spmm` node, `∂L/∂X = Aᵀ·(∂L/∂Y)`, so gradients of
//! gradients — and therefore the exact Hessian-vector products of
//! Algorithm 1 — work through sparse products unchanged. To avoid
//! re-transposing on every backward pass, ops carry a [`SparseOperand`]
//! holding both `A` and `Aᵀ` (a single shared buffer when `A` is symmetric,
//! the common case for undirected adjacency).
//!
//! ## Determinism
//!
//! The kernel is parallelized over row blocks on the worker pool
//! (`crate::pool`): every output row is produced by exactly one chunk, and
//! each row accumulates its neighbors sequentially in CSR order. Results are
//! therefore bit-identical at any lane count, matching the guarantee of the
//! dense kernels.

use std::sync::Arc;

use crate::pool::{self, SendMutPtr};
use crate::tape::Op;
use crate::tensor::Tensor;
use crate::var::Var;

/// An immutable CSR sparse matrix with `f64` values.
///
/// Rows hold their column indices in ascending order with no duplicates —
/// the canonical form produced by [`SparseMatrix::from_triplets`] (which
/// sorts and sums duplicates).
#[derive(Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes row `i`'s entries; length `rows+1`.
    row_ptr: Vec<usize>,
    /// Column index per stored entry.
    col_idx: Vec<u32>,
    /// Value per stored entry.
    vals: Vec<f64>,
}

impl std::fmt::Debug for SparseMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("nnz", &self.nnz())
            .finish()
    }
}

impl SparseMatrix {
    /// Builds from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent (wrong `row_ptr` length,
    /// non-monotone offsets, column out of range, or unsorted/duplicate
    /// columns within a row).
    pub fn from_csr(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr must have rows+1 offsets");
        assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len(), "row_ptr must end at nnz");
        assert_eq!(col_idx.len(), vals.len(), "one value per stored entry");
        for i in 0..rows {
            assert!(row_ptr[i] <= row_ptr[i + 1], "row_ptr must be non-decreasing");
            let row = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            for pair in row.windows(2) {
                assert!(pair[0] < pair[1], "row {i} columns must be strictly ascending");
            }
            if let Some(&last) = row.last() {
                assert!((last as usize) < cols, "row {i} column {last} out of range");
            }
        }
        Self { rows, cols, row_ptr, col_idx, vals }
    }

    /// Builds from `(row, col, value)` triplets in any order; duplicate
    /// coordinates are summed, exact zeros are kept (a stored zero still
    /// defines structure).
    ///
    /// # Panics
    /// Panics if a coordinate is out of range.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut entries: Vec<(usize, usize, f64)> = triplets.to_vec();
        for &(r, c, _) in &entries {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of {rows}x{cols}");
        }
        entries.sort_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut vals: Vec<f64> = Vec::with_capacity(entries.len());
        for &(r, c, v) in &entries {
            if let (Some(&last_c), true) = (col_idx.last(), row_ptr[r + 1] > row_ptr[r]) {
                if last_c as usize == c {
                    *vals.last_mut().unwrap() += v;
                    continue;
                }
            }
            // Entries land in row order, so all rows after the previous
            // entry's row and up to `r` close at the current length.
            col_idx.push(c as u32);
            vals.push(v);
            row_ptr[r + 1] = col_idx.len();
        }
        // Close empty rows: propagate the running offsets forward.
        for i in 1..=rows {
            row_ptr[i] = row_ptr[i].max(row_ptr[i - 1]);
        }
        Self { rows, cols, row_ptr, col_idx, vals }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Resident bytes of the CSR arrays (the sparse side of the memory-model
    /// comparison in `BENCH_sparse.json`).
    pub fn resident_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<u32>()
            + self.vals.len() * std::mem::size_of::<f64>()
    }

    /// The transpose as a new CSR matrix (counting sort over columns).
    pub fn transpose(&self) -> SparseMatrix {
        let nnz = self.nnz();
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut next = row_ptr.clone();
        let mut col_idx = vec![0u32; nnz];
        let mut vals = vec![0.0f64; nnz];
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                let slot = next[c];
                next[c] += 1;
                col_idx[slot] = r as u32;
                vals[slot] = self.vals[k];
            }
        }
        SparseMatrix { rows: self.cols, cols: self.rows, row_ptr, col_idx, vals }
    }

    /// True when the matrix equals its transpose (structure and values).
    pub fn is_symmetric(&self) -> bool {
        self.rows == self.cols && *self == self.transpose()
    }

    /// Densifies into a `[rows, cols]` tensor (tests and small baselines).
    pub fn to_dense(&self) -> Tensor {
        let mut data = vec![0.0; self.rows * self.cols];
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                data[r * self.cols + self.col_idx[k] as usize] = self.vals[k];
            }
        }
        Tensor::from_vec(data, &[self.rows, self.cols])
    }

    /// Sparse × dense product `A·X`: `[m, n]·[n, d] → [m, d]`, or the SpMV
    /// case `[m, n]·[n] → [m]` for a rank-1 operand.
    ///
    /// Row-partitioned across the kernel pool when `nnz·d` crosses the
    /// matmul threshold. Each output row is accumulated sequentially in CSR
    /// order by exactly one chunk, so results are bit-identical at any lane
    /// count.
    ///
    /// # Panics
    /// Panics when the operand's leading dimension disagrees with `cols`.
    pub fn spmm(&self, x: &Tensor) -> Tensor {
        let (m, n) = (self.rows, self.cols);
        let (xr, d) = if x.rank() == 2 { (x.rows(), x.cols()) } else { (x.numel(), 1) };
        assert_eq!(n, xr, "spmm inner dims: {m}x{n} · {:?}", x.shape());
        let xd = x.data();
        let mut out = pool::take_zeroed(m * d);
        let row_band = |rows_out: &mut [f64], i0: usize| {
            for (ri, orow) in rows_out.chunks_mut(d).enumerate() {
                let i = i0 + ri;
                for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                    let j = self.col_idx[k] as usize;
                    let v = self.vals[k];
                    let xrow = &xd[j * d..(j + 1) * d];
                    for (o, &xv) in orow.iter_mut().zip(xrow.iter()) {
                        *o += v * xv;
                    }
                }
            }
        };
        if !pool::should_parallelize(self.nnz() * d, pool::matmul_min()) {
            row_band(&mut out, 0);
        } else {
            // Same chunking policy as the dense matmul: ~4 chunks per lane
            // keeps work stealing effective under skewed row lengths.
            let rows_per_chunk = m.div_ceil(pool::lanes() * 4).max(1);
            let ptr = SendMutPtr(out.as_mut_ptr());
            pool::for_each_range(m, rows_per_chunk, |r0, r1| {
                // Safety: row bands are disjoint and within `out`.
                let rows = unsafe { ptr.slice(r0 * d, r1 * d) };
                row_band(rows, r0);
            });
        }
        if x.rank() == 2 {
            Tensor::from_owned(out, [m, d], 2)
        } else {
            Tensor::from_owned(out, [m, 1], 1)
        }
    }
}

/// A sparse matrix paired with its transpose, ready for tape recording.
///
/// The pairing makes the backward rule allocation-free: the VJP of
/// `Spmm(A, x)` is `Spmm(Aᵀ, g)`, recorded by flipping a flag on the same
/// shared operand — no transposition at backward time, no `Arc` cycles, and
/// double backward (HVP) flips the flag back.
#[derive(Debug)]
pub struct SparseOperand {
    fwd: Arc<SparseMatrix>,
    bwd: Arc<SparseMatrix>,
}

impl SparseOperand {
    /// Pairs `m` with its transpose.
    pub fn new(m: SparseMatrix) -> Arc<Self> {
        let bwd = Arc::new(m.transpose());
        Arc::new(Self { fwd: Arc::new(m), bwd })
    }

    /// Pairs a symmetric `m` with itself, sharing one buffer.
    ///
    /// # Panics
    /// Debug-panics when `m` is not actually symmetric.
    pub fn symmetric(m: SparseMatrix) -> Arc<Self> {
        debug_assert!(m.is_symmetric(), "SparseOperand::symmetric needs A = Aᵀ");
        let fwd = Arc::new(m);
        Arc::new(Self { fwd: Arc::clone(&fwd), bwd: fwd })
    }

    /// The side applied for a given orientation of the op.
    pub(crate) fn side(&self, transposed: bool) -> &SparseMatrix {
        if transposed {
            &self.bwd
        } else {
            &self.fwd
        }
    }
}

/// Records `A·x` on `x`'s tape: the differentiable SpMM/SpMV entry point.
///
/// `A` is constant; the gradient w.r.t. `x` is `Aᵀ·g`, itself a tape op, so
/// higher-order derivatives through the product are exact.
pub fn spmm<'t>(a: &Arc<SparseOperand>, x: Var<'t>) -> Var<'t> {
    spmm_oriented(a, false, x)
}

/// `spmm` with an explicit orientation (used by the backward pass).
pub(crate) fn spmm_oriented<'t>(a: &Arc<SparseOperand>, transposed: bool, x: Var<'t>) -> Var<'t> {
    x.tape().apply(Op::Spmm(Arc::clone(a), transposed, x.id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ndiff;
    use crate::tape::Tape;

    /// A fixed 4x3 matrix with an empty row (row 2) and a duplicate triplet.
    fn sample() -> SparseMatrix {
        SparseMatrix::from_triplets(
            4,
            3,
            &[(0, 1, 2.0), (0, 0, 1.0), (1, 2, 3.0), (3, 0, -1.0), (3, 0, 0.5), (3, 2, 4.0)],
        )
    }

    #[test]
    fn triplets_sort_and_sum_duplicates() {
        let a = sample();
        assert_eq!(a.nnz(), 5);
        let d = a.to_dense();
        assert_eq!(d.at(0, 0), 1.0);
        assert_eq!(d.at(0, 1), 2.0);
        assert_eq!(d.at(1, 2), 3.0);
        assert_eq!(d.at(2, 0), 0.0); // empty row
        assert_eq!(d.at(3, 0), -0.5); // summed duplicate
        assert_eq!(d.at(3, 2), 4.0);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let a = sample();
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 4);
        assert_eq!(t.to_dense().to_vec(), a.to_dense().transpose().to_vec());
        // Round trip.
        assert_eq!(t.transpose().to_dense().to_vec(), a.to_dense().to_vec());
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let a = sample();
        let x = Tensor::from_vec((0..6).map(|i| i as f64 * 0.5 - 1.0).collect(), &[3, 2]);
        let sparse = a.spmm(&x);
        let dense = a.to_dense().matmul(&x);
        assert_eq!(sparse.shape(), &[4, 2]);
        assert_eq!(sparse.to_vec(), dense.to_vec());
    }

    #[test]
    fn spmv_rank1_roundtrip() {
        let a = sample();
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
        let y = a.spmm(&x);
        assert_eq!(y.shape(), &[4]);
        assert_eq!(y.to_vec(), vec![1.0 - 4.0, 9.0, 0.0, -0.5 + 12.0]);
    }

    #[test]
    fn from_csr_validates() {
        let a = SparseMatrix::from_csr(2, 2, vec![0, 1, 2], vec![1, 0], vec![5.0, 7.0]);
        assert_eq!(a.to_dense().to_vec(), vec![0.0, 5.0, 7.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_csr_rejects_unsorted_rows() {
        let _ = SparseMatrix::from_csr(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
    }

    #[test]
    fn symmetric_operand_shares_buffers() {
        let a = SparseMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let op = SparseOperand::symmetric(a);
        assert!(Arc::ptr_eq(&op.fwd, &op.bwd));
    }

    #[test]
    fn tape_spmm_forward_and_gradient() {
        let op = SparseOperand::new(sample());
        let x0 = Tensor::from_vec(vec![0.3, -1.1, 0.7, 2.0, -0.2, 0.9], &[3, 2]);
        let tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let w = tape.constant(Tensor::from_vec((1..=8).map(|i| i as f64).collect(), &[4, 2]));
        let loss = spmm(&op, x).mul(w).sum();
        assert_eq!(
            spmm(&op, x).value().to_vec(),
            sample().to_dense().matmul(&x0).to_vec(),
            "tape forward must equal the raw kernel"
        );
        let g = tape.grad(loss, &[x]).remove(0);
        let dense = sample().to_dense();
        let f = |t: &Tensor| {
            dense.matmul(t).to_vec().iter().zip(1..=8).map(|(&y, wi)| y * wi as f64).sum()
        };
        ndiff::assert_grad_close(f, &x0, &g, 1e-6);
    }

    #[test]
    fn tape_spmm_hvp_is_exact() {
        // L = ‖A·x‖² has constant Hessian 2AᵀA: the double-backward through
        // two stacked Spmm nodes must reproduce it exactly.
        let op = SparseOperand::new(sample());
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![0.5, -1.0, 2.0], &[3]));
        let loss = {
            let y = spmm(&op, x);
            y.mul(y).sum()
        };
        let v = Tensor::from_vec(vec![1.0, 2.0, -1.0], &[3]);
        let hv = crate::hvp::hvp_exact(&tape, loss, x, &v);
        let ad = sample().to_dense();
        let expect = ad.transpose().matmul(&ad.matmul(&v.reshape(&[3, 1]))).map(|z| 2.0 * z);
        assert!(hv.reshape(&[3, 1]).max_abs_diff(&expect) < 1e-12, "hvp {:?}", hv.to_vec());
    }

    // Thread-count determinism is exercised in `tests/sparse_backend.rs`,
    // which owns its process and can reconfigure the global pool safely.
}
