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
        let mut out = pool::take_zeroed(m * d);
        self.spmm_into(x.data(), d, &mut out);
        if x.rank() == 2 {
            Tensor::from_owned(out, [m, d], 2)
        } else {
            Tensor::from_owned(out, [m, 1], 1)
        }
    }

    /// The `spmm` kernel writing into a caller-owned `[rows, d]` buffer —
    /// the building block [`SparseShards`] uses to assemble one output from
    /// row-band shards without a gather copy. Accumulation per output row is
    /// sequential in CSR order, identical to [`SparseMatrix::spmm`].
    pub(crate) fn spmm_into(&self, xd: &[f64], d: usize, out: &mut [f64]) {
        let m = self.rows;
        debug_assert_eq!(out.len(), m * d);
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
            row_band(out, 0);
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
    }

    /// Splits into `k` contiguous row-range shards (the last shard absorbs
    /// the remainder rows). Each shard is a standalone CSR matrix over the
    /// full column space, so `shard.spmm(x)` produces exactly the rows
    /// `starts[s]..starts[s+1]` of `self.spmm(x)`.
    fn split_rows(&self, k: usize) -> SparseShards {
        let k = k.clamp(1, self.rows.max(1));
        let per = self.rows.div_ceil(k).max(1);
        let mut starts = vec![0usize];
        let mut shards = Vec::new();
        let mut r0 = 0;
        while r0 < self.rows {
            let r1 = (r0 + per).min(self.rows);
            let base = self.row_ptr[r0];
            let row_ptr: Vec<usize> = self.row_ptr[r0..=r1].iter().map(|&p| p - base).collect();
            let span = self.row_ptr[r0]..self.row_ptr[r1];
            shards.push(SparseMatrix {
                rows: r1 - r0,
                cols: self.cols,
                row_ptr,
                col_idx: self.col_idx[span.clone()].to_vec(),
                vals: self.vals[span].to_vec(),
            });
            starts.push(r1);
            r0 = r1;
        }
        if shards.is_empty() {
            // Degenerate zero-row matrix: keep one empty shard so the
            // invariant `starts.len() == shards.len() + 1` holds.
            shards.push(self.clone());
            starts = vec![0, 0];
        }
        SparseShards { rows: self.rows, cols: self.cols, starts, shards }
    }
}

/// A CSR matrix split into contiguous row-range shards.
///
/// This is the million-user layout: each shard owns an independent CSR
/// band (its `row_ptr` rebased to the band), so shards can be built,
/// stored, and multiplied separately — across threads today, across
/// processes or machines once the serving tier is distributed. Because
/// [`SparseMatrix::spmm`] accumulates every output row sequentially in CSR
/// order and each row lives in exactly one shard, a sharded product is
/// **bit-identical** to the unsharded one at any shard count.
#[derive(Clone, Debug)]
pub struct SparseShards {
    rows: usize,
    cols: usize,
    /// Row-range boundaries; shard `s` covers rows `starts[s]..starts[s+1]`.
    starts: Vec<usize>,
    shards: Vec<SparseMatrix>,
}

impl SparseShards {
    /// Splits `m` into `k` contiguous row bands (clamped to `1..=rows`).
    pub fn split(m: &SparseMatrix, k: usize) -> Self {
        m.split_rows(k)
    }

    /// Number of rows of the full matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the full matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total stored entries across shards.
    pub fn nnz(&self) -> usize {
        self.shards.iter().map(SparseMatrix::nnz).sum()
    }

    /// Resident bytes across all shard CSR arrays.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(SparseMatrix::resident_bytes).sum::<usize>()
            + self.starts.len() * std::mem::size_of::<usize>()
    }

    /// The shards with their row ranges, for per-shard inspection.
    pub fn bands(&self) -> impl Iterator<Item = (std::ops::Range<usize>, &SparseMatrix)> {
        self.shards.iter().enumerate().map(|(s, m)| (self.starts[s]..self.starts[s + 1], m))
    }

    /// Reassembles the full matrix (tests and the transpose fallback).
    pub fn to_matrix(&self) -> SparseMatrix {
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut vals = Vec::with_capacity(self.nnz());
        for shard in &self.shards {
            let base = *row_ptr.last().unwrap();
            row_ptr.extend(shard.row_ptr[1..].iter().map(|&p| p + base));
            col_idx.extend_from_slice(&shard.col_idx);
            vals.extend_from_slice(&shard.vals);
        }
        SparseMatrix { rows: self.rows, cols: self.cols, row_ptr, col_idx, vals }
    }

    /// Sharded sparse × dense product: every shard writes its own row band
    /// of one shared output buffer. Bit-identical to
    /// [`SparseMatrix::spmm`] on the unsharded matrix at any shard count.
    ///
    /// # Panics
    /// Panics when the operand's leading dimension disagrees with `cols`.
    pub fn spmm(&self, x: &Tensor) -> Tensor {
        let (m, n) = (self.rows, self.cols);
        let (xr, d) = if x.rank() == 2 { (x.rows(), x.cols()) } else { (x.numel(), 1) };
        assert_eq!(n, xr, "sharded spmm inner dims: {m}x{n} · {:?}", x.shape());
        let xd = x.data();
        let mut out = pool::take_zeroed(m * d);
        for (band, shard) in self.bands() {
            shard.spmm_into(xd, d, &mut out[band.start * d..band.end * d]);
        }
        if x.rank() == 2 {
            Tensor::from_owned(out, [m, d], 2)
        } else {
            Tensor::from_owned(out, [m, 1], 1)
        }
    }
}

/// One side (forward or backward orientation) of a [`SparseOperand`]: a
/// whole CSR matrix or its row-range-sharded form. Both multiply a dense
/// operand bit-identically; `Sharded` is the layout the million-user worlds
/// use so adjacency never has to live in one contiguous allocation.
#[derive(Clone, Debug)]
pub enum SparseSide {
    /// A single contiguous CSR matrix.
    Whole(Arc<SparseMatrix>),
    /// Contiguous row-range shards of the same matrix.
    Sharded(Arc<SparseShards>),
}

impl SparseSide {
    /// Sparse × dense product with this side's layout. Sharded and whole
    /// layouts produce bit-identical results (see [`SparseShards::spmm`]).
    pub fn spmm(&self, x: &Tensor) -> Tensor {
        match self {
            SparseSide::Whole(m) => m.spmm(x),
            SparseSide::Sharded(s) => s.spmm(x),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            SparseSide::Whole(m) => m.rows(),
            SparseSide::Sharded(s) => s.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            SparseSide::Whole(m) => m.cols(),
            SparseSide::Sharded(s) => s.cols(),
        }
    }

    /// Total stored entries.
    pub fn nnz(&self) -> usize {
        match self {
            SparseSide::Whole(m) => m.nnz(),
            SparseSide::Sharded(s) => s.nnz(),
        }
    }

    /// Resident bytes of the CSR arrays.
    pub fn resident_bytes(&self) -> usize {
        match self {
            SparseSide::Whole(m) => m.resident_bytes(),
            SparseSide::Sharded(s) => s.resident_bytes(),
        }
    }
}

/// A sparse matrix paired with its transpose, ready for tape recording.
///
/// The pairing makes the backward rule allocation-free: the VJP of
/// `Spmm(A, x)` is `Spmm(Aᵀ, g)`, recorded by flipping a flag on the same
/// shared operand — no transposition at backward time, no `Arc` cycles, and
/// double backward (HVP) flips the flag back. Either side may be stored
/// whole or as row-range shards ([`SparseSide`]); the symmetric sharded
/// constructor shares one sharded buffer for both orientations.
#[derive(Debug)]
pub struct SparseOperand {
    fwd: SparseSide,
    bwd: SparseSide,
}

impl SparseOperand {
    /// Pairs `m` with its transpose.
    pub fn new(m: SparseMatrix) -> Arc<Self> {
        let bwd = SparseSide::Whole(Arc::new(m.transpose()));
        Arc::new(Self { fwd: SparseSide::Whole(Arc::new(m)), bwd })
    }

    /// Pairs a symmetric `m` with itself, sharing one buffer.
    ///
    /// # Panics
    /// Debug-panics when `m` is not actually symmetric.
    pub fn symmetric(m: SparseMatrix) -> Arc<Self> {
        debug_assert!(m.is_symmetric(), "SparseOperand::symmetric needs A = Aᵀ");
        let fwd = SparseSide::Whole(Arc::new(m));
        Arc::new(Self { fwd: fwd.clone(), bwd: fwd })
    }

    /// Pairs a symmetric `m` with itself in `k` row-range shards, sharing
    /// one sharded buffer for both orientations (valid because `A = Aᵀ`:
    /// the row bands of `Aᵀ` are the same bands of `A`).
    ///
    /// # Panics
    /// Debug-panics when `m` is not actually symmetric.
    pub fn symmetric_sharded(m: SparseMatrix, k: usize) -> Arc<Self> {
        debug_assert!(m.is_symmetric(), "SparseOperand::symmetric_sharded needs A = Aᵀ");
        let fwd = SparseSide::Sharded(Arc::new(SparseShards::split(&m, k)));
        Arc::new(Self { fwd: fwd.clone(), bwd: fwd })
    }

    /// The forward side in whichever layout it is stored.
    pub fn forward(&self) -> &SparseSide {
        &self.fwd
    }

    /// The side applied for a given orientation of the op.
    pub(crate) fn side(&self, transposed: bool) -> &SparseSide {
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
        match (&op.fwd, &op.bwd) {
            (SparseSide::Whole(f), SparseSide::Whole(b)) => assert!(Arc::ptr_eq(f, b)),
            other => panic!("expected whole sides, got {other:?}"),
        }
    }

    #[test]
    fn sharded_spmm_is_bit_identical_at_any_shard_count() {
        // A skewed matrix: some dense rows, some empty, non-uniform values.
        let mut trips = Vec::new();
        let mut state = 0x1234_5678u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        for r in 0..37 {
            let deg = (next() % 9) as usize;
            for _ in 0..deg {
                let c = (next() % 23) as usize;
                trips.push((r, c, (next() % 1000) as f64 / 313.0 - 1.5));
            }
        }
        let a = SparseMatrix::from_triplets(37, 23, &trips);
        let x = Tensor::from_vec((0..23 * 5).map(|i| (i as f64 * 0.71).cos()).collect(), &[23, 5]);
        let whole = a.spmm(&x);
        for k in [1, 2, 3, 7, 36, 37, 100] {
            let shards = SparseShards::split(&a, k);
            assert_eq!(shards.nnz(), a.nnz());
            assert_eq!(shards.to_matrix(), a, "split/reassemble round trip at k={k}");
            let sharded = shards.spmm(&x);
            assert_eq!(sharded.shape(), whole.shape());
            for (i, (&s, &w)) in sharded.data().iter().zip(whole.data().iter()).enumerate() {
                assert_eq!(s.to_bits(), w.to_bits(), "k={k} elem {i}: {s} != {w}");
            }
        }
    }

    #[test]
    fn sharded_symmetric_operand_drives_the_tape() {
        // A symmetric 5x5 path graph, sharded 3 ways: tape forward and
        // gradient must match the whole-matrix operand bit for bit.
        let edges: Vec<(usize, usize, f64)> =
            (0..4).flat_map(|i| [(i, i + 1, 1.0), (i + 1, i, 1.0)]).collect();
        let a = SparseMatrix::from_triplets(5, 5, &edges);
        let whole_op = SparseOperand::symmetric(a.clone());
        let shard_op = SparseOperand::symmetric_sharded(a, 3);
        assert_eq!(shard_op.forward().nnz(), whole_op.forward().nnz());
        let x0 = Tensor::from_vec((0..10).map(|i| (i as f64 - 4.5) * 0.3).collect(), &[5, 2]);
        let (tape_w, tape_s) = (Tape::new(), Tape::new());
        let (xw, xs) = (tape_w.leaf(x0.clone()), tape_s.leaf(x0));
        let (yw, ys) = (spmm(&whole_op, xw), spmm(&shard_op, xs));
        assert_eq!(yw.value().to_vec(), ys.value().to_vec());
        let gw = tape_w.grad(yw.mul(yw).sum(), &[xw]).remove(0);
        let gs = tape_s.grad(ys.mul(ys).sum(), &[xs]).remove(0);
        for (a, b) in gw.to_vec().iter().zip(gs.to_vec()) {
            assert_eq!(a.to_bits(), b.to_bits(), "sharded gradient drifted");
        }
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
