//! The autodiff tape: a growing arena of operation nodes.
//!
//! Every differentiable computation in the workspace is recorded as a node on
//! a [`Tape`]. Backward passes (see [`crate::backward`]) emit their
//! vector-Jacobian products as *new tape nodes built from the same op set*,
//! which is what makes gradients themselves differentiable — the property
//! Algorithm 1 of the MSOPDS paper relies on for its second-order
//! vector-Jacobian products (steps 9–10).
//!
//! The tape is single-threaded by design (`RefCell` inside); experiment
//! parallelism happens at the scenario level, one tape per thread.

use std::cell::RefCell;
use std::sync::Arc;

use msopds_telemetry as telemetry;

use crate::tensor::Tensor;

/// Operations recorded across all tapes (forward and backward-emitted nodes).
static TAPE_OPS: telemetry::Counter = telemetry::Counter::new("autograd.tape.ops");

/// SELU scale constant λ (Klambauer et al., 2017).
pub const SELU_LAMBDA: f64 = 1.050_700_987_355_480_5;
/// SELU α constant (Klambauer et al., 2017).
pub const SELU_ALPHA: f64 = 1.673_263_242_354_377_2;

/// Identifier of a node on a tape.
pub type NodeId = usize;

/// A recorded operation. Fields hold the input node ids plus any constant
/// attributes (scalars, index lists, shape parameters).
#[derive(Clone, Debug)]
#[allow(missing_docs)] // arithmetic variants are self-describing
pub enum Op {
    /// An input tensor. `trainable` is advisory metadata used by optimizers.
    Leaf {
        trainable: bool,
    },
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Div(NodeId, NodeId),
    Neg(NodeId),
    AddScalar(NodeId, f64),
    MulScalar(NodeId, f64),
    PowScalar(NodeId, f64),
    Matmul(NodeId, NodeId),
    Transpose(NodeId),
    Reshape(NodeId, Vec<usize>),
    /// Sum of all elements, producing a scalar.
    Sum(NodeId),
    /// Row sums: `[m, n] -> [m]`.
    SumRows(NodeId),
    /// Column sums: `[m, n] -> [n]`.
    SumCols(NodeId),
    /// Scalar broadcast to an arbitrary shape.
    ExpandScalar(NodeId, Vec<usize>),
    /// `[m] -> [m, n]`, copying element `i` across row `i`.
    BroadcastCols(NodeId, usize),
    /// `[n] -> [m, n]`, copying the vector into every row.
    BroadcastRows(NodeId, usize),
    /// Row gather: `[m, n] -> [k, n]` for `k` indices.
    GatherRows(NodeId, Arc<Vec<usize>>),
    /// Row scatter-add: `[k, n] -> [m, n]`; duplicate indices accumulate.
    ScatterAddRows(NodeId, Arc<Vec<usize>>, usize),
    /// Element gather on a vector: `[n] -> [k]`.
    GatherElems(NodeId, Arc<Vec<usize>>),
    /// Element scatter-add on a vector: `[k] -> [n]`.
    ScatterAddElems(NodeId, Arc<Vec<usize>>, usize),
    /// Column-wise concatenation of two matrices with equal row counts.
    ConcatCols(NodeId, NodeId),
    /// Column slice `[from, to)` of a matrix.
    SliceCols(NodeId, usize, usize),
    /// Embeds a matrix as columns `[from, from+cols)` of a wider zero matrix.
    PadCols(NodeId, usize, usize),
    /// Sparse × dense product `A·x` (or `Aᵀ·x` when the flag is set). The
    /// sparse operand is a constant; only the dense input differentiates.
    Spmm(Arc<crate::sparse::SparseOperand>, bool, NodeId),
    Exp(NodeId),
    Ln(NodeId),
    Sqrt(NodeId),
    Sigmoid(NodeId),
    Tanh(NodeId),
    Relu(NodeId),
    /// Scaled exponential linear unit, used by the CA loss (eq. 5).
    Selu(NodeId),
}

impl Op {
    /// Input node ids of this operation (empty for leaves).
    pub fn inputs(&self) -> Inputs {
        use Op::*;
        match self {
            Leaf { .. } => Inputs::none(),
            Add(a, b) | Sub(a, b) | Mul(a, b) | Div(a, b) | Matmul(a, b) | ConcatCols(a, b) => {
                Inputs::two(*a, *b)
            }
            Neg(a)
            | AddScalar(a, _)
            | MulScalar(a, _)
            | PowScalar(a, _)
            | Transpose(a)
            | Reshape(a, _)
            | Sum(a)
            | SumRows(a)
            | SumCols(a)
            | ExpandScalar(a, _)
            | BroadcastCols(a, _)
            | BroadcastRows(a, _)
            | GatherRows(a, _)
            | ScatterAddRows(a, _, _)
            | GatherElems(a, _)
            | ScatterAddElems(a, _, _)
            | SliceCols(a, _, _)
            | PadCols(a, _, _)
            | Spmm(_, _, a)
            | Exp(a)
            | Ln(a)
            | Sqrt(a)
            | Sigmoid(a)
            | Tanh(a)
            | Relu(a)
            | Selu(a) => Inputs::one(*a),
        }
    }
}

/// Tiny fixed-capacity input list (ops have at most two inputs).
#[derive(Clone, Copy, Debug)]
pub struct Inputs {
    items: [NodeId; 2],
    len: u8,
}

impl Inputs {
    fn none() -> Self {
        Self { items: [0, 0], len: 0 }
    }
    fn one(a: NodeId) -> Self {
        Self { items: [a, 0], len: 1 }
    }
    fn two(a: NodeId, b: NodeId) -> Self {
        Self { items: [a, b], len: 2 }
    }
    /// Iterates over the stored ids.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.items[..self.len as usize].iter().copied()
    }
    /// Number of inputs.
    pub fn len(&self) -> usize {
        self.len as usize
    }
    /// True when there are no inputs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

pub(crate) struct Node {
    pub op: Op,
    pub value: Tensor,
}

/// Size statistics of a tape (see [`Tape::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TapeStats {
    /// Total recorded nodes.
    pub nodes: usize,
    /// Leaf nodes (inputs/constants).
    pub leaves: usize,
    /// Matrix-multiplication nodes (the dominant cost).
    pub matmuls: usize,
    /// Total stored tensor elements across all nodes.
    pub elements: usize,
}

/// A reverse-mode autodiff tape.
///
/// Create leaves with [`Tape::leaf`] / [`Tape::constant`], build computations
/// through [`crate::Var`] methods, then differentiate with
/// [`Tape::grad`] or [`Tape::grad_vars`].
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: RefCell<Vec<Node>>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all nodes, returning uniquely-owned value buffers to the
    /// thread-local pool (see [`crate::pool`]) so the next forward/backward
    /// pass reuses them instead of reallocating. Any outstanding
    /// [`crate::Var`] from this tape becomes invalid; callers must re-create
    /// leaves afterwards.
    pub fn reset(&self) {
        self.truncate(0);
    }

    /// Drops every node from id `len` on, returning their uniquely-owned
    /// value buffers to the thread-local pool. Nodes below `len` and the
    /// [`crate::Var`]s naming them stay valid; a `Var` at or above `len`
    /// must not be used again.
    pub(crate) fn truncate(&self, len: usize) {
        for node in self.nodes.borrow_mut().drain(len..) {
            node.value.reclaim();
        }
    }

    /// Registers a trainable leaf holding `value`.
    pub fn leaf(&self, value: Tensor) -> crate::Var<'_> {
        self.push(Op::Leaf { trainable: true }, value)
    }

    /// Registers a non-trainable (constant) leaf holding `value`.
    pub fn constant(&self, value: Tensor) -> crate::Var<'_> {
        self.push(Op::Leaf { trainable: false }, value)
    }

    /// Convenience scalar constant.
    pub fn scalar(&self, v: f64) -> crate::Var<'_> {
        self.constant(Tensor::scalar(v))
    }

    /// The stored value of node `id`.
    pub fn value(&self, id: NodeId) -> Tensor {
        self.nodes.borrow()[id].value.clone()
    }

    /// Reconstructs a [`crate::Var`] handle for an existing node id.
    ///
    /// # Panics
    /// Panics if `id` does not name a recorded node.
    pub fn var(&self, id: NodeId) -> crate::Var<'_> {
        assert!(id < self.len(), "node id {id} out of range (tape has {} nodes)", self.len());
        crate::Var { tape: self, id }
    }

    pub(crate) fn op(&self, id: NodeId) -> Op {
        self.nodes.borrow()[id].op.clone()
    }

    pub(crate) fn push(&self, op: Op, value: Tensor) -> crate::Var<'_> {
        TAPE_OPS.incr();
        let mut nodes = self.nodes.borrow_mut();
        let id = nodes.len();
        nodes.push(Node { op, value });
        crate::Var { tape: self, id }
    }

    /// Memory/size statistics of the recorded computation, used to observe
    /// the Theorem 1 cost model (backward cost ∝ recorded ops).
    pub fn stats(&self) -> TapeStats {
        let nodes = self.nodes.borrow();
        let mut stats = TapeStats { nodes: nodes.len(), ..TapeStats::default() };
        for node in nodes.iter() {
            stats.elements += node.value.numel();
            if matches!(node.op, Op::Leaf { .. }) {
                stats.leaves += 1;
            }
            if matches!(node.op, Op::Matmul(_, _)) {
                stats.matmuls += 1;
            }
        }
        stats
    }

    /// Records `op`, computing its value from the stored inputs.
    pub(crate) fn apply(&self, op: Op) -> crate::Var<'_> {
        let value = {
            let nodes = self.nodes.borrow();
            eval(&op, &nodes)
        };
        self.push(op, value)
    }
}

impl Drop for Tape {
    fn drop(&mut self) {
        // Same buffer recycling as `reset`: a dropped tape's uniquely-owned
        // values feed the next tape on this thread.
        self.truncate(0);
    }
}

/// Computes the forward value of `op` given the current node arena.
///
/// Structural and reduction ops delegate to the (pooled, possibly parallel)
/// kernels on [`Tensor`]; this function only routes inputs.
fn eval(op: &Op, nodes: &[Node]) -> Tensor {
    use Op::*;
    let v = |id: NodeId| &nodes[id].value;
    match op {
        Leaf { .. } => unreachable!("leaves are pushed with explicit values"),
        Add(a, b) => v(*a).zip(v(*b), |x, y| x + y),
        Sub(a, b) => v(*a).zip(v(*b), |x, y| x - y),
        Mul(a, b) => v(*a).zip(v(*b), |x, y| x * y),
        Div(a, b) => v(*a).zip(v(*b), |x, y| x / y),
        Neg(a) => v(*a).map(|x| -x),
        AddScalar(a, c) => v(*a).map(|x| x + c),
        MulScalar(a, c) => v(*a).map(|x| x * c),
        PowScalar(a, p) => v(*a).map(|x| x.powf(*p)),
        Matmul(a, b) => v(*a).matmul(v(*b)),
        Transpose(a) => v(*a).transpose(),
        Reshape(a, shape) => v(*a).reshape(shape),
        Sum(a) => Tensor::scalar(v(*a).sum()),
        SumRows(a) => v(*a).sum_rows(),
        SumCols(a) => v(*a).sum_cols(),
        ExpandScalar(a, shape) => {
            let s = v(*a);
            assert_eq!(s.numel(), 1, "ExpandScalar needs a scalar, got {:?}", s.shape());
            Tensor::full(shape, s.item())
        }
        BroadcastCols(a, n) => v(*a).broadcast_cols(*n),
        BroadcastRows(a, m) => v(*a).broadcast_rows(*m),
        GatherRows(a, idx) => v(*a).gather_rows(idx),
        ScatterAddRows(a, idx, m) => v(*a).scatter_add_rows(idx, *m),
        GatherElems(a, idx) => v(*a).gather_elems(idx),
        ScatterAddElems(a, idx, n) => v(*a).scatter_add_elems(idx, *n),
        Spmm(m, transposed, a) => m.side(*transposed).spmm(v(*a)),
        ConcatCols(a, b) => v(*a).concat_cols(v(*b)),
        SliceCols(a, from, to) => v(*a).slice_cols(*from, *to),
        PadCols(a, from, total) => v(*a).pad_cols(*from, *total),
        Exp(a) => v(*a).map(f64::exp),
        Ln(a) => v(*a).map(f64::ln),
        Sqrt(a) => v(*a).map(f64::sqrt),
        Sigmoid(a) => v(*a).map(|x| 1.0 / (1.0 + (-x).exp())),
        Tanh(a) => v(*a).map(f64::tanh),
        Relu(a) => v(*a).map(|x| x.max(0.0)),
        Selu(a) => v(*a).map(|x| {
            if x > 0.0 {
                SELU_LAMBDA * x
            } else {
                SELU_LAMBDA * SELU_ALPHA * (x.exp() - 1.0)
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_value() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::scalar(2.0));
        assert_eq!(tape.value(a.id()).item(), 2.0);
        assert_eq!(tape.len(), 1);
    }

    #[test]
    fn reset_clears() {
        let tape = Tape::new();
        tape.leaf(Tensor::scalar(1.0));
        tape.reset();
        assert!(tape.is_empty());
    }

    #[test]
    fn stats_count_nodes_and_elements() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = tape.constant(Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]));
        let _ = a.matmul(b).sum();
        let stats = tape.stats();
        assert_eq!(stats.nodes, 4);
        assert_eq!(stats.leaves, 2);
        assert_eq!(stats.matmuls, 1);
        assert_eq!(stats.elements, 4 + 4 + 4 + 1);
    }

    #[test]
    fn backward_grows_tape_linearly_in_forward_size() {
        // Theorem 1's O(|θ|) reverse-mode claim, observed: the backward pass
        // adds at most a constant factor of the forward node count.
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[1, 8]));
        let c = tape.constant(Tensor::full(&[8, 8], 0.1));
        let mut y = x.matmul(c);
        for _ in 0..20 {
            y = y.sigmoid().add_scalar(0.1);
        }
        let loss = y.sum();
        let before = tape.stats();
        let _ = tape.grad(loss, &[x]);
        let after = tape.stats();
        assert!(
            after.nodes - before.nodes < 8 * before.nodes,
            "backward blow-up: {} -> {}",
            before.nodes,
            after.nodes
        );
        // The constant reaches no `wrt` node, so the scan records only x's
        // adjoint `g·cᵀ` for the product, never the constant's `xᵀ·g`.
        assert_eq!(after.matmuls - before.matmuls, 1, "adjoint recorded for a constant");
    }

    #[test]
    fn selu_constants_match_reference() {
        // Values cross-checked against the SELU paper / PyTorch defaults.
        assert!((SELU_LAMBDA - 1.0507).abs() < 1e-4);
        assert!((SELU_ALPHA - 1.6733).abs() < 1e-4);
    }
}
