//! Reverse-mode differentiation.
//!
//! [`Tape::grad_vars`] walks the tape from an output node backwards,
//! accumulating adjoints. Every vector-Jacobian product is *itself built from
//! tape operations*, so the returned gradients are ordinary differentiable
//! [`Var`]s: calling `grad_vars` on an expression built from them yields exact
//! second-order derivatives. This is the mechanism behind the Hessian-vector
//! products of Algorithm 1, step 9 (`ξ ∂²L^q/∂X̂^q² = ∂L^p/∂X̂^q`).
//!
//! The scan is pruned to the nodes that can reach a `wrt` node. Before it
//! starts, one forward pass over the node arena marks `needs[id]`: `id` is
//! a `wrt` node, or one of its inputs `needs`. The scan visits only nodes
//! that `need`, and a VJP builds and accumulates a contribution only into
//! inputs that `need`. Skipping the rest changes no value: a node that
//! reaches no `wrt` node feeds no adjoint that does, and every consumer of
//! a node that `needs` `needs` too, so each kept adjoint receives the same
//! contributions in the same reverse-id order. What is skipped is work the
//! result never reads: adjoints of constants (a fixed adjacency matrix, a
//! ReLU mask) and of everything recorded before the earliest `wrt` node,
//! such as the earlier steps of an unrolled training loop.
//!
//! Piecewise-linear activations (`relu`, and the switching mask of `selu`)
//! treat their activation pattern as a constant, which matches the
//! almost-everywhere derivative and is the standard convention.

use crate::tape::{NodeId, Op, Tape, SELU_ALPHA, SELU_LAMBDA};
use crate::tensor::Tensor;
use crate::var::Var;

impl Tape {
    /// Differentiable gradients of `output` with respect to each `wrt` node.
    ///
    /// If `output` is not scalar the seed is a ones tensor, i.e. the gradient
    /// of `output.sum()`. Nodes unreachable from `output` get a zero gradient
    /// of the appropriate shape. This is the one-seed row of
    /// [`Tape::grad_vars_multi`].
    pub fn grad_vars<'t>(&'t self, output: Var<'t>, wrt: &[Var<'t>]) -> Vec<Var<'t>> {
        self.grad_vars_multi(&[output], wrt).pop().expect("one row per output")
    }

    /// Differentiable gradients of several outputs in **one** reverse scan.
    ///
    /// Returns `result[s][w]` = ∂outputs[s]/∂wrt[w]. Each seed gets its own
    /// adjoint array, so the seeds never mix: `result[s]` is bitwise identical
    /// to a separate [`Tape::grad_vars`] call on `outputs[s]` (the VJP nodes a
    /// seed creates depend only on *forward* node values, never on other
    /// adjoints, so interleaved construction changes node ids but not one
    /// numeric value). This matters for the multilevel planner, where the
    /// followers' losses share one poisoned-data-set build and therefore one
    /// tape: batching their backward passes walks that shared prefix once
    /// instead of once per follower, without introducing cross-follower terms.
    pub fn grad_vars_multi<'t>(
        &'t self,
        outputs: &[Var<'t>],
        wrt: &[Var<'t>],
    ) -> Vec<Vec<Var<'t>>> {
        let n = outputs.iter().map(|o| o.id + 1).max().unwrap_or(0);
        let needs = self.needs_mask(n, wrt);
        let mut adjs: Vec<Vec<Option<Var<'t>>>> = Vec::with_capacity(outputs.len());
        for output in outputs {
            let mut adj: Vec<Option<Var<'t>>> = vec![None; n];
            if needs[output.id] {
                let out_shape = output.value().shape().to_vec();
                adj[output.id] = Some(self.constant(Tensor::ones(&out_shape)));
            }
            adjs.push(adj);
        }

        for id in (0..n).rev() {
            if !needs[id] || adjs.iter().all(|adj| adj[id].is_none()) {
                continue;
            }
            let op = self.op(id);
            let out = Var { tape: self, id };
            for adj in adjs.iter_mut() {
                if let Some(g) = adj[id] {
                    self.push_vjps(&op, out, g, &mut Adjoints { adj, needs: &needs });
                }
            }
        }

        adjs.into_iter()
            .map(|adj| {
                wrt.iter()
                    .map(|v| {
                        adj.get(v.id)
                            .copied()
                            .flatten()
                            .unwrap_or_else(|| self.constant(Tensor::zeros(v.value().shape())))
                    })
                    .collect()
            })
            .collect()
    }

    /// Gradient values of `output` w.r.t. each `wrt` node.
    ///
    /// Convenience wrapper around [`Tape::grad_vars`] that extracts tensors.
    pub fn grad(&self, output: Var<'_>, wrt: &[Var<'_>]) -> Vec<Tensor> {
        // Lifetimes: wrt vars all live on this tape.
        let wrt_here: Vec<Var<'_>> = wrt.iter().map(|v| Var { tape: self, id: v.id }).collect();
        let out = Var { tape: self, id: output.id };
        self.grad_vars(out, &wrt_here).into_iter().map(|v| v.value()).collect()
    }

    /// `needs[id]` for every `id < n`: `id` is one of `wrt`, or an input of
    /// `id` `needs`. No node before the earliest `wrt` id can qualify, so the
    /// pass starts there.
    fn needs_mask(&self, n: usize, wrt: &[Var<'_>]) -> Vec<bool> {
        let mut needs = vec![false; n];
        for v in wrt.iter().filter(|v| v.id < n) {
            needs[v.id] = true;
        }
        let start = wrt.iter().map(|v| v.id).min().unwrap_or(n);
        let nodes = self.nodes.borrow();
        for id in start..n {
            if !needs[id] {
                needs[id] = nodes[id].op.inputs().iter().any(|i| needs[i]);
            }
        }
        needs
    }

    fn push_vjps<'t>(&'t self, op: &Op, out: Var<'t>, g: Var<'t>, adjs: &mut Adjoints<'_, 't>) {
        use Op::*;
        let var = |id: usize| Var { tape: self, id };
        match op {
            Leaf { .. } => {}
            Add(a, b) => {
                adjs.acc(*a, || g);
                adjs.acc(*b, || g);
            }
            Sub(a, b) => {
                adjs.acc(*a, || g);
                adjs.acc(*b, || g.neg());
            }
            Mul(a, b) => {
                adjs.acc(*a, || g.mul(var(*b)));
                adjs.acc(*b, || g.mul(var(*a)));
            }
            Div(a, b) => {
                adjs.acc(*a, || g.div(var(*b)));
                adjs.acc(*b, || g.mul(out).div(var(*b)).neg());
            }
            Neg(a) => adjs.acc(*a, || g.neg()),
            AddScalar(a, _) => adjs.acc(*a, || g),
            MulScalar(a, c) => adjs.acc(*a, || g.scale(*c)),
            PowScalar(a, p) => adjs.acc(*a, || g.mul(var(*a).pow_scalar(p - 1.0)).scale(*p)),
            Matmul(a, b) => {
                adjs.acc(*a, || g.matmul(var(*b).t()));
                adjs.acc(*b, || var(*a).t().matmul(g));
            }
            Transpose(a) => adjs.acc(*a, || g.t()),
            Reshape(a, _) => adjs.acc(*a, || g.reshape(self.value(*a).shape())),
            Sum(a) => adjs.acc(*a, || g.expand(self.value(*a).shape())),
            SumRows(a) => adjs.acc(*a, || g.broadcast_cols(self.value(*a).cols())),
            SumCols(a) => adjs.acc(*a, || g.broadcast_rows(self.value(*a).rows())),
            ExpandScalar(a, _) => adjs.acc(*a, || g.sum()),
            BroadcastCols(a, _) => adjs.acc(*a, || g.sum_rows()),
            BroadcastRows(a, _) => adjs.acc(*a, || g.sum_cols()),
            GatherRows(a, idx) => {
                adjs.acc(*a, || g.scatter_add_rows(idx.clone(), self.value(*a).rows()));
            }
            ScatterAddRows(a, idx, _) => adjs.acc(*a, || g.gather_rows(idx.clone())),
            GatherElems(a, idx) => {
                adjs.acc(*a, || g.scatter_add_elems(idx.clone(), self.value(*a).numel()));
            }
            ScatterAddElems(a, idx, _) => adjs.acc(*a, || g.gather_elems(idx.clone())),
            Spmm(m, transposed, a) => {
                // ∂(A·x)/∂x applied to g is Aᵀ·g — another Spmm node, so the
                // gradient stays differentiable (HVPs flip the flag back).
                adjs.acc(*a, || crate::sparse::spmm_oriented(m, !transposed, g));
            }
            ConcatCols(a, b) => {
                let na = self.value(*a).cols();
                let nb = self.value(*b).cols();
                adjs.acc(*a, || g.slice_cols(0, na));
                adjs.acc(*b, || g.slice_cols(na, na + nb));
            }
            SliceCols(a, from, _) => adjs.acc(*a, || g.pad_cols(*from, self.value(*a).cols())),
            PadCols(a, from, _) => {
                adjs.acc(*a, || g.slice_cols(*from, from + self.value(*a).cols()));
            }
            Exp(a) => adjs.acc(*a, || g.mul(out)),
            Ln(a) => adjs.acc(*a, || g.div(var(*a))),
            Sqrt(a) => adjs.acc(*a, || g.scale(0.5).div(out)),
            Sigmoid(a) => {
                // σ' = σ(1-σ)
                adjs.acc(*a, || g.mul(out).mul(out.neg().add_scalar(1.0)));
            }
            Tanh(a) => {
                // tanh' = 1 - tanh²
                adjs.acc(*a, || g.mul(out.square().neg().add_scalar(1.0)));
            }
            Relu(a) => adjs.acc(*a, || g.mul(self.positive_mask(*a))),
            Selu(a) => adjs.acc(*a, || {
                // d/dx = λ for x > 0, λ·α·eˣ for x ≤ 0. The mask is the
                // (constant) activation pattern; the eˣ factor stays
                // differentiable so second-order terms through the negative
                // branch are exact.
                let mask = self.positive_mask(*a);
                let inv_mask = mask.neg().add_scalar(1.0);
                let deriv = mask
                    .scale(SELU_LAMBDA)
                    .add(inv_mask.mul(var(*a).exp()).scale(SELU_LAMBDA * SELU_ALPHA));
                g.mul(deriv)
            }),
        }
    }

    /// The constant `1` where node `id` is positive, `0` elsewhere: the
    /// activation pattern of `relu` and `selu`.
    fn positive_mask(&self, id: NodeId) -> Var<'_> {
        self.constant(self.value(id).map(|x| if x > 0.0 { 1.0 } else { 0.0 }))
    }
}

/// One seed's adjoint array, with the scan's `needs` mask.
struct Adjoints<'a, 't> {
    adj: &'a mut [Option<Var<'t>>],
    needs: &'a [bool],
}

impl<'t> Adjoints<'_, 't> {
    /// Adds the contribution `c()` to the adjoint of `id`, building it only
    /// when `id` needs it.
    fn acc(&mut self, id: NodeId, c: impl FnOnce() -> Var<'t>) {
        // Contributions always flow to earlier nodes, so `id` is in range.
        if !self.needs[id] {
            return;
        }
        let c = c();
        self.adj[id] = Some(match self.adj[id] {
            Some(existing) => existing.add(c),
            None => c,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    fn scalar_tape() -> Tape {
        Tape::new()
    }

    #[test]
    fn grad_of_square() {
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::scalar(3.0));
        let y = x.square();
        let g = tape.grad(y, &[x]);
        assert_eq!(g[0].item(), 6.0);
    }

    #[test]
    fn grad_flows_through_chain() {
        // d/dx [ (2x + 1)² ] = 2(2x+1)·2 = 8x + 4
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::scalar(1.5));
        let y = x.scale(2.0).add_scalar(1.0).square();
        let g = tape.grad(y, &[x]);
        assert!((g[0].item() - (8.0 * 1.5 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn grad_matmul() {
        // y = sum(A·B); dy/dA = 1·Bᵀ broadcast, dy/dB = Aᵀ·1
        let tape = scalar_tape();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = tape.leaf(Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]));
        let y = a.matmul(b).sum();
        let g = tape.grad(y, &[a, b]);
        assert_eq!(g[0].to_vec(), vec![11.0, 15.0, 11.0, 15.0]);
        assert_eq!(g[1].to_vec(), vec![4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn grad_unreachable_is_zero() {
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::scalar(1.0));
        let z = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let y = x.square();
        let g = tape.grad(y, &[z]);
        assert_eq!(g[0].to_vec(), vec![0.0, 0.0]);
    }

    #[test]
    fn second_order_square() {
        // y = x³, y' = 3x², y'' = 6x
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::scalar(2.0));
        let y = x.pow_scalar(3.0);
        let g = tape.grad_vars(y, &[x]);
        assert!((g[0].item() - 12.0).abs() < 1e-12);
        let gg = tape.grad(g[0], &[x]);
        assert!((gg[0].item() - 12.0).abs() < 1e-12, "y''(2) = 12, got {}", gg[0].item());
    }

    #[test]
    fn second_order_through_mul_chain() {
        // f = (x·y)², ∂f/∂x = 2xy², ∂²f/∂x∂y = 4xy
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::scalar(3.0));
        let y = tape.leaf(Tensor::scalar(5.0));
        let f = x.mul(y).square();
        let gx = tape.grad_vars(f, &[x])[0];
        assert!((gx.item() - 2.0 * 3.0 * 25.0).abs() < 1e-9);
        let gxy = tape.grad(gx, &[y]);
        assert!((gxy[0].item() - 4.0 * 15.0).abs() < 1e-9);
    }

    #[test]
    fn grad_gather_scatter() {
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]));
        let idx = std::sync::Arc::new(vec![0usize, 2, 2]);
        let y = x.gather_rows(idx).sum();
        let g = tape.grad(y, &[x]);
        // Row 0 gathered once, row 1 never, row 2 twice.
        assert_eq!(g[0].to_vec(), vec![1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn grad_concat_routes_to_both() {
        let tape = scalar_tape();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2, 1]));
        let b = tape.leaf(Tensor::from_vec(vec![3.0, 4.0], &[2, 1]));
        let y = a
            .concat_cols(b)
            .mul(tape.constant(Tensor::from_vec(vec![10.0, 20.0, 30.0, 40.0], &[2, 2])));
        let g = tape.grad(y.sum(), &[a, b]);
        assert_eq!(g[0].to_vec(), vec![10.0, 30.0]);
        assert_eq!(g[1].to_vec(), vec![20.0, 40.0]);
    }

    #[test]
    fn grad_selu_negative_branch_second_order() {
        // For x < 0: selu(x) = λα(eˣ-1); selu'(x) = λαeˣ; selu''(x) = λαeˣ.
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::scalar(-1.0));
        let y = x.selu();
        let g1 = tape.grad_vars(y, &[x])[0];
        let expect1 = SELU_LAMBDA * SELU_ALPHA * (-1.0f64).exp();
        assert!((g1.item() - expect1).abs() < 1e-12);
        let g2 = tape.grad(g1, &[x]);
        assert!((g2[0].item() - expect1).abs() < 1e-12);
    }

    #[test]
    fn grad_div_quotient_rule() {
        // f = a/b; ∂f/∂a = 1/b; ∂f/∂b = -a/b²
        let tape = scalar_tape();
        let a = tape.leaf(Tensor::scalar(6.0));
        let b = tape.leaf(Tensor::scalar(3.0));
        let f = a.div(b);
        let g = tape.grad(f, &[a, b]);
        assert!((g[0].item() - 1.0 / 3.0).abs() < 1e-12);
        assert!((g[1].item() + 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn grad_reshape_roundtrips() {
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let w = tape.constant(Tensor::from_vec(vec![1.0, 10.0, 100.0, 1000.0], &[4]));
        let y = x.reshape(&[4]).mul(w).sum();
        let g = tape.grad(y, &[x]).remove(0);
        assert_eq!(g.shape(), &[2, 2]);
        assert_eq!(g.to_vec(), vec![1.0, 10.0, 100.0, 1000.0]);
    }

    #[test]
    fn grad_pad_and_slice_are_adjoint() {
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2, 1]));
        let w = tape.constant(Tensor::from_vec(vec![5.0, 7.0, 11.0, 13.0, 17.0, 19.0], &[2, 3]));
        let y = x.pad_cols(1, 3).mul(w).sum();
        let g = tape.grad(y, &[x]).remove(0);
        // Only the middle column of w touches x.
        assert_eq!(g.to_vec(), vec![7.0, 17.0]);
    }

    #[test]
    fn grad_broadcast_rows_sums_columns() {
        let tape = scalar_tape();
        let v = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let w = tape.constant(Tensor::from_vec(vec![1.0, 10.0, 100.0, 1000.0, 2.0, 20.0], &[3, 2]));
        let y = v.broadcast_rows(3).mul(w).sum();
        let g = tape.grad(y, &[v]).remove(0);
        assert_eq!(g.to_vec(), vec![103.0, 1030.0]);
    }

    #[test]
    fn grad_pow_scalar_matches_numeric() {
        let tape = scalar_tape();
        let x0 = Tensor::from_vec(vec![0.7, 1.9], &[2]);
        let x = tape.leaf(x0.clone());
        let y = x.pow_scalar(2.5).sum();
        let g = tape.grad(y, &[x]).remove(0);
        let ng =
            crate::ndiff::numeric_grad(|t| t.data().iter().map(|v| v.powf(2.5)).sum(), &x0, 1e-6);
        assert!(g.max_abs_diff(&ng) < 1e-6);
    }

    #[test]
    fn grad_ln_exp_inverse_chain() {
        // d/dx ln(exp(x)) = 1 exactly, through both VJPs.
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::from_vec(vec![0.3, -1.2, 2.0], &[3]));
        let y = x.exp().ln().sum();
        let g = tape.grad(y, &[x]).remove(0);
        for i in 0..3 {
            assert!((g.get(i) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn grad_accumulates_across_shared_subexpression() {
        // y = x² + x³ shares x; adjoints must accumulate: y' = 2x + 3x².
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::scalar(2.0));
        let y = x.square().add(x.pow_scalar(3.0));
        let g = tape.grad(y, &[x]).remove(0);
        assert!((g.item() - (4.0 + 12.0)).abs() < 1e-12);
    }

    #[test]
    fn grad_nonscalar_output_uses_ones_seed() {
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]));
        let y = x.scale(2.0);
        let g = tape.grad(y, &[x]);
        assert_eq!(g[0].to_vec(), vec![2.0, 2.0, 2.0]);
    }

    // ---- multi-seed backward (ISSUE 6): one scan, N independent adjoints ----

    fn assert_bits_eq(a: &Tensor, b: &Tensor, label: &str) {
        assert_eq!(a.shape(), b.shape(), "{label}: shape");
        for (i, (x, y)) in a.to_vec().iter().zip(b.to_vec().iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: [{i}] {x} vs {y}");
        }
    }

    #[test]
    fn grad_vars_multi_bitwise_matches_sequential() {
        // Two "follower losses" sharing a nonlinear subexpression (the shared
        // PDS-build analogue), each differentiated w.r.t. both leaves. The
        // batched scan must reproduce every sequential gradient bit for bit.
        let tape = scalar_tape();
        let a = tape.leaf(Tensor::from_vec(vec![0.3, -1.2, 0.9, 2.0], &[2, 2]));
        let b = tape.leaf(Tensor::from_vec(vec![1.1, 0.4, -0.7, 0.25], &[2, 2]));
        let shared = a.matmul(b).selu();
        let l0 = shared.square().sum();
        let l1 = shared.mul(a).sum().add(b.pow_scalar(3.0).sum());
        let wrt = [a, b];

        let multi = tape.grad_vars_multi(&[l0, l1], &wrt);
        assert_eq!(multi.len(), 2);
        for (s, (l, row)) in [l0, l1].iter().zip(multi.iter()).enumerate() {
            let seq = tape.grad_vars(*l, &wrt);
            for (w, (m, q)) in row.iter().zip(seq.iter()).enumerate() {
                assert_bits_eq(&m.value(), &q.value(), &format!("seed {s} wrt {w}"));
            }
        }
    }

    #[test]
    fn grad_vars_multi_gradients_stay_differentiable() {
        // The batched gradients must still be tape vars usable for HVPs:
        // f0 = x³ (f0'' = 6x), f1 = x⁴ (f1'' = 12x²) at x = 2.
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::scalar(2.0));
        let f0 = x.pow_scalar(3.0);
        let f1 = x.pow_scalar(4.0);
        let grads = tape.grad_vars_multi(&[f0, f1], &[x]);
        assert!((grads[0][0].item() - 12.0).abs() < 1e-12);
        assert!((grads[1][0].item() - 32.0).abs() < 1e-12);
        let h0 = tape.grad(grads[0][0], &[x]);
        let h1 = tape.grad(grads[1][0], &[x]);
        assert!((h0[0].item() - 12.0).abs() < 1e-12);
        assert!((h1[0].item() - 48.0).abs() < 1e-12);
    }

    #[test]
    fn grad_vars_multi_handles_unreachable_and_empty() {
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::scalar(1.0));
        let z = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let y = x.square();
        let multi = tape.grad_vars_multi(&[y], &[x, z]);
        assert_eq!(multi[0][0].item(), 2.0);
        assert_eq!(multi[0][1].value().to_vec(), vec![0.0, 0.0]);
        assert!(tape.grad_vars_multi(&[], &[x]).is_empty());
    }
}
