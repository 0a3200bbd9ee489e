//! Hessian-vector and mixed second-derivative products.
//!
//! Two interchangeable mechanisms:
//!
//! * [`grad_dot_products`] — double backward through the tape, for a batch
//!   of products in one reverse scan; [`hvp_exact`] / [`mixed_vjp_exact`] are
//!   its one-product forms. Because every VJP in [`crate::backward`] is
//!   recorded as ordinary tape ops, differentiating a gradient node is exact.
//! * [`HvpMode::FiniteDiff`] — central differences of a user-supplied gradient
//!   closure ([`hvp_finite_diff`]). It shares no code with the tape's second
//!   order, which makes it the independent oracle the tests check the exact
//!   products against.

use msopds_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::tape::Tape;
use crate::tensor::Tensor;
use crate::var::Var;

/// Second-order products computed by double backward.
static HVP_PRODUCTS: telemetry::Counter = telemetry::Counter::new("autograd.hvp.products");

/// Which Hessian-vector product mechanism to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum HvpMode {
    /// Exact double backward through the recorded tape (default).
    #[default]
    Exact,
    /// Central finite differences of the first-order gradient.
    FiniteDiff,
}

/// Second-order products `∂⟨grads[s], dirs[s]⟩/∂wrt[s]` for every `s`, in
/// one multi-seed reverse scan.
///
/// With `grads[s] = ∂L/∂x` (a differentiable gradient from
/// [`Tape::grad_vars`]), `wrt[s] = x` gives the Hessian-vector product
/// `(∂²L/∂x²)·dirs[s]`, and `wrt[s] = y` the mixed product
/// `dirs[s]ᵀ·∂²L/∂y∂x`. The seeds never mix, so each product is bitwise the
/// one a separate scan would give.
///
/// Only tensors leave this function, so it truncates the tape back to the
/// length it found: the nodes it recorded return their buffers to the pool,
/// and a CG loop of many calls runs in the memory of one.
pub fn grad_dot_products<'t>(
    tape: &'t Tape,
    grads: &[Var<'t>],
    dirs: Vec<Tensor>,
    wrt: &[Var<'t>],
) -> Vec<Tensor> {
    assert!(grads.len() == dirs.len() && grads.len() == wrt.len(), "one dir and wrt per grad");
    HVP_PRODUCTS.add(grads.len() as u64);
    let mark = tape.len();
    let seeds: Vec<Var<'t>> =
        grads.iter().zip(dirs).map(|(g, v)| g.mul(tape.constant(v)).sum()).collect();
    let rows = tape.grad_vars_multi(&seeds, wrt);
    let products = rows.iter().enumerate().map(|(s, row)| row[s].value()).collect();
    tape.truncate(mark);
    products
}

/// Exact Hessian-vector product `(∂²L/∂x²)·v` via double backward.
///
/// `loss` must be a scalar node, `x` a leaf it depends on, and `v` a tensor
/// with the same shape as `x`'s value.
pub fn hvp_exact(tape: &Tape, loss: Var<'_>, x: Var<'_>, v: &Tensor) -> Tensor {
    let _span = telemetry::span("hvp");
    let x = rebind(tape, x);
    let g = tape.grad_vars(rebind(tape, loss), &[x])[0];
    grad_dot_products(tape, &[g], vec![v.clone()], &[x]).remove(0)
}

/// Exact mixed product `vᵀ·(∂²L/∂y∂x)` via double backward: differentiates
/// `⟨∂L/∂x, v⟩` with respect to `y`.
pub fn mixed_vjp_exact(tape: &Tape, loss: Var<'_>, x: Var<'_>, y: Var<'_>, v: &Tensor) -> Tensor {
    let _span = telemetry::span("mixed_vjp");
    let x = rebind(tape, x);
    let g = tape.grad_vars(rebind(tape, loss), &[x])[0];
    grad_dot_products(tape, &[g], vec![v.clone()], &[rebind(tape, y)]).remove(0)
}

/// Finite-difference Hessian-vector product from a gradient closure.
///
/// `grad_at` must return `∂L/∂x` evaluated at the given `x`. The product is
/// the central difference `(g(x+εv) − g(x−εv)) / 2ε` with `ε` scaled to the
/// magnitude of `v`.
pub fn hvp_finite_diff(
    mut grad_at: impl FnMut(&Tensor) -> Tensor,
    x: &Tensor,
    v: &Tensor,
) -> Tensor {
    let vnorm = v.norm();
    if vnorm == 0.0 {
        return Tensor::zeros(x.shape());
    }
    let eps = 1e-4 / vnorm.max(1e-12);
    let xp = x.zip(v, |a, b| a + eps * b);
    let xm = x.zip(v, |a, b| a - eps * b);
    let gp = grad_at(&xp);
    let gm = grad_at(&xm);
    gp.zip(&gm, |a, b| (a - b) / (2.0 * eps))
}

fn rebind<'t>(tape: &'t Tape, v: Var<'_>) -> Var<'t> {
    Var { tape, id: v.id() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hvp_quadratic_exact() {
        // L = ½ xᵀ A x with A = diag(2, 6) (via elementwise) → H·v = A·v.
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, -1.0], &[2]));
        let a = tape.constant(Tensor::from_vec(vec![2.0, 6.0], &[2]));
        let loss = x.square().mul(a).sum().scale(0.5);
        let v = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let hv = hvp_exact(&tape, loss, x, &v);
        assert!((hv.get(0) - 2.0).abs() < 1e-10);
        assert!((hv.get(1) - 12.0).abs() < 1e-10);
    }

    #[test]
    fn hvp_nonquadratic_matches_finite_diff() {
        // L = sum(exp(x)·x²)
        let build = |xv: &Tensor| -> (Tape, Vec<f64>) {
            let tape = Tape::new();
            let x = tape.leaf(xv.clone());
            let loss = x.exp().mul(x.square()).sum();
            let g = tape.grad(loss, &[x]).remove(0);
            (tape, g.to_vec())
        };
        let x0 = Tensor::from_vec(vec![0.3, -0.7, 1.1], &[3]);
        let v = Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3]);

        // Exact.
        let tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let loss = x.exp().mul(x.square()).sum();
        let hv = hvp_exact(&tape, loss, x, &v);

        // Finite difference of the gradient closure.
        let hv_fd = hvp_finite_diff(|xt| Tensor::from_vec(build(xt).1, xt.shape()), &x0, &v);
        assert!(
            hv.max_abs_diff(&hv_fd) < 1e-5,
            "exact {:?} vs fd {:?}",
            hv.to_vec(),
            hv_fd.to_vec()
        );
    }

    #[test]
    fn mixed_vjp_bilinear() {
        // L = xᵀ diag(c) y → ∂L/∂x = c∘y, and vᵀ ∂²L/∂y∂x = v∘c.
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let y = tape.leaf(Tensor::from_vec(vec![-3.0, 4.0], &[2]));
        let c = tape.constant(Tensor::from_vec(vec![5.0, 7.0], &[2]));
        let loss = x.mul(c).mul(y).sum();
        let v = Tensor::from_vec(vec![1.0, -1.0], &[2]);
        let out = mixed_vjp_exact(&tape, loss, x, y, &v);
        assert!((out.get(0) - 5.0).abs() < 1e-10);
        assert!((out.get(1) + 7.0).abs() < 1e-10);
    }

    #[test]
    fn grad_dot_products_gives_back_what_it_records() {
        // A CG loop calls this once per iteration on one tape: each call must
        // leave the tape as it found it and repeat the same bits.
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![0.3, -0.7, 1.1], &[3]));
        let y = tape.leaf(Tensor::from_vec(vec![2.0, 0.5, -1.5], &[3]));
        let loss = x.exp().mul(y.square()).sum();
        let g = tape.grad_vars(loss, &[x])[0];
        let mark = tape.len();
        let v = Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3]);
        let run = || grad_dot_products(&tape, &[g, g], vec![v.clone(), v.clone()], &[x, y]);
        let first = run();
        assert_eq!(tape.len(), mark);
        let second = run();
        assert_eq!(tape.len(), mark);
        for (a, b) in first.iter().zip(&second) {
            let bits = |t: &Tensor| t.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
        // Nodes below the mark stay usable.
        assert_eq!(g.value().to_vec(), tape.grad(loss, &[x])[0].to_vec());
    }

    #[test]
    fn hvp_zero_vector_is_zero() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let loss = x.square().sum();
        let hv = hvp_exact(&tape, loss, x, &Tensor::zeros(&[2]));
        assert_eq!(hv.to_vec(), vec![0.0, 0.0]);
        let hv_fd = hvp_finite_diff(|_| Tensor::ones(&[2]), &x.value(), &Tensor::zeros(&[2]));
        assert_eq!(hv_fd.to_vec(), vec![0.0, 0.0]);
    }
}
