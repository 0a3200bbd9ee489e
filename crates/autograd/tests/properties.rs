//! Property-based tests for the autodiff substrate.
//!
//! The central invariants: analytic gradients equal finite differences on
//! randomized inputs, adjoint pairs (gather/scatter, concat/slice) satisfy the
//! inner-product identity, CG solves random SPD systems, and pruning the
//! reverse scan to the requested leaves changes no bit of any gradient.

use msopds_autograd::hvp::grad_dot_products;
use msopds_autograd::ndiff::numeric_grad;
use msopds_autograd::{conjugate_gradient, spmm, SparseMatrix, SparseOperand, Tape, Tensor, Var};
use proptest::prelude::*;
use std::sync::Arc;

fn small_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-2.0..2.0f64, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grad_matches_numeric_elementwise(xs in small_vec(6), ys in small_vec(6)) {
        // f = Σ ( x·y + sigmoid(x) − tanh(y) + selu(x·0.5) )
        let f = |x: &Tensor, y: &Tensor| -> (Tape, usize, usize, usize) {
            let tape = Tape::new();
            let (xid, yid, lid);
            {
                let xv = tape.leaf(x.clone());
                let yv = tape.leaf(y.clone());
                let expr = xv.mul(yv)
                    .add(xv.sigmoid())
                    .sub(yv.tanh())
                    .add(xv.scale(0.5).selu())
                    .sum();
                xid = xv.id();
                yid = yv.id();
                lid = expr.id();
            }
            (tape, xid, yid, lid)
        };
        let x0 = Tensor::from_vec(xs, &[6]);
        let y0 = Tensor::from_vec(ys, &[6]);
        let (tape, xid, yid, lid) = f(&x0, &y0);
        let loss = var_of(&tape, lid);
        let g = tape.grad(loss, &[var_of(&tape, xid), var_of(&tape, yid)]);

        let ng_x = numeric_grad(|t| {
            let (tp, _, _, l) = f(t, &y0);
            tp.value(l).item()
        }, &x0, 1e-5);
        let ng_y = numeric_grad(|t| {
            let (tp, _, _, l) = f(&x0, t);
            tp.value(l).item()
        }, &y0, 1e-5);

        for i in 0..6 {
            // SELU's kink at 0 makes finite differences unreliable within ε of 0.
            if (x0.get(i) * 0.5).abs() > 1e-3 {
                prop_assert!((g[0].get(i) - ng_x.get(i)).abs() < 1e-4,
                    "x grad mismatch at {i}: {} vs {}", g[0].get(i), ng_x.get(i));
            }
            prop_assert!((g[1].get(i) - ng_y.get(i)).abs() < 1e-4,
                "y grad mismatch at {i}: {} vs {}", g[1].get(i), ng_y.get(i));
        }
    }

    #[test]
    fn grad_matches_numeric_matrix_pipeline(xs in small_vec(12)) {
        // f = Σ selu( X · W )  for a fixed W, X ∈ R^{3×4}
        let w0 = Tensor::from_vec((0..8).map(|i| 0.1 * i as f64 - 0.3).collect(), &[4, 2]);
        let f = |x: &Tensor| -> f64 {
            let tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let wv = tape.constant(w0.clone());
            xv.matmul(wv).selu().sum().item()
        };
        let x0 = Tensor::from_vec(xs, &[3, 4]);
        let tape = Tape::new();
        let xv = tape.leaf(x0.clone());
        let wv = tape.constant(w0.clone());
        let loss = xv.matmul(wv).selu().sum();
        let g = tape.grad(loss, &[xv]).remove(0);
        let ng = numeric_grad(f, &x0, 1e-5);
        prop_assert!(g.max_abs_diff(&ng) < 1e-3,
            "max diff {}", g.max_abs_diff(&ng));
    }

    #[test]
    fn gather_scatter_adjoint_identity(
        xs in small_vec(8),
        ys in small_vec(3),
        idx in proptest::collection::vec(0usize..8, 3),
    ) {
        // ⟨gather(x, idx), y⟩ = ⟨x, scatter(y, idx)⟩
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(xs, &[8]));
        let y = tape.leaf(Tensor::from_vec(ys, &[3]));
        let idx = Arc::new(idx);
        let lhs = x.gather_elems(Arc::clone(&idx)).mul(y).sum().item();
        let rhs = y.scatter_add_elems(idx, 8).mul(x).sum().item();
        prop_assert!((lhs - rhs).abs() < 1e-10);
    }

    #[test]
    fn concat_slice_inverse(a in small_vec(6), b in small_vec(4)) {
        let tape = Tape::new();
        let av = tape.leaf(Tensor::from_vec(a.clone(), &[2, 3]));
        let bv = tape.leaf(Tensor::from_vec(b.clone(), &[2, 2]));
        let c = av.concat_cols(bv);
        prop_assert_eq!(c.slice_cols(0, 3).value().to_vec(), a);
        prop_assert_eq!(c.slice_cols(3, 5).value().to_vec(), b);
    }

    #[test]
    fn cg_recovers_direct_solution(seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 6;
        let mm: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                a[i][j] = (0..n).map(|k| mm[k][i] * mm[k][j]).sum::<f64>()
                    + if i == j { 0.5 } else { 0.0 };
            }
        }
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let sol = conjugate_gradient(
            |v| a.iter().map(|row| row.iter().zip(v).map(|(x, y)| x * y).sum()).collect(),
            &b, 100, 1e-12, 0.0,
        );
        let ax: Vec<f64> = a
            .iter()
            .map(|row| row.iter().zip(&sol.x).map(|(x, y)| x * y).sum())
            .collect();
        for i in 0..n {
            prop_assert!((ax[i] - b[i]).abs() < 1e-6, "residual at {i}");
        }
    }

    #[test]
    fn second_order_matches_numeric_hessian_diag(xs in small_vec(4)) {
        // L = Σ exp(x)·x; d²L/dx² = exp(x)(x + 2) elementwise-diagonal.
        let x0 = Tensor::from_vec(xs, &[4]);
        let tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let loss = x.exp().mul(x).sum();
        let g = tape.grad_vars(loss, &[x])[0];
        let gsum = g.sum();
        let hdiag_rowsum = tape.grad(gsum, &[x]).remove(0);
        // Since the Hessian is diagonal here, grad of Σgrad equals the diagonal.
        for i in 0..4 {
            let expect = x0.get(i).exp() * (x0.get(i) + 2.0);
            prop_assert!((hdiag_rowsum.get(i) - expect).abs() < 1e-8);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pruned_scan_matches_full_scan_bitwise(
        ops in proptest::collection::vec((0u8..11, 0usize..64, 0usize..64), 4..28),
        seed in 0u64..u64::MAX,
        subset in 0u64..u64::MAX,
    ) {
        let tape = Tape::new();
        let (leaves, out) = random_dag(&tape, &ops, seed);
        let picked: Vec<usize> = (0..leaves.len()).filter(|k| subset >> (k % 64) & 1 == 1).collect();
        let some: Vec<Var<'_>> = picked.iter().map(|&k| leaves[k]).collect();

        let full = tape.grad_vars(out, &leaves);
        let pruned = tape.grad_vars(out, &some);
        for (j, &k) in picked.iter().enumerate() {
            prop_assert!(same_bits(&pruned[j].value(), &full[k].value()), "first order, leaf {}", k);
        }

        // Second order through those gradients: ⟨∂out/∂leaf, v⟩ differentiated
        // w.r.t. another leaf, from the pruned and from the full gradient.
        let mut fresh = values(seed ^ 0x9e37_79b9);
        let dirs: Vec<Tensor> = picked.iter().map(|_| fresh(&[4, 3])).collect();
        let wrt: Vec<Var<'_>> = picked.iter().map(|&k| leaves[(k + 1) % leaves.len()]).collect();
        let from_full: Vec<Var<'_>> = picked.iter().map(|&k| full[k]).collect();
        let hv_pruned = grad_dot_products(&tape, &pruned, dirs.clone(), &wrt);
        let hv_full = grad_dot_products(&tape, &from_full, dirs, &wrt);
        for (j, (p, f)) in hv_pruned.iter().zip(&hv_full).enumerate() {
            prop_assert!(same_bits(p, f), "second order, product {}", j);
        }
    }
}

/// A deterministic stream of `[-2, 2)` tensors from `seed`.
fn values(seed: u64) -> impl FnMut(&[usize]) -> Tensor {
    let mut state = seed;
    move |shape| {
        let data = (0..shape.iter().product::<usize>())
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
            })
            .collect();
        Tensor::from_vec(data, shape)
    }
}

/// Records a random DAG of `[4, 3]` nodes mixing leaves, constants, dense
/// and sparse products, gather/scatter, activations and division. Returns
/// its leaves and a scalar output that reads only some of the nodes, so some
/// leaves and constants sit off the output's path.
fn random_dag<'t>(
    tape: &'t Tape,
    ops: &[(u8, usize, usize)],
    seed: u64,
) -> (Vec<Var<'t>>, Var<'t>) {
    let mut fresh = values(seed);
    let adjacency = SparseOperand::new(SparseMatrix::from_triplets(
        4,
        4,
        &[(0, 1, 0.5), (1, 0, 0.5), (1, 3, 2.0), (2, 2, 1.0), (3, 0, -0.25)],
    ));
    let rows = Arc::new(vec![2usize, 0, 2, 3]);
    let mut leaves = vec![tape.leaf(fresh(&[4, 3]))];
    let mut nodes = vec![leaves[0], tape.constant(fresh(&[4, 3]))];
    for &(code, i, j) in ops {
        let (a, b) = (nodes[i % nodes.len()], nodes[j % nodes.len()]);
        let node = match code {
            0 => {
                let leaf = tape.leaf(fresh(&[4, 3]));
                leaves.push(leaf);
                leaf
            }
            1 => tape.constant(fresh(&[4, 3])),
            2 => a.add(b),
            3 => a.mul(b).scale(0.5),
            4 => a.div(b.square().add_scalar(1.0)),
            5 => a.matmul(tape.constant(fresh(&[3, 3])).scale(0.5)),
            6 => a.matmul(b.t().matmul(a).scale(0.1)),
            7 => spmm(&adjacency, a),
            8 => a.gather_rows(rows.clone()).sub(b),
            9 => a.scatter_add_rows(rows.clone(), 4).scale(0.5),
            _ => a.relu().add(b.selu()),
        };
        nodes.push(node);
    }
    let last = *nodes.last().expect("at least one node");
    let out =
        nodes.iter().step_by(3).fold(last.sum(), |acc, n| acc.add(n.square().sum().scale(0.1)));
    (leaves, out)
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.to_vec().iter().zip(b.to_vec()).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn var_of<'t>(tape: &'t Tape, id: usize) -> msopds_autograd::Var<'t> {
    tape.var(id)
}
