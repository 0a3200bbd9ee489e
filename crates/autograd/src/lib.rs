//! # msopds-autograd
//!
//! Tape-based reverse-mode automatic differentiation over dense `f64`
//! tensors, with **higher-order** support: backward passes emit their
//! vector-Jacobian products as ordinary tape operations, so gradients are
//! themselves differentiable. This is the numerical substrate replacing
//! PyTorch for the MSOPDS reproduction — Algorithm 1 of the paper needs
//! first-order gradients through an *unrolled* surrogate training loop and
//! second-order vector-Jacobian products for its conjugate-gradient
//! Stackelberg solve, both of which this crate provides exactly.
//!
//! ## Quick tour
//!
//! ```
//! use msopds_autograd::{Tape, Tensor};
//!
//! let tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]));
//! let loss = x.square().sum();          // L = Σ x²
//! let g = tape.grad(loss, &[x]);        // ∂L/∂x = 2x
//! assert_eq!(g[0].to_vec(), vec![2.0, 4.0, 6.0]);
//! ```
//!
//! Second order, via double backward:
//!
//! ```
//! use msopds_autograd::{Tape, Tensor, hvp::hvp_exact};
//!
//! let tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(vec![1.0, -1.0], &[2]));
//! let loss = x.pow_scalar(4.0).sum();   // L = Σ x⁴, H = diag(12x²)
//! let hv = hvp_exact(&tape, loss, x, &Tensor::ones(&[2]));
//! assert!((hv.get(0) - 12.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod backward;
pub mod cg;
pub mod hvp;
pub mod ndiff;
pub mod optim;
pub mod pool;
pub mod sparse;
pub mod tape;
pub mod tensor;
mod var;

pub use cg::{conjugate_gradient, conjugate_gradient_multi, SolveOutcome, SolveStatus};
pub use hvp::HvpMode;
pub use sparse::{spmm, SparseMatrix, SparseOperand};
pub use tape::{NodeId, Op, Tape, TapeStats};
pub use tensor::Tensor;
pub use var::Var;
