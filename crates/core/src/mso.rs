//! Multilevel Stackelberg Optimization (§IV-B, §V).
//!
//! A generic simultaneous leader/followers optimizer implementing the update
//! rules of eqs. (9), (10), (13) and (14):
//!
//! * followers descend their own partial gradient `∂L^q/∂X^q` (eq. 9);
//! * the leader descends the **total derivative** (eq. 13/14)
//!   `dL^p/dX^p = ∂L^p/∂X^p − Σᵢ ∂L^p/∂X^qᵢ (∂²L^qᵢ/∂X^qᵢ²)⁻¹ ∂²L^qᵢ/∂X^p∂X^qᵢ`,
//!   with the inverse-Hessian product computed matrix-free by conjugate
//!   gradient over Hessian-vector products (Algorithm 1 steps 9–10);
//! * the push–pull step-size discipline `η^p < η^q` required by Theorem 3 is
//!   asserted at construction.
//!
//! The optimizer is generic over a [`StackelbergGame`], which lets the same
//! update rules drive both the PDS-backed poisoning game (see
//! [`crate::msopds`]) and analytic games used to validate convergence against
//! closed-form equilibria.

use msopds_autograd::hvp::{grad_dot_products, hvp_finite_diff};
use msopds_autograd::{conjugate_gradient_multi, HvpMode, Tape, Tensor, Var};
use msopds_faultline as faultline;
use msopds_telemetry as telemetry;
use serde::{Deserialize, Serialize};

/// Outer MSO iterations run across all solves.
static MSO_ITERATIONS: telemetry::Counter = telemetry::Counter::new("core.mso.iterations");
/// Follower corrections dropped from a round for numeric reasons.
static MSO_EXCLUSIONS: telemetry::Counter = telemetry::Counter::new("core.mso.follower_exclusions");
/// Leader updates skipped because the total derivative went non-finite.
static MSO_LEADER_SKIPS: telemetry::Counter = telemetry::Counter::new("core.mso.leader_skips");

/// A differentiable two-level game: one leader, `N` followers.
pub trait StackelbergGame {
    /// Records one evaluation of all losses on `tape`, with leader and
    /// follower decision variables as leaves. Implementations may transform
    /// the raw decision vectors (e.g. binarization) before creating leaves;
    /// gradients are taken with respect to the returned leaves and applied to
    /// the raw vectors, per §IV-C.
    fn build<'t>(&self, tape: &'t Tape, xp: &Tensor, xqs: &[Tensor]) -> BuiltGame<'t>;
}

/// Handles into one recorded game evaluation.
pub struct BuiltGame<'t> {
    /// Leader decision leaf.
    pub xp: Var<'t>,
    /// Follower decision leaves.
    pub xqs: Vec<Var<'t>>,
    /// Leader loss `L^p`.
    pub lp: Var<'t>,
    /// Follower losses `L^qᵢ`.
    pub lqs: Vec<Var<'t>>,
}

/// MSO optimizer configuration (§VI-A.7 defaults).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MsoConfig {
    /// Leader step size η^p (paper: 0.005).
    pub eta_p: f64,
    /// Follower step size η^q (paper: 0.05). Must exceed `eta_p`.
    pub eta_q: f64,
    /// Outer iterations `K` (paper: 20).
    pub iters: usize,
    /// Conjugate-gradient iteration cap for the implicit solve.
    pub cg_iters: usize,
    /// CG relative-residual tolerance.
    pub cg_tol: f64,
    /// CG damping added to the follower Hessian.
    pub cg_damping: f64,
    /// Hessian-vector product mechanism.
    pub hvp_mode: HvpMode,
}

impl Default for MsoConfig {
    fn default() -> Self {
        Self {
            eta_p: 0.005,
            eta_q: 0.05,
            iters: 20,
            cg_iters: 8,
            cg_tol: 1e-6,
            cg_damping: 1e-3,
            hvp_mode: HvpMode::Exact,
        }
    }
}

/// Why a follower was excluded from one MSO round.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FollowerExclusion {
    /// Outer iteration the exclusion happened in.
    pub iteration: usize,
    /// Follower index.
    pub follower: usize,
    /// Human-readable cause (non-finite gradient, unusable CG solve, …).
    pub reason: String,
}

/// Per-iteration diagnostics of an MSO run, used to observe the convergence
/// behaviour asserted by Theorem 3.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MsoDiagnostics {
    /// Leader loss per iteration.
    pub leader_loss: Vec<f64>,
    /// Follower losses per iteration.
    pub follower_loss: Vec<Vec<f64>>,
    /// ‖dL^p/dX^p‖ per iteration (total derivative).
    pub leader_grad_norm: Vec<f64>,
    /// ‖∂L^qᵢ/∂X^qᵢ‖ per iteration, summed over followers.
    pub follower_grad_norm: Vec<f64>,
    /// CG iterations spent per outer iteration.
    pub cg_iterations: Vec<usize>,
    /// Followers whose inner solve failed and whose correction (and, for
    /// non-finite gradients, own update) was dropped from a round instead of
    /// poisoning the whole game.
    pub exclusions: Vec<FollowerExclusion>,
    /// Iterations whose leader update was skipped because the total
    /// derivative went non-finite.
    pub leader_skips: Vec<usize>,
}

/// Result of an MSO run.
#[derive(Clone, Debug)]
pub struct MsoRun {
    /// Final leader decision vector.
    pub xp: Tensor,
    /// Final follower decision vectors.
    pub xqs: Vec<Tensor>,
    /// Convergence diagnostics.
    pub diagnostics: MsoDiagnostics,
}

/// Runs MSO from the given initial decision vectors.
///
/// # Panics
/// Panics unless `0 < eta_p < eta_q` (the Theorem 3 precondition, asserted in
/// Algorithm 1's input contract).
pub fn mso_optimize<G: StackelbergGame>(
    game: &G,
    mut xp: Tensor,
    mut xqs: Vec<Tensor>,
    cfg: &MsoConfig,
) -> MsoRun {
    assert!(
        cfg.eta_p > 0.0 && cfg.eta_p < cfg.eta_q,
        "Theorem 3 requires 0 < η^p ({}) < η^q ({})",
        cfg.eta_p,
        cfg.eta_q
    );
    let mut diag = MsoDiagnostics::default();
    let _mso_span = telemetry::span("mso");

    for iter in 0..cfg.iters {
        let _iter_span = telemetry::span("iter");
        MSO_ITERATIONS.incr();
        let tape = Tape::new();
        let built = {
            let _build_span = telemetry::span("build");
            game.build(&tape, &xp, &xqs)
        };
        assert_eq!(built.xqs.len(), xqs.len(), "game must expose one leaf per follower");
        assert_eq!(built.lqs.len(), xqs.len(), "game must expose one loss per follower");

        diag.leader_loss.push(built.lp.item());
        diag.follower_loss.push(built.lqs.iter().map(|l| l.item()).collect());

        // ∂L^p/∂X^p and ∂L^p/∂X^qᵢ in one backward pass.
        let gp_all = {
            let _grads_span = telemetry::span("grads");
            let mut wrt = vec![built.xp];
            wrt.extend(built.xqs.iter().copied());
            tape.grad_vars(built.lp, &wrt)
        };
        let mut total = gp_all[0].value();

        let _correction_span = telemetry::span("correction");
        let mut cg_spent = 0usize;
        let mut follower_gnorm = 0.0;
        let exclude = |diag: &mut MsoDiagnostics, follower: usize, reason: String| {
            MSO_EXCLUSIONS.incr();
            diag.exclusions.push(FollowerExclusion { iteration: iter, follower, reason });
        };
        // `None` = follower excluded this round (its eq. 9 update is skipped).
        let mut follower_grads: Vec<Option<Tensor>> = Vec::with_capacity(xqs.len());

        // Phase 1: all follower gradients ∂L^qᵢ/∂X^qᵢ (eq. 9) in one reverse
        // scan over the shared tape (the PDS build is walked once, not once
        // per follower), kept on the tape so they can be differentiated again
        // for the second-order terms.
        let gq_all = tape.grad_vars_multi(&built.lqs, &built.xqs);
        let gqs: Vec<Var<'_>> = gq_all.iter().enumerate().map(|(i, row)| row[i]).collect();

        // Phase 2: screening, in follower order.
        let mut solvable: Vec<usize> = Vec::new();
        let mut rhss: Vec<Vec<f64>> = Vec::new();
        let mut shapes: Vec<Vec<usize>> = Vec::new();
        for i in 0..built.xqs.len() {
            let gq_val = gqs[i].value();
            if !gq_val.all_finite() {
                // A diverged follower must not poison the round: freeze its
                // decision vector and drop its correction, with a diagnostic.
                exclude(&mut diag, i, "non-finite follower gradient ∂L^q/∂X^q".to_string());
                follower_grads.push(None);
                continue;
            }
            follower_gnorm += gq_val.norm();
            follower_grads.push(Some(gq_val));

            // Right-hand side ∂L^p/∂X^qᵢ of the implicit solve.
            let mut rhs = gp_all[1 + i].value();
            if faultline::armed() {
                let mut v = rhs.to_vec();
                faultline::corrupt_slice("mso.follower.rhs", &mut v);
                rhs = Tensor::from_vec(v, rhs.shape());
            }
            if !rhs.all_finite() {
                exclude(&mut diag, i, "non-finite right-hand side ∂L^p/∂X^q".to_string());
                continue;
            }
            if rhs.norm() < 1e-12 {
                continue; // the leader loss does not see this follower: no correction
            }
            solvable.push(i);
            shapes.push(rhs.shape().to_vec());
            rhss.push(rhs.to_vec());
        }

        // Phase 3: solve ξᵢ·∂²L^qᵢ/∂X^qᵢ² = ∂L^p/∂X^qᵢ matrix-free for every
        // solvable follower at once (Alg. 1 step 9). Each lockstep CG
        // iteration takes the HVPs of all still-active followers together:
        // one multi-seed backward pass (Exact), or central differences of
        // gradients on freshly built games with follower i perturbed
        // (FiniteDiff).
        let sols = if rhss.is_empty() {
            Vec::new()
        } else {
            conjugate_gradient_multi(
                |dirs| {
                    let dir = |s: usize, v: &[f64]| Tensor::from_vec(v.to_vec(), &shapes[s]);
                    match cfg.hvp_mode {
                        HvpMode::Exact => {
                            let (grads, wrt): (Vec<_>, Vec<_>) = dirs
                                .iter()
                                .map(|&(s, _)| (gqs[solvable[s]], built.xqs[solvable[s]]))
                                .unzip();
                            let vs = dirs.iter().map(|&(s, v)| dir(s, v)).collect();
                            let hvs = grad_dot_products(&tape, &grads, vs, &wrt);
                            hvs.iter().map(Tensor::to_vec).collect()
                        }
                        HvpMode::FiniteDiff => dirs
                            .iter()
                            .map(|&(s, v)| {
                                let i = solvable[s];
                                let eval_grad = |xq_pert: &Tensor| -> Tensor {
                                    let t2 = Tape::new();
                                    let mut xqs2 = xqs.clone();
                                    xqs2[i] = xq_pert.clone();
                                    let b2 = game.build(&t2, &xp, &xqs2);
                                    t2.grad(b2.lqs[i], &[b2.xqs[i]]).remove(0)
                                };
                                hvp_finite_diff(eval_grad, &xqs[i], &dir(s, v)).to_vec()
                            })
                            .collect(),
                    }
                },
                &rhss,
                cfg.cg_iters,
                cfg.cg_tol,
                cfg.cg_damping,
            )
        };

        // Phase 4: corrections ξᵢ·∂²L^qᵢ/∂X^p∂X^qᵢ (Alg. 1 step 10), i.e.
        // ⟨∂L^qᵢ/∂X^qᵢ, ξᵢ⟩ differentiated w.r.t. X^p in one multi-seed
        // backward, then subtracted in follower order.
        let mut corrected: Vec<usize> = Vec::new();
        let mut xis: Vec<Tensor> = Vec::new();
        for (s, sol) in sols.into_iter().enumerate() {
            let i = solvable[s];
            cg_spent += sol.iterations;
            if !sol.usable() {
                // CG classified the solve as pathological (NaN operator,
                // divergence) even after damped retries: drop the correction
                // for this follower rather than subtracting garbage.
                exclude(
                    &mut diag,
                    i,
                    format!("unusable CG solve ({:?} after {} retries)", sol.status, sol.retries),
                );
                continue;
            }
            corrected.push(i);
            xis.push(Tensor::from_vec(sol.x, &shapes[s]));
        }
        let grads: Vec<Var<'_>> = corrected.iter().map(|&i| gqs[i]).collect();
        let corrections = grad_dot_products(&tape, &grads, xis, &vec![built.xp; grads.len()]);
        for (correction, i) in corrections.into_iter().zip(corrected) {
            if !correction.all_finite() {
                exclude(&mut diag, i, "non-finite mixed-Hessian correction".to_string());
                continue;
            }
            total = total.zip(&correction, |t, c| t - c);
        }

        diag.leader_grad_norm.push(total.norm());
        diag.follower_grad_norm.push(follower_gnorm);
        diag.cg_iterations.push(cg_spent);

        // Simultaneous updates (eq. 10 for the leader, eq. 9 for followers).
        // A non-finite total derivative freezes the leader for one round
        // instead of destroying the decision vector.
        if total.all_finite() {
            xp = xp.zip(&total, |x, g| x - cfg.eta_p * g);
        } else {
            MSO_LEADER_SKIPS.incr();
            diag.leader_skips.push(iter);
        }
        for (xq, gq) in xqs.iter_mut().zip(&follower_grads) {
            if let Some(gq) = gq {
                *xq = xq.zip(gq, |x, g| x - cfg.eta_q * g);
            }
        }
    }

    MsoRun { xp, xqs, diagnostics: diag }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Analytic quadratic Stackelberg game with a closed-form equilibrium:
    /// `L^p = (x_p − a)² + c·x_p·x_q`, `L^q = (x_q − d·x_p)²`.
    /// Follower best response: x_q*(x_p) = d·x_p; leader optimum
    /// x_p* = a / (1 + c·d), x_q* = d·x_p*.
    struct Quadratic {
        a: f64,
        c: f64,
        d: f64,
    }

    impl StackelbergGame for Quadratic {
        fn build<'t>(&self, tape: &'t Tape, xp: &Tensor, xqs: &[Tensor]) -> BuiltGame<'t> {
            let xpv = tape.leaf(xp.clone());
            let xqv = tape.leaf(xqs[0].clone());
            let lp = xpv.add_scalar(-self.a).square().add(xpv.mul(xqv).scale(self.c)).sum();
            let lq = xqv.sub(xpv.scale(self.d)).square().sum();
            BuiltGame { xp: xpv, xqs: vec![xqv], lp, lqs: vec![lq] }
        }
    }

    fn solve(cfg: &MsoConfig, game: &Quadratic) -> MsoRun {
        mso_optimize(game, Tensor::scalar(0.0), vec![Tensor::scalar(0.0)], cfg)
    }

    #[test]
    fn converges_to_closed_form_equilibrium() {
        let game = Quadratic { a: 2.0, c: 0.5, d: 1.0 };
        let cfg = MsoConfig { eta_p: 0.05, eta_q: 0.4, iters: 400, ..Default::default() };
        let run = solve(&cfg, &game);
        let xp_star = game.a / (1.0 + game.c * game.d);
        let xq_star = game.d * xp_star;
        assert!(
            (run.xp.item() - xp_star).abs() < 1e-3,
            "leader: got {}, want {xp_star}",
            run.xp.item()
        );
        assert!(
            (run.xqs[0].item() - xq_star).abs() < 1e-3,
            "follower: got {}, want {xq_star}",
            run.xqs[0].item()
        );
    }

    #[test]
    fn naive_partial_gradient_misses_equilibrium() {
        // With c·d ≠ 0 the naive fixed point (ignoring the correction term)
        // is a/(1 + c·d/2) ≠ a/(1+c·d); verify MSO lands on the *Stackelberg*
        // point rather than the naive simultaneous-gradient point.
        let game = Quadratic { a: 3.0, c: 1.0, d: 1.0 };
        let cfg = MsoConfig { eta_p: 0.05, eta_q: 0.4, iters: 600, ..Default::default() };
        let run = solve(&cfg, &game);
        let stackelberg = 1.5;
        let naive = 2.0; // solves ∂Lp/∂xp = 0 with xq = d·xp: 2(x−3)+x = 0
        assert!((run.xp.item() - stackelberg).abs() < 5e-3);
        assert!((run.xp.item() - naive).abs() > 0.4);
    }

    #[test]
    fn finite_diff_hvp_agrees_with_exact() {
        let game = Quadratic { a: 2.0, c: 0.5, d: 0.8 };
        let base = MsoConfig { eta_p: 0.05, eta_q: 0.4, iters: 200, ..Default::default() };
        let exact = solve(&base, &game);
        let fd = solve(&MsoConfig { hvp_mode: HvpMode::FiniteDiff, ..base }, &game);
        assert!((exact.xp.item() - fd.xp.item()).abs() < 1e-4);
    }

    #[test]
    fn diagnostics_record_every_iteration() {
        let game = Quadratic { a: 1.0, c: 0.2, d: 0.5 };
        let cfg = MsoConfig { eta_p: 0.05, eta_q: 0.4, iters: 7, ..Default::default() };
        let run = solve(&cfg, &game);
        assert_eq!(run.diagnostics.leader_loss.len(), 7);
        assert_eq!(run.diagnostics.follower_loss.len(), 7);
        assert_eq!(run.diagnostics.leader_grad_norm.len(), 7);
    }

    #[test]
    fn leader_gradient_norm_decays() {
        let game = Quadratic { a: 2.0, c: 0.5, d: 1.0 };
        let cfg = MsoConfig { eta_p: 0.05, eta_q: 0.4, iters: 300, ..Default::default() };
        let run = solve(&cfg, &game);
        let first = run.diagnostics.leader_grad_norm[0];
        let last = *run.diagnostics.leader_grad_norm.last().unwrap();
        assert!(last < 0.05 * first, "‖grad‖ {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "Theorem 3")]
    fn rejects_eta_p_not_less_than_eta_q() {
        let game = Quadratic { a: 1.0, c: 0.1, d: 0.1 };
        let cfg = MsoConfig { eta_p: 0.5, eta_q: 0.1, iters: 1, ..Default::default() };
        let _ = solve(&cfg, &game);
    }

    #[test]
    fn diverged_follower_is_excluded_not_poisoning() {
        // The follower loss ln(x_q) has gradient 1/x_q = ∞ at the x_q = 0
        // start: every round must exclude the follower (with a diagnostic),
        // freeze its decision vector, and keep the leader's own descent
        // finite — instead of NaN-ing the whole game.
        struct BadFollower;
        impl StackelbergGame for BadFollower {
            fn build<'t>(&self, tape: &'t Tape, xp: &Tensor, xqs: &[Tensor]) -> BuiltGame<'t> {
                let xpv = tape.leaf(xp.clone());
                let xqv = tape.leaf(xqs[0].clone());
                let lp = xpv.add_scalar(-1.0).square().sum().add(xpv.mul(xqv).scale(0.1).sum());
                let lq = xqv.ln().sum();
                BuiltGame { xp: xpv, xqs: vec![xqv], lp, lqs: vec![lq] }
            }
        }
        let cfg = MsoConfig { eta_p: 0.05, eta_q: 0.4, iters: 10, ..Default::default() };
        let run = mso_optimize(&BadFollower, Tensor::scalar(0.0), vec![Tensor::scalar(0.0)], &cfg);
        assert_eq!(run.diagnostics.exclusions.len(), 10, "every round excludes the follower");
        assert_eq!(run.diagnostics.exclusions[0].follower, 0);
        assert!(run.diagnostics.exclusions[0].reason.contains("non-finite follower gradient"));
        assert!(run.xp.item().is_finite(), "leader poisoned: {}", run.xp.item());
        assert!(run.xp.item() > 0.1, "leader should still descend toward its optimum");
        assert_eq!(run.xqs[0].item(), 0.0, "excluded follower stays frozen");
        assert!(run.diagnostics.leader_skips.is_empty());
    }

    #[test]
    fn healthy_games_record_no_exclusions() {
        let game = Quadratic { a: 2.0, c: 0.5, d: 1.0 };
        let cfg = MsoConfig { eta_p: 0.05, eta_q: 0.4, iters: 50, ..Default::default() };
        let run = solve(&cfg, &game);
        assert!(run.diagnostics.exclusions.is_empty());
        assert!(run.diagnostics.leader_skips.is_empty());
    }

    #[test]
    fn two_followers_sum_their_corrections() {
        // Symmetric two-follower extension; equilibrium from eq. (14):
        // L^p = (x_p − a)² + c·x_p·(x_q1 + x_q2), followers track d·x_p.
        struct TwoFollower {
            a: f64,
            c: f64,
            d: f64,
        }
        impl StackelbergGame for TwoFollower {
            fn build<'t>(&self, tape: &'t Tape, xp: &Tensor, xqs: &[Tensor]) -> BuiltGame<'t> {
                let xpv = tape.leaf(xp.clone());
                let q1 = tape.leaf(xqs[0].clone());
                let q2 = tape.leaf(xqs[1].clone());
                let lp =
                    xpv.add_scalar(-self.a).square().add(xpv.mul(q1.add(q2)).scale(self.c)).sum();
                let lq1 = q1.sub(xpv.scale(self.d)).square().sum();
                let lq2 = q2.sub(xpv.scale(self.d)).square().sum();
                BuiltGame { xp: xpv, xqs: vec![q1, q2], lp, lqs: vec![lq1, lq2] }
            }
        }
        let game = TwoFollower { a: 2.0, c: 0.25, d: 1.0 };
        let cfg = MsoConfig { eta_p: 0.04, eta_q: 0.4, iters: 500, ..Default::default() };
        let run = mso_optimize(
            &game,
            Tensor::scalar(0.0),
            vec![Tensor::scalar(0.0), Tensor::scalar(0.0)],
            &cfg,
        );
        // Same algebra as the single-follower case with c_eff = 2c.
        let xp_star = game.a / (1.0 + 2.0 * game.c * game.d);
        assert!((run.xp.item() - xp_star).abs() < 2e-3, "got {}", run.xp.item());
    }

    // ---- one correction path: pinned runs, FiniteDiff oracle ----

    /// Cross-coupled two-follower game: each follower's loss also touches the
    /// *other* follower's variable, so the multi-seed backward must keep the
    /// adjoint streams strictly separate (a summed-loss shortcut would leak
    /// cross-Hessian terms here).
    struct Coupled;
    impl StackelbergGame for Coupled {
        fn build<'t>(&self, tape: &'t Tape, xp: &Tensor, xqs: &[Tensor]) -> BuiltGame<'t> {
            let xpv = tape.leaf(xp.clone());
            let q1 = tape.leaf(xqs[0].clone());
            let q2 = tape.leaf(xqs[1].clone());
            let lp =
                xpv.add_scalar(-2.0).square().add(xpv.mul(q1.add(q2.scale(2.0))).scale(0.3)).sum();
            let lq1 = q1.sub(xpv.scale(0.7)).square().add(q1.mul(q2).square().scale(0.2)).sum();
            let lq2 = q2.sub(xpv.scale(0.5)).square().add(q2.mul(q1).scale(0.1)).sum();
            BuiltGame { xp: xpv, xqs: vec![q1, q2], lp, lqs: vec![lq1, lq2] }
        }
    }

    /// One healthy follower plus one whose gradient is non-finite from the
    /// start.
    struct HalfBad;
    impl StackelbergGame for HalfBad {
        fn build<'t>(&self, tape: &'t Tape, xp: &Tensor, xqs: &[Tensor]) -> BuiltGame<'t> {
            let xpv = tape.leaf(xp.clone());
            let q1 = tape.leaf(xqs[0].clone());
            let q2 = tape.leaf(xqs[1].clone());
            let lp = xpv.add_scalar(-1.0).square().add(xpv.mul(q1.add(q2)).scale(0.1)).sum();
            let lq1 = q1.sub(xpv.scale(0.5)).square().sum();
            let lq2 = q2.ln().sum(); // gradient 1/x_q2 = ∞ at x_q2 = 0
            BuiltGame { xp: xpv, xqs: vec![q1, q2], lp, lqs: vec![lq1, lq2] }
        }
    }

    fn run_coupled(hvp_mode: HvpMode) -> MsoRun {
        let cfg = MsoConfig { eta_p: 0.03, eta_q: 0.3, iters: 30, hvp_mode, ..Default::default() };
        let q0 = vec![Tensor::scalar(0.2), Tensor::scalar(-0.1)];
        mso_optimize(&Coupled, Tensor::scalar(0.1), q0, &cfg)
    }

    fn run_half_bad(hvp_mode: HvpMode) -> MsoRun {
        let cfg = MsoConfig { eta_p: 0.05, eta_q: 0.4, iters: 8, hvp_mode, ..Default::default() };
        let q0 = vec![Tensor::scalar(0.0), Tensor::scalar(0.0)];
        mso_optimize(&HalfBad, Tensor::scalar(0.0), q0, &cfg)
    }

    /// FNV-1a 64 over the bits of the final decisions, then the per-round
    /// leader loss, total-derivative norm, follower losses, follower-gradient
    /// norm and leader skips. The pinned digests were recorded from the
    /// per-follower sequential correction loop this path replaced (bitwise
    /// equal to the batched loop under Exact, and the only loop FiniteDiff
    /// had).
    fn run_digest(run: &MsoRun) -> u64 {
        let d = &run.diagnostics;
        let xs = std::iter::once(&run.xp).chain(&run.xqs).flat_map(|t| t.to_vec());
        let values = xs
            .chain(d.leader_loss.iter().copied())
            .chain(d.leader_grad_norm.clone())
            .chain(d.follower_loss.concat())
            .chain(d.follower_grad_norm.clone())
            .chain(d.leader_skips.iter().map(|&s| s as f64));
        values
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
    }

    #[test]
    fn cross_coupled_run_is_pinned() {
        let run = run_coupled(HvpMode::Exact);
        assert_eq!(run_digest(&run), 0x02ad_c0e9_b138_6392);
        assert_eq!(run.diagnostics.cg_iterations, vec![2; 30]);
        assert!(run.diagnostics.exclusions.is_empty());
    }

    #[test]
    fn run_with_exclusions_is_pinned() {
        let run = run_half_bad(HvpMode::Exact);
        assert_eq!(run_digest(&run), 0xef7a_5d6b_90fc_1cfe);
        assert_eq!(run.diagnostics.cg_iterations, vec![0, 1, 1, 1, 1, 1, 1, 1]);
        assert_eq!(run.diagnostics.exclusions.len(), 8);
        assert!(run.diagnostics.exclusions[0].reason.contains("non-finite follower gradient"));
        assert_eq!(run.xqs[1].item(), 0.0, "excluded follower stays frozen");
    }

    #[test]
    fn finite_diff_agrees_with_exact_on_cross_coupled_game() {
        let (exact, fd) = (run_coupled(HvpMode::Exact), run_coupled(HvpMode::FiniteDiff));
        assert!((exact.xp.item() - fd.xp.item()).abs() < 1e-4);
        for (e, f) in exact.xqs.iter().zip(&fd.xqs) {
            assert!((e.item() - f.item()).abs() < 1e-4);
        }
        assert_eq!(run_digest(&fd), 0x02b6_7347_4ec5_61eb);
    }

    #[test]
    fn finite_diff_excludes_the_diverged_follower() {
        let run = run_half_bad(HvpMode::FiniteDiff);
        let excl = &run.diagnostics.exclusions;
        assert_eq!(excl.len(), 8);
        assert!(excl.iter().all(|e| e.follower == 1 && e.reason.contains("non-finite follower")));
        assert_eq!(run.xqs[1].item(), 0.0, "excluded follower stays frozen");
        assert_eq!(run_digest(&run), 0x84ed_c9dc_eb06_492f);
    }

    #[test]
    fn cross_coupled_game_reaches_a_finite_equilibrium() {
        let cfg = MsoConfig { eta_p: 0.04, eta_q: 0.4, iters: 500, ..Default::default() };
        let q0 = vec![Tensor::scalar(0.0), Tensor::scalar(0.0)];
        let run = mso_optimize(&Coupled, Tensor::scalar(0.0), q0, &cfg);
        assert!(run.xp.item().is_finite());
        assert!(run.diagnostics.leader_grad_norm.last().unwrap().is_finite());
    }
}
