//! Conjugate-gradient linear solver with numeric guardrails.
//!
//! Algorithm 1 step 9 solves `ξ · ∂²L^q/∂X̂^q² = ∂L^p/∂X̂^q` without ever
//! materializing the Hessian: each CG iteration consumes one Hessian-vector
//! product. This module provides the matrix-free solver; the HVP closures come
//! from [`crate::hvp`]. Damping (`damping·I` added to the operator) is the
//! standard regularization for the possibly indefinite Hessians encountered
//! mid-optimization.
//!
//! Influence-function-style solves are notoriously ill-conditioned (cf. Fang
//! et al., *Influence Function based Data Poisoning Attacks to Top-N
//! Recommender Systems*): mid-game Hessians can be indefinite, the
//! right-hand side can carry NaN from an upstream overflow, and plain CG
//! happily turns either into a silently non-finite `x`. The solver therefore
//! returns a typed [`SolveOutcome`] — NaN and divergence are *detected*, a
//! bounded escalating damped retry is attempted, and callers that still get
//! an unusable outcome receive a zero solution plus a status they can act on
//! (the MSO loop excludes that follower's correction rather than poisoning
//! the whole game).

use msopds_faultline as faultline;
use msopds_telemetry as telemetry;

/// Completed CG solves.
static CG_SOLVES: telemetry::Counter = telemetry::Counter::new("autograd.cg.solves");
/// Total CG iterations (= Hessian-vector products consumed) across all solves.
static CG_ITERATIONS: telemetry::Counter = telemetry::Counter::new("autograd.cg.iterations");
/// Final residual norm of the most recent solve.
static CG_LAST_RESIDUAL: telemetry::Gauge = telemetry::Gauge::new("autograd.cg.last_residual");
/// Solves that needed at least one damped retry.
static CG_RETRIES: telemetry::Counter = telemetry::Counter::new("autograd.cg.retries");
/// Solves that ended unusable (zero solution substituted).
static CG_UNUSABLE: telemetry::Counter = telemetry::Counter::new("autograd.cg.unusable");

/// How a conjugate-gradient solve ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveStatus {
    /// Residual tolerance reached; `x` is trustworthy.
    Converged,
    /// Iteration cap hit with finite iterates — the normal outcome of
    /// truncated CG (small `cg_iters` budgets); `x` is a usable partial solve.
    MaxIters,
    /// A search direction had (numerically) zero curvature; `x` holds the
    /// progress made up to the breakdown.
    Breakdown,
    /// The residual grew beyond [`DIVERGENCE_FACTOR`]× the initial residual
    /// even after retries; `x` is zeroed (use no correction).
    Diverged,
    /// The right-hand side `b` contained NaN/±∞; nothing was solved and `x`
    /// is zero.
    NonFiniteRhs,
    /// NaN/±∞ appeared *during* iteration (ill-conditioned or non-symmetric
    /// operator) and damped retries did not cure it; `x` is zeroed.
    NonFinite,
}

/// Residual growth (relative to `‖b‖`) treated as divergence.
pub const DIVERGENCE_FACTOR: f64 = 1e6;

/// Escalating damped retries attempted after a pathological first solve.
pub const MAX_RETRIES: usize = 2;

/// Outcome of a conjugate-gradient solve.
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    /// The approximate solution `x` with `A·x ≈ b` (all-zero when
    /// [`SolveOutcome::usable`] is false).
    pub x: Vec<f64>,
    /// Number of iterations performed (across all attempts).
    pub iterations: usize,
    /// Final residual norm `‖b − A·x‖` of the last attempt.
    pub residual: f64,
    /// Whether the tolerance was reached before the iteration cap.
    pub converged: bool,
    /// Typed classification of how the solve ended.
    pub status: SolveStatus,
    /// Damped retries spent (0 = first attempt stood).
    pub retries: usize,
    /// The damping actually used by the returned attempt.
    pub damping: f64,
}

impl SolveOutcome {
    /// True when `x` is finite and safe to consume. An unusable outcome
    /// carries a zero `x`, so using it blindly applies *no* correction —
    /// degraded, never poisoned.
    pub fn usable(&self) -> bool {
        !matches!(
            self.status,
            SolveStatus::Diverged | SolveStatus::NonFiniteRhs | SolveStatus::NonFinite
        )
    }

    fn zeroed(n: usize, status: SolveStatus, retries: usize, damping: f64) -> Self {
        SolveOutcome {
            x: vec![0.0; n],
            iterations: 0,
            residual: f64::INFINITY,
            converged: false,
            status,
            retries,
            damping,
        }
    }
}

/// Solves `A·x = b` by conjugate gradient, for `A` given implicitly by the
/// matrix-vector product `apply`.
///
/// `damping` is added to the diagonal (`A + damping·I`), keeping the solve
/// well-posed when `A` is only positive semi-definite. CG assumes a symmetric
/// operator; for the Stackelberg solve this is the Hessian `∂²L^q/∂X̂^q²`,
/// which is symmetric by construction.
///
/// Guardrails: a non-finite `b` short-circuits to [`SolveStatus::NonFiniteRhs`];
/// NaN or runaway residuals mid-iteration trigger up to [`MAX_RETRIES`]
/// retries with 100×-escalated damping; a still-pathological solve returns a
/// zero `x` and a typed status instead of silently non-converged garbage.
/// This function never panics on numeric input (fault injection aside).
///
/// This is the one-system case of [`conjugate_gradient_multi`].
pub fn conjugate_gradient(
    mut apply: impl FnMut(&[f64]) -> Vec<f64>,
    b: &[f64],
    max_iters: usize,
    tol: f64,
    damping: f64,
) -> SolveOutcome {
    conjugate_gradient_multi(
        |dirs| dirs.iter().map(|&(_, v)| apply(v)).collect(),
        &[b.to_vec()],
        max_iters,
        tol,
        damping,
    )
    .pop()
    .expect("one outcome per right-hand side")
}

/// Solves a batch of systems `A·xᵢ = bᵢ` sharing one (possibly
/// system-indexed) operator, in lockstep: every iteration gathers the search
/// directions of all still-active systems into **one** `apply_multi` call, so
/// the operator can amortize its memory traffic across the batch (one SpMM
/// over an `[n, N]` block instead of `N` SpMVs re-reading the matrix).
///
/// `apply_multi` receives `(system index, direction)` pairs — the system
/// index is the position in `rhs` — and must return one product per pair, in
/// order. The α/β/residual recurrence of a system only ever touches that
/// system's own vectors, so batching adds no cross-talk: each outcome is
/// bitwise the one a solve of that system alone produces.
///
/// Guardrails are those of [`conjugate_gradient`], per system: non-finite
/// right-hand sides short-circuit, and a system that goes pathological drops
/// out of the batch and runs the escalating damped retry chain on its own
/// (retries call `apply_multi` with a single pair), in system order.
/// Fault-injection sites fire once per right-hand side, in index order.
pub fn conjugate_gradient_multi(
    mut apply_multi: impl FnMut(&[(usize, &[f64])]) -> Vec<Vec<f64>>,
    rhs: &[Vec<f64>],
    max_iters: usize,
    tol: f64,
    damping: f64,
) -> Vec<SolveOutcome> {
    let _span = telemetry::span("cg");
    let mut bs: Vec<Vec<f64>> = Vec::with_capacity(rhs.len());
    for b in rhs {
        faultline::fault_point!("cg.solve");
        let mut b = b.clone();
        faultline::corrupt_slice("cg.solve.rhs", &mut b);
        bs.push(b);
    }

    let all: Vec<usize> = (0..bs.len()).collect();
    let mut outcomes = lockstep(&mut apply_multi, &bs, &all, max_iters, tol, damping);

    // Escalating damped retries, one pathological system at a time, each
    // restarting from x = 0 at 100× the previous damping.
    for (idx, sol) in outcomes.iter_mut().enumerate() {
        let mut damping_now = damping;
        for attempt in 1..=MAX_RETRIES {
            if !pathological(sol.status) {
                break;
            }
            damping_now = if damping_now > 0.0 { damping_now * 100.0 } else { 1e-4 };
            let spent = sol.iterations;
            *sol = lockstep(&mut apply_multi, &bs, &[idx], max_iters, tol, damping_now)
                .pop()
                .expect("one outcome per system");
            sol.iterations += spent;
            sol.retries = attempt;
        }
        if pathological(sol.status) {
            *sol = SolveOutcome::zeroed(bs[idx].len(), sol.status, sol.retries, damping_now);
        }
    }

    for sol in &outcomes {
        CG_SOLVES.incr();
        CG_ITERATIONS.add(sol.iterations as u64);
        CG_LAST_RESIDUAL.set(sol.residual);
        if sol.retries > 0 {
            CG_RETRIES.incr();
        }
        if !sol.usable() {
            CG_UNUSABLE.incr();
        }
    }
    outcomes
}

/// Statuses that trigger a damped retry.
fn pathological(status: SolveStatus) -> bool {
    matches!(status, SolveStatus::NonFinite | SolveStatus::Diverged)
}

/// One CG attempt at a fixed `damping` over the systems `bs[idx]` for each
/// `idx` in `systems`, run in lockstep: one `apply_multi` call per iteration
/// carries the direction of every still-active system. Returns one outcome
/// per entry of `systems`, in order, with `retries = 0`; a pathological
/// system ends `NonFinite` or `Diverged` with the iterations it spent.
fn lockstep(
    apply_multi: &mut impl FnMut(&[(usize, &[f64])]) -> Vec<Vec<f64>>,
    bs: &[Vec<f64>],
    systems: &[usize],
    max_iters: usize,
    tol: f64,
    damping: f64,
) -> Vec<SolveOutcome> {
    let finished =
        |x: Vec<f64>, iterations: usize, residual: f64, status: SolveStatus| SolveOutcome {
            x,
            iterations,
            residual,
            converged: status == SolveStatus::Converged,
            status,
            retries: 0,
            damping,
        };

    /// State of one still-active system.
    struct Sys {
        slot: usize,
        idx: usize,
        x: Vec<f64>,
        r: Vec<f64>,
        p: Vec<f64>,
        rs_old: f64,
        bnorm: f64,
        iterations: usize,
    }

    // A pathological attempt keeps only its iteration count: the retry chain
    // replaces it, or zeroes it once the retries run out.
    let failed = |s: &Sys, status: SolveStatus| {
        finished(vec![0.0; s.x.len()], s.iterations, f64::INFINITY, status)
    };

    let mut outcomes: Vec<Option<SolveOutcome>> = vec![None; systems.len()];
    let mut active: Vec<Sys> = Vec::new();
    for (slot, &idx) in systems.iter().enumerate() {
        let b = &bs[idx];
        if !b.iter().all(|v| v.is_finite()) {
            outcomes[slot] =
                Some(SolveOutcome::zeroed(b.len(), SolveStatus::NonFiniteRhs, 0, damping));
            continue;
        }
        let r = b.clone(); // r = b − A·0
        let rs_old = dot(&r, &r);
        let bnorm = rs_old.sqrt().max(1e-30);
        if rs_old.sqrt() <= tol * bnorm {
            outcomes[slot] =
                Some(finished(vec![0.0; b.len()], 0, rs_old.sqrt(), SolveStatus::Converged));
            continue;
        }
        let p = r.clone();
        active.push(Sys { slot, idx, x: vec![0.0; b.len()], r, p, rs_old, bnorm, iterations: 0 });
    }

    for _ in 0..max_iters {
        if active.is_empty() {
            break;
        }
        let dirs: Vec<(usize, &[f64])> = active.iter().map(|s| (s.idx, s.p.as_slice())).collect();
        let aps = apply_multi(&dirs);
        assert_eq!(aps.len(), active.len(), "apply_multi must return one product per direction");
        let mut still = Vec::with_capacity(active.len());
        for (mut s, mut ap) in active.into_iter().zip(aps) {
            s.iterations += 1;
            if damping != 0.0 {
                for (a, &pi) in ap.iter_mut().zip(s.p.iter()) {
                    *a += damping * pi;
                }
            }
            let p_ap = dot(&s.p, &ap);
            if !p_ap.is_finite() {
                // The operator itself produced NaN/∞ — retry with more damping.
                outcomes[s.slot] = Some(failed(&s, SolveStatus::NonFinite));
                continue;
            }
            if p_ap.abs() < 1e-300 {
                // Breakdown: direction has (numerically) zero curvature. The
                // iterate accumulated so far is still finite and usable.
                outcomes[s.slot] =
                    Some(finished(s.x, s.iterations, s.rs_old.sqrt(), SolveStatus::Breakdown));
                continue;
            }
            let alpha = s.rs_old / p_ap;
            for ((x, r), (&pi, &a)) in
                s.x.iter_mut().zip(s.r.iter_mut()).zip(s.p.iter().zip(ap.iter()))
            {
                *x += alpha * pi;
                *r -= alpha * a;
            }
            let rs_new = dot(&s.r, &s.r);
            if !rs_new.is_finite() {
                outcomes[s.slot] = Some(failed(&s, SolveStatus::NonFinite));
                continue;
            }
            if rs_new.sqrt() > DIVERGENCE_FACTOR * s.bnorm {
                // Indefinite / non-symmetric operator: the "residual" is
                // running away, each extra iteration makes x worse.
                outcomes[s.slot] = Some(failed(&s, SolveStatus::Diverged));
                continue;
            }
            if rs_new.sqrt() <= tol * s.bnorm {
                outcomes[s.slot] =
                    Some(finished(s.x, s.iterations, rs_new.sqrt(), SolveStatus::Converged));
                continue;
            }
            let beta = rs_new / s.rs_old;
            for (p, &r) in s.p.iter_mut().zip(s.r.iter()) {
                *p = r + beta * *p;
            }
            s.rs_old = rs_new;
            still.push(s);
        }
        active = still;
    }
    for s in active {
        outcomes[s.slot] =
            Some(finished(s.x, s.iterations, s.rs_old.sqrt(), SolveStatus::MaxIters));
    }
    outcomes.into_iter().map(|o| o.expect("every system classified")).collect()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat_apply(m: &[Vec<f64>]) -> impl FnMut(&[f64]) -> Vec<f64> + '_ {
        move |v: &[f64]| m.iter().map(|row| dot(row, v)).collect()
    }

    /// `A = MᵀM + I` for a random `M`: symmetric positive definite.
    fn random_spd(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<Vec<f64>> {
        use rand::Rng;
        let mm: Vec<Vec<f64>> =
            (0..n).map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                a[i][j] = (0..n).map(|k| mm[k][i] * mm[k][j]).sum::<f64>()
                    + if i == j { 1.0 } else { 0.0 };
            }
        }
        a
    }

    #[test]
    fn solves_identity() {
        let m = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let sol = conjugate_gradient(mat_apply(&m), &[3.0, -4.0], 10, 1e-10, 0.0);
        assert!(sol.converged);
        assert_eq!(sol.status, SolveStatus::Converged);
        assert!((sol.x[0] - 3.0).abs() < 1e-9);
        assert!((sol.x[1] + 4.0).abs() < 1e-9);
    }

    #[test]
    fn solves_spd_system() {
        // A = [[4,1],[1,3]], b = [1,2] -> x = [1/11, 7/11]
        let m = vec![vec![4.0, 1.0], vec![1.0, 3.0]];
        let sol = conjugate_gradient(mat_apply(&m), &[1.0, 2.0], 10, 1e-12, 0.0);
        assert!(sol.converged);
        assert!((sol.x[0] - 1.0 / 11.0).abs() < 1e-9);
        assert!((sol.x[1] - 7.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let m = vec![vec![2.0, 0.0], vec![0.0, 2.0]];
        let sol = conjugate_gradient(mat_apply(&m), &[0.0, 0.0], 10, 1e-10, 0.0);
        assert!(sol.converged);
        assert_eq!(sol.iterations, 0);
        assert_eq!(sol.x, vec![0.0, 0.0]);
    }

    #[test]
    fn damping_regularizes_singular() {
        // Singular A = [[1,0],[0,0]]; with damping the solve stays finite.
        let m = vec![vec![1.0, 0.0], vec![0.0, 0.0]];
        let sol = conjugate_gradient(mat_apply(&m), &[1.0, 1.0], 50, 1e-10, 0.1);
        assert!(sol.x.iter().all(|v| v.is_finite()));
        // (A + 0.1 I) x = b → x = [1/1.1, 10]
        assert!((sol.x[0] - 1.0 / 1.1).abs() < 1e-6);
        assert!((sol.x[1] - 10.0).abs() < 1e-4);
    }

    #[test]
    fn converges_on_random_spd() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let n = 12;
        let a = random_spd(&mut rng, n);
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let sol = conjugate_gradient(mat_apply(&a), &b, 200, 1e-10, 0.0);
        assert!(sol.converged, "residual {}", sol.residual);
        // Check A·x ≈ b directly.
        let ax = mat_apply(&a)(&sol.x);
        for i in 0..n {
            assert!((ax[i] - b[i]).abs() < 1e-7);
        }
    }

    // ---- guardrail regressions (ISSUE 3): no panic, no silent garbage ----

    #[test]
    fn nan_rhs_yields_typed_outcome() {
        let m = vec![vec![2.0, 0.0], vec![0.0, 2.0]];
        let sol = conjugate_gradient(mat_apply(&m), &[f64::NAN, 1.0], 20, 1e-10, 0.0);
        assert_eq!(sol.status, SolveStatus::NonFiniteRhs);
        assert!(!sol.usable());
        assert!(!sol.converged);
        assert_eq!(sol.x, vec![0.0, 0.0], "unusable solve must zero x, not leak NaN");
    }

    #[test]
    fn infinite_rhs_yields_typed_outcome() {
        let m = vec![vec![2.0, 0.0], vec![0.0, 2.0]];
        let sol = conjugate_gradient(mat_apply(&m), &[1.0, f64::INFINITY], 20, 1e-10, 0.0);
        assert_eq!(sol.status, SolveStatus::NonFiniteRhs);
        assert!(sol.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn indefinite_matrix_never_returns_nonfinite_x() {
        // A = diag(1, -1) is indefinite: plain CG on it can diverge (negative
        // curvature flips the step sign). The outcome must stay typed and
        // finite whatever path it takes.
        let m = vec![vec![1.0, 0.0], vec![0.0, -1.0]];
        let sol = conjugate_gradient(mat_apply(&m), &[1.0, 1.0], 100, 1e-12, 0.0);
        assert!(
            sol.x.iter().all(|v| v.is_finite()),
            "indefinite solve leaked non-finite x: {:?} ({:?})",
            sol.x,
            sol.status
        );
        assert!(
            !(sol.status == SolveStatus::Converged) || sol.residual <= 1e-10,
            "converged status must mean a small residual"
        );
    }

    #[test]
    fn strongly_indefinite_diverges_to_typed_outcome() {
        // Larger indefinite system with mixed curvature directions mixed into
        // every step: residuals blow up without the divergence guard.
        let n = 8;
        let mut m = vec![vec![0.0; n]; n];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = if i % 2 == 0 { 1.0 } else { -1.0 };
            if i + 1 < n {
                row[i + 1] = 0.5;
            }
            if i > 0 {
                row[i - 1] = 0.5;
            }
        }
        let b = vec![1.0; n];
        let sol = conjugate_gradient(mat_apply(&m), &b, 500, 1e-12, 0.0);
        assert!(sol.x.iter().all(|v| v.is_finite()), "{:?}", sol.status);
        if !sol.usable() {
            assert_eq!(sol.x, vec![0.0; n], "unusable ⇒ zero correction");
        }
    }

    #[test]
    fn zero_diagonal_breakdown_is_typed() {
        // A = 0: the very first direction has zero curvature; historically
        // this silently returned converged=false with x=0 — now it is a
        // *typed* breakdown and the partial iterate stays finite.
        let m = vec![vec![0.0, 0.0], vec![0.0, 0.0]];
        let sol = conjugate_gradient(mat_apply(&m), &[1.0, 2.0], 10, 1e-10, 0.0);
        assert_eq!(sol.status, SolveStatus::Breakdown);
        assert!(sol.usable(), "breakdown keeps the (finite) partial solution");
        assert!(sol.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn nan_producing_operator_retries_with_damping() {
        // An operator that emits NaN until heavy damping drowns it out is the
        // worst case the HVP closures produce mid-optimization. The solve must
        // classify it (NonFinite after retries) rather than propagate NaN.
        let nan_apply = |v: &[f64]| v.iter().map(|_| f64::NAN).collect::<Vec<_>>();
        let sol = conjugate_gradient(nan_apply, &[1.0, 1.0], 10, 1e-10, 1e-3);
        assert_eq!(sol.status, SolveStatus::NonFinite);
        assert_eq!(sol.retries, MAX_RETRIES);
        assert!(!sol.usable());
        assert_eq!(sol.x, vec![0.0, 0.0]);
    }

    #[test]
    fn retry_damping_rescues_mildly_indefinite_system() {
        // A = diag(1, -d) with tiny d: undamped CG diverges, but the
        // escalated retry damping makes A + λI positive definite again and
        // yields a finite, usable solve.
        let m = vec![vec![1.0, 0.0], vec![0.0, -1e-5]];
        let sol = conjugate_gradient(mat_apply(&m), &[1.0, 1.0], 200, 1e-10, 1e-3);
        assert!(sol.x.iter().all(|v| v.is_finite()));
        if sol.usable() {
            assert!(sol.x[0].abs() < 10.0, "x stayed bounded: {:?}", sol.x);
        }
    }

    // ---- multi-RHS lockstep solver: no cross-talk, pinned outcomes ----

    /// Asserts two outcomes are bitwise identical (x, residual) and equal on
    /// every classification field.
    fn assert_outcome_bits_eq(multi: &SolveOutcome, single: &SolveOutcome, label: &str) {
        assert_eq!(multi.status, single.status, "{label}: status");
        assert_eq!(multi.iterations, single.iterations, "{label}: iterations");
        assert_eq!(multi.retries, single.retries, "{label}: retries");
        assert_eq!(multi.converged, single.converged, "{label}: converged");
        assert_eq!(
            multi.residual.to_bits(),
            single.residual.to_bits(),
            "{label}: residual {} vs {}",
            multi.residual,
            single.residual
        );
        assert_eq!(multi.x.len(), single.x.len(), "{label}: x length");
        for (i, (a, b)) in multi.x.iter().zip(single.x.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: x[{i}] {a} vs {b}");
        }
    }

    #[test]
    fn multi_rhs_bitwise_matches_sequential_on_shared_spd() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let n = 10;
        let a = random_spd(&mut rng, n);
        let rhs: Vec<Vec<f64>> =
            (0..4).map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        // Mixed convergence speeds: also truncate one run hard so MaxIters
        // systems travel through the lockstep loop alongside converged ones.
        for (max_iters, tol) in [(200usize, 1e-10), (2usize, 1e-14)] {
            let multi = conjugate_gradient_multi(
                |dirs| dirs.iter().map(|(_, p)| mat_apply(&a)(p)).collect(),
                &rhs,
                max_iters,
                tol,
                1e-3,
            );
            for (i, (m, b)) in multi.iter().zip(rhs.iter()).enumerate() {
                let single = conjugate_gradient(mat_apply(&a), b, max_iters, tol, 1e-3);
                assert_outcome_bits_eq(m, &single, &format!("rhs {i} (cap {max_iters})"));
            }
        }
    }

    /// System-indexed operator of one batch containing every guardrail path
    /// at once: a healthy SPD system, a NaN rhs, an indefinite system, a
    /// zero-operator breakdown, a zero rhs and a NaN operator (exercises the
    /// retry chain).
    fn mixed_apply(idx: usize, v: &[f64]) -> Vec<f64> {
        let spd = vec![vec![4.0, 1.0], vec![1.0, 3.0]];
        let indefinite = vec![vec![1.0, 0.0], vec![0.0, -1.0]];
        let zero = vec![vec![0.0, 0.0], vec![0.0, 0.0]];
        match idx {
            0 => mat_apply(&spd)(v),
            1 => mat_apply(&spd)(v), // never called: rhs is non-finite
            2 => mat_apply(&indefinite)(v),
            3 => mat_apply(&zero)(v),
            4 => mat_apply(&spd)(v), // never iterates: zero rhs
            5 => v.iter().map(|_| f64::NAN).collect(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn multi_rhs_mixed_pathologies_match_sequential() {
        let rhs: Vec<Vec<f64>> = vec![
            vec![1.0, 2.0],
            vec![f64::NAN, 1.0],
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        ];
        // One-system outcomes recorded from the standalone single-system
        // recurrence and retry chain that the lockstep one replaced: x bits,
        // residual bits, iterations, status, retries, damping bits. b = [1,1]
        // on diag(1,-1) has exactly zero curvature along the first direction,
        // so the indefinite system is a deterministic breakdown.
        use SolveStatus::*;
        const INF: u64 = 0x7ff0_0000_0000_0000;
        let pinned: [([u64; 2], u64, usize, SolveStatus, usize, u64); 6] = [
            ([0x3fb7_45d1_745d_1746, 0x3fe4_5d17_45d1_745d], 0, 2, Converged, 0, 0),
            ([0, 0], INF, 0, NonFiniteRhs, 0, 0),
            ([0, 0], 0x3ff6_a09e_667f_3bcd, 1, Breakdown, 0, 0),
            ([0, 0], 0x4001_e377_9b97_f4a8, 1, Breakdown, 0, 0),
            ([0, 0], 0, 0, Converged, 0, 0),
            ([0, 0], INF, 0, NonFinite, MAX_RETRIES, 0x3f84_7ae1_47ae_147b),
        ];
        let (max_iters, tol, damping) = (100usize, 1e-12, 0.0);
        let multi = conjugate_gradient_multi(
            |dirs| dirs.iter().map(|&(idx, p)| mixed_apply(idx, p)).collect(),
            &rhs,
            max_iters,
            tol,
            damping,
        );
        assert_eq!(multi.len(), rhs.len());
        for (idx, (m, b)) in multi.iter().zip(rhs.iter()).enumerate() {
            // Batching adds no cross-talk: each system matches its own solve.
            let single = conjugate_gradient(|v| mixed_apply(idx, v), b, max_iters, tol, damping);
            let label = format!("system {idx}");
            assert_outcome_bits_eq(m, &single, &label);
            let (x, residual, iterations, status, retries, damping) = pinned[idx];
            assert_eq!(single.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), x, "{label}");
            assert_eq!(single.residual.to_bits(), residual, "{label}: residual");
            assert_eq!(single.iterations, iterations, "{label}: iterations");
            assert_eq!(single.status, status, "{label}: status");
            assert_eq!(single.converged, status == Converged, "{label}: converged");
            assert_eq!(single.retries, retries, "{label}: retries");
            assert_eq!(single.damping.to_bits(), damping, "{label}: damping");
        }
    }

    #[test]
    fn multi_rhs_empty_batch_is_empty() {
        let out = conjugate_gradient_multi(|_| Vec::new(), &[], 10, 1e-10, 0.0);
        assert!(out.is_empty());
    }

    #[test]
    fn truncated_solve_reports_max_iters() {
        // 1 iteration on a 12-dim SPD system cannot converge; that is the
        // normal truncated-CG regime and must stay usable.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let n = 12;
        let a = random_spd(&mut rng, n);
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let sol = conjugate_gradient(mat_apply(&a), &b, 1, 1e-14, 0.0);
        assert_eq!(sol.status, SolveStatus::MaxIters);
        assert!(sol.usable());
        assert!(!sol.converged);
    }
}
