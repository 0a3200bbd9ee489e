//! Influence-estimation correctness: the CG-solved Newton direction must
//! agree with brute-force references on a tiny world.
//!
//! Two references are used:
//! * an **explicit dense solve** — the Hessian `H = ∂²L/∂X̂²` is
//!   materialized column-by-column with the same tape HVP idiom the CG
//!   apply uses, and `(H + λI)s = g` is solved by Gaussian elimination;
//! * **brute-force leave-one-rating-out retraining** — the surrogate is
//!   retrained with each candidate rating individually perturbed (central
//!   difference on its X̂ entry) and the measured IA-loss deltas give the
//!   reference ranking.

use msopds_attacks::common::{inject_fakes, IaContext};
use msopds_attacks::{influence_scores, InfluenceConfig};
use msopds_autograd::{Tape, Tensor};
use msopds_recdata::{Dataset, DatasetSpec, PoisonAction};
use msopds_recsys::losses::ia_loss;
use msopds_recsys::pds::{build_pds, PdsConfig, PlayerInput};

const INNER_STEPS: usize = 2;

/// Tiny fixture: micro world with one injected probe fake and a small pool.
fn fixture() -> (Dataset, usize, Vec<usize>, usize) {
    let mut data = DatasetSpec::micro().generate(7);
    let ctx = IaContext { b: 2, fillers_per_fake: 3, candidate_pool: 6, seed: 0 };
    let target = 0;
    let (fakes, _) = inject_fakes(&mut data, &ctx, target);
    let pool: Vec<usize> = vec![1, 2, 3, 5, 8, 13];
    (data, fakes[0], pool, target)
}

fn probe_candidates(probe: usize, pool: &[usize]) -> Vec<PoisonAction> {
    pool.iter()
        .map(|&i| PoisonAction::Rating { user: probe as u32, item: i as u32, value: 5.0 })
        .collect()
}

/// IA loss of the surrogate retrained with importance vector `xhat`.
fn retrained_loss(
    data: &Dataset,
    probe: usize,
    pool: &[usize],
    target: usize,
    xhat: &[f64],
) -> f64 {
    let candidates = probe_candidates(probe, pool);
    let tape = Tape::new();
    let pds = build_pds(
        &tape,
        data,
        &[PlayerInput {
            candidates: &candidates,
            xhat: Tensor::from_vec(xhat.to_vec(), &[xhat.len()]),
        }],
        &PdsConfig { inner_steps: INNER_STEPS, seed: 0, ..Default::default() },
    );
    let real_users: Vec<usize> = (0..data.n_real_users).collect();
    ia_loss(&pds.scores(), &real_users, target).item()
}

/// Gradient and explicit Hessian of the IA loss w.r.t. X̂ at zero, via the
/// same tape the attack records (HVPs on basis vectors).
fn grad_and_hessian(
    data: &Dataset,
    probe: usize,
    pool: &[usize],
    target: usize,
) -> (Vec<f64>, Vec<Vec<f64>>) {
    let candidates = probe_candidates(probe, pool);
    let p = pool.len();
    let tape = Tape::new();
    let pds = build_pds(
        &tape,
        data,
        &[PlayerInput { candidates: &candidates, xhat: Tensor::zeros(&[p]) }],
        &PdsConfig { inner_steps: INNER_STEPS, seed: 0, ..Default::default() },
    );
    let xhat = pds.xhats[0];
    let real_users: Vec<usize> = (0..data.n_real_users).collect();
    let ia = ia_loss(&pds.scores(), &real_users, target);
    let g = tape.grad_vars(ia, &[xhat])[0];
    let g_vec = g.value().to_vec();
    let mut h = Vec::with_capacity(p);
    for j in 0..p {
        let mut e = vec![0.0; p];
        e[j] = 1.0;
        let vc = tape.constant(Tensor::from_vec(e, &[p]));
        let gv = g.mul(vc).sum();
        h.push(tape.grad(gv, &[xhat]).remove(0).to_vec());
    }
    (g_vec, h)
}

/// Solves `(H + λI)s = g` by Gaussian elimination with partial pivoting.
fn dense_solve(h: &[Vec<f64>], g: &[f64], damping: f64) -> Vec<f64> {
    let n = g.len();
    let mut a: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let mut row: Vec<f64> = h[i].clone();
            row[i] += damping;
            row.push(g[i]);
            row
        })
        .collect();
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty system");
        a.swap(col, pivot);
        assert!(a[col][col].abs() > 1e-14, "singular damped Hessian");
        let pivot_row = a[col].clone();
        for (row, r) in a.iter_mut().enumerate() {
            if row != col {
                let f = r[col] / pivot_row[col];
                for (x, p) in r[col..].iter_mut().zip(&pivot_row[col..]) {
                    *x -= f * p;
                }
            }
        }
    }
    (0..n).map(|i| a[i][n] / a[i][i]).collect()
}

fn argsort(scores: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
    idx
}

#[test]
fn cg_newton_direction_matches_dense_solve_to_1e6() {
    let (data, probe, pool, target) = fixture();
    let cfg = InfluenceConfig {
        inner_steps: INNER_STEPS,
        cg_iters: 50,
        cg_tol: 1e-12,
        ..Default::default()
    };
    let (scores, diag) = influence_scores(&data, probe, &pool, target, &cfg, 0);
    assert!(!diag.degraded, "tiny-world solve degraded: {diag:?}");

    let (g, h) = grad_and_hessian(&data, probe, &pool, target);
    let reference = dense_solve(&h, &g, cfg.damping);

    let scale = reference.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    for (j, (&got, &want)) in scores.iter().zip(&reference).enumerate() {
        assert!(
            (got - want).abs() <= 1e-6 * scale,
            "candidate {j}: CG {got} vs dense {want} (scale {scale})"
        );
    }
    assert_eq!(argsort(&scores), argsort(&reference), "rank ordering diverged");
}

#[test]
fn influence_ranking_matches_leave_one_out_retraining() {
    let (data, probe, pool, target) = fixture();
    // Huge damping collapses the Newton direction onto the (scaled) raw
    // gradient, which is exactly what per-rating retraining measures.
    let cfg =
        InfluenceConfig { inner_steps: INNER_STEPS, cg_iters: 50, cg_tol: 1e-12, damping: 1e6 };
    let (scores, diag) = influence_scores(&data, probe, &pool, target, &cfg, 0);
    assert!(!diag.degraded);

    // Brute force: retrain the surrogate with each candidate rating's X̂
    // entry perturbed ±ε (central difference — leave-one-out around zero).
    let eps = 1e-4;
    let p = pool.len();
    let deltas: Vec<f64> = (0..p)
        .map(|j| {
            let mut up = vec![0.0; p];
            up[j] = eps;
            let mut dn = vec![0.0; p];
            dn[j] = -eps;
            (retrained_loss(&data, probe, &pool, target, &up)
                - retrained_loss(&data, probe, &pool, target, &dn))
                / (2.0 * eps)
        })
        .collect();

    // Rank ordering must agree wherever the brute-force scores are not
    // numerically tied (gap > 1e-6).
    for a in 0..p {
        for b in 0..p {
            if deltas[a] + 1e-6 < deltas[b] {
                assert!(
                    scores[a] < scores[b],
                    "brute force ranks {} before {} ({} vs {}), influence says {} vs {}",
                    pool[a],
                    pool[b],
                    deltas[a],
                    deltas[b],
                    scores[a],
                    scores[b],
                );
            }
        }
    }
}
