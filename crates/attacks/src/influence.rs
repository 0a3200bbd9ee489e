//! Influence-function top-N attack (Fang et al., arXiv 2002.08025).
//!
//! Candidate filler items are scored by the *Newton-refined* influence of
//! upweighting each candidate rating on the target item's exposure: with the
//! IA loss `L` recorded through a short PDS surrogate unroll, the raw
//! gradient `g = ∂L/∂X̂` is refined into the influence direction
//! `s = (H + λI)⁻¹ g` where `H = ∂²L/∂X̂²`, solved with the existing
//! [`conjugate_gradient_multi`] machinery and Hessian-vector products taken
//! on the same tape. The most negative entries of `s` are the candidates
//! whose inclusion most decreases the IA loss (i.e. most promotes the
//! target), and the fake-user budget is filled greedily in that order.
//!
//! A CG breakdown degrades the attack — the raw gradient ordering is used
//! instead, with a typed [`InfluenceDiag`] recording the [`SolveStatus`] —
//! it never aborts the run.

use msopds_autograd::cg::{conjugate_gradient_multi, SolveStatus};
use msopds_autograd::hvp::grad_dot_products;
use msopds_autograd::{Tape, Tensor};
use msopds_recdata::{Dataset, PoisonAction};
use msopds_recsys::pds::{build_pds, PdsConfig, PlayerInput};
use msopds_recsys::Backend;
use rand::Rng;

use crate::common::{filler_actions, fit_rating_stats, inject_fakes, IaContext};

/// Influence-solve hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct InfluenceConfig {
    /// Inner unroll steps of the PDS surrogate the loss is recorded through.
    pub inner_steps: usize,
    /// CG iteration cap for the `(H + λI)⁻¹ g` solve.
    pub cg_iters: usize,
    /// CG residual tolerance.
    pub cg_tol: f64,
    /// Damping λ added to the Hessian diagonal.
    pub damping: f64,
}

impl Default for InfluenceConfig {
    fn default() -> Self {
        Self { inner_steps: 2, cg_iters: 12, cg_tol: 1e-10, damping: 1e-2 }
    }
}

/// What the influence estimation saw: the solve outcome and whether the
/// attack fell back to raw-gradient ordering.
#[derive(Clone, Debug)]
pub struct InfluenceDiag {
    /// Status of the `(H + λI)⁻¹ g` solve.
    pub status: SolveStatus,
    /// CG iterations spent.
    pub iterations: usize,
    /// Escalated-damping retries the solver needed.
    pub retries: usize,
    /// True when the solve was unusable and the scores are the raw gradient.
    pub degraded: bool,
}

/// Scores each pool item by its Newton-refined influence on the IA loss for
/// `target_item`, as rated 5-star by the (already injected) `probe` fake,
/// through a surrogate on the graph `backend`.
///
/// Returns one score per pool entry — more negative = stronger promotion —
/// plus the solve diagnostics. On an unusable solve the raw gradient is
/// returned (`degraded = true`); non-finite entries are zeroed so the caller
/// can always sort.
pub fn influence_scores(
    data: &Dataset,
    probe: usize,
    pool: &[usize],
    target_item: usize,
    cfg: &InfluenceConfig,
    backend: Backend,
    seed: u64,
) -> (Vec<f64>, InfluenceDiag) {
    let candidates: Vec<PoisonAction> = pool
        .iter()
        .map(|&i| PoisonAction::Rating { user: probe as u32, item: i as u32, value: 5.0 })
        .collect();

    let tape = Tape::new();
    let pds = build_pds(
        &tape,
        data,
        &[PlayerInput { candidates: &candidates, xhat: Tensor::zeros(&[candidates.len()]) }],
        &PdsConfig { inner_steps: cfg.inner_steps, seed, backend, ..Default::default() },
    );
    let xhat = pds.xhats[0];
    let real_users: Vec<usize> = (0..data.n_real_users).collect();
    let ia = msopds_recsys::losses::ia_loss(&pds.scores(), &real_users, target_item);

    // Gradient kept on the tape so it can be differentiated again for the
    // Hessian-vector products of the implicit solve (same idiom as eq. 9).
    let g = tape.grad_vars(ia, &[xhat])[0];
    let g_val = g.value();
    let shape = g_val.shape().to_vec();
    let rhs = g_val.to_vec();

    let sol = conjugate_gradient_multi(
        |dirs| {
            let vs = dirs.iter().map(|&(_, v)| Tensor::from_vec(v.to_vec(), &shape)).collect();
            let n = dirs.len();
            grad_dot_products(&tape, &vec![g; n], vs, &vec![xhat; n])
                .into_iter()
                .map(|hv| hv.to_vec())
                .collect()
        },
        std::slice::from_ref(&rhs),
        cfg.cg_iters,
        cfg.cg_tol,
        cfg.damping,
    )
    .remove(0);

    let degraded = !sol.usable();
    let diag = InfluenceDiag {
        status: sol.status,
        iterations: sol.iterations,
        retries: sol.retries,
        degraded,
    };
    let raw = if degraded { rhs } else { sol.x };
    let scores = raw.into_iter().map(|s| if s.is_finite() { s } else { 0.0 }).collect();
    (scores, diag)
}

/// Runs the influence-function attack and returns the full poison plan.
///
/// Unlike [`crate::s_attack::s_attack`] (one shared filler set), the budget
/// is filled greedily: the influence-ranked pool is walked in order and each
/// fake takes the next `fillers_per_fake` strongest remaining candidates,
/// wrapping around once the ranking is exhausted. The surrogate runs on
/// `backend`, the graph backend of the game's planner.
pub fn influence_attack<R: Rng>(
    data: &mut Dataset,
    ctx: &IaContext,
    target_item: usize,
    cfg: &InfluenceConfig,
    backend: Backend,
    rng: &mut R,
) -> Vec<PoisonAction> {
    let stats = fit_rating_stats(data);
    let (fakes, mut plan) = inject_fakes(data, ctx, target_item);
    let probe = *fakes.first().expect("at least one fake");

    use rand::seq::SliceRandom;
    let pool: Vec<usize> = (0..data.n_items())
        .filter(|&i| i != target_item)
        .collect::<Vec<_>>()
        .choose_multiple(rng, ctx.candidate_pool.min(data.n_items().saturating_sub(1)))
        .copied()
        .collect();
    if pool.is_empty() {
        return plan;
    }

    let (scores, _diag) = influence_scores(data, probe, &pool, target_item, cfg, backend, ctx.seed);

    // Rank ascending: most negative influence first (strongest promotion).
    // Item id breaks exact ties so the ordering is fully deterministic.
    let mut ranked: Vec<(f64, usize)> = scores.iter().copied().zip(pool.iter().copied()).collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let ranked: Vec<usize> = ranked.into_iter().map(|(_, i)| i).collect();

    // Greedy budget fill: fake `fi` takes the ranked slice starting at
    // `fi · fillers_per_fake`, wrapping — top candidates go to the first
    // fakes, and every fake still gets a distinct-slot filler set.
    let chosen: Vec<Vec<usize>> = (0..fakes.len())
        .map(|fi| {
            let start = (fi * ctx.fillers_per_fake) % ranked.len();
            (0..ctx.fillers_per_fake.min(ranked.len()))
                .map(|k| ranked[(start + k) % ranked.len()])
                .collect()
        })
        .collect();
    plan.extend(filler_actions(&fakes, &chosen, stats, rng));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use msopds_recdata::DatasetSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The attack with default hyperparameters on the default backend.
    fn attack(data: &mut Dataset, ctx: &IaContext, target: usize, seed: u64) -> Vec<PoisonAction> {
        let mut rng = StdRng::seed_from_u64(seed);
        influence_attack(
            data,
            ctx,
            target,
            &InfluenceConfig::default(),
            Backend::default(),
            &mut rng,
        )
    }

    #[test]
    fn influence_attack_fills_the_budget() {
        let mut data = DatasetSpec::micro().generate(1);
        let ctx = IaContext { b: 3, fillers_per_fake: 4, candidate_pool: 12, seed: 0 };
        let plan = attack(&mut data, &ctx, 0, 7);
        let n_fake = ctx.fake_count(60);
        assert_eq!(plan.len(), n_fake + n_fake * ctx.fillers_per_fake);
        for a in &plan {
            if let PoisonAction::Rating { value, .. } = a {
                assert!((1.0..=5.0).contains(value));
            }
        }
    }

    #[test]
    fn influence_attack_never_uses_target_as_filler() {
        let mut data = DatasetSpec::micro().generate(2);
        let ctx = IaContext { b: 2, fillers_per_fake: 3, candidate_pool: 10, seed: 0 };
        let target = 5;
        let plan = attack(&mut data, &ctx, target, 9);
        let target_ratings = plan
            .iter()
            .filter(|a| matches!(a, PoisonAction::Rating { item, .. } if *item as usize == target))
            .count();
        assert_eq!(target_ratings, ctx.fake_count(60));
    }

    #[test]
    fn influence_attack_is_deterministic_for_a_seed() {
        let run = || {
            let mut data = DatasetSpec::micro().generate(3);
            let ctx = IaContext { b: 2, fillers_per_fake: 3, candidate_pool: 10, seed: 4 };
            attack(&mut data, &ctx, 2, 11)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn influence_solve_converges_on_micro_world() {
        let mut data = DatasetSpec::micro().generate(1);
        let ctx = IaContext { b: 2, fillers_per_fake: 3, candidate_pool: 8, seed: 0 };
        let (fakes, _) = inject_fakes(&mut data, &ctx, 0);
        let pool: Vec<usize> = (1..9).collect();
        let (scores, diag) = influence_scores(
            &data,
            fakes[0],
            &pool,
            0,
            &InfluenceConfig::default(),
            Backend::default(),
            0,
        );
        assert_eq!(scores.len(), pool.len());
        assert!(!diag.degraded, "micro-world solve unexpectedly degraded: {:?}", diag);
        assert!(scores.iter().all(|s| s.is_finite()));
    }
}
