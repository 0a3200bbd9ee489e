//! S-attack (Fang et al. [52]): influence-function-based filler selection
//! against a graph-based recommender.
//!
//! The original formulates filler choice as an optimization scored by
//! influence functions. We realize the same mechanism with a one-shot
//! influence estimate: a single-step PDS surrogate is recorded with one
//! representative fake account rating every candidate item, and the gradient
//! of the IA loss with respect to those candidate entries is the influence
//! score of each item. The most negative scores (largest promotion effect)
//! are selected as fillers; filler values are drawn from the fitted normal,
//! as in the original.

use msopds_autograd::Tape;
use msopds_recdata::{Dataset, PoisonAction};
use msopds_recsys::pds::{build_pds, PdsConfig, PlayerInput};
use msopds_recsys::Backend;
use rand::Rng;

use crate::common::{filler_actions, fit_rating_stats, inject_fakes, IaContext};

/// Runs the S-attack: scores candidates by influence, selects the top set
/// (shared across fakes), and returns the full plan. The surrogate runs on
/// `backend`, the graph backend of the game's planner.
pub fn s_attack<R: Rng>(
    data: &mut Dataset,
    ctx: &IaContext,
    target_item: usize,
    backend: Backend,
    rng: &mut R,
) -> Vec<PoisonAction> {
    let stats = fit_rating_stats(data);
    let (fakes, mut plan) = inject_fakes(data, ctx, target_item);
    let probe = *fakes.first().expect("at least one fake");

    // Candidate set: the probe fake rates every item (bounded by pool size).
    use rand::seq::SliceRandom;
    let pool: Vec<usize> = (0..data.n_items())
        .filter(|&i| i != target_item)
        .collect::<Vec<_>>()
        .choose_multiple(rng, ctx.candidate_pool.min(data.n_items().saturating_sub(1)))
        .copied()
        .collect();
    let candidates: Vec<PoisonAction> = pool
        .iter()
        .map(|&i| PoisonAction::Rating { user: probe as u32, item: i as u32, value: 5.0 })
        .collect();

    // One-shot influence: gradient of the IA loss w.r.t. the candidate
    // entries of a briefly-trained surrogate.
    let tape = Tape::new();
    let pds = build_pds(
        &tape,
        data,
        &[PlayerInput {
            candidates: &candidates,
            xhat: msopds_autograd::Tensor::zeros(&[candidates.len()]),
        }],
        &PdsConfig { inner_steps: 2, seed: ctx.seed, backend, ..Default::default() },
    );
    let real_users: Vec<usize> = (0..data.n_real_users).collect();
    let ia = msopds_recsys::losses::ia_loss(&pds.scores(), &real_users, target_item);
    let influence = tape.grad(ia, &[pds.xhats[0]]).remove(0);

    // Most negative gradient = largest decrease of the IA loss when selected.
    let mut scored: Vec<(f64, usize)> =
        influence.data().iter().copied().zip(pool.iter().copied()).collect();
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite influence scores"));
    let fillers: Vec<usize> = scored.iter().take(ctx.fillers_per_fake).map(|&(_, i)| i).collect();

    let chosen: Vec<Vec<usize>> = fakes.iter().map(|_| fillers.clone()).collect();
    plan.extend(filler_actions(&fakes, &chosen, stats, rng));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use msopds_recdata::DatasetSpec;
    use rand::SeedableRng;

    #[test]
    fn s_attack_selects_shared_fillers() {
        let mut data = DatasetSpec::micro().generate(1);
        let ctx = IaContext::scaled(4, 8.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let plan = s_attack(&mut data, &ctx, 0, Backend::default(), &mut rng);
        let n_fake = ctx.fake_count(60);
        assert_eq!(plan.len(), n_fake + n_fake * ctx.fillers_per_fake);

        // Every fake rates the same filler set.
        use std::collections::{BTreeSet, HashMap};
        let mut per_fake: HashMap<u32, BTreeSet<u32>> = HashMap::new();
        for a in &plan {
            if let PoisonAction::Rating { user, item, .. } = a {
                if *item != 0 {
                    per_fake.entry(*user).or_default().insert(*item);
                }
            }
        }
        let sets: Vec<_> = per_fake.values().collect();
        assert!(sets.windows(2).all(|w| w[0] == w[1]), "filler sets differ between fakes");
    }

    #[test]
    fn s_attack_never_rates_target_as_filler() {
        let mut data = DatasetSpec::micro().generate(2);
        let ctx = IaContext::scaled(3, 8.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let target = 7;
        let plan = s_attack(&mut data, &ctx, target, Backend::default(), &mut rng);
        let target_ratings = plan
            .iter()
            .filter(|a| matches!(a, PoisonAction::Rating { item, .. } if *item as usize == target))
            .count();
        // Exactly the unconditional 5-star per fake, never a filler duplicate.
        assert_eq!(target_ratings, ctx.fake_count(60));
    }
}
