//! Named registry of the baseline attacks compared in §VI-A.5.

use msopds_core::PlannerConfig;
use msopds_recdata::{Dataset, PoisonAction};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::common::IaContext;
use crate::dl_attack::{dl_attack, DlAttackConfig};
use crate::heuristic::{none_attack, popular_attack, random_attack};
use crate::influence::{influence_attack, InfluenceConfig};
use crate::pga::{pga_attack, PgaConfig};
use crate::rev_adv::rev_adv_attack;
use crate::s_attack::s_attack;
use crate::trial::{trial_attack, TrialConfig};

/// The Injection Attack baselines of Table III.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Baseline {
    /// No attack (clean model).
    None,
    /// Random filler selection.
    Random,
    /// 90 % random / 10 % popular fillers [49], [84].
    Popular,
    /// Projected gradient ascent on an MF surrogate [13].
    Pga,
    /// Influence-scored filler selection [52].
    SAttack,
    /// Bi-level optimization through surrogate training [3].
    RevAdv,
    /// Triple adversarial learning [54].
    Trial,
    /// Influence-function top-N attack with a Newton-refined CG solve
    /// (arXiv 2002.08025).
    Influence,
    /// DLAttack-style direct gradient optimization of the fake profiles
    /// through a trained surrogate.
    DlAttack,
}

impl Baseline {
    /// All baselines in Table III row order, followed by the zoo additions.
    pub fn all() -> [Baseline; 9] {
        [
            Baseline::None,
            Baseline::Random,
            Baseline::Popular,
            Baseline::Pga,
            Baseline::SAttack,
            Baseline::RevAdv,
            Baseline::Trial,
            Baseline::Influence,
            Baseline::DlAttack,
        ]
    }

    /// The display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Baseline::None => "None",
            Baseline::Random => "Random",
            Baseline::Popular => "Popular",
            Baseline::Pga => "PGA",
            Baseline::SAttack => "S-attack",
            Baseline::RevAdv => "RevAdv",
            Baseline::Trial => "Trial",
            Baseline::Influence => "Influence",
            Baseline::DlAttack => "DLAttack",
        }
    }

    /// Plans this baseline's Injection Attack on `data` (fake users are
    /// injected into `data` as a side effect) and returns the poison plan.
    /// Every surrogate a baseline trains runs on `planner.pds.backend`.
    pub fn plan<R: Rng>(
        &self,
        data: &mut Dataset,
        ctx: &IaContext,
        target_item: usize,
        planner: &PlannerConfig,
        rng: &mut R,
    ) -> Vec<PoisonAction> {
        match self {
            Baseline::None => none_attack(),
            Baseline::Random => random_attack(data, ctx, target_item, rng),
            Baseline::Popular => popular_attack(data, ctx, target_item, rng),
            Baseline::Pga => pga_attack(data, ctx, target_item, &PgaConfig::default(), rng),
            Baseline::SAttack => s_attack(data, ctx, target_item, planner.pds.backend, rng),
            Baseline::RevAdv => rev_adv_attack(data, ctx, target_item, planner, rng),
            Baseline::Trial => trial_attack(data, ctx, target_item, &TrialConfig::default(), rng),
            Baseline::Influence => influence_attack(
                data,
                ctx,
                target_item,
                &InfluenceConfig::default(),
                planner.pds.backend,
                rng,
            ),
            Baseline::DlAttack => {
                // Map the shared IA budget onto the original's absolute
                // `maliciousUserSize`/`maliciousFeedbackSize` semantics so
                // every registry baseline plays under the same 𝒞_IA budget.
                let cfg = DlAttackConfig {
                    malicious_user_size: ctx.fake_count(data.n_real_users) as f64,
                    malicious_feedback_size: ctx.fillers_per_fake as f64,
                    ..Default::default()
                };
                dl_attack(data, ctx, target_item, &cfg, rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msopds_autograd::HvpMode;
    use msopds_core::MsoConfig;
    use msopds_recdata::DatasetSpec;
    use msopds_recsys::pds::PdsConfig;
    use rand::SeedableRng;

    #[test]
    fn every_baseline_produces_a_plan() {
        let planner = PlannerConfig {
            mso: MsoConfig {
                iters: 2,
                cg_iters: 2,
                hvp_mode: HvpMode::Exact,
                ..Default::default()
            },
            pds: PdsConfig { inner_steps: 2, ..Default::default() },
        };
        for baseline in Baseline::all() {
            let mut data = DatasetSpec::micro().generate(1);
            let ctx = IaContext { b: 2, fillers_per_fake: 3, candidate_pool: 10, seed: 0 };
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            let plan = baseline.plan(&mut data, &ctx, 0, &planner, &mut rng);
            if baseline == Baseline::None {
                assert!(plan.is_empty());
            } else {
                assert!(!plan.is_empty(), "{} returned an empty plan", baseline.name());
                // The plan must apply cleanly.
                let _ = data.apply_poison(&plan);
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> =
            Baseline::all().iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 9);
    }
}
