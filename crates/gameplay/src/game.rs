//! The multiplayer poisoning game (§VI-B protocol).
//!
//! Sequence of play:
//! 1. the **attacker** plans on the clean data — baselines under IA, MSOPDS
//!    under MCA (anticipating the opponents), BOPDS/ablations under CA — and
//!    his poison is committed to the world;
//! 2. each **opponent** in turn observes the poisoned world (eCommerce data
//!    is public, §III-B) and plans a demotion Comprehensive Attack with
//!    BOPDS, committing 1-star hired ratings against the attacker's target;
//! 3. the **victim** Het-RecSys is retrained from scratch on the final world
//!    and the attacker's target item is scored: average predicted rating r̄
//!    over the target audience and HitRate@3 among the competing items.

use msopds_attacks::{Baseline, IaContext};
use msopds_core::{
    build_ca_capacity, plan_bopds, plan_msopds, prepare_planning_data, ActionToggles,
    CaCapacitySpec, Objective, PlannerConfig, PlayerSetup,
};
use msopds_recdata::{Dataset, Market, PoisonAction};
use msopds_recsys::metrics::{avg_predicted_rating, hit_rate_at_k};
use msopds_recsys::{HetRec, HetRecConfig};
use msopds_telemetry as telemetry;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Complete games played (attacker move, opponent moves, victim scoring).
static GAMES: telemetry::Counter = telemetry::Counter::new("gameplay.games");

/// The attacker's method under evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum AttackMethod {
    /// One of the §VI-A.5 Injection Attack baselines.
    Baseline(Baseline),
    /// MSOPDS under MCA (anticipates the opponents), with a capacity-toggle
    /// mask for the Fig. 8 / Fig. 9 ablations.
    Msopds(ActionToggles),
    /// BOPDS under CA (full capacity, no opponent anticipation) — the §IV-D
    /// ablation.
    Bopds(ActionToggles),
}

impl AttackMethod {
    /// Display name for reports.
    pub fn name(&self) -> String {
        match self {
            AttackMethod::Baseline(b) => b.name().to_string(),
            AttackMethod::Msopds(_) => "MSOPDS".to_string(),
            AttackMethod::Bopds(_) => "BOPDS".to_string(),
        }
    }
}

/// Full game configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GameConfig {
    /// Victim model hyperparameters.
    pub victim: HetRecConfig,
    /// Planner (MSO + PDS) parameters for optimization-based attackers.
    pub planner: PlannerConfig,
    /// Planner parameters for the in-game opponents (usually the same).
    pub opponent_planner: PlannerConfig,
    /// Attacker budget `b` (§VI-A.3, default 5).
    pub attacker_b: usize,
    /// Number of opponents (Fig. 6 sweeps this).
    pub n_opponents: usize,
    /// Opponent budget `b_op` (§VI-A.4, default 2; Fig. 7 sweeps this).
    pub opponent_b: usize,
    /// Dataset scale divisor, used to scale IA filler counts.
    pub scale: f64,
    /// Base seed for attack randomness and the victim init.
    pub seed: u64,
    /// Kernel-pool lanes for tensor kernels while this game runs (`0` =
    /// inherit the process-wide pool configuration). Results are bit-identical
    /// for any value; this only trades latency (see DESIGN.md).
    pub kernel_threads: usize,
}

impl GameConfig {
    /// Paper-shaped defaults at a given dataset scale.
    pub fn at_scale(scale: f64) -> Self {
        Self {
            victim: HetRecConfig::default(),
            planner: PlannerConfig::default(),
            opponent_planner: PlannerConfig::default(),
            attacker_b: 5,
            n_opponents: 1,
            opponent_b: 2,
            scale,
            seed: 0,
            kernel_threads: 0,
        }
    }
}

/// Result of one game: the paper's two metrics plus bookkeeping.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GameOutcome {
    /// Attacker method name.
    pub method: String,
    /// Average predicted rating r̄ of the target over the target audience.
    pub avg_rating: f64,
    /// HitRate@3 among the competing items.
    pub hit_rate_at_3: f64,
    /// HitRate@10 among the extended ranking pool (see [`ranking_pool`]) —
    /// the attack × defense matrix metric.
    pub hit_rate_at_10: f64,
    /// Number of poison actions the attacker committed.
    pub attacker_actions: usize,
    /// Number of poison actions all opponents committed.
    pub opponent_actions: usize,
    /// Victim training RMSE (recommendation quality sanity check).
    pub victim_rmse: f64,
}

/// Runs one complete game and evaluates the attacker's target item.
///
/// `base` is the clean dataset; `market` the sampled demographics (player 0
/// is the attacker). Returns the §VI-A.6 metrics measured on the retrained
/// victim.
pub fn run_game(
    base: &Dataset,
    market: &Market,
    method: AttackMethod,
    cfg: &GameConfig,
) -> GameOutcome {
    let _span = telemetry::span("game");
    GAMES.incr();
    let played = play_world(base, market, method, cfg);
    score_world(&played.world, market, method, cfg, &played)
}

/// The poisoned world after both sides have moved, before victim training.
pub struct PlayedWorld {
    /// The fully-poisoned dataset.
    pub world: Dataset,
    /// Attacker action count.
    pub attacker_actions: usize,
    /// Total opponent action count.
    pub opponent_actions: usize,
}

/// Plays steps 1–2 of the protocol (attacker, then sequential opponents) and
/// returns the poisoned world. Exposed so defenses can intervene before the
/// victim trains (see [`crate::detectors`]).
pub fn play_world(
    base: &Dataset,
    market: &Market,
    method: AttackMethod,
    cfg: &GameConfig,
) -> PlayedWorld {
    if cfg.kernel_threads > 0 {
        msopds_autograd::pool::configure_threads(cfg.kernel_threads);
    }
    let mut world = base.clone();
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed.wrapping_add(0x5eed));

    // ---- step 1: the attacker plans on the clean data -------------------------
    let attacker_span = telemetry::span("attacker_plan");
    let attacker_plan: Vec<PoisonAction> = match method {
        AttackMethod::Baseline(b) => {
            let ctx = IaContext { seed: cfg.seed, ..IaContext::scaled(cfg.attacker_b, cfg.scale) };
            b.plan(&mut world, &ctx, market.target_item, &cfg.planner, &mut rng)
        }
        AttackMethod::Msopds(toggles) | AttackMethod::Bopds(toggles) => {
            let spec = CaCapacitySpec { toggles, ..CaCapacitySpec::promote(cfg.attacker_b) };
            let capacity =
                build_ca_capacity(&mut world, &market.players[0], market.target_item, &spec);
            let attacker = PlayerSetup {
                capacity,
                objective: Objective::Comprehensive {
                    audience: market.target_audience.clone(),
                    target: market.target_item,
                    competing: market.competing_items.clone(),
                },
            };
            if matches!(method, AttackMethod::Msopds(_)) {
                // Anticipate each opponent's demotion capacity (MCA).
                let mut anticipation_world = world.clone();
                let opponents: Vec<PlayerSetup> = (0..cfg.n_opponents)
                    .map(|i| {
                        let assets = &market.players[(1 + i).min(market.players.len() - 1)];
                        let cap = build_ca_capacity(
                            &mut anticipation_world,
                            assets,
                            market.target_item,
                            &CaCapacitySpec::demote(cfg.opponent_b),
                        );
                        PlayerSetup {
                            capacity: cap,
                            objective: Objective::Demote {
                                audience: market.target_audience.clone(),
                                target: market.target_item,
                            },
                        }
                    })
                    .collect();
                let caps: Vec<&msopds_core::BuiltCapacity> = std::iter::once(&attacker.capacity)
                    .chain(opponents.iter().map(|o| &o.capacity))
                    .collect();
                let planning_data = prepare_planning_data(&anticipation_world, &caps);
                plan_msopds(&planning_data, &attacker, &opponents, &cfg.planner).full_plan
            } else {
                let planning_data = world.apply_poison(&attacker.capacity.fixed);
                plan_bopds(&planning_data, &attacker, &cfg.planner).full_plan
            }
        }
    };
    drop(attacker_span);
    world = world.apply_poison(&attacker_plan);

    // ---- step 2: opponents plan sequentially on the observed world ------------
    let opponents_span = telemetry::span("opponent_plans");
    let mut opponent_actions = 0usize;
    for i in 0..cfg.n_opponents {
        let assets = &market.players[(1 + i).min(market.players.len() - 1)];
        let mut opp_world = world.clone();
        let capacity = build_ca_capacity(
            &mut opp_world,
            assets,
            market.target_item,
            &CaCapacitySpec::demote(cfg.opponent_b),
        );
        let opponent = PlayerSetup {
            capacity,
            objective: Objective::Demote {
                audience: market.target_audience.clone(),
                target: market.target_item,
            },
        };
        let planning_data = opp_world.apply_poison(&opponent.capacity.fixed);
        let plan = plan_bopds(&planning_data, &opponent, &cfg.opponent_planner).full_plan;
        opponent_actions += plan.len();
        world = world.apply_poison(&plan);
    }

    drop(opponents_span);
    PlayedWorld { world, attacker_actions: attacker_plan.len(), opponent_actions }
}

/// Minimum ranking-pool size used for the HitRate@10 metric.
pub const HR10_POOL_MIN: usize = 15;

/// The ranking pool for HitRate@10: the market's competing items, extended
/// deterministically with the lowest item ids not already present until the
/// pool holds at least [`HR10_POOL_MIN`] entries. At paper scale the
/// competing set already covers this; at test scales the scaled-down market
/// pool (8 items) would make HR@10 degenerate. The extension depends only on
/// the item-id space, so every attack and defense configuration of one world
/// is ranked against the same pool.
pub fn ranking_pool(world: &Dataset, market: &Market) -> Vec<usize> {
    let mut pool = market.competing_items.clone();
    if !pool.contains(&market.target_item) {
        pool.push(market.target_item);
    }
    let mut next = 0usize;
    while pool.len() < HR10_POOL_MIN && next < world.n_items() {
        if !pool.contains(&next) {
            pool.push(next);
        }
        next += 1;
    }
    pool.sort_unstable();
    pool
}

/// Step 3 of the protocol: retrains the victim on `world` and scores the
/// attacker's target.
pub fn score_world(
    world: &Dataset,
    market: &Market,
    method: AttackMethod,
    cfg: &GameConfig,
    played: &PlayedWorld,
) -> GameOutcome {
    if cfg.kernel_threads > 0 {
        msopds_autograd::pool::configure_threads(cfg.kernel_threads);
    }
    let _span = telemetry::span("victim_fit");
    let victim_cfg = HetRecConfig { seed: cfg.seed.wrapping_add(97), ..cfg.victim };
    let mut victim = HetRec::new(victim_cfg, world.n_users(), world.n_items());
    victim.fit(world);

    GameOutcome {
        method: method.name(),
        avg_rating: avg_predicted_rating(&victim, &market.target_audience, market.target_item),
        hit_rate_at_3: hit_rate_at_k(
            &victim,
            &market.target_audience,
            market.target_item,
            &market.competing_items,
            3,
        ),
        hit_rate_at_10: hit_rate_at_k(
            &victim,
            &market.target_audience,
            market.target_item,
            &ranking_pool(world, market),
            10,
        ),
        attacker_actions: played.attacker_actions,
        opponent_actions: played.opponent_actions,
        victim_rmse: victim.rmse(world),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use msopds_autograd::HvpMode;
    use msopds_core::MsoConfig;
    use msopds_recdata::{sample_market, DatasetSpec, DemographicsSpec};
    use msopds_recsys::pds::PdsConfig;

    pub(crate) fn quick_cfg() -> GameConfig {
        let planner = PlannerConfig {
            mso: MsoConfig {
                iters: 3,
                cg_iters: 2,
                hvp_mode: HvpMode::Exact,
                ..Default::default()
            },
            pds: PdsConfig { inner_steps: 3, ..Default::default() },
        };
        GameConfig {
            victim: HetRecConfig { epochs: 25, dim: 8, attention: false, ..Default::default() },
            planner,
            opponent_planner: planner,
            attacker_b: 3,
            n_opponents: 1,
            opponent_b: 2,
            scale: 8.0,
            seed: 1,
            kernel_threads: 0,
        }
    }

    pub(crate) fn setup() -> (Dataset, Market) {
        let data = DatasetSpec::micro().generate(6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let market = sample_market(&data, &DemographicsSpec::default().scaled(8.0), 2, &mut rng);
        (data, market)
    }

    #[test]
    fn none_baseline_runs_clean() {
        let (data, market) = setup();
        let out = run_game(&data, &market, AttackMethod::Baseline(Baseline::None), &quick_cfg());
        assert_eq!(out.attacker_actions, 0);
        assert!(out.opponent_actions > 0, "opponents still act");
        assert!(out.avg_rating.is_finite());
        assert!((0.0..=1.0).contains(&out.hit_rate_at_3));
    }

    #[test]
    fn opponent_demotion_lowers_target() {
        // With the None attacker the world shape is identical across runs, so
        // the only difference is the opponents' 1-star ratings: the target's
        // retrained score must drop.
        let (data, market) = setup();
        let with_opp =
            run_game(&data, &market, AttackMethod::Baseline(Baseline::None), &quick_cfg());
        let cfg0 = GameConfig { n_opponents: 0, ..quick_cfg() };
        let without = run_game(&data, &market, AttackMethod::Baseline(Baseline::None), &cfg0);
        assert!(
            with_opp.avg_rating < without.avg_rating,
            "demotion should lower r̄: {} (1 opp) vs {} (0 opp)",
            with_opp.avg_rating,
            without.avg_rating
        );
    }

    #[test]
    fn msopds_runs_end_to_end() {
        let (data, market) = setup();
        let out =
            run_game(&data, &market, AttackMethod::Msopds(ActionToggles::all()), &quick_cfg());
        assert!(out.attacker_actions > 0);
        assert!(out.avg_rating.is_finite());
        assert_eq!(out.method, "MSOPDS");
    }

    #[test]
    fn zero_opponents_supported() {
        let (data, market) = setup();
        let cfg = GameConfig { n_opponents: 0, ..quick_cfg() };
        let out = run_game(&data, &market, AttackMethod::Bopds(ActionToggles::all()), &cfg);
        assert_eq!(out.opponent_actions, 0);
    }

    #[test]
    fn games_are_seed_deterministic() {
        let (data, market) = setup();
        let cfg = quick_cfg();
        let a = run_game(&data, &market, AttackMethod::Baseline(Baseline::Popular), &cfg);
        let b = run_game(&data, &market, AttackMethod::Baseline(Baseline::Popular), &cfg);
        assert_eq!(a.avg_rating, b.avg_rating);
        assert_eq!(a.hit_rate_at_3, b.hit_rate_at_3);
    }

    #[test]
    fn more_opponents_add_more_demotion_actions() {
        // World shapes match under the None attacker, so the opponent count
        // translates directly into demotion pressure.
        let (data, market) = setup();
        let cfg1 = quick_cfg();
        let cfg2 = GameConfig { n_opponents: 2, ..quick_cfg() };
        let zero = run_game(
            &data,
            &market,
            AttackMethod::Baseline(Baseline::None),
            &GameConfig { n_opponents: 0, ..quick_cfg() },
        );
        let one = run_game(&data, &market, AttackMethod::Baseline(Baseline::None), &cfg1);
        let two = run_game(&data, &market, AttackMethod::Baseline(Baseline::None), &cfg2);
        assert!(two.opponent_actions > one.opponent_actions);
        // Near the 1-star floor successive opponents saturate, so compare each
        // against the undefended reference rather than against each other.
        assert!(two.avg_rating < zero.avg_rating, "{} vs {}", two.avg_rating, zero.avg_rating);
        assert!(one.avg_rating < zero.avg_rating, "{} vs {}", one.avg_rating, zero.avg_rating);
    }
}
