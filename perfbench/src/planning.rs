//! The planning workloads: `plan-mca` (full MSOPDS games, the paper's
//! system) and `zoo-cell` (one Influence and one DLAttack game, each through
//! the composed shadow-ban moderator).
//!
//! Both are closed loops with one caller, cycling through a fixed set of
//! game seeds derived from the workload seed. The first play of each seed
//! pins its outcome; every later play must reproduce it bit for bit. The
//! traced run plays each operation twice — once through the public game
//! entry point with telemetry off, once replayed call by call from the
//! layers' public functions with telemetry on — and the two outcomes must
//! agree exactly.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use msopds_attacks::{Baseline, IaContext};
use msopds_core::{
    build_ca_capacity, plan_bopds, plan_msopds, prepare_planning_data, ActionToggles,
    BuiltCapacity, CaCapacitySpec, Objective, PlayerSetup,
};
use msopds_gameplay::{
    ranking_pool, run_defended_game_with, run_game, AttackMethod, GameConfig, GameOutcome,
    ShadowBanPolicy,
};
use msopds_recdata::{Dataset, Market, PoisonAction};
use msopds_recsys::metrics::{avg_predicted_rating, hit_rate_at_k};
use msopds_recsys::{Backend, HetRec, HetRecConfig};
use msopds_telemetry as telemetry;
use msopds_xp::{materialize, DatasetKind, XpConfig};
use rand::SeedableRng;

use crate::measure::{counter, game_seeds, median, span_secs, LayerTimes, Outcome};
use crate::report::Report;
use crate::Args;

/// Setup repetitions per run: at least `SETUP_REPS`, and more until they
/// add up to `SETUP_SECS` (a `plan-mca` set-up takes milliseconds);
/// `setup_s` is their median.
const SETUP_REPS: usize = 9;
const SETUP_SECS: f64 = 1.5;
/// Untimed warm-up per run (at least one operation).
const WARMUP: Duration = Duration::from_secs(2);

/// The two planning workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// MSOPDS under MCA against two opponents.
    Mca,
    /// Influence + DLAttack through the composed moderator, one opponent.
    Zoo,
}

impl Kind {
    fn opponents(self) -> usize {
        match self {
            Kind::Mca => 2,
            Kind::Zoo => 1,
        }
    }

    /// Game seeds cycled per run: about as many as a run plays, so each
    /// run samples the spread of game cost and peak memory across seeds
    /// (a few seeds need ~30% more memory than the rest) instead of
    /// depending on which handful it drew. The warm-up's seeds come round
    /// again at the end of the run; that repeat is the determinism oracle.
    fn seed_count(self) -> usize {
        match self {
            Kind::Mca => 5,
            Kind::Zoo => 40,
        }
    }

    fn methods(self) -> Vec<AttackMethod> {
        match self {
            Kind::Mca => vec![AttackMethod::Msopds(ActionToggles::all())],
            Kind::Zoo => vec![
                AttackMethod::Baseline(Baseline::Influence),
                AttackMethod::Baseline(Baseline::DlAttack),
            ],
        }
    }

    fn policy(self) -> Option<ShadowBanPolicy> {
        match self {
            Kind::Mca => None,
            Kind::Zoo => Some(ShadowBanPolicy::composed()),
        }
    }
}

/// One game seed's inputs.
struct Input {
    data: Dataset,
    market: Market,
    cfg: GameConfig,
}

/// `XpConfig::quick()` (Ciao at 1/24 scale) with every environment-driven
/// default pinned.
fn xp_config(args: &Args) -> XpConfig {
    XpConfig {
        scale: if args.tiny { 48.0 } else { 24.0 },
        datasets: vec![DatasetKind::Ciao],
        threads: args.lanes,
        backend: Backend::Dense,
        ..XpConfig::quick()
    }
}

fn game_config(xp: &XpConfig, seed: u64, kind: Kind, args: &Args) -> GameConfig {
    let mut cfg = xp.game(seed);
    cfg.n_opponents = kind.opponents();
    cfg.kernel_threads = args.lanes;
    if args.tiny {
        cfg.planner.mso.iters = 2;
        cfg.opponent_planner.mso.iters = 2;
        cfg.victim.epochs = 5;
    }
    cfg
}

fn build_inputs(xp: &XpConfig, seeds: &[u64], kind: Kind, args: &Args) -> Vec<Input> {
    seeds
        .iter()
        .map(|&seed| {
            let (data, market) = materialize(DatasetKind::Ciao, xp, seed, kind.opponents());
            Input { data, market, cfg: game_config(xp, seed, kind, args) }
        })
        .collect()
}

fn record(out: &mut Outcome, o: &GameOutcome, bans: u64) {
    out.floats.extend([o.avg_rating, o.hit_rate_at_3, o.hit_rate_at_10, o.victim_rmse]);
    out.counts.extend([o.attacker_actions as u64, o.opponent_actions as u64, bans]);
}

/// One operation through the public game entry points.
fn play(kind: Kind, input: &Input, policy: Option<&ShadowBanPolicy>) -> Outcome {
    let mut out = Outcome { floats: Vec::new(), counts: Vec::new() };
    for method in kind.methods() {
        match policy {
            Some(policy) => {
                let (o, reports) =
                    run_defended_game_with(&input.data, &input.market, method, &input.cfg, policy);
                let bans = reports.iter().map(|r| r.banned.len() as u64).sum();
                record(&mut out, &o, bans);
            }
            None => {
                let o = run_game(&input.data, &input.market, method, &input.cfg);
                record(&mut out, &o, 0);
            }
        }
    }
    out
}

/// What a traced replay measured besides the layer timers.
#[derive(Default)]
struct Traced {
    lt: LayerTimes,
    correction_s: f64,
    cg_s: f64,
}

fn demote(market: &Market, capacity: BuiltCapacity) -> PlayerSetup {
    PlayerSetup {
        capacity,
        objective: Objective::Demote {
            audience: market.target_audience.clone(),
            target: market.target_item,
        },
    }
}

/// One game replayed from the layers' public calls, in the order and with
/// the arguments `play_world` + `score_world` use, each call timed.
fn replay_game(
    method: AttackMethod,
    input: &Input,
    policy: Option<&ShadowBanPolicy>,
    tr: &mut Traced,
    out: &mut Outcome,
) {
    let (base, market, cfg) = (&input.data, &input.market, &input.cfg);
    let lt = &mut tr.lt;
    if cfg.kernel_threads > 0 {
        msopds_autograd::pool::configure_threads(cfg.kernel_threads);
    }
    let mut world = lt.time("recdata.clone", || base.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed.wrapping_add(0x5eed));

    let attacker_plan: Vec<PoisonAction> = match method {
        AttackMethod::Baseline(b) => {
            let ctx = IaContext { seed: cfg.seed, ..IaContext::scaled(cfg.attacker_b, cfg.scale) };
            let layer = match b {
                Baseline::Influence => "attacks.influence_plan",
                Baseline::DlAttack => "attacks.dlattack_plan",
                _ => "attacks.other_plan",
            };
            lt.time(layer, || b.plan(&mut world, &ctx, market.target_item, &cfg.planner, &mut rng))
        }
        AttackMethod::Msopds(toggles) => {
            let spec = CaCapacitySpec { toggles, ..CaCapacitySpec::promote(cfg.attacker_b) };
            let capacity = lt.time("core.build_ca_capacity", || {
                build_ca_capacity(&mut world, &market.players[0], market.target_item, &spec)
            });
            let attacker = PlayerSetup {
                capacity,
                objective: Objective::Comprehensive {
                    audience: market.target_audience.clone(),
                    target: market.target_item,
                    competing: market.competing_items.clone(),
                },
            };
            let mut anticipation = lt.time("recdata.clone", || world.clone());
            let opponents: Vec<PlayerSetup> = (0..cfg.n_opponents)
                .map(|i| {
                    let assets = &market.players[(1 + i).min(market.players.len() - 1)];
                    let cap = lt.time("core.build_ca_capacity", || {
                        build_ca_capacity(
                            &mut anticipation,
                            assets,
                            market.target_item,
                            &CaCapacitySpec::demote(cfg.opponent_b),
                        )
                    });
                    demote(market, cap)
                })
                .collect();
            let caps: Vec<&BuiltCapacity> = std::iter::once(&attacker.capacity)
                .chain(opponents.iter().map(|o| &o.capacity))
                .collect();
            let planning =
                lt.time("recdata.apply_poison", || prepare_planning_data(&anticipation, &caps));
            let before = telemetry::report();
            let plan = lt.time("core.plan_msopds", || {
                plan_msopds(&planning, &attacker, &opponents, &cfg.planner)
            });
            let after = telemetry::report();
            tr.correction_s +=
                span_secs(&after, "iter/correction") - span_secs(&before, "iter/correction");
            for cg in ["correction/cg", "correction/cg_multi"] {
                tr.cg_s += span_secs(&after, cg) - span_secs(&before, cg);
            }
            plan.full_plan
        }
        AttackMethod::Bopds(_) => unreachable!("no workload plays BOPDS as the attacker"),
    };
    world = lt.time("recdata.apply_poison", || world.apply_poison(&attacker_plan));

    let mut opponent_actions = 0usize;
    for i in 0..cfg.n_opponents {
        let assets = &market.players[(1 + i).min(market.players.len() - 1)];
        let mut opp_world = lt.time("recdata.clone", || world.clone());
        let capacity = lt.time("core.build_ca_capacity", || {
            build_ca_capacity(
                &mut opp_world,
                assets,
                market.target_item,
                &CaCapacitySpec::demote(cfg.opponent_b),
            )
        });
        let opponent = demote(market, capacity);
        let planning =
            lt.time("recdata.apply_poison", || opp_world.apply_poison(&opponent.capacity.fixed));
        let plan = lt
            .time("core.plan_bopds", || plan_bopds(&planning, &opponent, &cfg.opponent_planner))
            .full_plan;
        opponent_actions += plan.len();
        world = lt.time("recdata.apply_poison", || world.apply_poison(&plan));
    }

    let (world, bans) = match policy {
        Some(policy) => {
            let (moderated, reports) = lt.time("gameplay.detect", || policy.run(&world));
            (moderated, reports.iter().map(|r| r.banned.len() as u64).sum())
        }
        None => (world, 0),
    };
    let victim_cfg = HetRecConfig { seed: cfg.seed.wrapping_add(97), ..cfg.victim };
    let mut victim = HetRec::new(victim_cfg, world.n_users(), world.n_items());
    lt.time("recsys.hetrec_fit", || victim.fit(&world));
    let floats = lt.time("recsys.score", || {
        let audience = &market.target_audience;
        [
            avg_predicted_rating(&victim, audience, market.target_item),
            hit_rate_at_k(&victim, audience, market.target_item, &market.competing_items, 3),
            hit_rate_at_k(&victim, audience, market.target_item, &ranking_pool(&world, market), 10),
            victim.rmse(&world),
        ]
    });
    out.floats.extend(floats);
    out.counts.extend([attacker_plan.len() as u64, opponent_actions as u64, bans]);
}

fn replay(kind: Kind, input: &Input, policy: Option<&ShadowBanPolicy>, tr: &mut Traced) -> Outcome {
    let mut out = Outcome { floats: Vec::new(), counts: Vec::new() };
    for method in kind.methods() {
        replay_game(method, input, policy, tr, &mut out);
    }
    out
}

/// Checks `out` against the seed's pinned outcome, pinning it (and printing
/// its digest) on first play.
fn check_pinned(pinned: &mut Option<Outcome>, seed: u64, out: &Outcome) -> bool {
    match pinned {
        Some(p) => {
            let ok = p.matches(out);
            if !ok {
                eprintln!("perfbench: seed {seed} outcome changed between plays\n  first: {}\n  now:   {}", p.digest(), out.digest());
            }
            ok
        }
        None => {
            println!("outcome seed={seed} {}", out.digest());
            *pinned = Some(out.clone());
            true
        }
    }
}

/// Runs one planning workload for `args.seconds` and fills `report`.
pub fn run(kind: Kind, args: &Args, report: &mut Report) {
    let xp = xp_config(args);
    let seeds = game_seeds(args.seed, kind.seed_count());
    let policy = kind.policy();

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut inputs = Vec::new();
    while setup.len() < SETUP_REPS || setup.iter().sum::<f64>() < SETUP_SECS {
        let start = Instant::now();
        inputs = build_inputs(&xp, &seeds, kind, args);
        setup.push(start.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&setup), setup.len());

    // Warm-up: a process's first operations page in the tape's memory and
    // start the kernel pool. They are played, and pin their seeds'
    // outcomes, but not timed.
    let mut pinned: Vec<Option<Outcome>> = vec![None; seeds.len()];
    let warm_until = Instant::now() + WARMUP;
    let mut i = 0;
    while i == 0 || Instant::now() < warm_until {
        let idx = i % seeds.len();
        let out = play(kind, &inputs[idx], policy.as_ref());
        report.op(check_pinned(&mut pinned[idx], seeds[idx], &out));
        i += 1;
    }

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut op_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut covered, mut replayed) = (0.0, 0.0);
    while op_secs.is_empty() || Instant::now() < deadline {
        let (idx, seed) = (i % seeds.len(), seeds[i % seeds.len()]);
        let input = &inputs[idx];
        telemetry::set_enabled(false);
        let start = Instant::now();
        let out = play(kind, input, policy.as_ref());
        let secs = start.elapsed().as_secs_f64();
        eprintln!("op {i} seed {seed}: {:.1} ms", secs * 1e3);
        op_secs.push(secs);
        report.op(check_pinned(&mut pinned[idx], seed, &out));

        if args.traced {
            telemetry::reset();
            telemetry::set_enabled(true);
            let mut tr = Traced::default();
            let start = Instant::now();
            let again = replay(kind, input, policy.as_ref(), &mut tr);
            let wall = start.elapsed().as_secs_f64();
            let tel = telemetry::report();
            telemetry::set_enabled(false);
            let same = out.matches(&again);
            if !same {
                eprintln!(
                    "perfbench: seed {seed} replay differs from the game entry point\n  game:   {}\n  replay: {}",
                    out.digest(),
                    again.digest()
                );
            }
            report.op(same);
            traced_secs.push(wall);
            covered += tr.lt.total();
            replayed += wall;
            collect_layers(&mut layers, &tr, &tel, &again);
        }
        i += 1;
    }

    let ops = op_secs.len();
    report.set("op_p50_ms", median(&op_secs) * 1e3, ops);
    report.set("ops_per_s", ops as f64 / op_secs.iter().sum::<f64>(), ops);
    if args.traced {
        for (name, values) in &layers {
            report.set(name, median(values), values.len());
        }
        let unaccounted = 100.0 * (1.0 - covered / replayed);
        report.set("trace.unaccounted_pct", unaccounted, traced_secs.len());
        if unaccounted > 10.0 {
            report.violation(format!(
                "timed layers cover only {:.1}% of the replayed operations",
                100.0 - unaccounted
            ));
        }
        let (t, u) = (median(&traced_secs), median(&op_secs));
        report.set("telemetry.overhead_pct", 100.0 * (t - u) / u, traced_secs.len());
    }
}

/// Per-operation layer numbers of one traced replay.
fn collect_layers(
    layers: &mut BTreeMap<&'static str, Vec<f64>>,
    tr: &Traced,
    tel: &telemetry::MetricsReport,
    out: &Outcome,
) {
    let lt = &tr.lt;
    let hits = counter(tel, "autograd.buffer_pool.hits") as f64;
    let lookups = hits + counter(tel, "autograd.buffer_pool.misses") as f64;
    let bans: u64 = out.counts.chunks(3).map(|c| c[2]).sum();
    let values: [(&'static str, f64); 20] = [
        ("core.plan_msopds_s", lt.get("core.plan_msopds")),
        ("core.plan_bopds_s", lt.get("core.plan_bopds")),
        ("core.build_ca_capacity_ms", lt.get("core.build_ca_capacity") * 1e3),
        ("core.mso.correction_s", tr.correction_s),
        ("core.mso.cg_s", tr.cg_s),
        ("core.mso.iterations", counter(tel, "core.mso.iterations") as f64),
        ("core.mso.follower_exclusions", counter(tel, "core.mso.follower_exclusions") as f64),
        ("autograd.tape_ops", counter(tel, "autograd.tape.ops") as f64),
        ("autograd.hvp_products", counter(tel, "autograd.hvp.products") as f64),
        ("autograd.cg_iterations", counter(tel, "autograd.cg.iterations") as f64),
        ("autograd.cg_solves", counter(tel, "autograd.cg.solves") as f64),
        ("autograd.buffer_pool_hit_ratio", if lookups > 0.0 { hits / lookups } else { 0.0 }),
        ("autograd.buffer_pool_lookups", lookups),
        ("recsys.hetrec_fit_s", lt.get("recsys.hetrec_fit")),
        ("recsys.pds_unroll_steps", counter(tel, "recsys.pds.unroll_steps") as f64),
        ("recdata.apply_poison_ms", lt.get("recdata.apply_poison") * 1e3),
        ("attacks.influence_plan_s", lt.get("attacks.influence_plan")),
        ("attacks.dlattack_plan_s", lt.get("attacks.dlattack_plan")),
        ("gameplay.detect_ms", lt.get("gameplay.detect") * 1e3),
        ("gameplay.banned_accounts", bans as f64),
    ];
    for (name, v) in values {
        layers.entry(name).or_default().push(v);
    }
}
