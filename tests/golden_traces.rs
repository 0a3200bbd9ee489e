//! Golden-trace regression suite: fixed-seed attack outcomes pinned to
//! committed JSON files.
//!
//! Every attack in the repertoire (MSOPDS and the §VI-A.5 baselines) is run
//! on one frozen world and its two paper metrics — HR@10 lift and prediction
//! shift of the target item — are compared against `tests/golden/<method>.json`
//! within an absolute tolerance of 1e-6. The whole pipeline is deterministic
//! and bit-identical across kernel backends and lane counts (the victim uses
//! attention convolution, which materializes identically under `Dense` and
//! `Sparse` GraphOps), so any drift beyond rounding is a behaviour change —
//! an optimisation that reorders floating-point math, a planner tweak, a
//! dataset-generator edit — and must be reviewed, not absorbed.
//!
//! To re-bless after an *intentional* change:
//!
//! ```text
//! MSOPDS_BLESS=1 cargo test --test golden_traces
//! ```
//!
//! then inspect the diff of `tests/golden/*.json` and commit it. See
//! `tests/README.md` for the policy.

mod common;

use std::path::PathBuf;

use msopds::prelude::*;
use msopds::recsys::metrics::{avg_predicted_rating, hit_rate_at_k};
use msopds::recsys::{HetRec, HetRecConfig};
use serde::{Deserialize, Serialize};

/// Absolute per-metric tolerance. The pipeline is bit-deterministic, so this
/// only has to absorb JSON round-off of the printed decimals.
const TOL: f64 = 1e-6;

/// Ranking depth for the golden hit-rate (HR@10 over a 15-item pool).
const K: usize = 10;

/// One attack's pinned outcome. Metrics are measured on a freshly retrained
/// victim exactly as `score_world` trains it; `clean_*` columns come from the
/// same victim config fitted on the unpoisoned world.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct GoldenTrace {
    method: String,
    attacker_actions: usize,
    opponent_actions: usize,
    clean_hr_at_10: f64,
    poisoned_hr_at_10: f64,
    hr_lift_at_10: f64,
    clean_avg_rating: f64,
    poisoned_avg_rating: f64,
    prediction_shift: f64,
}

fn bless() -> bool {
    std::env::var("MSOPDS_BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn golden_path(slug: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{slug}.json"))
}

/// The frozen world every golden trace runs on.
fn fixture() -> &'static (Dataset, Market) {
    common::world(13, 5, 1)
}

/// A deterministic 15-item ranking pool: the target plus its 14 nearest
/// competitors by raw average rating in the clean data (ascending distance,
/// item id as tiebreak). The sampled market's own competing pool can be as
/// small as 8 items at this scale — too shallow for a meaningful HR@10 — and
/// any broad pool pins the target (by construction the worst-rated item, it
/// sits around rank 150 of 159 on the clean victim) at the bottom for every
/// method. Ranking it against its own low-rated weight class keeps HR@10 in
/// the interior, where drift is actually visible.
fn competing_pool(data: &Dataset, target: usize) -> Vec<usize> {
    let target_mean = data.ratings.item_mean(target).expect("target is rated");
    let mut items: Vec<usize> =
        (0..data.n_items()).filter(|&i| i != target && data.ratings.item_degree(i) > 0).collect();
    items.sort_by(|&a, &b| {
        let da = (data.ratings.item_mean(a).unwrap() - target_mean).abs();
        let db = (data.ratings.item_mean(b).unwrap() - target_mean).abs();
        da.total_cmp(&db).then(a.cmp(&b))
    });
    items.truncate(14);
    items.push(target);
    items.sort_unstable();
    items
}

/// Trains the evaluation victim on `world` with the exact config
/// `score_world` uses (same derived seed), so golden metrics match what the
/// game reports.
fn eval_victim(world: &Dataset, cfg: &GameConfig) -> HetRec {
    let victim_cfg = HetRecConfig { seed: cfg.seed.wrapping_add(97), ..cfg.victim };
    let mut victim = HetRec::new(victim_cfg, world.n_users(), world.n_items());
    victim.fit(world);
    victim
}

/// The clean reference: the evaluation victim fitted on the unpoisoned
/// world, with its two metrics. Built once per test binary.
fn clean_reference() -> &'static (f64, f64) {
    use std::sync::OnceLock;
    static CLEAN: OnceLock<(f64, f64)> = OnceLock::new();
    CLEAN.get_or_init(|| {
        let (data, market) = fixture();
        let victim = eval_victim(data, &common::tiny_game_cfg());
        let pool = competing_pool(data, market.target_item);
        (
            hit_rate_at_k(&victim, &market.target_audience, market.target_item, &pool, K),
            avg_predicted_rating(&victim, &market.target_audience, market.target_item),
        )
    })
}

fn check(method: &str, field: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() <= TOL,
        "golden-trace drift for {method} / {field}: got {got:.12}, golden {want:.12} \
         (|Δ| = {:.3e} > tol {TOL:.0e}).\n\
         The pipeline is bit-deterministic, so this is a behaviour change. If it is\n\
         intentional, re-bless the goldens and commit the diff:\n\n    \
         MSOPDS_BLESS=1 cargo test --test golden_traces\n",
        (got - want).abs()
    );
}

/// Runs `method` on the frozen world, measures its trace, and either blesses
/// `tests/golden/<slug>.json` (`MSOPDS_BLESS=1`) or asserts against it.
fn run_trace(method: AttackMethod, slug: &str) {
    let (data, market) = fixture();
    let cfg = common::tiny_game_cfg();
    let pool = competing_pool(data, market.target_item);
    let &(clean_hr, clean_rbar) = clean_reference();

    let played = msopds::gameplay::play_world(data, market, method, &cfg);
    let victim = eval_victim(&played.world, &cfg);
    let hr = hit_rate_at_k(&victim, &market.target_audience, market.target_item, &pool, K);
    let rbar = avg_predicted_rating(&victim, &market.target_audience, market.target_item);

    let trace = GoldenTrace {
        method: method.name(),
        attacker_actions: played.attacker_actions,
        opponent_actions: played.opponent_actions,
        clean_hr_at_10: clean_hr,
        poisoned_hr_at_10: hr,
        hr_lift_at_10: hr - clean_hr,
        clean_avg_rating: clean_rbar,
        poisoned_avg_rating: rbar,
        prediction_shift: rbar - clean_rbar,
    };

    let path = golden_path(slug);
    if bless() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let json = serde_json::to_string_pretty(&trace).unwrap();
        std::fs::write(&path, json + "\n").unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }

    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}).\nGenerate it with:\n\n    \
             MSOPDS_BLESS=1 cargo test --test golden_traces\n",
            path.display()
        )
    });
    let want: GoldenTrace = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("unparseable golden file {}: {e:?}", path.display()));

    assert_eq!(trace.method, want.method, "method name changed for {slug}");
    assert_eq!(
        trace.attacker_actions, want.attacker_actions,
        "attacker action count changed for {slug} (golden {}, got {})",
        want.attacker_actions, trace.attacker_actions
    );
    assert_eq!(
        trace.opponent_actions, want.opponent_actions,
        "opponent action count changed for {slug}"
    );
    check(slug, "clean_hr_at_10", trace.clean_hr_at_10, want.clean_hr_at_10);
    check(slug, "poisoned_hr_at_10", trace.poisoned_hr_at_10, want.poisoned_hr_at_10);
    check(slug, "hr_lift_at_10", trace.hr_lift_at_10, want.hr_lift_at_10);
    check(slug, "clean_avg_rating", trace.clean_avg_rating, want.clean_avg_rating);
    check(slug, "poisoned_avg_rating", trace.poisoned_avg_rating, want.poisoned_avg_rating);
    check(slug, "prediction_shift", trace.prediction_shift, want.prediction_shift);
}

/// One detector pipeline's pinned outcome on the frozen flood world: exact
/// per-stage ban counts plus the §VI-A.6 metrics of the victim retrained on
/// the scrubbed world. Integer columns are compared exactly; float columns
/// within [`TOL`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DetectorGolden {
    spec: String,
    stages: Vec<String>,
    banned_per_stage: Vec<usize>,
    rounds_per_stage: Vec<usize>,
    total_banned: usize,
    poisoned_ratings: usize,
    scrubbed_ratings: usize,
    defended_hr_at_10: f64,
    defended_avg_rating: f64,
    hr_lift_at_10: f64,
    prediction_shift: f64,
}

/// The frozen detector fixture: the golden world plus a 6-account 5★ flood
/// cohort promoting the market's target item — fully deterministic (no RNG),
/// blatant enough that the degree and spectral stages fire.
fn flooded_fixture() -> &'static Dataset {
    use std::sync::OnceLock;
    static FLOODED: OnceLock<Dataset> = OnceLock::new();
    FLOODED.get_or_init(|| {
        let (data, market) = fixture();
        let mut poisoned = data.clone();
        let fakes = poisoned.add_fake_users(6);
        let mut actions = Vec::new();
        for &f in &fakes {
            actions.push(msopds::recdata::PoisonAction::Rating {
                user: f as u32,
                item: market.target_item as u32,
                value: 5.0,
            });
            for item in 0..40u32 {
                if item as usize != market.target_item {
                    actions.push(msopds::recdata::PoisonAction::Rating {
                        user: f as u32,
                        item,
                        value: 5.0,
                    });
                }
            }
        }
        poisoned.apply_poison(&actions)
    })
}

/// Runs detector pipeline `spec` on the flood fixture and pins its trace to
/// `tests/golden/detector_<slug>.json`.
fn run_detector_trace(spec: &str, slug: &str) {
    let (_, market) = fixture();
    let cfg = common::tiny_game_cfg();
    let world = flooded_fixture();
    let pool = competing_pool(&fixture().0, market.target_item);
    let &(clean_hr, clean_rbar) = clean_reference();

    let policy = msopds::gameplay::ShadowBanPolicy::from_spec(spec).expect("valid spec");
    let (scrubbed, reports) = policy.run(world);
    let victim = eval_victim(&scrubbed, &cfg);
    let hr = hit_rate_at_k(&victim, &market.target_audience, market.target_item, &pool, K);
    let rbar = avg_predicted_rating(&victim, &market.target_audience, market.target_item);

    let trace = DetectorGolden {
        spec: spec.to_string(),
        stages: reports.iter().map(|r| r.detector.clone()).collect(),
        banned_per_stage: reports.iter().map(|r| r.banned.len()).collect(),
        rounds_per_stage: reports.iter().map(|r| r.rounds).collect(),
        total_banned: reports.iter().map(|r| r.banned.len()).sum(),
        poisoned_ratings: world.ratings.len(),
        scrubbed_ratings: scrubbed.ratings.len(),
        defended_hr_at_10: hr,
        defended_avg_rating: rbar,
        hr_lift_at_10: hr - clean_hr,
        prediction_shift: rbar - clean_rbar,
    };

    let path = golden_path(&format!("detector_{slug}"));
    if bless() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let json = serde_json::to_string_pretty(&trace).unwrap();
        std::fs::write(&path, json + "\n").unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }

    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}).\nGenerate it with:\n\n    \
             MSOPDS_BLESS=1 cargo test --test golden_traces\n",
            path.display()
        )
    });
    let want: DetectorGolden = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("unparseable golden file {}: {e:?}", path.display()));

    assert_eq!(trace.spec, want.spec);
    assert_eq!(trace.stages, want.stages, "stage list changed for {slug}");
    assert_eq!(
        trace.banned_per_stage, want.banned_per_stage,
        "exact ban counts changed for {slug}"
    );
    assert_eq!(trace.rounds_per_stage, want.rounds_per_stage, "round counts changed for {slug}");
    assert_eq!(trace.total_banned, want.total_banned);
    assert_eq!(trace.poisoned_ratings, want.poisoned_ratings);
    assert_eq!(trace.scrubbed_ratings, want.scrubbed_ratings, "scrub size changed for {slug}");
    check(slug, "defended_hr_at_10", trace.defended_hr_at_10, want.defended_hr_at_10);
    check(slug, "defended_avg_rating", trace.defended_avg_rating, want.defended_avg_rating);
    check(slug, "hr_lift_at_10", trace.hr_lift_at_10, want.hr_lift_at_10);
    check(slug, "prediction_shift", trace.prediction_shift, want.prediction_shift);
}

#[test]
fn golden_msopds() {
    run_trace(AttackMethod::Msopds(ActionToggles::all()), "msopds");
}

#[test]
fn golden_pga() {
    run_trace(AttackMethod::Baseline(Baseline::Pga), "pga");
}

#[test]
fn golden_revadv() {
    run_trace(AttackMethod::Baseline(Baseline::RevAdv), "revadv");
}

#[test]
fn golden_s_attack() {
    run_trace(AttackMethod::Baseline(Baseline::SAttack), "s_attack");
}

#[test]
fn golden_popular_heuristic() {
    run_trace(AttackMethod::Baseline(Baseline::Popular), "popular");
}

#[test]
fn golden_influence() {
    run_trace(AttackMethod::Baseline(Baseline::Influence), "influence");
}

#[test]
fn golden_dl_attack() {
    run_trace(AttackMethod::Baseline(Baseline::DlAttack), "dl_attack");
}

#[test]
fn golden_detector_degree() {
    run_detector_trace("degree", "degree");
}

#[test]
fn golden_detector_distribution() {
    run_detector_trace("distribution", "distribution");
}

#[test]
fn golden_detector_chi2() {
    run_detector_trace("chi2", "chi2");
}

#[test]
fn golden_detector_spectral() {
    run_detector_trace("spectral", "spectral");
}

#[test]
fn golden_detector_composed() {
    run_detector_trace("composed", "composed");
}

#[test]
fn golden_moderator() {
    run_detector_trace("moderator", "moderator");
}
