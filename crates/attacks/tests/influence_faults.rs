//! CG-failure drills for the influence attack: an unusable `SolveStatus`
//! must degrade the estimate (raw-gradient ordering), never abort the run.
//!
//! Requires `--features fault-injection`; without it the whole file is
//! compiled out.
#![cfg(feature = "fault-injection")]

use std::sync::Mutex;

use msopds_attacks::common::{inject_fakes, IaContext};
use msopds_attacks::{influence_attack, influence_scores, InfluenceConfig};
use msopds_autograd::cg::SolveStatus;
use msopds_faultline as faultline;
use msopds_recdata::{DatasetSpec, PoisonAction};
use msopds_recsys::Backend;
use rand::SeedableRng;

/// Fault plans are process-global; drills must not overlap.
static ARMED: Mutex<()> = Mutex::new(());

fn with_plan<T>(plan: &str, f: impl FnOnce() -> T) -> T {
    let _guard = ARMED.lock().unwrap_or_else(|e| e.into_inner());
    faultline::set_plan(Some(faultline::FaultPlan::parse(plan).expect("valid plan")));
    let out = f();
    faultline::set_plan(None);
    out
}

#[test]
fn nan_rhs_degrades_scores_to_raw_gradient() {
    let mut data = DatasetSpec::micro().generate(7);
    let ctx = IaContext { b: 2, fillers_per_fake: 3, candidate_pool: 6, seed: 0 };
    let (fakes, _) = inject_fakes(&mut data, &ctx, 0);
    let pool: Vec<usize> = vec![1, 2, 3, 5, 8, 13];

    let (scores, diag) = with_plan("seed=1;cg.solve.rhs=nan@1.0", || {
        influence_scores(
            &data,
            fakes[0],
            &pool,
            0,
            &InfluenceConfig::default(),
            Backend::default(),
            0,
        )
    });
    assert!(diag.degraded, "NaN right-hand side must degrade the solve");
    assert_eq!(diag.status, SolveStatus::NonFiniteRhs);
    assert_eq!(scores.len(), pool.len());
    // Degraded scores are the sanitized raw gradient — always sortable.
    assert!(scores.iter().all(|s| s.is_finite()));

    // Clean control run on the same inputs is not degraded.
    let (_, clean) = influence_scores(
        &data,
        fakes[0],
        &pool,
        0,
        &InfluenceConfig::default(),
        Backend::default(),
        0,
    );
    assert!(!clean.degraded);
}

#[test]
fn degraded_solve_still_fills_the_attack_budget() {
    let plan = with_plan("seed=2;cg.solve.rhs=nan@1.0", || {
        let mut data = DatasetSpec::micro().generate(3);
        let ctx = IaContext { b: 3, fillers_per_fake: 4, candidate_pool: 12, seed: 1 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        influence_attack(
            &mut data,
            &ctx,
            0,
            &InfluenceConfig::default(),
            Backend::default(),
            &mut rng,
        )
    });
    // The attack survives the breakdown and still emits a full-budget,
    // well-formed plan.
    let ctx = IaContext { b: 3, fillers_per_fake: 4, candidate_pool: 12, seed: 1 };
    let n_fake = ctx.fake_count(60);
    assert_eq!(plan.len(), n_fake + n_fake * ctx.fillers_per_fake);
    for a in &plan {
        match a {
            PoisonAction::Rating { value, .. } => assert!((1.0..=5.0).contains(value)),
            other => panic!("unexpected action {other:?}"),
        }
    }
}

#[test]
fn intermittent_faults_never_panic_the_attack() {
    // A 50 %-rate NaN corruption flips between degraded and clean solves;
    // every run must still produce a valid plan.
    with_plan("seed=9;cg.solve.rhs=nan@0.5", || {
        for seed in 0..4 {
            let mut data = DatasetSpec::micro().generate(seed);
            let ctx = IaContext { b: 2, fillers_per_fake: 3, candidate_pool: 8, seed };
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let plan = influence_attack(
                &mut data,
                &ctx,
                1,
                &InfluenceConfig::default(),
                Backend::default(),
                &mut rng,
            );
            assert!(!plan.is_empty());
        }
    });
}
