//! `autograd.hvp.products` counts every second-order product the planner
//! takes. Counters are process-global, so this check has its own binary.

use msopds_autograd::{Tape, Tensor};
use msopds_core::{mso_optimize, BuiltGame, MsoConfig, StackelbergGame};
use msopds_telemetry as telemetry;

/// Two cross-coupled followers on 3-vectors, with unequal curvatures so CG
/// takes several iterations per solve.
struct TwoFollowers;

impl StackelbergGame for TwoFollowers {
    fn build<'t>(&self, tape: &'t Tape, xp: &Tensor, xqs: &[Tensor]) -> BuiltGame<'t> {
        let w = |v: [f64; 3]| tape.constant(Tensor::from_vec(v.to_vec(), &[3]));
        let (xpv, q1, q2) =
            (tape.leaf(xp.clone()), tape.leaf(xqs[0].clone()), tape.leaf(xqs[1].clone()));
        let lp = xpv.add_scalar(-1.0).square().add(xpv.mul(q1.add(q2)).scale(0.3)).sum();
        let lq1 = q1.sub(xpv.scale(0.7)).square().mul(w([1.0, 3.0, 9.0])).add(q1.mul(q2).square());
        let lq2 = q2.sub(xpv.scale(0.5)).square().mul(w([2.0, 5.0, 0.5])).add(q2.mul(q1));
        BuiltGame { xp: xpv, xqs: vec![q1, q2], lp, lqs: vec![lq1.sum(), lq2.sum()] }
    }
}

fn hvp_products() -> u64 {
    telemetry::report().counter("autograd.hvp.products").map_or(0, |c| c.value)
}

#[test]
fn hvp_counter_matches_cg_iterations_plus_corrections() {
    telemetry::set_enabled(true);
    let iters = 6;
    let cfg = MsoConfig { eta_p: 0.03, eta_q: 0.3, iters, ..Default::default() };
    let xp = Tensor::from_vec(vec![0.1, -0.2, 0.3], &[3]);
    let xqs = vec![Tensor::from_vec(vec![0.2, 0.0, -0.1], &[3]); 2];

    let before = hvp_products();
    let run = mso_optimize(&TwoFollowers, xp, xqs, &cfg);
    let delta = hvp_products() - before;

    assert!(run.diagnostics.exclusions.is_empty(), "{:?}", run.diagnostics.exclusions);
    let cg: usize = run.diagnostics.cg_iterations.iter().sum();
    assert!(cg > 2 * iters, "CG should take several iterations per solve, took {cg}");
    // One product per CG iteration, plus one mixed product per applied
    // correction (both followers, every round). Holds only with no unusable
    // solve (asserted above): those report 0 iterations but count products.
    assert_eq!(delta, (cg + 2 * iters) as u64);
}
