//! Inside the planner: Progressive Differentiable Surrogate gradients.
//!
//! Demonstrates the machinery of Algorithm 1 directly on the public API:
//! record a PDS training run, differentiate the CA loss with respect to the
//! binarized importance vector, inspect per-action-type gradient magnitudes,
//! and run the conjugate-gradient Stackelberg correction of step 9 by hand.
//!
//! ```text
//! cargo run --release --example surrogate_gradients
//! ```

use msopds::autograd::hvp::grad_dot_products;
use msopds::autograd::{conjugate_gradient, Tape, Tensor};
use msopds::core::{build_ca_capacity, CaCapacitySpec};
use msopds::prelude::*;
use msopds::recsys::losses::{ca_loss, demotion_loss};
use msopds::recsys::pds::{build_pds, PdsConfig, PlayerInput};
use rand::SeedableRng;

fn main() {
    let scale = 24.0;
    let mut data = DatasetSpec::ciao().scaled(scale).generate(2);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let market = sample_market(&data, &DemographicsSpec::default().scaled(scale), 1, &mut rng);

    // Build the attacker's CA capacity (eq. 6) and the opponent's demotion
    // capacity; both inject their candidates into the surrogate.
    let atk = build_ca_capacity(
        &mut data,
        &market.players[0],
        market.target_item,
        &CaCapacitySpec::promote(5),
    );
    let opp = build_ca_capacity(
        &mut data,
        &market.players[1],
        market.target_item,
        &CaCapacitySpec::demote(2),
    );
    let planning = data.apply_poison(&atk.fixed);
    println!(
        "attacker capacity: {} candidates in {} budget groups (+{} fixed fake ratings)",
        atk.importance.len(),
        atk.importance.groups.len(),
        atk.fixed.len()
    );

    // Record one PDS training run with both players' binarized vectors.
    let tape = Tape::new();
    let pds = build_pds(
        &tape,
        &planning,
        &[
            PlayerInput { candidates: &atk.importance.candidates, xhat: atk.importance.binarize() },
            PlayerInput { candidates: &opp.importance.candidates, xhat: opp.importance.binarize() },
        ],
        &PdsConfig::default(),
    );
    println!(
        "PDS inner losses: {:?}",
        pds.inner_losses.iter().map(|l| (l * 100.0).round() / 100.0).collect::<Vec<_>>()
    );
    println!("tape holds {} nodes after the unrolled training run", tape.len());

    // First-order gradients of both objectives (Algorithm 1 step 8).
    let scores = pds.scores();
    let lp = ca_loss(&scores, &market.target_audience, market.target_item, &market.competing_items);
    let lq = demotion_loss(&scores, &market.target_audience, market.target_item);
    let gp = tape.grad(lp, &[pds.xhats[0]]).remove(0);
    let gq_var = tape.grad_vars(lq, &[pds.xhats[1]])[0];

    // Per-action-type gradient magnitudes for the attacker.
    let mut by_kind: std::collections::BTreeMap<&str, (f64, usize)> = Default::default();
    for (action, g) in atk.importance.candidates.iter().zip(gp.data()) {
        let entry = by_kind
            .entry(match action.kind() {
                msopds::recdata::ActionKind::Rating => "rating",
                msopds::recdata::ActionKind::SocialEdge => "social edge",
                msopds::recdata::ActionKind::ItemEdge => "item edge",
            })
            .or_insert((0.0, 0));
        entry.0 += g.abs();
        entry.1 += 1;
    }
    println!("\nmean |∂L^p/∂x̂| by action type:");
    for (kind, (sum, count)) in by_kind {
        println!("  {kind:<12} {:.3e}  ({count} candidates)", sum / count as f64);
    }

    // Stackelberg correction (step 9): solve ξ ∂²L^q/∂X̂^q² = ∂L^p/∂X̂^q via
    // CG over exact Hessian-vector products (double backward on the tape).
    let rhs = tape.grad(lp, &[pds.xhats[1]]).remove(0);
    let sol = conjugate_gradient(
        |v| {
            let v = Tensor::from_vec(v.to_vec(), rhs.shape());
            grad_dot_products(&tape, &[gq_var], vec![v], &[pds.xhats[1]]).remove(0).to_vec()
        },
        rhs.data(),
        8,
        1e-6,
        1e-3,
    );
    println!(
        "\nCG solve for ξ: {} iterations, residual {:.3e}, converged = {}",
        sol.iterations, sol.residual, sol.converged
    );
    let xi = Tensor::from_vec(sol.x, rhs.shape());
    let correction = grad_dot_products(&tape, &[gq_var], vec![xi], &[pds.xhats[0]]).remove(0);
    println!(
        "total-derivative correction norm ‖ξ·∂²L^q/∂X̂^p∂X̂^q‖ = {:.3e} (vs ‖∂L^p/∂X̂^p‖ = {:.3e})",
        correction.norm(),
        gp.norm()
    );
    println!("\nThese are exactly the quantities MSO consumes in eqs. (10) and (13).");
}
