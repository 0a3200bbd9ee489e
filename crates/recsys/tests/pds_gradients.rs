//! The load-bearing correctness test of the whole reproduction: analytic
//! gradients of the attack losses with respect to the binarized importance
//! vector — computed by backpropagation through the recorded, unrolled PDS
//! training run — must match central finite differences of the same
//! quantity, for every action category.

use msopds_autograd::hvp::hvp_exact;
use msopds_autograd::ndiff::numeric_grad;
use msopds_autograd::{Tape, Tensor};
use msopds_recdata::{DatasetSpec, PoisonAction};
use msopds_recsys::losses::{ca_loss, ia_loss};
use msopds_recsys::pds::{build_pds, PdsConfig, PlayerInput};

fn micro() -> msopds_recdata::Dataset {
    DatasetSpec::micro().generate(17)
}

fn cfg() -> PdsConfig {
    PdsConfig { inner_steps: 3, ..Default::default() }
}

/// Evaluates the IA loss at a given X̂ value vector (fresh tape each call).
fn ia_at(
    data: &msopds_recdata::Dataset,
    candidates: &[PoisonAction],
    xhat: &Tensor,
    users: &[usize],
    target: usize,
) -> f64 {
    let tape = Tape::new();
    let pds = build_pds(&tape, data, &[PlayerInput { candidates, xhat: xhat.clone() }], &cfg());
    ia_loss(&pds.scores(), users, target).item()
}

#[test]
fn pds_gradient_matches_finite_difference_for_ratings() {
    let data = micro();
    let users: Vec<usize> = (0..8).collect();
    let target = 4usize;
    let candidates: Vec<PoisonAction> = (0..6u32)
        .map(|u| PoisonAction::Rating { user: u, item: target as u32, value: 5.0 })
        .collect();
    let x0 = Tensor::from_vec(vec![0.5, 0.0, 1.0, 0.25, 0.75, 0.0], &[6]);

    let tape = Tape::new();
    let pds = build_pds(
        &tape,
        &data,
        &[PlayerInput { candidates: &candidates, xhat: x0.clone() }],
        &cfg(),
    );
    let loss = ia_loss(&pds.scores(), &users, target);
    let analytic = tape.grad(loss, &[pds.xhats[0]]).remove(0);
    let numeric = numeric_grad(|x| ia_at(&data, &candidates, x, &users, target), &x0, 1e-4);

    for i in 0..6 {
        let (a, n) = (analytic.get(i), numeric.get(i));
        let denom = 1.0f64.max(a.abs()).max(n.abs());
        assert!(
            ((a - n) / denom).abs() < 1e-3,
            "rating candidate {i}: analytic {a} vs numeric {n}"
        );
    }
}

#[test]
fn pds_gradient_matches_finite_difference_for_edges() {
    let data = micro();
    let users: Vec<usize> = (0..8).collect();
    let target = 7usize;
    // Pick candidate edges that do not already exist.
    let mut social = Vec::new();
    'outer: for a in 0..data.n_users() {
        for b in (a + 1)..data.n_users() {
            if !data.social.has_edge(a, b) {
                social.push(PoisonAction::SocialEdge { a: a as u32, b: b as u32 });
                if social.len() == 2 {
                    break 'outer;
                }
            }
        }
    }
    let mut candidates = social;
    for i in [1u32, 2, 3] {
        if !data.item_graph.has_edge(i as usize, target) {
            candidates.push(PoisonAction::ItemEdge { a: i, b: target as u32 });
        }
    }
    let k = candidates.len();
    assert!(k >= 4, "need edge candidates for the test");
    let x0 = Tensor::from_vec((0..k).map(|i| 0.2 * i as f64).collect(), &[k]);

    let tape = Tape::new();
    let pds = build_pds(
        &tape,
        &data,
        &[PlayerInput { candidates: &candidates, xhat: x0.clone() }],
        &cfg(),
    );
    let loss = ia_loss(&pds.scores(), &users, target);
    let analytic = tape.grad(loss, &[pds.xhats[0]]).remove(0);
    let numeric = numeric_grad(|x| ia_at(&data, &candidates, x, &users, target), &x0, 1e-4);

    for (i, candidate) in candidates.iter().enumerate() {
        let (a, n) = (analytic.get(i), numeric.get(i));
        let denom = 1.0f64.max(a.abs()).max(n.abs());
        assert!(
            ((a - n) / denom).abs() < 1e-3,
            "edge candidate {i} ({candidate:?}): analytic {a} vs numeric {n}"
        );
    }
}

#[test]
fn ca_loss_gradient_matches_finite_difference_mixed_capacity() {
    let data = micro();
    let audience: Vec<usize> = (3..9).collect();
    let competing: Vec<usize> = vec![2, 4, 6];
    let target = 2usize;
    let mut candidates = vec![
        PoisonAction::Rating { user: 3, item: target as u32, value: 5.0 },
        PoisonAction::Rating { user: 4, item: target as u32, value: 5.0 },
    ];
    'outer: for a in 0..data.n_users() {
        for b in (a + 1)..data.n_users() {
            if !data.social.has_edge(a, b) {
                candidates.push(PoisonAction::SocialEdge { a: a as u32, b: b as u32 });
                break 'outer;
            }
        }
    }
    let k = candidates.len();
    let x0 = Tensor::from_vec(vec![0.4; k], &[k]);

    let eval = |x: &Tensor| -> f64 {
        let tape = Tape::new();
        let pds = build_pds(
            &tape,
            &data,
            &[PlayerInput { candidates: &candidates, xhat: x.clone() }],
            &cfg(),
        );
        ca_loss(&pds.scores(), &audience, target, &competing).item()
    };

    let tape = Tape::new();
    let pds = build_pds(
        &tape,
        &data,
        &[PlayerInput { candidates: &candidates, xhat: x0.clone() }],
        &cfg(),
    );
    let loss = ca_loss(&pds.scores(), &audience, target, &competing);
    let analytic = tape.grad(loss, &[pds.xhats[0]]).remove(0);
    let numeric = numeric_grad(eval, &x0, 1e-4);

    for i in 0..k {
        let (a, n) = (analytic.get(i), numeric.get(i));
        let denom = 1.0f64.max(a.abs()).max(n.abs());
        assert!(((a - n) / denom).abs() < 1e-3, "candidate {i}: analytic {a} vs numeric {n}");
    }
}

/// Checks the analytic gradient of the IA loss against central finite
/// differences at `x0` for the given dataset/candidates, with the standard
/// relative tolerance.
fn check_ia_gradient(
    data: &msopds_recdata::Dataset,
    candidates: &[PoisonAction],
    x0: &Tensor,
    users: &[usize],
    target: usize,
) {
    let tape = Tape::new();
    let pds = build_pds(&tape, data, &[PlayerInput { candidates, xhat: x0.clone() }], &cfg());
    let loss = ia_loss(&pds.scores(), users, target);
    let analytic = tape.grad(loss, &[pds.xhats[0]]).remove(0);
    let numeric = numeric_grad(|x| ia_at(data, candidates, x, users, target), x0, 1e-4);
    for i in 0..candidates.len() {
        let (a, n) = (analytic.get(i), numeric.get(i));
        let denom = 1.0f64.max(a.abs()).max(n.abs());
        assert!(((a - n) / denom).abs() < 1e-3, "candidate {i}: analytic {a} vs numeric {n}");
        assert!(a.is_finite(), "candidate {i}: non-finite analytic gradient {a}");
    }
}

#[test]
fn pds_gradient_handles_zero_degree_target_item() {
    // The target item has no genuine ratings and no item-graph edges, so its
    // embedding is driven purely by the injected candidates. The gradient
    // through the unrolled run must stay finite and match finite differences.
    use msopds_het_graph::CsrGraph;
    use msopds_recdata::{Dataset, Rating, RatingMatrix};

    let ratings = RatingMatrix::from_ratings(
        4,
        5,
        &[
            Rating { user: 0, item: 0, value: 4.0 },
            Rating { user: 1, item: 1, value: 2.0 },
            Rating { user: 2, item: 2, value: 5.0 },
            Rating { user: 3, item: 3, value: 3.0 },
            Rating { user: 0, item: 1, value: 1.0 },
        ],
    );
    // Item 4 is fully isolated: zero ratings, zero item-graph degree.
    let social = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
    let items = CsrGraph::from_edges(5, &[(0, 1), (1, 2)]);
    let data = Dataset::new("zero-degree", ratings, social, items);
    let target = 4usize;
    assert_eq!(data.ratings.item_degree(target), 0);

    let candidates: Vec<PoisonAction> = (0..3u32)
        .map(|u| PoisonAction::Rating { user: u, item: target as u32, value: 5.0 })
        .collect();
    let x0 = Tensor::from_vec(vec![0.6, 0.2, 0.8], &[3]);
    let users: Vec<usize> = (0..4).collect();
    check_ia_gradient(&data, &candidates, &x0, &users, target);
}

#[test]
fn pds_gradient_at_saturated_budget_boundary() {
    // X̂ = 1 everywhere: the importance vector sits exactly at the budget
    // boundary where binarization saturates every candidate. The surrogate is
    // a continuous relaxation, so the gradient must still exist and match
    // finite differences there (central differences probe 1 ± ε).
    let data = micro();
    let users: Vec<usize> = (0..8).collect();
    let target = 3usize;
    let candidates: Vec<PoisonAction> = (0..5u32)
        .map(|u| PoisonAction::Rating { user: u, item: target as u32, value: 5.0 })
        .collect();
    let x0 = Tensor::from_vec(vec![1.0; 5], &[5]);
    check_ia_gradient(&data, &candidates, &x0, &users, target);
}

#[test]
fn pds_gradient_on_single_user_graph() {
    // Degenerate social structure: one user, empty social network. The
    // convolution has nothing to propagate, but the unrolled training run and
    // its backward pass must still be well-defined.
    use msopds_het_graph::CsrGraph;
    use msopds_recdata::{Dataset, Rating, RatingMatrix};

    let ratings = RatingMatrix::from_ratings(
        1,
        4,
        &[Rating { user: 0, item: 0, value: 4.0 }, Rating { user: 0, item: 1, value: 2.0 }],
    );
    let social = CsrGraph::empty(1);
    let items = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
    let data = Dataset::new("single-user", ratings, social, items);
    let target = 3usize;

    let candidates = vec![
        PoisonAction::Rating { user: 0, item: target as u32, value: 5.0 },
        PoisonAction::ItemEdge { a: 1, b: target as u32 },
    ];
    let x0 = Tensor::from_vec(vec![0.7, 0.3], &[2]);
    check_ia_gradient(&data, &candidates, &x0, &[0], target);
}

#[test]
fn second_order_hvp_matches_finite_difference_of_pds_gradient() {
    // The exact double-backward HVP through the unrolled surrogate — the
    // quantity CG consumes in Algorithm 1 step 9 — against finite differences
    // of the first-order gradient.
    let data = micro();
    let users: Vec<usize> = (0..6).collect();
    let target = 5usize;
    let candidates: Vec<PoisonAction> = (0..4u32)
        .map(|u| PoisonAction::Rating { user: u, item: target as u32, value: 1.0 })
        .collect();
    let x0 = Tensor::from_vec(vec![0.3, 0.6, 0.1, 0.9], &[4]);
    let v = Tensor::from_vec(vec![1.0, -0.5, 0.25, -1.0], &[4]);

    // Exact.
    let tape = Tape::new();
    let pds = build_pds(
        &tape,
        &data,
        &[PlayerInput { candidates: &candidates, xhat: x0.clone() }],
        &cfg(),
    );
    let loss = ia_loss(&pds.scores(), &users, target);
    let hv = hvp_exact(&tape, loss, pds.xhats[0], &v);

    // Finite difference of the gradient.
    let grad_at = |x: &Tensor| -> Tensor {
        let t = Tape::new();
        let p = build_pds(
            &t,
            &data,
            &[PlayerInput { candidates: &candidates, xhat: x.clone() }],
            &cfg(),
        );
        let l = ia_loss(&p.scores(), &users, target);
        t.grad(l, &[p.xhats[0]]).remove(0)
    };
    let hv_fd = msopds_autograd::hvp::hvp_finite_diff(grad_at, &x0, &v);

    assert!(
        hv.max_abs_diff(&hv_fd) < 1e-4,
        "exact {:?} vs finite-diff {:?}",
        hv.to_vec(),
        hv_fd.to_vec()
    );
}

#[test]
fn pds_unroll_grows_the_tape_by_the_same_amount_every_step() {
    // Each inner step differentiates the training loss w.r.t. the current
    // embeddings only. A reverse scan that also walked back through every
    // earlier step would record more nodes for each step than for the last.
    let data = DatasetSpec::micro().generate(5);
    let lens: Vec<usize> = (1..=5)
        .map(|inner_steps| {
            let tape = Tape::new();
            build_pds(&tape, &data, &[], &PdsConfig { inner_steps, ..Default::default() });
            tape.len()
        })
        .collect();
    let growth: Vec<usize> = lens.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(
        growth.windows(2).all(|w| w[0] == w[1]),
        "tape growth per inner step {growth:?} (lengths {lens:?})"
    );
}
