//! Property tests for top-K selection, shared across both scoring paths.
//!
//! Invariants, for arbitrary valid models and any `k` (including `k = 0`
//! and `k ≥ n_items`):
//!
//! 1. **reference order** — `top_k_batch_with` equals a brute-force full
//!    sort of that path's own scores under the serving total order (score
//!    descending, item id ascending), truncated to `k`;
//! 2. **tie discipline** — with payloads quantized so duplicate scores are
//!    common, ties always resolve by ascending item id on both paths;
//! 3. **NaN-free** — served scores never contain NaNs for finite models,
//!    on either path.
//!
//! Both [`ScorePrecision`] variants run through the same assertions: the
//! fast path is compared against *its own* f32 scores (the fidelity gap to
//! f64 is covered by the tolerance-trace tests, not here — this file pins
//! the selection logic itself).

use msopds_autograd::Tensor;
use msopds_recsys::snapshot::{ModelKind, Snapshot, SnapshotHeader};
use msopds_recsys::Backend;
use msopds_serve::{ScorePrecision, ScoredItem, ServingModel};
use proptest::prelude::*;

/// Splitmix64 — expands one strategy-drawn seed into tensor payloads (the
/// vendored proptest has no `prop_flat_map` for size-dependent vectors).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// `n` floats drawn from a *coarse* grid (multiples of 0.25 in [-2, 2]) so
/// that dot products collide often and the tiebreak path is exercised on
/// nearly every case; all values are exactly representable in f32, so the
/// grid survives the fast path's downcast intact.
fn quantized(state: &mut u64, n: usize) -> Vec<f64> {
    (0..n).map(|_| (splitmix(state) % 17) as f64 * 0.25 - 2.0).collect()
}

/// An arbitrary-but-valid MF snapshot with tie-prone payloads. `n_items`
/// runs past three 64-item panels of the fused exact scan, so cases land
/// below, on and across panel boundaries, tail included.
fn arb_model() -> impl Strategy<Value = ServingModel> {
    (1usize..14, 1usize..200, 1usize..5, 0u64..u64::MAX).prop_map(
        |(n_users, n_items, dim, seed)| {
            let mut state = seed;
            let snap = Snapshot {
                header: SnapshotHeader {
                    kind: ModelKind::Mf,
                    backend: Backend::Dense,
                    seed,
                    social_fingerprint: 0,
                    item_fingerprint: 0,
                    n_users: n_users as u64,
                    n_items: n_items as u64,
                    mu: quantized(&mut state, 1)[0],
                },
                config_json: String::from("{}"),
                tensors: vec![
                    (
                        String::from("p"),
                        Tensor::from_vec(quantized(&mut state, n_users * dim), &[n_users, dim]),
                    ),
                    (
                        String::from("q"),
                        Tensor::from_vec(quantized(&mut state, n_items * dim), &[n_items, dim]),
                    ),
                    (
                        String::from("b_u"),
                        Tensor::from_vec(quantized(&mut state, n_users), &[n_users, 1]),
                    ),
                    (
                        String::from("b_i"),
                        Tensor::from_vec(quantized(&mut state, n_items), &[n_items, 1]),
                    ),
                ],
            };
            ServingModel::from_snapshot(&snap).expect("valid snapshot")
        },
    )
}

/// The serving total order: score descending, then item id ascending.
fn rank(a: &ScoredItem, b: &ScoredItem) -> std::cmp::Ordering {
    b.score.total_cmp(&a.score).then(a.item.cmp(&b.item))
}

/// Brute-force reference: full sort of one user's scores, truncated to `k`.
fn reference_top_k(scores: &[f64], k: usize) -> Vec<ScoredItem> {
    let mut all: Vec<ScoredItem> =
        scores.iter().enumerate().map(|(i, &s)| ScoredItem { item: i as u32, score: s }).collect();
    all.sort_by(rank);
    all.truncate(k);
    all
}

/// Row-major `[batch, n_items]` scores as the given path computes them.
fn path_scores(model: &ServingModel, users: &[usize], precision: ScorePrecision) -> Vec<f64> {
    match precision {
        ScorePrecision::Exact64 => model.score_batch(users).data().to_vec(),
        ScorePrecision::Fast32 => {
            model.score_batch_f32(users).into_iter().map(|s| s as f64).collect()
        }
    }
}

fn check_path(
    model: &ServingModel,
    k: usize,
    precision: ScorePrecision,
) -> Result<(), TestCaseError> {
    let users: Vec<usize> = (0..model.n_users()).collect();
    let m = model.n_items();
    let scores = path_scores(model, &users, precision);
    let lists = model.top_k_batch_with(&users, k, precision);
    prop_assert_eq!(lists.len(), users.len());
    for (r, list) in lists.iter().enumerate() {
        let row = &scores[r * m..(r + 1) * m];
        prop_assert!(row.iter().all(|s| !s.is_nan()), "NaN score on {} path", precision);
        let expect = reference_top_k(row, k);
        prop_assert_eq!(
            list,
            &expect,
            "user {} k {} on {} path deviates from full-sort reference",
            r,
            k,
            precision
        );
        // Redundant with the reference, but pins the tie rule explicitly.
        for w in list.windows(2) {
            prop_assert!(rank(&w[0], &w[1]).is_lt());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn both_paths_match_full_sort_reference(model in arb_model(), k_raw in 0usize..32) {
        // k sweeps through 0, interior values, exactly n_items, and beyond.
        for precision in [ScorePrecision::Exact64, ScorePrecision::Fast32] {
            check_path(&model, k_raw, precision)?;
            check_path(&model, 0, precision)?;
            check_path(&model, model.n_items(), precision)?;
            check_path(&model, model.n_items() + 3, precision)?;
        }
    }
}
