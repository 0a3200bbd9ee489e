//! Property tests for top-K selection.
//!
//! Invariants, for arbitrary valid models and any `k` (including `k = 0`
//! and `k ≥ n_items`):
//!
//! 1. **reference order** — `top_k_batch` equals a brute-force full sort
//!    of `score_batch`'s scores under the serving total order (score
//!    descending, item id ascending), truncated to `k`;
//! 2. **tie discipline** — with payloads quantized so duplicate scores are
//!    common, ties always resolve by ascending item id;
//! 3. **NaN-free** — served scores never contain NaNs for finite models;
//! 4. **pruning** — all of the above also holds on skewed-norm models, where
//!    the scan skips item panels that cannot reach a user's heap floor.

use msopds_autograd::Tensor;
use msopds_recsys::snapshot::{ModelKind, Snapshot, SnapshotHeader};
use msopds_recsys::Backend;
use msopds_serve::{ScoredItem, ServingModel};
use msopds_telemetry as telemetry;
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
/// nearly every case.
fn quantized(state: &mut u64, n: usize) -> Vec<f64> {
    (0..n).map(|_| (splitmix(state) % 17) as f64 * 0.25 - 2.0).collect()
}

/// A valid MF model with tie-prone payloads drawn from `seed`. With `skew`,
/// each item row (embedding and bias) is scaled by `2^-s`, `s` drawn in
/// `0..8`: item norms then spread over `2^7`, so the fused scan's bound
/// test skips panels and drops users. Power-of-two scales keep the payloads
/// on a grid, so ties stay common.
fn model_from(n_users: usize, n_items: usize, dim: usize, seed: u64, skew: bool) -> ServingModel {
    let mut state = seed;
    let mu = quantized(&mut state, 1)[0];
    let p = quantized(&mut state, n_users * dim);
    let mut q = quantized(&mut state, n_items * dim);
    let b_u = quantized(&mut state, n_users);
    let mut b_i = quantized(&mut state, n_items);
    if skew {
        for (row, b) in q.chunks_exact_mut(dim).zip(&mut b_i) {
            let scale = 0.5f64.powi((splitmix(&mut state) % 8) as i32);
            row.iter_mut().for_each(|x| *x *= scale);
            *b *= scale;
        }
    }
    let snap = Snapshot {
        header: SnapshotHeader {
            kind: ModelKind::Mf,
            backend: Backend::Dense,
            seed,
            social_fingerprint: 0,
            item_fingerprint: 0,
            n_users: n_users as u64,
            n_items: n_items as u64,
            mu,
        },
        config_json: String::from("{}"),
        tensors: vec![
            (String::from("p"), Tensor::from_vec(p, &[n_users, dim])),
            (String::from("q"), Tensor::from_vec(q, &[n_items, dim])),
            (String::from("b_u"), Tensor::from_vec(b_u, &[n_users, 1])),
            (String::from("b_i"), Tensor::from_vec(b_i, &[n_items, 1])),
        ],
    };
    ServingModel::from_snapshot(&snap).expect("valid snapshot")
}

/// An arbitrary-but-valid MF model. `n_items` runs past three 64-item
/// panels of the fused exact scan, so cases land below, on and across panel
/// boundaries, tail included.
fn arb_model(skew: bool) -> impl Strategy<Value = ServingModel> {
    (1usize..14, 1usize..200, 1usize..5, 0u64..u64::MAX).prop_map(
        move |(n_users, n_items, dim, seed)| model_from(n_users, n_items, dim, seed, skew),
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

fn check_top_k(model: &ServingModel, k: usize) -> Result<(), TestCaseError> {
    let users: Vec<usize> = (0..model.n_users()).collect();
    let m = model.n_items();
    let scores = model.score_batch(&users).data().to_vec();
    let lists = model.top_k_batch(&users, k);
    prop_assert_eq!(lists.len(), users.len());
    for (r, list) in lists.iter().enumerate() {
        let row = &scores[r * m..(r + 1) * m];
        prop_assert!(row.iter().all(|s| !s.is_nan()), "NaN score");
        let expect = reference_top_k(row, k);
        prop_assert_eq!(list, &expect, "user {} k {} deviates from full-sort reference", r, k);
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
    fn top_k_matches_full_sort_reference(model in arb_model(false), k_raw in 0usize..32) {
        // k sweeps through 0, interior values, exactly n_items, and beyond.
        check_top_k(&model, k_raw)?;
        check_top_k(&model, 0)?;
        check_top_k(&model, model.n_items())?;
        check_top_k(&model, model.n_items() + 3)?;
    }

    #[test]
    fn skewed_top_k_matches_full_sort_reference(model in arb_model(true), k_raw in 0usize..32) {
        check_top_k(&model, k_raw)?;
        check_top_k(&model, model.n_items())?;
    }
}

/// The skewed generator does exercise pruning: over a fixed set of its
/// models, the scan scores fewer items than `users × n_items`, read from the
/// `serve.topk.*` counters. (Other tests of this binary may add to both
/// counters meanwhile; a call never scores more than its total, so they
/// cannot make a run without skips pass.)
#[test]
fn skewed_models_take_the_skip_path() {
    let read = |name: &str| telemetry::report().counter(name).map_or(0, |c| c.value);
    telemetry::set_enabled(true);
    let (scored0, total0) = (read("serve.topk.items_scored"), read("serve.topk.items_total"));
    for seed in 0..32u64 {
        let model = model_from(8, 199, 1 + (seed % 4) as usize, seed, true);
        check_top_k(&model, 3).expect("matches the reference");
    }
    let scored = read("serve.topk.items_scored") - scored0;
    let total = read("serve.topk.items_total") - total0;
    eprintln!("skewed models: scored {scored} of {total} items");
    assert!(scored < total, "no panel was skipped: {scored} of {total}");
}
