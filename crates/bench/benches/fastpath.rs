//! Benchmarks of two hot loops, emitting `BENCH_fastpath.json`:
//!
//! * **Scoring** — `score/f64_topk_batch{B}` at batch ∈ {1, 64, 1024} (the
//!   full top-K serving answer of the fused exact scan), plus
//!   `score/f64_raw_batch1024` for the bare score matrix without selection,
//!   and derived `score/users_per_sec_f64_batch{B}` rows (batch ÷ median
//!   call time; `iters_per_sample` = 1 marks them derived, the serve-bench
//!   convention). CI's smoke run asserts, on the small model, that the
//!   fused top-K takes at most half the time of `score/f64_raw_batch1024`,
//!   the bare score matrix it never builds.
//!
//! * **CG solves** — `cg/single_f{N}` vs `cg/multi_f{N}` for N ∈ {1, 4, 16}
//!   followers: N SPD systems sharing one operator (a 2-D grid Laplacian
//!   plus identity, the planner's shared-PDS shape), solved by N sequential
//!   `conjugate_gradient` calls (one SpMV per iteration each) or by one
//!   `conjugate_gradient_multi` whose `apply_multi` packs the active
//!   directions into an `[n, N]` operand and runs a single SpMM — the same
//!   amortization `mso_optimize`'s correction gets from multi-seed
//!   backward. Both paths run a fixed iteration budget (tol pinned far below
//!   reach) so the timed work is identical; column-wise bitwise equality of
//!   the two solution sets is asserted once outside the timer.
//!
//! The scoring model is synthetic (deterministic splitmix64 embeddings, in
//! memory) so this bench measures kernels, not training: 2048 users × 4096
//! items × d=64 full, 256 × 512 × d=32 under `MSOPDS_BENCH_SMOKE=1`.

use std::time::Duration;

use criterion::{criterion_group, BenchResult, Criterion};
use msopds_autograd::{conjugate_gradient, conjugate_gradient_multi, SparseMatrix, Tensor};
use msopds_recsys::snapshot::{ModelKind, Snapshot, SnapshotHeader};
use msopds_recsys::Backend;
use msopds_serve::ServingModel;

/// The batch sizes of the acceptance criterion.
const BATCHES: [usize; 3] = [1, 64, 1024];
/// Follower counts of the multi-RHS comparison (4 is the CI assertion).
const FOLLOWERS: [usize; 3] = [1, 4, 16];
/// Served list length.
const TOP_K: usize = 10;
/// Fixed CG iteration budget: tol is pinned unreachably low so single and
/// multi run exactly this many lockstep iterations per system.
const CG_ITERS: usize = 40;

fn smoke() -> bool {
    std::env::var("MSOPDS_BENCH_SMOKE").is_ok()
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn payload(state: &mut u64, n: usize) -> Vec<f64> {
    (0..n).map(|_| ((splitmix(state) >> 11) as f64 / (1u64 << 53) as f64) - 0.5).collect()
}

/// A synthetic MF serving model with deterministic pseudo-random embeddings
/// — big enough that scoring dominates, small enough to build in
/// milliseconds.
fn synthetic_model() -> ServingModel {
    let (n_users, n_items, d) = if smoke() { (256, 512, 32) } else { (2048, 4096, 64) };
    let mut state = 0x5ca1ab1e;
    let snap = Snapshot {
        header: SnapshotHeader {
            kind: ModelKind::Mf,
            backend: Backend::Dense,
            seed: 1,
            social_fingerprint: 0,
            item_fingerprint: 0,
            n_users: n_users as u64,
            n_items: n_items as u64,
            mu: 3.5,
        },
        config_json: String::from("{}"),
        tensors: vec![
            (String::from("p"), Tensor::from_vec(payload(&mut state, n_users * d), &[n_users, d])),
            (String::from("q"), Tensor::from_vec(payload(&mut state, n_items * d), &[n_items, d])),
            (String::from("b_u"), Tensor::from_vec(payload(&mut state, n_users), &[n_users, 1])),
            (String::from("b_i"), Tensor::from_vec(payload(&mut state, n_items), &[n_items, 1])),
        ],
    };
    ServingModel::from_snapshot(&snap).expect("synthetic snapshot serves")
}

/// Deterministic batch of user ids (the serve binary's Fibonacci stream).
fn query_batch(n: usize, n_users: usize) -> Vec<usize> {
    (0..n).map(|q| (q.wrapping_mul(0x9E3779B97F4A7C15) >> 7) % n_users).collect()
}

fn scoring(c: &mut Criterion) {
    let model = synthetic_model();
    eprintln!(
        "fastpath: scoring {} users × {} items, dim {}",
        model.n_users(),
        model.n_items(),
        model.dim()
    );
    for batch in BATCHES {
        let users = query_batch(batch, model.n_users());
        c.bench_function(format!("score/f64_topk_batch{batch}"), |b| {
            b.iter(|| std::hint::black_box(model.top_k_batch(&users, TOP_K)))
        });
    }
    let users = query_batch(*BATCHES.last().expect("non-empty"), model.n_users());
    c.bench_function(format!("score/f64_raw_batch{}", users.len()), |b| {
        b.iter(|| std::hint::black_box(model.score_batch(&users)))
    });
}

/// `side²`-node 2-D grid Laplacian + I: SPD, ~5 nnz/row — the sparsity
/// shape of the planner's damped curvature systems.
fn grid_operator(side: usize) -> SparseMatrix {
    let n = side * side;
    let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(5 * n);
    let id = |r: usize, c: usize| r * side + c;
    for r in 0..side {
        for c in 0..side {
            let i = id(r, c);
            let mut degree = 0.0;
            let mut push_neighbor = |j: usize| {
                triplets.push((i, j, -1.0));
                degree += 1.0;
            };
            if r > 0 {
                push_neighbor(id(r - 1, c));
            }
            if r + 1 < side {
                push_neighbor(id(r + 1, c));
            }
            if c > 0 {
                push_neighbor(id(r, c - 1));
            }
            if c + 1 < side {
                push_neighbor(id(r, c + 1));
            }
            triplets.push((i, i, degree + 1.0));
        }
    }
    SparseMatrix::from_triplets(n, n, &triplets)
}

fn cg_solves(c: &mut Criterion) {
    let side = if smoke() { 32 } else { 128 };
    let a = grid_operator(side);
    let n = a.rows();
    eprintln!("fastpath: CG on {n}×{n} grid Laplacian ({} nnz)", a.nnz());
    let spmv = |v: &[f64]| -> Vec<f64> { a.spmm(&Tensor::from_vec(v.to_vec(), &[n, 1])).to_vec() };
    let spmm_multi = |dirs: &[(usize, &[f64])]| -> Vec<Vec<f64>> {
        // Pack the active directions into one [n, N] operand so the whole
        // lockstep iteration costs a single SpMM sweep over the matrix.
        let nact = dirs.len();
        let mut packed = vec![0.0f64; n * nact];
        for (j, (_, v)) in dirs.iter().enumerate() {
            for (row, &x) in v.iter().enumerate() {
                packed[row * nact + j] = x;
            }
        }
        let out = a.spmm(&Tensor::from_vec(packed, &[n, nact]));
        let od = out.data();
        (0..nact).map(|j| (0..n).map(|row| od[row * nact + j]).collect()).collect()
    };

    let max_followers = *FOLLOWERS.iter().max().expect("non-empty");
    let mut state = 0xfeedbeef;
    let all_rhs: Vec<Vec<f64>> = (0..max_followers).map(|_| payload(&mut state, n)).collect();

    // Equal-answer check, once, outside the timers: every multi column must
    // be bitwise the sequential solution (lockstep recurrences + per-column
    // deterministic SpMM ⇒ no tolerance needed).
    for &followers in &FOLLOWERS {
        let rhs = &all_rhs[..followers];
        let single: Vec<Vec<f64>> =
            rhs.iter().map(|b| conjugate_gradient(&spmv, b, CG_ITERS, 1e-30, 0.0).x).collect();
        let multi = conjugate_gradient_multi(spmm_multi, rhs, CG_ITERS, 1e-30, 0.0);
        for (s, m) in single.iter().zip(&multi) {
            assert_eq!(s.len(), m.x.len());
            for (a, b) in s.iter().zip(&m.x) {
                assert_eq!(a.to_bits(), b.to_bits(), "multi-RHS drifted from sequential");
            }
        }
    }

    for &followers in &FOLLOWERS {
        let rhs = &all_rhs[..followers];
        c.bench_function(format!("cg/single_f{followers}"), |b| {
            b.iter(|| {
                for rhs_one in rhs {
                    std::hint::black_box(conjugate_gradient(&spmv, rhs_one, CG_ITERS, 1e-30, 0.0));
                }
            })
        });
        c.bench_function(format!("cg/multi_f{followers}"), |b| {
            b.iter(|| {
                std::hint::black_box(conjugate_gradient_multi(
                    spmm_multi, rhs, CG_ITERS, 1e-30, 0.0,
                ))
            })
        });
    }
}

criterion_group!(
    name = benches;
    config = if smoke() {
        Criterion::default().sample_size(15).measurement_time(Duration::from_millis(600))
    } else {
        Criterion::default()
    };
    targets = scoring, cg_solves
);

/// Users/sec rows derived from the top-K timings.
fn users_per_sec_rows(timed: &[BenchResult]) -> Vec<BenchResult> {
    timed
        .iter()
        .filter_map(|r| {
            let rest = r.id.strip_prefix("score/")?;
            let (path, batch) = rest.split_once("_topk_batch")?;
            let batch: f64 = batch.parse().ok()?;
            let median_ns = r.median_ns();
            (median_ns > 0.0).then(|| BenchResult {
                id: format!("score/users_per_sec_{path}_batch{batch}"),
                sample_means_ns: vec![batch * 1e9 / median_ns],
                iters_per_sample: 1,
                skipped: None,
            })
        })
        .collect()
}

fn main() {
    let mut all = benches();
    all.extend(users_per_sec_rows(&all));
    criterion::write_results_json("fastpath", &all);
}
