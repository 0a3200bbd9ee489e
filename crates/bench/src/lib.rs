//! # msopds-bench
//!
//! Shared fixtures for the Criterion microbenchmarks: the kernel benches
//! (`kernels`, `training`), the sparse-vs-dense backend comparison
//! (`sparse`), exact top-K scoring against the raw score matrix and the
//! multi-RHS solve (`fastpath`), and the million-user build and
//! snapshot-load sweep (`scale`). CI asserts on rows of `kernels`, `sparse`,
//! `scale` and `fastpath`.
//!
//! End-to-end timings live elsewhere: perfbench times full games and the
//! serving tier, `repro` regenerates the paper's tables and figures, and the
//! release-mode serving gates live in `crates/xp/tests/throughput_gates.rs`.

use msopds_recdata::{sample_market, Dataset, DatasetSpec, DemographicsSpec, Market};
use rand::SeedableRng;

/// The dataset scale divisor of the bench fixtures.
pub const BENCH_SCALE: f64 = 24.0;

/// A Ciao-shaped dataset and market fixture shared by the benches.
pub fn bench_setup(n_opponents: usize) -> (Dataset, Market) {
    let data = DatasetSpec::ciao().scaled(BENCH_SCALE).generate(1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let market = sample_market(
        &data,
        &DemographicsSpec::default().scaled(BENCH_SCALE),
        n_opponents.max(1),
        &mut rng,
    );
    (data, market)
}
