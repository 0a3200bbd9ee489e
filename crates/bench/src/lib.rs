//! # msopds-bench
//!
//! Shared fixtures for the Criterion benchmarks. The figure targets mirror
//! one table or figure of the paper each (`table3`, `fig6` … `fig9`) at a
//! reduced scale. Beside them sit the kernel microbenches (`kernels`,
//! `training`), the sparse-vs-dense backend comparison (`sparse`), the f32
//! scoring and multi-RHS solve comparison (`fastpath`) and the million-user
//! build and snapshot-load sweep (`scale`). Every figure bench prints the
//! measured metric series once per run, so `cargo bench` output doubles as
//! a reduced regeneration of the paper's series. Serving throughput is
//! measured by perfbench, and its release-mode gates live in
//! `crates/xp/tests/throughput_gates.rs`.

use msopds_core::{MsoConfig, PlannerConfig};
use msopds_gameplay::GameConfig;
use msopds_recdata::{sample_market, Dataset, DatasetSpec, DemographicsSpec, Market};
use msopds_recsys::pds::PdsConfig;
use msopds_recsys::HetRecConfig;
use rand::SeedableRng;

/// The dataset scale divisor used by all game-level benches.
pub const BENCH_SCALE: f64 = 24.0;

/// A reduced game configuration sized for benchmarking.
pub fn bench_game_cfg() -> GameConfig {
    let planner = PlannerConfig {
        mso: MsoConfig { iters: 4, cg_iters: 3, ..Default::default() },
        pds: PdsConfig { inner_steps: 4, ..Default::default() },
    };
    GameConfig {
        victim: HetRecConfig { epochs: 30, dim: 8, ..Default::default() },
        planner,
        opponent_planner: planner,
        attacker_b: 5,
        n_opponents: 1,
        opponent_b: 2,
        scale: BENCH_SCALE,
        seed: 1,
        kernel_threads: 0,
    }
}

/// A Ciao-shaped dataset and market fixture shared by the game benches.
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
