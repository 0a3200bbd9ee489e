//! The injection baselines that train a PDS surrogate (Influence and
//! S-attack) build it on the graph backend of the planner they are handed,
//! so every player of a game plans against one victim representation.
//!
//! The evidence is the adjacency cache: a surrogate on a backend whose
//! structures are not cached yet must miss. One test per binary, because
//! the telemetry counters are process-wide.

use msopds_attacks::{Baseline, IaContext};
use msopds_core::PlannerConfig;
use msopds_recdata::DatasetSpec;
use msopds_recsys::convolve::clear_graph_tensor_cache;
use msopds_recsys::pds::PdsConfig;
use msopds_recsys::Backend;
use msopds_telemetry as telemetry;
use rand::SeedableRng;

fn lru_misses() -> u64 {
    telemetry::report().counter("recsys.adjacency_lru.misses").map_or(0, |c| c.value)
}

/// The adjacency-cache misses of one `baseline` plan with the planner on
/// `backend`, on a fixed micro world.
fn misses_of(baseline: Baseline, backend: Backend) -> u64 {
    let planner =
        PlannerConfig { pds: PdsConfig { backend, ..Default::default() }, ..Default::default() };
    let mut data = DatasetSpec::micro().generate(1);
    let ctx = IaContext { b: 2, fillers_per_fake: 3, candidate_pool: 10, seed: 0 };
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let before = lru_misses();
    let plan = baseline.plan(&mut data, &ctx, 0, &planner, &mut rng);
    assert!(!plan.is_empty());
    lru_misses() - before
}

#[test]
fn influence_surrogates_run_on_the_planners_backend() {
    telemetry::set_enabled(true);
    let other = match Backend::default() {
        Backend::Dense => Backend::Sparse,
        Backend::Sparse => Backend::Dense,
    };
    for baseline in [Baseline::Influence, Baseline::SAttack] {
        let name = baseline.name();
        clear_graph_tensor_cache();
        assert!(misses_of(baseline, Backend::default()) > 0, "{name}: a cold cache misses");
        assert_eq!(misses_of(baseline, Backend::default()), 0, "{name}: a warm cache hits");
        assert!(
            misses_of(baseline, other) > 0,
            "{name}: a planner on {other} must build its surrogate on {other}"
        );
    }
}
