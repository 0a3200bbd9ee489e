//! Property suites for the detector zoo (ISSUE satellite 2).
//!
//! Four families of invariants, each exercised with proptest over seeds and
//! detector parameters:
//!
//! 1. **Shadow-ban idempotence** — running any policy on its own scrubbed
//!    output bans nobody, and re-scores every account exactly as the last
//!    round did (the fixed-point loop makes this structural, but the
//!    property pins it against regressions in scrub/scoring).
//! 2. **Clean-world safety** — default thresholds of the statistical
//!    detectors produce zero false positives on organic replay worlds across
//!    seeds and scales.
//! 3. **Permutation invariance** — relabeling users permutes the ban set
//!    exactly; detectors may only depend on per-user statistics, never on
//!    user-id order.
//! 4. **Budget conservation** — fake-user injection adds exactly the budget
//!    the `IaContext` resolves to, and scrubbing the full fake set restores
//!    the organic rating count.

use msopds_attacks::common::{inject_fakes, IaContext};
use msopds_gameplay::{
    scrub, DegreeOutlierDetector, Detector, DistributionDetector, ModeratorDetector,
    ShadowBanPolicy, SpectralDetector,
};
use msopds_het_graph::CsrGraph;
use msopds_recdata::{Dataset, DatasetSpec, PoisonAction, Rating, RatingMatrix};
use proptest::prelude::*;

fn clean_world(seed: u64) -> Dataset {
    DatasetSpec::micro().generate(seed)
}

/// A blatant flood burst on top of a clean world: `n_fakes` accounts each
/// rate items `0..width` at 5★.
fn flood_world(seed: u64, n_fakes: usize, width: u32) -> Dataset {
    let mut data = clean_world(seed);
    let fakes = data.add_fake_users(n_fakes);
    let mut actions = Vec::new();
    for &f in &fakes {
        for item in 0..width {
            actions.push(PoisonAction::Rating { user: f as u32, item, value: 5.0 });
        }
    }
    data.apply_poison(&actions)
}

/// Rebuilds `data` with every user id `u` mapped to `perm[u]`.
///
/// `perm` must be a permutation of `0..n_users`. Fake-user bookkeeping is
/// dropped (`n_real_users` = all users): detectors never consult it, and the
/// permuted world would not keep fakes in a contiguous tail anyway.
fn permute_users(data: &Dataset, perm: &[usize]) -> Dataset {
    let n_users = data.ratings.n_users();
    assert_eq!(perm.len(), n_users);
    let ratings: Vec<Rating> = data
        .ratings
        .ratings()
        .iter()
        .map(|r| Rating { user: perm[r.user as usize] as u32, ..*r })
        .collect();
    let matrix = RatingMatrix::from_ratings(n_users, data.ratings.n_items(), &ratings);
    let social_edges: Vec<(usize, usize)> =
        data.social.edges().into_iter().map(|(a, b)| (perm[a], perm[b])).collect();
    let social = CsrGraph::from_edges(n_users, &social_edges);
    let mut permuted =
        Dataset::new(format!("{}-permuted", data.name), matrix, social, data.item_graph.clone());
    permuted.n_real_users = n_users;
    permuted
}

/// An arbitrary permutation of `0..n` derived from proptest-supplied swaps.
fn permutation(n: usize, swaps: &[(usize, usize)]) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for &(a, b) in swaps {
        perm.swap(a % n, b % n);
    }
    perm
}

fn all_detectors() -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(DegreeOutlierDetector::default()),
        Box::new(DistributionDetector::kl()),
        Box::new(DistributionDetector::chi2()),
        Box::new(SpectralDetector::default()),
    ]
}

/// `all_detectors` plus the moderator-signal stage. That stage is kept out
/// of the clean-world suite: organic users with no social ties and extreme
/// ratings cross its fixed 0.5 bar.
fn detectors_with_moderator() -> Vec<Box<dyn Detector>> {
    let mut detectors = all_detectors();
    detectors.push(Box::new(ModeratorDetector));
    detectors
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 1. Idempotence: scrub(world) is a fixed point of every policy.
    #[test]
    fn shadow_ban_is_idempotent(seed in 0u64..64, n_fakes in 1usize..8) {
        let world = flood_world(seed, n_fakes, 40);
        for spec in ShadowBanPolicy::matrix_specs().into_iter().chain(["moderator"]) {
            let policy = ShadowBanPolicy::from_spec(spec).unwrap();
            let (scrubbed, _) = policy.run(&world);
            let (rescrubbed, reports) = policy.run(&scrubbed);
            for r in &reports {
                prop_assert!(
                    r.banned.is_empty(),
                    "{spec}/{} re-banned {:?} on its own output",
                    r.detector,
                    r.banned
                );
            }
            prop_assert_eq!(rescrubbed.ratings.len(), scrubbed.ratings.len());
        }
        // Each detector's final statistics cover exactly the survivors, so a
        // re-run on the scrubbed world reproduces every score bit for bit.
        for det in detectors_with_moderator() {
            let report = det.detect(&world);
            let rerun = det.detect(&scrub(&world, &report.banned));
            prop_assert_eq!(&rerun.scores, &report.scores, "{} re-scored", report.detector);
        }
    }

    /// 2. Clean-world safety: defaults never flag organic users.
    #[test]
    fn no_false_positives_on_clean_worlds(seed in 0u64..64) {
        let world = clean_world(seed);
        for det in all_detectors() {
            let report = det.detect(&world);
            prop_assert!(
                report.banned.is_empty(),
                "{} flagged {:?} on clean seed {seed}",
                report.detector,
                report.banned
            );
        }
    }

    /// 3. Permutation invariance: bans follow the relabeling exactly.
    #[test]
    fn ban_set_is_invariant_to_user_permutation(
        seed in 0u64..16,
        n_fakes in 2usize..6,
        swaps in proptest::collection::vec((0usize..1000, 0usize..1000), 0..40),
    ) {
        let world = flood_world(seed, n_fakes, 40);
        let perm = permutation(world.ratings.n_users(), &swaps);
        let permuted = permute_users(&world, &perm);
        for det in detectors_with_moderator() {
            let base = det.detect(&world);
            let shuffled = det.detect(&permuted);
            let mut mapped: Vec<usize> = base.banned.iter().map(|&u| perm[u]).collect();
            mapped.sort_unstable();
            let mut got = shuffled.banned.clone();
            got.sort_unstable();
            prop_assert_eq!(
                mapped,
                got,
                "{} ban set did not commute with the permutation",
                base.detector
            );
        }
    }

    /// 4. Budget conservation: injection adds exactly the resolved budget,
    /// and scrubbing every fake restores the organic rating count.
    #[test]
    fn fake_injection_conserves_budget(seed in 0u64..32, b in 1usize..10, fillers in 0usize..6) {
        let mut data = clean_world(seed);
        let organic_users = data.n_real_users;
        let organic_ratings = data.ratings.len();

        let ctx = IaContext { b, fillers_per_fake: fillers, candidate_pool: 8, seed };
        let n_fake = ctx.fake_count(organic_users);
        let (fakes, fixed) = inject_fakes(&mut data, &ctx, 0);
        prop_assert_eq!(fakes.len(), n_fake);
        prop_assert_eq!(fixed.len(), n_fake);
        prop_assert!(fakes.iter().all(|&f| data.is_fake(f)));

        // Give every fake its filler budget on distinct non-target items.
        let mut actions = fixed;
        for (fi, &f) in fakes.iter().enumerate() {
            for j in 0..fillers {
                let item = 1 + ((fi * fillers + j) % (data.ratings.n_items() - 1));
                actions.push(PoisonAction::Rating {
                    user: f as u32,
                    item: item as u32,
                    value: 4.0,
                });
            }
        }
        let poisoned = data.apply_poison(&actions);
        prop_assert_eq!(
            poisoned.ratings.len(),
            organic_ratings + n_fake * (1 + fillers),
            "each fake contributes exactly 1 target rating + fillers"
        );

        // Scrubbing the complete fake set is exact: organic ratings survive.
        let all_fakes: Vec<usize> = (organic_users..poisoned.n_users()).collect();
        let scrubbed = scrub(&poisoned, &all_fakes);
        prop_assert_eq!(scrubbed.ratings.len(), organic_ratings);
    }
}

/// Non-proptest spot check: the composed policy's ban counts are stable
/// under repeated runs (determinism across invocations in one process).
#[test]
fn composed_policy_is_deterministic() {
    let world = flood_world(11, 5, 40);
    let (_, first) = ShadowBanPolicy::composed().run(&world);
    let (_, second) = ShadowBanPolicy::composed().run(&world);
    assert_eq!(first, second);
}
