//! The pluggable moderator pipeline: detectors and shadow-ban policies.
//!
//! Each [`Detector`] scores accounts from their own rating profiles against
//! statistics of the *currently unbanned, active* population, iterating to a
//! fixed point (ban the outliers, re-estimate, repeat). Because the final
//! statistics are computed over exactly the surviving population, re-running
//! any detector on an already-scrubbed world reproduces those statistics and
//! bans nobody — shadow-banning is idempotent by construction, not by
//! threshold luck.
//!
//! Every score reads only active users' ratings and the social edges among
//! them, and every cross-user reduction is order-canonicalized (sorted
//! summands, rank statistics), so ban sets are exactly permutation-invariant.
//!
//! A [`ShadowBanPolicy`] chains detectors: each stage detects on the world
//! the previous stage left behind, scrubs its bans (ids stay stable — a
//! shadow ban), and records a typed [`DetectionReport`].

use std::collections::{BTreeSet, HashSet};

use msopds_faultline as faultline;
use msopds_recdata::{Dataset, Rating, RatingMatrix};
use msopds_telemetry as telemetry;
use serde::{Deserialize, Serialize};

/// Accounts banned across all [`ShadowBanPolicy::run`] calls.
static BANNED_ACCOUNTS: telemetry::Counter = telemetry::Counter::new("gameplay.detectors.banned");
/// Detector passes executed (one per fixed-point round).
static DETECTOR_ROUNDS: telemetry::Counter = telemetry::Counter::new("gameplay.detectors.rounds");

/// One detector stage's verdict on a world.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DetectionReport {
    /// Detector name (stable identifier, e.g. `"degree"`).
    pub detector: String,
    /// Ban threshold the scores were compared against.
    pub threshold: f64,
    /// Final per-user suspicion score (0 for inactive/banned-out users).
    pub scores: Vec<f64>,
    /// Banned user ids, ascending.
    pub banned: Vec<usize>,
    /// Fixed-point rounds the detector needed.
    pub rounds: usize,
}

/// A moderator-style anomaly detector over user rating profiles.
pub trait Detector: Send + Sync {
    /// Stable identifier (used in specs, reports, and golden traces).
    fn name(&self) -> &'static str;

    /// Ban threshold: a user is banned when its score strictly exceeds this.
    fn threshold(&self) -> f64;

    /// Minimum rating count for a user to be scored at all; users below it
    /// score 0 and are never banned. Must be ≥ 1 so scrubbed (zero-rating)
    /// accounts are invisible to re-runs.
    fn min_activity(&self) -> usize {
        1
    }

    /// Scores the given active users. Implementations must only read
    /// `data.ratings.by_user(u)` and social edges between users of `active`
    /// (population statistics over `active` included) so that the
    /// fixed-point idempotence argument holds, and must reduce across users
    /// in a permutation-invariant order.
    fn score_active(&self, data: &Dataset, active: &[usize]) -> Vec<f64>;

    /// Runs the detector to its ban fixed point.
    fn detect(&self, data: &Dataset) -> DetectionReport {
        let _span = telemetry::span("detector");
        faultline::fault_point!("defense.detect");
        let n = data.n_users();
        let mut scores = vec![0.0; n];
        let mut banned: BTreeSet<usize> = BTreeSet::new();
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            DETECTOR_ROUNDS.incr();
            let active: Vec<usize> = (0..n)
                .filter(|&u| {
                    !banned.contains(&u) && data.ratings.user_degree(u) >= self.min_activity()
                })
                .collect();
            if active.is_empty() {
                break;
            }
            let s = self.score_active(data, &active);
            debug_assert_eq!(s.len(), active.len());
            let mut newly = Vec::new();
            for (&u, &su) in active.iter().zip(&s) {
                scores[u] = su;
                if su > self.threshold() {
                    newly.push(u);
                }
            }
            if newly.is_empty() {
                break;
            }
            for &u in &newly {
                banned.insert(u);
                scores[u] = 0.0;
            }
            // Re-score the survivors under the shrunken population; the
            // banned set only grows, so this terminates in ≤ n rounds.
        }
        // Banned users keep their last in-round score for diagnostics.
        let banned: Vec<usize> = banned.into_iter().collect();
        DetectionReport {
            detector: self.name().to_string(),
            threshold: self.threshold(),
            scores,
            banned,
            rounds,
        }
    }
}

/// Sums `values` in a canonical (sorted) order so the result is exactly
/// independent of the caller's iteration order — user permutations reorder
/// float summands, and unsorted summation would leak that into ban sets.
fn canonical_sum(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    values.iter().sum()
}

/// Median of `values` (canonical order; empty → 0).
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Robust z-scores: `|x − median| / max(1.4826·MAD, floor)`.
fn robust_z(values: &[f64], mad_floor: f64) -> Vec<f64> {
    let med = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
    let mad = (1.4826 * median(&deviations)).max(mad_floor);
    values.iter().map(|v| (v - med).abs() / mad).collect()
}

// ---------------------------------------------------------------------------
// Degree outlier
// ---------------------------------------------------------------------------

/// Flags accounts whose rating-profile length is a robust outlier (two-sided
/// |z| on the active population's degree distribution) — injected fakes rate
/// either far fewer or far more items than the organic profile length.
#[derive(Clone, Copy, Debug)]
pub struct DegreeOutlierDetector {
    /// Robust-z ban threshold.
    pub threshold: f64,
    /// MAD floor (degrees are near-constant in synthetic worlds).
    pub mad_floor: f64,
}

impl Default for DegreeOutlierDetector {
    fn default() -> Self {
        Self { threshold: 6.5, mad_floor: 1.0 }
    }
}

impl Detector for DegreeOutlierDetector {
    fn name(&self) -> &'static str {
        "degree"
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn score_active(&self, data: &Dataset, active: &[usize]) -> Vec<f64> {
        let degrees: Vec<f64> =
            active.iter().map(|&u| data.ratings.user_degree(u) as f64).collect();
        robust_z(&degrees, self.mad_floor)
    }
}

// ---------------------------------------------------------------------------
// Rating-distribution outlier
// ---------------------------------------------------------------------------

/// Divergence measure for [`DistributionDetector`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistMetric {
    /// Smoothed Kullback–Leibler divergence user ‖ population.
    Kl,
    /// Pearson χ² statistic of the user histogram against the population.
    ChiSq,
}

/// Flags accounts whose star-value histogram diverges from the population's
/// (KL or χ² on smoothed 5-bin histograms) — shilling profiles are heavy on
/// extremes relative to organic raters.
#[derive(Clone, Copy, Debug)]
pub struct DistributionDetector {
    /// Divergence ban threshold.
    pub threshold: f64,
    /// Minimum profile length to score (short profiles are pure noise).
    pub min_ratings: usize,
    /// Which divergence to compute.
    pub metric: DistMetric,
    /// Additive smoothing per histogram bin.
    pub smoothing: f64,
}

impl DistributionDetector {
    /// KL-divergence variant at default thresholds.
    pub fn kl() -> Self {
        Self { threshold: 2.2, min_ratings: 5, metric: DistMetric::Kl, smoothing: 0.5 }
    }

    /// χ²-statistic variant at default thresholds.
    pub fn chi2() -> Self {
        Self { threshold: 9.0, min_ratings: 5, metric: DistMetric::ChiSq, smoothing: 0.5 }
    }
}

impl Default for DistributionDetector {
    fn default() -> Self {
        Self::kl()
    }
}

/// Smoothed 5-bin star histogram of one user's ratings, as probabilities.
fn star_histogram(data: &Dataset, u: usize, smoothing: f64) -> [f64; 5] {
    let mut bins = [smoothing; 5];
    let mut total = 5.0 * smoothing;
    for r in data.ratings.by_user(u) {
        let b = (r.value.round().clamp(1.0, 5.0) as usize) - 1;
        bins[b] += 1.0;
        total += 1.0;
    }
    bins.map(|b| b / total)
}

impl Detector for DistributionDetector {
    fn name(&self) -> &'static str {
        match self.metric {
            DistMetric::Kl => "distribution",
            DistMetric::ChiSq => "chi2",
        }
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn min_activity(&self) -> usize {
        self.min_ratings.max(1)
    }

    fn score_active(&self, data: &Dataset, active: &[usize]) -> Vec<f64> {
        let histograms: Vec<[f64; 5]> =
            active.iter().map(|&u| star_histogram(data, u, self.smoothing)).collect();
        // Population histogram: per-bin *median* across users, renormalized
        // — a coordinated burst of poison profiles cannot drag the reference
        // the way a mean would be dragged.
        let mut pop = [0.0; 5];
        for (b, p) in pop.iter_mut().enumerate() {
            let bin: Vec<f64> = histograms.iter().map(|h| h[b]).collect();
            *p = median(&bin).max(1e-6);
        }
        let total: f64 = pop.iter().sum();
        for p in &mut pop {
            *p /= total;
        }
        histograms
            .iter()
            .map(|h| match self.metric {
                DistMetric::Kl => (0..5).map(|b| h[b] * (h[b] / pop[b]).ln()).sum::<f64>().max(0.0),
                DistMetric::ChiSq => (0..5).map(|b| (h[b] - pop[b]).powi(2) / pop[b]).sum(),
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Spectral outlier
// ---------------------------------------------------------------------------

/// Flags accounts whose rating vector has an outlying residual against the
/// population's top singular subspace (rank-1 power iteration over the
/// active users' profiles) — coordinated poison profiles sit off the organic
/// taste subspace.
#[derive(Clone, Copy, Debug)]
pub struct SpectralDetector {
    /// Robust-z ban threshold on the residual ratios.
    pub threshold: f64,
    /// Minimum profile length to score.
    pub min_ratings: usize,
    /// Power-iteration steps.
    pub iters: usize,
    /// MAD floor for the residual z-scores.
    pub mad_floor: f64,
}

impl Default for SpectralDetector {
    fn default() -> Self {
        Self { threshold: 8.0, min_ratings: 2, iters: 20, mad_floor: 0.08 }
    }
}

impl Detector for SpectralDetector {
    fn name(&self) -> &'static str {
        "spectral"
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn min_activity(&self) -> usize {
        self.min_ratings.max(1)
    }

    fn score_active(&self, data: &Dataset, active: &[usize]) -> Vec<f64> {
        let n_items = data.n_items();
        // Top right-singular vector of the active users' rating matrix by
        // power iteration on AᵀA, with a deterministic uniform init. Every
        // cross-user accumulation is sorted before summing so the vector is
        // exactly permutation-invariant.
        let mut v = vec![1.0 / (n_items as f64).sqrt(); n_items];
        for _ in 0..self.iters {
            // t_u = a_u · v (per-user; reads only that user's profile).
            let t: Vec<f64> = active
                .iter()
                .map(|&u| data.ratings.by_user(u).map(|r| r.value * v[r.item as usize]).sum())
                .collect();
            // w_i = Σ_u a_{u,i} · t_u, summands sorted per item.
            let mut contributions: Vec<Vec<f64>> = vec![Vec::new(); n_items];
            for (k, &u) in active.iter().enumerate() {
                for r in data.ratings.by_user(u) {
                    contributions[r.item as usize].push(r.value * t[k]);
                }
            }
            let w: Vec<f64> = contributions.into_iter().map(canonical_sum).collect();
            let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm <= f64::EPSILON {
                break;
            }
            v = w.into_iter().map(|x| x / norm).collect();
        }
        // Residual ratio of each profile against the rank-1 subspace.
        let residuals: Vec<f64> = active
            .iter()
            .map(|&u| {
                let norm2: f64 = data.ratings.by_user(u).map(|r| r.value * r.value).sum();
                let proj: f64 = data.ratings.by_user(u).map(|r| r.value * v[r.item as usize]).sum();
                if norm2 <= f64::EPSILON {
                    0.0
                } else {
                    ((norm2 - proj * proj).max(0.0) / norm2).sqrt()
                }
            })
            .collect();
        robust_z(&residuals, self.mad_floor)
    }
}

// ---------------------------------------------------------------------------
// Moderator signals
// ---------------------------------------------------------------------------

/// Weights of [`ModeratorDetector`]'s signals; they sum to 1, so scores stay
/// in `[0, 1]`.
const W_DEVIATION: f64 = 0.3;
const W_EXTREME: f64 = 0.25;
const W_ISOLATION: f64 = 0.25;
const W_CONCENTRATION: f64 = 0.2;

/// Flags accounts on the signals human moderators use (§VI-F: *"website
/// moderators usually detect and remove fake user accounts"*), as a fixed
/// weighted score:
///
/// * **deviation** — mean |rating − item mean| / 4 (poison rates against
///   consensus);
/// * **extreme share** — fraction of 1★/5★ ratings;
/// * **isolation** — `1 − min(1, degree / mean degree)` in the social graph;
/// * **concentration** — `1 − distinct items / ratings`.
///
/// Item means, social degrees (active neighbours only) and the mean degree
/// (floored at 1) are all taken over the active population.
#[derive(Clone, Copy, Debug)]
pub struct ModeratorDetector;

impl Detector for ModeratorDetector {
    fn name(&self) -> &'static str {
        "moderator"
    }

    fn threshold(&self) -> f64 {
        0.5
    }

    fn score_active(&self, data: &Dataset, active: &[usize]) -> Vec<f64> {
        let mut is_active = vec![false; data.n_users()];
        let mut item_ratings: Vec<Vec<f64>> = vec![Vec::new(); data.n_items()];
        for &u in active {
            is_active[u] = true;
            for r in data.ratings.by_user(u) {
                item_ratings[r.item as usize].push(r.value);
            }
        }
        let item_mean: Vec<f64> = item_ratings
            .into_iter()
            .map(|values| {
                let n = values.len().max(1) as f64;
                canonical_sum(values) / n
            })
            .collect();
        let degrees: Vec<usize> = active
            .iter()
            .map(|&u| data.social.neighbors(u).filter(|&v| is_active[v]).count())
            .collect();
        let mean_degree = (degrees.iter().sum::<usize>() as f64 / active.len() as f64).max(1.0);
        active
            .iter()
            .zip(&degrees)
            .map(|(&u, &degree)| {
                let ratings: Vec<Rating> = data.ratings.by_user(u).collect();
                let n = ratings.len() as f64;
                let deviation = ratings
                    .iter()
                    .map(|r| (r.value - item_mean[r.item as usize]).abs() / 4.0)
                    .sum::<f64>()
                    / n;
                let extreme =
                    ratings.iter().filter(|r| r.value <= 1.0 || r.value >= 5.0).count() as f64 / n;
                let isolation = 1.0 - (degree as f64 / mean_degree).min(1.0);
                let distinct: HashSet<u32> = ratings.iter().map(|r| r.item).collect();
                let concentration = 1.0 - distinct.len() as f64 / n;
                W_DEVIATION * deviation
                    + W_EXTREME * extreme
                    + W_ISOLATION * isolation
                    + W_CONCENTRATION * concentration
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Shadow-ban policy
// ---------------------------------------------------------------------------

/// A composable moderator: an ordered chain of detector stages, each run on
/// the world the previous stage left behind, with its bans shadow-scrubbed.
pub struct ShadowBanPolicy {
    stages: Vec<Box<dyn Detector>>,
    name: String,
}

impl ShadowBanPolicy {
    /// The no-op moderator (zero stages).
    pub fn off() -> Self {
        Self { stages: Vec::new(), name: "off".to_string() }
    }

    /// All three detector families chained: degree → distribution → spectral.
    pub fn composed() -> Self {
        Self::from_spec("degree+distribution+spectral").expect("static spec")
    }

    /// Parses a policy spec: `"off"`, `"composed"`, or a `+`-chain of
    /// `degree` / `distribution` / `chi2` / `spectral` / `moderator` stage
    /// names.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        if spec == "off" {
            return Ok(Self::off());
        }
        if spec == "composed" {
            return Ok(Self::composed());
        }
        let mut stages: Vec<Box<dyn Detector>> = Vec::new();
        for part in spec.split('+') {
            let stage: Box<dyn Detector> = match part {
                "degree" => Box::new(DegreeOutlierDetector::default()),
                "distribution" => Box::new(DistributionDetector::kl()),
                "chi2" => Box::new(DistributionDetector::chi2()),
                "spectral" => Box::new(SpectralDetector::default()),
                "moderator" => Box::new(ModeratorDetector),
                other => return Err(format!("unknown detector `{other}` in policy spec")),
            };
            stages.push(stage);
        }
        Ok(Self { stages, name: spec.to_string() })
    }

    /// The built-in policy specs the attack × defense matrix sweeps.
    pub fn matrix_specs() -> [&'static str; 5] {
        ["off", "degree", "distribution", "spectral", "composed"]
    }

    /// The spec string this policy was built from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of detector stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True for the `off` policy.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Runs every stage in order, scrubbing between stages; returns the
    /// final (shadow-banned) world and one report per stage.
    pub fn run(&self, data: &Dataset) -> (Dataset, Vec<DetectionReport>) {
        let _span = telemetry::span("shadow_ban");
        let mut world = data.clone();
        let mut reports = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            let report = stage.detect(&world);
            BANNED_ACCOUNTS.add(report.banned.len() as u64);
            if !report.banned.is_empty() {
                world = scrub(&world, &report.banned);
            }
            reports.push(report);
        }
        (world, reports)
    }
}

/// Removes the flagged accounts' ratings and social edges (the accounts keep
/// their ids so indices stay stable — a "shadow ban").
pub fn scrub(data: &Dataset, flagged: &[usize]) -> Dataset {
    let _span = telemetry::span("scrub");
    let flagged: HashSet<usize> = flagged.iter().copied().collect();
    let mut ratings = RatingMatrix::new(data.n_users(), data.n_items());
    for r in data.ratings.ratings() {
        if !flagged.contains(&(r.user as usize)) {
            ratings.insert(*r);
        }
    }
    let social_edges: Vec<(usize, usize)> = data
        .social
        .edges()
        .into_iter()
        .filter(|(a, b)| !flagged.contains(a) && !flagged.contains(b))
        .collect();
    let social = msopds_het_graph::CsrGraph::from_edges(data.n_users(), &social_edges);
    Dataset {
        name: format!("{}-scrubbed", data.name),
        n_real_users: data.n_real_users,
        ratings,
        social,
        item_graph: data.item_graph.clone(),
    }
}

/// Replays a game with the policy's moderation applied between the players'
/// moves and the victim's retraining; returns the outcome and the per-stage
/// reports.
pub fn run_defended_game_with(
    base: &Dataset,
    market: &msopds_recdata::Market,
    method: crate::game::AttackMethod,
    cfg: &crate::game::GameConfig,
    policy: &ShadowBanPolicy,
) -> (crate::game::GameOutcome, Vec<DetectionReport>) {
    let _span = telemetry::span("policy_defended_game");
    let played = crate::game::play_world(base, market, method, cfg);
    let (moderated, reports) = policy.run(&played.world);
    let outcome = crate::game::score_world(&moderated, market, method, cfg, &played);
    (outcome, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msopds_recdata::{DatasetSpec, PoisonAction};

    fn clean() -> Dataset {
        DatasetSpec::micro().generate(3)
    }

    /// A blatant flood burst: each fake rates 40 items 5★ — far above the
    /// organic degree distribution and rank-one in item space.
    fn burst_world(n_fakes: usize) -> Dataset {
        let mut data = clean();
        let fakes = data.add_fake_users(n_fakes);
        let mut actions = Vec::new();
        for &f in &fakes {
            for item in 0..40u32 {
                actions.push(PoisonAction::Rating { user: f as u32, item, value: 5.0 });
            }
        }
        data.apply_poison(&actions)
    }

    #[test]
    fn degree_detector_flags_flood_bursts() {
        let world = burst_world(6);
        let report = DegreeOutlierDetector::default().detect(&world);
        assert!(!report.banned.is_empty(), "flood fakes should be degree outliers");
        assert!(report.banned.iter().all(|&u| world.is_fake(u)), "{:?}", report.banned);
    }

    #[test]
    fn spectral_detector_flags_flood_bursts() {
        let world = burst_world(6);
        let report = SpectralDetector::default().detect(&world);
        assert!(!report.banned.is_empty(), "rank-one floods should stand out spectrally");
        assert!(report.banned.iter().all(|&u| world.is_fake(u)), "{:?}", report.banned);
    }

    #[test]
    fn detectors_pass_clean_world() {
        let data = clean();
        for spec in ["degree", "distribution", "chi2", "spectral"] {
            let policy = ShadowBanPolicy::from_spec(spec).unwrap();
            let (_, reports) = policy.run(&data);
            assert!(
                reports[0].banned.is_empty(),
                "{spec} flagged {:?} on a clean world",
                reports[0].banned
            );
        }
    }

    #[test]
    fn off_policy_is_identity() {
        let world = burst_world(4);
        let (out, reports) = ShadowBanPolicy::off().run(&world);
        assert!(reports.is_empty());
        assert_eq!(out.ratings.len(), world.ratings.len());
    }

    #[test]
    fn composed_policy_reports_every_stage() {
        let world = burst_world(5);
        let (_, reports) = ShadowBanPolicy::composed().run(&world);
        assert_eq!(reports.len(), 3);
        assert_eq!(
            reports.iter().map(|r| r.detector.as_str()).collect::<Vec<_>>(),
            vec!["degree", "distribution", "spectral"]
        );
    }

    #[test]
    fn from_spec_rejects_unknown_stage() {
        assert!(ShadowBanPolicy::from_spec("degree+bogus").is_err());
    }

    #[test]
    fn detector_flags_shilling_fakes() {
        let world = burst_world(5);
        let report = ModeratorDetector.detect(&world);
        for u in world.n_real_users..world.n_users() {
            assert!(report.banned.contains(&u), "fake {u} not banned: {:?}", report.banned);
        }
        assert!(report.scores.iter().all(|s| (0.0..=1.0).contains(s)));
        assert_eq!(report.scores.len(), world.n_users());
    }

    #[test]
    fn clean_users_mostly_unflagged() {
        let data = clean();
        let report = ModeratorDetector.detect(&data);
        let flagged_real = report.banned.len() as f64 / data.n_users() as f64;
        assert!(flagged_real < 0.2, "false positive rate {flagged_real}");
    }

    #[test]
    fn scrub_removes_flagged_contributions() {
        let world = burst_world(5);
        let flagged: Vec<usize> = (world.n_real_users..world.n_users()).collect();
        let scrubbed = scrub(&world, &flagged);
        for &f in &flagged {
            assert_eq!(scrubbed.ratings.user_degree(f), 0);
            assert_eq!(scrubbed.social.degree(f), 0);
        }
        assert_eq!(scrubbed.n_users(), world.n_users(), "ids stay stable");
        assert!(scrubbed.ratings.len() < world.ratings.len());
    }

    #[test]
    fn moderator_defended_game_runs() {
        let (data, market) = crate::game::tests::setup();
        let method = crate::game::AttackMethod::Baseline(msopds_attacks::Baseline::Random);
        let cfg = crate::game::tests::quick_cfg();
        let policy = ShadowBanPolicy::from_spec("moderator").unwrap();
        let (outcome, reports) = run_defended_game_with(&data, &market, method, &cfg, &policy);
        assert!(outcome.avg_rating.is_finite());
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].detector, "moderator");
    }

    #[test]
    fn reports_round_trip_through_serde() {
        let world = burst_world(3);
        let report = DegreeOutlierDetector::default().detect(&world);
        let json = serde_json::to_string(&report).unwrap();
        let back: DetectionReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
