//! Streaming world construction: the `WorldBuilder` API.
//!
//! [`DatasetSpec::generate`] historically materialized every intermediate
//! (per-user latent vectors, the full rating list, per-node adjacency
//! `Vec`s) before assembling a [`Dataset`] — fine at paper scale, a
//! dead end at a million users. `WorldBuilder` inverts the control flow:
//! the world is *emitted* as row-range [`WorldChunk`]s (ratings, social
//! edges, and planted user factors for a band of users), and consumers
//! decide what to keep. The scale bench streams chunks straight into a
//! snapshot writer and a [`msopds_het_graph::CsrBuilder`], never holding
//! more than one chunk of user state.
//!
//! Two modes share the API:
//!
//! * **Replay** ([`WorldBuilder::replay`]) runs the original sequential-RNG
//!   generator and re-emits its output in chunks. `DatasetSpec::generate`
//!   is now a thin wrapper over this mode, so existing seeds reproduce
//!   **byte-identical** datasets (locked by `tests/builder_parity.rs`).
//! * **Streaming** ([`WorldBuilder::streaming`]) derives every draw from a
//!   keyed hash of `(seed, phase, index)` instead of one sequential RNG, so
//!   a chunk's content is independent of chunk size and of all other
//!   chunks. Item-side tables (clusters, planted factors, a Feistel-
//!   permuted Zipf popularity) are O(n_items); user-side state is O(chunk).
//!   Social edges come from the chunk-invariant attachment generator in
//!   `msopds_het_graph::generate`.

use std::ops::Range;

use rand::Rng;
use rand::SeedableRng;

use msopds_het_graph::{build_item_graph, generate, CsrBuilder, CsrGraph};

use crate::dataset::Dataset;
use crate::ratings::{Rating, RatingMatrix};
use crate::synth::DatasetSpec;

/// One row-range band of a synthetic world.
#[derive(Clone, Debug)]
pub struct WorldChunk {
    /// The user ids this chunk covers.
    pub user_range: Range<usize>,
    /// Ratings by users in `user_range`, in emission order.
    pub ratings: Vec<Rating>,
    /// Social edges *owned by* nodes in `user_range` (each undirected edge
    /// is owned by exactly one endpoint, so concatenating all chunks yields
    /// every edge exactly once).
    pub social_edges: Vec<(usize, usize)>,
    /// Planted user factors, row-major `[user_range.len(), latent_dim]` —
    /// what the scale bench streams into a planted-model snapshot.
    pub user_latent: Vec<f64>,
}

/// How the builder produces draws.
enum Mode {
    /// The original sequential-RNG pipeline, re-emitted in chunks.
    Replay,
    /// Keyed per-(seed, phase, index) draws; chunk-size invariant.
    Streaming(StreamTables),
}

/// Streaming world construction over row-range chunks; see the module docs.
pub struct WorldBuilder {
    spec: DatasetSpec,
    seed: u64,
    mode: Mode,
}

impl WorldBuilder {
    /// A builder that replays the legacy sequential generator: byte-identical
    /// to what `DatasetSpec::generate(seed)` has always produced.
    pub fn replay(spec: DatasetSpec, seed: u64) -> Self {
        Self { spec, seed, mode: Mode::Replay }
    }

    /// A builder whose draws are keyed hashes — chunk-size invariant and
    /// O(n_items + chunk) resident, the constructor for million-user worlds.
    /// The distribution family matches replay (clustered planted factors,
    /// Zipf popularity, heavy-tailed social graph) but the streams differ
    /// draw-for-draw; use [`WorldBuilder::replay`] when byte-compat with
    /// historical seeds matters.
    pub fn streaming(spec: DatasetSpec, seed: u64) -> Self {
        let tables = StreamTables::build(&spec, seed);
        Self { spec, seed, mode: Mode::Streaming(tables) }
    }

    /// The spec this builder realizes.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Planted item factors, row-major `[n_items, latent_dim]`.
    pub fn item_latent(&self) -> Vec<f64> {
        match &self.mode {
            Mode::Replay => replay_world(&self.spec, self.seed).item_latent,
            Mode::Streaming(t) => t.item_latent.clone(),
        }
    }

    /// Emits the world as consecutive chunks of at most `rows_per_chunk`
    /// users. In streaming mode each chunk is computed independently; in
    /// replay mode the legacy world is generated once and sliced.
    pub fn for_each_chunk<F: FnMut(WorldChunk)>(&self, rows_per_chunk: usize, mut f: F) {
        let rows_per_chunk = rows_per_chunk.max(1);
        match &self.mode {
            Mode::Replay => {
                let world = replay_world(&self.spec, self.seed);
                let n = self.spec.n_users;
                let d = self.spec.latent_dim;
                let mut u0 = 0;
                while u0 < n {
                    let u1 = (u0 + rows_per_chunk).min(n);
                    let ratings: Vec<Rating> = world
                        .ratings
                        .iter()
                        .filter(|r| (u0..u1).contains(&(r.user as usize)))
                        .cloned()
                        .collect();
                    // Each undirected edge is owned by its larger endpoint.
                    let social_edges: Vec<(usize, usize)> = world
                        .social
                        .edges()
                        .into_iter()
                        .filter(|&(a, b)| {
                            let owner = a.max(b);
                            (u0..u1).contains(&owner)
                        })
                        .collect();
                    f(WorldChunk {
                        user_range: u0..u1,
                        ratings,
                        social_edges,
                        user_latent: world.user_latent[u0 * d..u1 * d].to_vec(),
                    });
                    u0 = u1;
                }
            }
            Mode::Streaming(t) => {
                let n = self.spec.n_users;
                let mut u0 = 0;
                while u0 < n {
                    let u1 = (u0 + rows_per_chunk).min(n);
                    f(self.stream_chunk(t, u0..u1));
                    u0 = u1;
                }
            }
        }
    }

    /// Assembles the full [`Dataset`]. For replay mode this *is* the legacy
    /// `DatasetSpec::generate` output; for streaming mode the rating matrix
    /// and social CSR are accumulated chunk by chunk (O(E), no dense
    /// intermediate) and the item graph comes from the streaming generator.
    pub fn build(&self) -> Dataset {
        match &self.mode {
            Mode::Replay => {
                let world = replay_world(&self.spec, self.seed);
                let matrix = RatingMatrix::from_ratings(
                    self.spec.n_users,
                    self.spec.n_items,
                    &world.ratings,
                );
                let item_graph = build_item_graph(
                    self.spec.n_users,
                    &matrix.raters_per_item(),
                    self.spec.item_graph_threshold,
                );
                Dataset::new(self.spec.name.clone(), matrix, world.social, item_graph)
            }
            Mode::Streaming(t) => {
                let mut ratings = Vec::with_capacity(self.spec.n_ratings);
                let mut social = CsrBuilder::with_capacity(self.spec.n_users, self.spec.n_links);
                self.for_each_chunk(65_536, |chunk| {
                    ratings.extend(chunk.ratings);
                    social.add_edges(chunk.social_edges.iter().copied());
                });
                let matrix =
                    RatingMatrix::from_ratings(self.spec.n_users, self.spec.n_items, &ratings);
                let item_graph = generate::streaming_social_like(
                    self.spec.n_items,
                    t.item_graph_edges,
                    phase_seed(self.seed, PHASE_ITEM_GRAPH),
                );
                Dataset::new(self.spec.name.clone(), matrix, social.finish(), item_graph)
            }
        }
    }

    /// Standard preprocessing from the paper (footnote 6): keep users with
    /// at least `min_friends` social links and `min_ratings` ratings,
    /// re-indexed densely. The social re-index goes through [`CsrBuilder`]
    /// (flat half-edge buffer, no per-node `Vec`s) so the filter scales to
    /// streamed worlds.
    pub fn preprocess(data: &Dataset, min_friends: usize, min_ratings: usize) -> Dataset {
        let keep: Vec<usize> = (0..data.n_users())
            .filter(|&u| {
                data.social.degree(u) >= min_friends && data.ratings.user_degree(u) >= min_ratings
            })
            .collect();
        let mut remap = vec![usize::MAX; data.n_users()];
        for (new, &old) in keep.iter().enumerate() {
            remap[old] = new;
        }
        let mut ratings = RatingMatrix::new(keep.len(), data.n_items());
        for r in data.ratings.ratings() {
            let nu = remap[r.user as usize];
            if nu != usize::MAX {
                ratings.insert(Rating { user: nu as u32, ..*r });
            }
        }
        let mut social = CsrBuilder::new(keep.len());
        for &old in &keep {
            for b in data.social.neighbors(old) {
                let nb = remap[b];
                if nb != usize::MAX && remap[old] < nb {
                    social.add_edge(remap[old], nb);
                }
            }
        }
        Dataset::new(
            format!("{}-filtered", data.name),
            ratings,
            social.finish(),
            data.item_graph.clone(),
        )
    }

    /// One independently-computed streaming chunk.
    fn stream_chunk(&self, t: &StreamTables, range: Range<usize>) -> WorldChunk {
        let spec = &self.spec;
        let d = spec.latent_dim;
        let base_count = spec.n_ratings as f64 / spec.n_users as f64;
        let mut ratings = Vec::new();
        let mut user_latent = Vec::with_capacity(range.len() * d);
        let mut social_edges = Vec::new();
        let mut picked: Vec<usize> = Vec::new();
        for u in range.clone() {
            let cluster = (keyed_unit(self.seed, PHASE_USER_CLUSTER, u as u64, 0)
                * spec.n_clusters as f64) as usize;
            let cluster = cluster.min(spec.n_clusters - 1);
            let row_start = user_latent.len();
            for k in 0..d {
                let g = keyed_gauss(self.seed, PHASE_USER_LATENT, u as u64, k as u64);
                user_latent.push(t.centers[cluster * d + k] + g * 0.35);
            }
            let frac = base_count.fract();
            let mut count = base_count.floor() as usize
                + usize::from(keyed_unit(self.seed, PHASE_RATING_COUNT, u as u64, 0) < frac);
            count = count.min(spec.n_items);
            picked.clear();
            for j in 0..count {
                // Duplicate (user, item) pairs redraw on fresh keyed lanes, like
                // replay's rejection loop; a slot that stays saturated after
                // RATING_REDRAWS is dropped. Without the redraws, dense
                // profiles (Ciao: ~17 ratings/user over small genre clusters)
                // lose ~25% of their rating volume relative to replay.
                let Some(i) = (0..RATING_REDRAWS)
                    .map(|retry| t.pick_item(self.seed, u as u64, j as u64, retry, cluster, spec))
                    .find(|i| !picked.contains(i))
                else {
                    continue;
                };
                picked.push(i);
                let affinity: f64 =
                    (0..d).map(|k| user_latent[row_start + k] * t.item_latent[i * d + k]).sum();
                let noise = keyed_gauss(self.seed, PHASE_RATING_NOISE, u as u64, j as u64);
                let raw = 3.3 + affinity + noise * spec.rating_noise;
                let stars = raw.round().clamp(1.0, 5.0);
                ratings.push(Rating { user: u as u32, item: i as u32, value: stars });
            }
        }
        generate::streaming_attachment_chunk(
            spec.n_users,
            t.m_social,
            phase_seed(self.seed, PHASE_SOCIAL),
            range.clone(),
            &mut social_edges,
        );
        WorldChunk { user_range: range, ratings, social_edges, user_latent }
    }
}

// Phase tags separating the keyed draw streams.
const PHASE_CENTERS: u64 = 1;
const PHASE_ITEM_CLUSTER: u64 = 2;
const PHASE_ITEM_LATENT: u64 = 3;
const PHASE_USER_CLUSTER: u64 = 4;
const PHASE_USER_LATENT: u64 = 5;
const PHASE_RATING_COUNT: u64 = 6;
const PHASE_RATING_NOISE: u64 = 7;
const PHASE_ITEM_PICK: u64 = 8;
const PHASE_SOCIAL: u64 = 9;
const PHASE_ITEM_GRAPH: u64 = 10;
const PHASE_PERM: u64 = 11;

// Redraw attempts per rating slot before a duplicate pair is dropped. Eight
// lanes push the residual loss below 1% even for the densest profile's
// in-cluster Zipf picks, matching replay's rejection-sampled volume.
const RATING_REDRAWS: u64 = 8;

/// Item-side tables for streaming mode: O(n_items), computed once.
struct StreamTables {
    /// Cluster centers, row-major `[n_clusters, latent_dim]`.
    centers: Vec<f64>,
    /// Planted item factors, row-major `[n_items, latent_dim]`.
    item_latent: Vec<f64>,
    /// Per-cluster item ids, sorted by descending popularity.
    clusters: Vec<Vec<u32>>,
    /// The Feistel permutation defining each item's popularity rank.
    perm: FeistelPerm,
    /// Attachment parameter for the social graph.
    m_social: usize,
    /// Edge target for the streaming item graph.
    item_graph_edges: usize,
}

impl StreamTables {
    fn build(spec: &DatasetSpec, seed: u64) -> Self {
        let d = spec.latent_dim;
        let mut centers = Vec::with_capacity(spec.n_clusters * d);
        for c in 0..spec.n_clusters {
            for k in 0..d {
                centers.push(keyed_gauss(seed, PHASE_CENTERS, c as u64, k as u64) * 0.9);
            }
        }
        let perm = FeistelPerm::new(phase_seed(seed, PHASE_PERM), spec.n_items);
        let mut item_cluster = Vec::with_capacity(spec.n_items);
        let mut item_latent = Vec::with_capacity(spec.n_items * d);
        for i in 0..spec.n_items {
            let c = ((keyed_unit(seed, PHASE_ITEM_CLUSTER, i as u64, 0) * spec.n_clusters as f64)
                as usize)
                .min(spec.n_clusters - 1);
            item_cluster.push(c);
            for k in 0..d {
                let g = keyed_gauss(seed, PHASE_ITEM_LATENT, i as u64, k as u64);
                item_latent.push(centers[c * d + k] + g * 0.35);
            }
        }
        // Per-cluster lists sorted by ascending rank == descending weight,
        // so the local Zipf-ish index sampler favors popular items.
        let mut clusters: Vec<Vec<u32>> = vec![Vec::new(); spec.n_clusters];
        for (i, &c) in item_cluster.iter().enumerate() {
            clusters[c].push(i as u32);
        }
        for list in &mut clusters {
            list.sort_by_key(|&i| perm.rank(i as usize));
        }
        let m_social = generate::attachment_m(spec.n_users, spec.n_links);
        Self {
            centers,
            item_latent,
            clusters,
            perm,
            m_social,
            item_graph_edges: spec.n_items.saturating_mul(4),
        }
    }

    /// One keyed item pick for `(user, draw j)`: cluster-biased with
    /// probability `in_cluster_prob`, Zipf-weighted by popularity rank via
    /// the inverse-CDF sampler (O(1), no rejection loop).
    fn pick_item(
        &self,
        seed: u64,
        u: u64,
        j: u64,
        retry: u64,
        cluster: usize,
        spec: &DatasetSpec,
    ) -> usize {
        let key = u.rotate_left(20) ^ j;
        // Lane pairs (0,1), (2,3), … keep retry draws independent while
        // retry 0 reproduces the original single-draw stream.
        let in_cluster = keyed_unit(seed, PHASE_ITEM_PICK, key, 2 * retry) < spec.in_cluster_prob;
        let r = keyed_unit(seed, PHASE_ITEM_PICK, key, 2 * retry + 1);
        if in_cluster && !self.clusters[cluster].is_empty() {
            let list = &self.clusters[cluster];
            let local = zipf_rank(r, list.len(), spec.zipf_exponent);
            list[local] as usize
        } else {
            let rank = zipf_rank(r, spec.n_items, spec.zipf_exponent);
            self.perm.item(rank)
        }
    }
}

/// Inverse-CDF sample of a rank in `0..n` with `P(rank) ∝ 1/(rank+1)^s`
/// (continuous approximation; exact enough for a popularity profile).
fn zipf_rank(unit: f64, n: usize, s: f64) -> usize {
    debug_assert!(n > 0);
    let nf = (n + 1) as f64;
    let x = if (s - 1.0).abs() < 1e-9 {
        // CDF(x) = ln(x) / ln(n+1)  →  x = (n+1)^u
        nf.powf(unit)
    } else {
        // CDF(x) = (x^(1-s) - 1) / ((n+1)^(1-s) - 1)
        let t = 1.0 - s;
        (1.0 + unit * (nf.powf(t) - 1.0)).powf(1.0 / t)
    };
    ((x.floor() as usize).saturating_sub(1)).min(n - 1)
}

/// A keyed bijection on `0..n` via a 4-round balanced Feistel network with
/// cycle-walking: `rank(item)` and `item(rank)` are exact inverses, each
/// O(1), with no n-sized permutation table — this replaces replay mode's
/// `perm.shuffle` for the streaming Zipf popularity assignment.
struct FeistelPerm {
    seed: u64,
    n: usize,
    half_bits: u32,
}

impl FeistelPerm {
    fn new(seed: u64, n: usize) -> Self {
        let needed = (usize::BITS - (n.max(2) - 1).leading_zeros()).max(2);
        let half_bits = needed.div_ceil(2);
        Self { seed, n, half_bits }
    }

    #[cfg(test)]
    fn domain(&self) -> u64 {
        1u64 << (2 * self.half_bits)
    }

    fn round(&self, x: u64, r: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let mut z = self.seed ^ (r << 32) ^ x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) & mask
    }

    fn encrypt_once(&self, v: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let (mut l, mut r) = (v >> self.half_bits, v & mask);
        for round in 0..4u64 {
            let (nl, nr) = (r, l ^ self.round(r, round));
            l = nl;
            r = nr;
        }
        (l << self.half_bits) | r
    }

    fn decrypt_once(&self, v: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let (mut l, mut r) = (v >> self.half_bits, v & mask);
        for round in (0..4u64).rev() {
            let (nl, nr) = (r ^ self.round(l, round), l);
            l = nl;
            r = nr;
        }
        (l << self.half_bits) | r
    }

    /// The popularity rank of `item` (cycle-walked into `0..n`).
    fn rank(&self, item: usize) -> usize {
        debug_assert!(item < self.n);
        let mut v = self.encrypt_once(item as u64);
        while v >= self.n as u64 {
            v = self.encrypt_once(v);
        }
        v as usize
    }

    /// The item holding popularity `rank` — the inverse of
    /// [`FeistelPerm::rank`].
    fn item(&self, rank: usize) -> usize {
        debug_assert!(rank < self.n);
        let mut v = self.decrypt_once(rank as u64);
        while v >= self.n as u64 {
            v = self.decrypt_once(v);
        }
        v as usize
    }
}

/// A phase-separated derived seed.
fn phase_seed(seed: u64, phase: u64) -> u64 {
    splitmix64(seed ^ phase.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform `[0, 1)` draw keyed on `(seed, phase, index, lane)`.
fn keyed_unit(seed: u64, phase: u64, index: u64, lane: u64) -> f64 {
    let r = splitmix64(splitmix64(phase_seed(seed, phase) ^ index.rotate_left(32)) ^ lane);
    (r >> 11) as f64 / (1u64 << 53) as f64
}

/// A standard-normal draw keyed on `(seed, phase, index, lane)` — Box–Muller
/// over two keyed units, matching the replay generator's `gauss`.
fn keyed_gauss(seed: u64, phase: u64, index: u64, lane: u64) -> f64 {
    let u1 = keyed_unit(seed, phase, index, lane.wrapping_mul(2)).max(f64::EPSILON);
    let u2 = keyed_unit(seed, phase, index, lane.wrapping_mul(2) + 1);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Everything replay mode materializes, in legacy order.
struct ReplayWorld {
    ratings: Vec<Rating>,
    user_latent: Vec<f64>,
    item_latent: Vec<f64>,
    social: CsrGraph,
}

/// The original `DatasetSpec::generate` pipeline, draw-for-draw: one
/// sequential `StdRng`, the exact phase order, the exact sampling loops.
/// Kept verbatim so existing seeds keep producing byte-identical data.
fn replay_world(spec: &DatasetSpec, seed: u64) -> ReplayWorld {
    use rand::seq::SliceRandom;

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let d = spec.latent_dim;

    // Planted structure: cluster centers, then user/item latents.
    let centers: Vec<Vec<f64>> =
        (0..spec.n_clusters).map(|_| (0..d).map(|_| gauss(&mut rng) * 0.9).collect()).collect();
    let user_cluster: Vec<usize> =
        (0..spec.n_users).map(|_| rng.gen_range(0..spec.n_clusters)).collect();
    let item_cluster: Vec<usize> =
        (0..spec.n_items).map(|_| rng.gen_range(0..spec.n_clusters)).collect();
    let user_latent: Vec<Vec<f64>> = (0..spec.n_users)
        .map(|u| (0..d).map(|k| centers[user_cluster[u]][k] + gauss(&mut rng) * 0.35).collect())
        .collect();
    let item_latent: Vec<Vec<f64>> = (0..spec.n_items)
        .map(|i| (0..d).map(|k| centers[item_cluster[i]][k] + gauss(&mut rng) * 0.35).collect())
        .collect();

    // Item popularity (Zipf over a random permutation).
    let mut perm: Vec<usize> = (0..spec.n_items).collect();
    perm.shuffle(&mut rng);
    let mut weight = vec![0.0; spec.n_items];
    for (rank, &item) in perm.iter().enumerate() {
        weight[item] = 1.0 / ((rank + 1) as f64).powf(spec.zipf_exponent);
    }
    // Per-cluster popularity-weighted item lists for cluster-biased picks.
    let mut cluster_items: Vec<Vec<usize>> = vec![Vec::new(); spec.n_clusters];
    for i in 0..spec.n_items {
        cluster_items[item_cluster[i]].push(i);
    }

    let mut seen = std::collections::HashSet::new();
    let mut ratings = Vec::with_capacity(spec.n_ratings);
    let mut attempts = 0usize;
    let max_attempts = spec.n_ratings * 30;
    while ratings.len() < spec.n_ratings && attempts < max_attempts {
        attempts += 1;
        let u = rng.gen_range(0..spec.n_users);
        let pool: &[usize] =
            if rng.gen_bool(spec.in_cluster_prob) && !cluster_items[user_cluster[u]].is_empty() {
                &cluster_items[user_cluster[u]]
            } else {
                &perm
            };
        let i = weighted_pick(pool, &weight, &mut rng);
        if !seen.insert((u, i)) {
            continue;
        }
        let affinity: f64 = (0..d).map(|k| user_latent[u][k] * item_latent[i][k]).sum::<f64>();
        let raw = 3.3 + affinity + gauss(&mut rng) * spec.rating_noise;
        let stars = raw.round().clamp(1.0, 5.0);
        ratings.push(Rating { user: u as u32, item: i as u32, value: stars });
    }

    let social = generate::social_network_like(spec.n_users, spec.n_links, &mut rng);
    ReplayWorld {
        ratings,
        user_latent: user_latent.into_iter().flatten().collect(),
        item_latent: item_latent.into_iter().flatten().collect(),
        social,
    }
}

fn gauss<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn weighted_pick<R: Rng>(pool: &[usize], weight: &[f64], rng: &mut R) -> usize {
    use rand::seq::SliceRandom;
    debug_assert!(!pool.is_empty());
    // Rejection sampling against the max weight in the pool: cheap and exact.
    let wmax = pool.iter().map(|&i| weight[i]).fold(0.0, f64::max);
    loop {
        let &cand = pool.choose(rng).expect("non-empty pool");
        if rng.gen_bool((weight[cand] / wmax).clamp(0.0, 1.0)) {
            return cand;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feistel_perm_is_a_bijection() {
        for n in [1usize, 2, 3, 5, 100, 1000] {
            let p = FeistelPerm::new(0xdead_beef, n);
            assert!(p.domain() >= n as u64);
            let mut seen = vec![false; n];
            for i in 0..n {
                let r = p.rank(i);
                assert!(r < n, "rank {r} out of range for n={n}");
                assert!(!seen[r], "rank {r} hit twice");
                seen[r] = true;
                assert_eq!(p.item(r), i, "item(rank({i})) != {i}");
            }
        }
    }

    #[test]
    fn zipf_rank_prefers_low_ranks() {
        let n = 1000;
        let mut head = 0usize;
        let samples = 4000;
        for j in 0..samples {
            let u = keyed_unit(9, 99, j as u64, 0);
            if zipf_rank(u, n, 1.0) < 10 {
                head += 1;
            }
        }
        // Top-1% of ranks should absorb far more than 1% of mass under s=1
        // (≈ ln(11)/ln(1001) ≈ 35%).
        assert!(head > samples / 10, "only {head}/{samples} in the head");
    }

    #[test]
    fn streaming_chunks_are_chunk_size_invariant() {
        let spec = DatasetSpec::micro();
        let b = WorldBuilder::streaming(spec, 17);
        let collect = |rows: usize| {
            let mut ratings = Vec::new();
            let mut edges = Vec::new();
            let mut latent = Vec::new();
            b.for_each_chunk(rows, |c| {
                ratings.extend(c.ratings);
                edges.extend(c.social_edges);
                latent.extend(c.user_latent);
            });
            edges.sort_unstable();
            (ratings, edges, latent)
        };
        let whole = collect(usize::MAX);
        for rows in [1, 7, 59, 60] {
            let got = collect(rows);
            assert_eq!(got.0, whole.0, "ratings differ at chunk={rows}");
            assert_eq!(got.1, whole.1, "edges differ at chunk={rows}");
            assert_eq!(
                got.2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                whole.2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "latents differ at chunk={rows}"
            );
        }
    }

    #[test]
    fn streaming_build_matches_spec_statistics() {
        let spec = DatasetSpec::micro();
        let data = WorldBuilder::streaming(spec.clone(), 5).build();
        assert_eq!(data.n_users(), spec.n_users);
        assert_eq!(data.n_items(), spec.n_items);
        assert!(data.ratings.len() as f64 > 0.7 * spec.n_ratings as f64);
        assert!(data.social.num_edges() > 0);
        assert!(data.item_graph.num_edges() > 0);
        let mean = data.ratings.global_mean().unwrap();
        assert!(mean > 2.5 && mean < 4.6, "global mean {mean}");
        // Determinism + seed sensitivity.
        let again = WorldBuilder::streaming(spec.clone(), 5).build();
        assert_eq!(data.ratings.ratings(), again.ratings.ratings());
        assert_eq!(data.social, again.social);
        let other = WorldBuilder::streaming(spec, 6).build();
        assert_ne!(data.ratings.ratings(), other.ratings.ratings());
    }

    #[test]
    fn replay_build_equals_legacy_generate() {
        let spec = DatasetSpec::micro();
        let legacy = spec.generate(11);
        let built = WorldBuilder::replay(spec, 11).build();
        assert_eq!(legacy.ratings.ratings(), built.ratings.ratings());
        assert_eq!(legacy.social, built.social);
        assert_eq!(legacy.item_graph, built.item_graph);
        assert_eq!(legacy.name, built.name);
    }

    #[test]
    fn replay_chunks_reassemble_the_world() {
        let spec = DatasetSpec::micro();
        let b = WorldBuilder::replay(spec.clone(), 3);
        let built = b.build();
        let mut ratings = Vec::new();
        let mut social = CsrBuilder::new(spec.n_users);
        b.for_each_chunk(13, |c| {
            ratings.extend(c.ratings);
            social.add_edges(c.social_edges.iter().copied());
        });
        let matrix = RatingMatrix::from_ratings(spec.n_users, spec.n_items, &ratings);
        assert_eq!(matrix.ratings().len(), built.ratings.ratings().len());
        assert_eq!(social.finish(), built.social);
    }
}
