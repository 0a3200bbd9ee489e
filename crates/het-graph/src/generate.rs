//! Random social-network generators.
//!
//! The paper's datasets (Ciao, Epinions, LibraryThing) come with trust/social
//! networks exhibiting heavy-tailed degree distributions. The synthetic
//! substitutes here provide the same qualitative structure:
//! Barabási–Albert preferential attachment (heavy tail), Watts–Strogatz
//! (high clustering), and Erdős–Rényi (baseline control).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::csr::CsrGraph;

/// Barabási–Albert preferential attachment: each new node attaches to `m`
/// existing nodes with probability proportional to degree.
///
/// Produces the heavy-tailed degree distribution characteristic of social
/// trust networks.
///
/// # Panics
/// Panics if `m == 0` or `n < m + 1`.
pub fn barabasi_albert<R: Rng>(n: usize, m: usize, rng: &mut R) -> CsrGraph {
    assert!(m > 0, "attachment count m must be positive");
    assert!(n > m, "need more than m = {m} nodes, got {n}");
    let mut edges: Vec<(usize, usize)> = Vec::new();
    // Repeated-node list: sampling uniformly from it is degree-proportional.
    let mut targets: Vec<usize> = (0..=m).collect();
    // Seed clique on the first m+1 nodes.
    for a in 0..=m {
        for b in (a + 1)..=m {
            edges.push((a, b));
        }
    }
    let mut pool: Vec<usize> = Vec::new();
    for a in 0..=m {
        for _ in 0..m {
            pool.push(a);
        }
    }
    for v in (m + 1)..n {
        targets.clear();
        while targets.len() < m {
            let candidate = *pool.choose(rng).expect("pool is non-empty");
            if !targets.contains(&candidate) {
                targets.push(candidate);
            }
        }
        for &t in &targets {
            edges.push((v, t));
            pool.push(v);
            pool.push(t);
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Watts–Strogatz small world: ring lattice with `k` nearest neighbors per
/// side and rewiring probability `beta`.
///
/// # Panics
/// Panics if `k == 0` or `2k >= n`.
pub fn watts_strogatz<R: Rng>(n: usize, k: usize, beta: f64, rng: &mut R) -> CsrGraph {
    assert!(k > 0 && 2 * k < n, "watts_strogatz needs 0 < 2k < n (k={k}, n={n})");
    let mut edges = Vec::with_capacity(n * k);
    for u in 0..n {
        for d in 1..=k {
            let mut v = (u + d) % n;
            if rng.gen_bool(beta) {
                // Rewire to a uniform non-self target; collisions are dropped
                // by CSR dedup, slightly lowering the edge count, as in the
                // standard formulation.
                v = rng.gen_range(0..n);
                if v == u {
                    v = (v + 1) % n;
                }
            }
            edges.push((u, v));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Draws a Barabási–Albert graph whose expected edge count approximates
/// `target_edges`, by choosing the attachment parameter `m ≈ E/n`.
pub fn social_network_like<R: Rng>(n: usize, target_edges: usize, rng: &mut R) -> CsrGraph {
    let m = attachment_m(n, target_edges);
    barabasi_albert(n, m, rng)
}

/// The attachment parameter `m ≈ E/n` shared by [`social_network_like`] and
/// its streaming counterpart.
pub fn attachment_m(n: usize, target_edges: usize) -> usize {
    let m = (target_edges as f64 / n as f64).round().max(1.0) as usize;
    m.min(n.saturating_sub(2)).max(1)
}

/// splitmix64 — the keyed hash behind the streaming generators. Finalizing
/// a composed key through two rounds decorrelates nearby `(v, j)` pairs.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` keyed on `(seed, v, j)` — no sequential RNG
/// state, so any caller computing the same key gets the same draw.
fn keyed_unit(seed: u64, v: u64, j: u64) -> f64 {
    let r = splitmix64(splitmix64(seed ^ v.rotate_left(32)) ^ j);
    (r >> 11) as f64 / (1u64 << 53) as f64
}

/// The attachment targets of node `v` in the *streaming* heavy-tailed
/// generator: `m` distinct nodes `< v`, each drawn as `⌊v·r²⌋` with `r`
/// keyed on `(seed, v, j)`.
///
/// The `r²` bias reproduces Barabási–Albert's expected degree profile
/// (`deg(u) ∝ √(n/u)`) without the sequential repeated-node pool, so a
/// node's edges depend only on `(seed, v)` — **chunk-size invariant** by
/// construction: generating rows `0..n` in one pass or in any partition of
/// row ranges yields the identical edge set.
///
/// # Panics
/// Panics unless `m < v` (earlier nodes form the seed clique).
pub fn attachment_targets(seed: u64, m: usize, v: usize) -> Vec<usize> {
    assert!(v > m, "node {v} is inside the seed clique (m = {m})");
    let mut targets = Vec::with_capacity(m);
    let mut j = 0u64;
    let retry_cap = 64 * (m as u64 + 1);
    while targets.len() < m {
        if j >= retry_cap {
            // Pathologically collided small-v draw: fill from the lowest
            // free ids (still a pure function of (seed, v)).
            for u in 0..v {
                if !targets.contains(&u) {
                    targets.push(u);
                    if targets.len() == m {
                        break;
                    }
                }
            }
            break;
        }
        let r = keyed_unit(seed, v as u64, j);
        let u = (((r * r) * v as f64) as usize).min(v - 1);
        if !targets.contains(&u) {
            targets.push(u);
        }
        j += 1;
    }
    targets
}

/// Appends the edges *owned by* nodes `range` of the streaming attachment
/// graph on `n` nodes: seed-clique edges `(a, b), a < b ≤ m` belong to `b`,
/// and each later node `v` owns its `m` attachment edges. Every edge is
/// owned by exactly one node, so emitting all ranges of any partition of
/// `0..n` produces the full graph exactly once.
pub fn streaming_attachment_chunk(
    n: usize,
    m: usize,
    seed: u64,
    range: std::ops::Range<usize>,
    out: &mut Vec<(usize, usize)>,
) {
    assert!(m > 0, "attachment count m must be positive");
    assert!(n > m, "need more than m = {m} nodes, got {n}");
    for v in range.start..range.end.min(n) {
        if v <= m {
            for a in 0..v {
                out.push((a, v));
            }
        } else {
            for u in attachment_targets(seed, m, v) {
                out.push((v, u));
            }
        }
    }
}

/// The streaming counterpart of [`social_network_like`]: a heavy-tailed
/// graph with `≈ target_edges` edges built through [`crate::CsrBuilder`]
/// from keyed per-node draws. Unlike the Barabási–Albert generator it takes
/// a bare seed (no sequential RNG), and the result is identical however the
/// node range is chunked.
pub fn streaming_social_like(n: usize, target_edges: usize, seed: u64) -> CsrGraph {
    let m = attachment_m(n, target_edges);
    let mut builder = crate::CsrBuilder::with_capacity(n, target_edges);
    let mut buf = Vec::new();
    let chunk = 65_536;
    let mut v0 = 0;
    while v0 < n {
        buf.clear();
        streaming_attachment_chunk(n, m, seed, v0..(v0 + chunk).min(n), &mut buf);
        builder.add_edges(buf.iter().copied());
        v0 += chunk;
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn ba_edge_count() {
        let g = barabasi_albert(100, 3, &mut rng(1));
        // Seed clique C(4,2)=6 plus 3 per each of the 96 remaining nodes.
        assert_eq!(g.num_edges(), 6 + 96 * 3);
        assert_eq!(g.num_nodes(), 100);
        assert_eq!(g.connected_components(), 1);
    }

    #[test]
    fn ba_heavy_tail() {
        let g = barabasi_albert(500, 2, &mut rng(2));
        let max_deg = (0..500).map(|u| g.degree(u)).max().unwrap();
        let mean = g.mean_degree();
        // Hubs should be far above the mean degree.
        assert!(max_deg as f64 > 4.0 * mean, "max {max_deg}, mean {mean}");
    }

    #[test]
    fn ws_ring_without_rewiring() {
        let g = watts_strogatz(20, 2, 0.0, &mut rng(3));
        assert_eq!(g.num_edges(), 40);
        for u in 0..20 {
            assert_eq!(g.degree(u), 4);
            assert!(g.has_edge(u, (u + 1) % 20));
            assert!(g.has_edge(u, (u + 2) % 20));
        }
    }

    #[test]
    fn ws_rewiring_perturbs() {
        let g0 = watts_strogatz(50, 3, 0.0, &mut rng(4));
        let g1 = watts_strogatz(50, 3, 0.9, &mut rng(4));
        assert_ne!(g0, g1);
    }

    #[test]
    fn social_network_like_hits_target() {
        let g = social_network_like(200, 800, &mut rng(6));
        let got = g.num_edges() as f64;
        assert!((got - 800.0).abs() < 200.0, "got {got} edges");
    }

    #[test]
    fn generators_are_seeded_deterministic() {
        let a = barabasi_albert(50, 2, &mut rng(7));
        let b = barabasi_albert(50, 2, &mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn streaming_social_is_chunk_invariant() {
        let (n, e, seed) = (500, 1500, 42u64);
        let reference = streaming_social_like(n, e, seed);
        // Rebuild from hand-chosen uneven chunkings: identical graph.
        for chunks in [vec![0, 1, 2, 499, 500], vec![0, 137, 138, 400, 500]] {
            let m = attachment_m(n, e);
            let mut b = crate::CsrBuilder::new(n);
            let mut buf = Vec::new();
            for w in chunks.windows(2) {
                buf.clear();
                streaming_attachment_chunk(n, m, seed, w[0]..w[1], &mut buf);
                b.add_edges(buf.iter().copied());
            }
            assert_eq!(b.finish(), reference);
        }
    }

    #[test]
    fn streaming_social_has_heavy_tail_and_target_edges() {
        let g = streaming_social_like(2000, 8000, 7);
        let got = g.num_edges() as f64;
        assert!((got - 8000.0).abs() < 2000.0, "got {got} edges");
        let max_deg = (0..2000).map(|u| g.degree(u)).max().unwrap();
        assert!(max_deg as f64 > 4.0 * g.mean_degree(), "max {max_deg} mean {}", g.mean_degree());
        assert_ne!(g, streaming_social_like(2000, 8000, 8), "seed must matter");
    }
}
