//! Compressed sparse row (CSR) storage for undirected graphs.

use serde::{Deserialize, Serialize};

/// An undirected graph in CSR form with sorted neighbor lists.
///
/// Node ids are dense `0..n`. Self-loops and parallel edges are rejected at
/// construction. The structure is immutable; use [`CsrGraph::with_edges`] to
/// derive a graph with extra edges (how poisoned graphs 𝒢̂ are produced).
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl CsrGraph {
    /// Builds a graph on `n` nodes from an undirected edge list.
    ///
    /// Duplicate edges (in either orientation) and self-loops are ignored.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of bounds for {n} nodes");
            if a == b {
                continue;
            }
            adj[a].push(b as u32);
            adj[b].push(a as u32);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len());
        }
        Self { offsets, neighbors }
    }

    /// An edgeless graph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        Self { offsets: vec![0; n + 1], neighbors: Vec::new() }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Sorted neighbor list of `u`.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.neighbors[self.offsets[u]..self.offsets[u + 1]].iter().map(|&v| v as usize)
    }

    /// Degree of `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Whether the undirected edge `(a, b)` exists.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        let range = &self.neighbors[self.offsets[a]..self.offsets[a + 1]];
        range.binary_search(&(b as u32)).is_ok()
    }

    /// All undirected edges, each reported once with `a < b`.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.num_edges());
        for a in 0..self.num_nodes() {
            for b in self.neighbors(a) {
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// A new graph with `extra` edges merged in (duplicates ignored) and the
    /// node count grown to `n` if larger than the current count.
    pub fn with_edges(&self, n: usize, extra: &[(usize, usize)]) -> Self {
        let n = n.max(self.num_nodes());
        let mut all = self.edges();
        all.extend_from_slice(extra);
        Self::from_edges(n, &all)
    }

    /// Mean degree across nodes.
    pub fn mean_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            return 0.0;
        }
        self.neighbors.len() as f64 / self.num_nodes() as f64
    }

    /// Resident bytes of the CSR arrays (offsets + neighbor list) — the
    /// memory footprint the scale bench tracks for million-user worlds.
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.neighbors.len() * std::mem::size_of::<u32>()
    }

    /// A 64-bit structural fingerprint (FNV-1a over the CSR arrays).
    ///
    /// Two graphs with the same fingerprint are, for caching purposes, the
    /// same graph: the CSR form is canonical (sorted, deduplicated neighbor
    /// lists), so equal structures always hash equally, and a 64-bit digest
    /// makes accidental collisions negligible at this workspace's cache sizes.
    /// Used to key derived-tensor caches (see `msopds-recsys::convolve`).
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |x: u64| {
            for byte in x.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            }
        };
        eat(self.offsets.len() as u64);
        for &o in &self.offsets {
            eat(o as u64);
        }
        for &v in &self.neighbors {
            eat(u64::from(v));
        }
        h
    }

    /// Number of connected components (isolated nodes count as components).
    pub fn connected_components(&self) -> usize {
        let n = self.num_nodes();
        let mut seen = vec![false; n];
        let mut components = 0;
        let mut stack = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            components += 1;
            seen[start] = true;
            stack.push(start);
            while let Some(u) = stack.pop() {
                for v in self.neighbors(u) {
                    if !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
        }
        components
    }
}

/// Streaming construction of a [`CsrGraph`] without per-node `Vec`s.
///
/// [`CsrGraph::from_edges`] allocates one `Vec` per node — fine at paper
/// scale, ruinous at a million nodes (allocator overhead and pointer-chasing
/// dominate). The builder instead buffers flat directed half-edges, then
/// finishes with a counting sort into the canonical CSR arrays: O(E) memory,
/// two linear passes, no per-node allocation. Edges may arrive in any order
/// and any chunking; the canonical form (sorted, deduplicated neighbor
/// lists) makes the result independent of arrival order.
#[derive(Clone, Debug)]
pub struct CsrBuilder {
    n: usize,
    /// Directed half-edges, two per undirected edge.
    half: Vec<(u32, u32)>,
}

impl CsrBuilder {
    /// A builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize + 1, "CsrBuilder caps nodes at u32 range");
        Self { n, half: Vec::new() }
    }

    /// Pre-reserves space for `edges` undirected edges.
    pub fn with_capacity(n: usize, edges: usize) -> Self {
        let mut b = Self::new(n);
        b.half.reserve(edges * 2);
        b
    }

    /// Adds one undirected edge. Self-loops are ignored; duplicates are
    /// deduplicated at [`CsrBuilder::finish`].
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        let n = self.n;
        assert!(a < n && b < n, "edge ({a},{b}) out of bounds for {n} nodes");
        if a == b {
            return;
        }
        self.half.push((a as u32, b as u32));
        self.half.push((b as u32, a as u32));
    }

    /// Adds a chunk of undirected edges.
    pub fn add_edges<I: IntoIterator<Item = (usize, usize)>>(&mut self, edges: I) {
        for (a, b) in edges {
            self.add_edge(a, b);
        }
    }

    /// Counting-sorts the buffered half-edges into a canonical [`CsrGraph`].
    pub fn finish(self) -> CsrGraph {
        let n = self.n;
        let mut offsets = vec![0usize; n + 1];
        for &(a, _) in &self.half {
            offsets[a as usize + 1] += 1;
        }
        for i in 0..n {
            let (lo, hi) = (offsets[i], offsets[i + 1]);
            offsets[i + 1] = lo + hi;
        }
        let mut neighbors = vec![0u32; self.half.len()];
        let mut next = offsets[..n].to_vec();
        for &(a, b) in &self.half {
            let slot = next[a as usize];
            next[a as usize] += 1;
            neighbors[slot] = b;
        }
        drop(self.half);
        // Sort + dedup each row in place, compacting left. The write cursor
        // never passes a row's read start, so the copy is safe.
        let mut write = 0usize;
        let mut row_start = 0usize;
        for u in 0..n {
            let row_end = offsets[u + 1];
            neighbors[row_start..row_end].sort_unstable();
            let mut prev: Option<u32> = None;
            for k in row_start..row_end {
                let v = neighbors[k];
                if prev != Some(v) {
                    neighbors[write] = v;
                    write += 1;
                    prev = Some(v);
                }
            }
            offsets[u + 1] = write;
            row_start = row_end;
        }
        neighbors.truncate(write);
        neighbors.shrink_to_fit();
        CsrGraph { offsets, neighbors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_basics() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert!(g.has_edge(0, 2) && g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn edges_roundtrip() {
        let edges = vec![(0, 3), (1, 2), (0, 1)];
        let g = CsrGraph::from_edges(4, &edges);
        let mut got = g.edges();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1), (0, 3), (1, 2)]);
        assert_eq!(CsrGraph::from_edges(4, &got), g);
    }

    #[test]
    fn with_edges_merges_and_grows() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        let g2 = g.with_edges(5, &[(0, 1), (3, 4)]);
        assert_eq!(g2.num_nodes(), 5);
        assert_eq!(g2.num_edges(), 2);
        assert!(g2.has_edge(3, 4));
        // Original untouched.
        assert_eq!(g.num_nodes(), 3);
    }

    #[test]
    fn components() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        assert_eq!(g.connected_components(), 3); // {0,1,2}, {3,4}, {5}
        assert_eq!(CsrGraph::empty(4).connected_components(), 4);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(0);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.mean_degree(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_edge_panics() {
        let _ = CsrGraph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn builder_matches_from_edges() {
        let edges = vec![(0, 3), (1, 2), (0, 1), (1, 0), (2, 2), (4, 0), (0, 4)];
        let reference = CsrGraph::from_edges(5, &edges);
        let mut b = CsrBuilder::with_capacity(5, edges.len());
        b.add_edges(edges.iter().copied());
        assert_eq!(b.finish(), reference);
        // Arrival order and chunking do not matter: feed reversed, in chunks.
        let mut b2 = CsrBuilder::new(5);
        for chunk in edges.iter().rev().collect::<Vec<_>>().chunks(2) {
            b2.add_edges(chunk.iter().map(|&&e| e));
        }
        assert_eq!(b2.finish(), reference);
    }

    #[test]
    fn builder_empty_and_isolated() {
        assert_eq!(CsrBuilder::new(0).finish(), CsrGraph::empty(0));
        let g = CsrBuilder::new(4).finish();
        assert_eq!(g, CsrGraph::empty(4));
        assert!(g.resident_bytes() >= 5 * std::mem::size_of::<usize>());
    }

    #[test]
    fn fingerprint_tracks_structure() {
        let g1 = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let g2 = CsrGraph::from_edges(3, &[(1, 2), (0, 1), (1, 0)]); // same graph
        let g3 = CsrGraph::from_edges(3, &[(0, 1), (0, 2)]);
        let g4 = CsrGraph::from_edges(4, &[(0, 1), (1, 2)]); // extra isolated node
        assert_eq!(g1.fingerprint(), g2.fingerprint());
        assert_ne!(g1.fingerprint(), g3.fingerprint());
        assert_ne!(g1.fingerprint(), g4.fingerprint());
        assert_ne!(CsrGraph::empty(2).fingerprint(), CsrGraph::empty(3).fingerprint());
    }
}
