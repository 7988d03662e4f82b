//! Edge weights and a reference single-source shortest paths.
//!
//! The paper's future work (§VII) calls for "more attributes on vertices
//! and edges than a single label"; edge weights are the canonical case,
//! and SSSP its canonical traversal. A weight is a rule, not a stored
//! list: [`Weights::of`] hashes an edge's unordered endpoint pair with a
//! seed, so both directions of an undirected pair weigh the same and any
//! edge's weight follows from the edge alone. The distributed build in
//! `gcbfs-core` applies the rule as Algorithm 1 places each edge;
//! [`Weights::csr`] applies it to build the reference CSR that
//! [`dijkstra`] reads to validate the distributed Bellman–Ford.

use crate::csr::Csr;
use crate::edgelist::{EdgeList, VertexId};
use crate::permute::splitmix64;
use std::collections::BinaryHeap;

/// Distance marker for unreachable vertices.
pub const UNREACHABLE: u64 = u64::MAX;

/// Deterministic symmetric edge weights in `1..=max_weight`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Weights {
    max_weight: u32,
    seed: u64,
}

/// A weight rule was asked for a largest weight of 0; weights start at 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZeroMaxWeight;

impl std::fmt::Display for ZeroMaxWeight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the largest weight must be at least 1 (weights start at 1)")
    }
}

impl std::error::Error for ZeroMaxWeight {}

impl Weights {
    /// The rule drawing weights in `1..=max_weight` from `seed`.
    ///
    /// # Errors
    /// [`ZeroMaxWeight`] when `max_weight` is 0.
    pub fn new(max_weight: u32, seed: u64) -> Result<Self, ZeroMaxWeight> {
        if max_weight == 0 {
            return Err(ZeroMaxWeight);
        }
        Ok(Self { max_weight, seed })
    }

    /// The weight of edge `u -> v`, equal to that of `v -> u`.
    #[inline]
    pub fn of(&self, u: VertexId, v: VertexId) -> u32 {
        let (a, b) = (u.min(v), u.max(v));
        let h = splitmix64(self.seed ^ splitmix64(a.wrapping_mul(0x9e37).wrapping_add(b)));
        1 + (h % self.max_weight as u64) as u32
    }

    /// The weighted CSR of `graph` under this rule.
    pub fn csr(&self, graph: &EdgeList) -> WeightedCsr {
        Csr::build(graph.num_vertices, graph.edges.iter().map(|&(u, v)| (u, (v, self.of(u, v)))))
    }
}

/// A weighted CSR: each row's entries are `(neighbor, weight)` pairs,
/// sorted by neighbor, then weight.
pub type WeightedCsr = Csr<(VertexId, u32)>;

/// Reference Dijkstra returning distances from `source`.
pub fn dijkstra(graph: &WeightedCsr, source: u64) -> Vec<u64> {
    let n = graph.num_vertices() as usize;
    let mut dist = vec![UNREACHABLE; n];
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u64)>> = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(std::cmp::Reverse((0, source)));
    while let Some(std::cmp::Reverse((du, u))) = heap.pop() {
        if du > dist[u as usize] {
            continue;
        }
        for &(v, w) in graph.neighbors(u) {
            let cand = du + w as u64;
            if cand < dist[v as usize] {
                dist[v as usize] = cand;
                heap.push(std::cmp::Reverse((cand, v)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn weights_are_symmetric_and_deterministic() {
        let g = builders::grid(4, 4);
        let a = Weights::new(10, 7).unwrap();
        let b = Weights::new(10, 7).unwrap();
        let c = Weights::new(10, 8).unwrap();
        for &(u, v) in &g.edges {
            // Same pair, both directions, same weight, every time.
            assert_eq!(a.of(u, v), a.of(v, u), "asymmetric weight on {u}-{v}");
            assert_eq!(a.of(u, v), b.of(u, v));
            assert!((1..=10).contains(&a.of(u, v)));
        }
        // Different seeds differ.
        assert!(g.edges.iter().any(|&(u, v)| a.of(u, v) != c.of(u, v)));
    }

    #[test]
    fn a_zero_max_weight_is_refused() {
        assert_eq!(Weights::new(0, 7), Err(ZeroMaxWeight));
        assert_eq!(Weights::new(1, 7).unwrap().of(3, 9), 1);
    }

    #[test]
    fn dijkstra_on_uniform_weights_is_scaled_bfs() {
        let g = builders::cycle(8);
        let csr = Weights::new(1, 0).unwrap().csr(&g); // all weights 1
        let dist = dijkstra(&csr, 0);
        assert_eq!(dist, vec![0, 1, 2, 3, 4, 3, 2, 1]);
    }

    #[test]
    fn dijkstra_prefers_cheap_detours() {
        // 0 -10- 1, 0 -1- 2 -1- 1: the detour is cheaper.
        let edges = [(0, 1, 10), (1, 0, 10), (0, 2, 1), (2, 0, 1), (2, 1, 1), (1, 2, 1)];
        let csr = Csr::build(3, edges.iter().map(|&(u, v, w)| (u, (v, w))));
        assert_eq!(dijkstra(&csr, 0), vec![0, 2, 1]);
    }

    #[test]
    fn unreachable_stay_unreachable() {
        let mut g = builders::path(3);
        g.num_vertices = 5;
        let csr = Weights::new(4, 1).unwrap().csr(&g);
        let dist = dijkstra(&csr, 0);
        assert_eq!(dist[3], UNREACHABLE);
        assert_eq!(dist[4], UNREACHABLE);
    }
}
