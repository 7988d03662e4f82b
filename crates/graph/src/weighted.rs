//! Weighted graphs and a reference single-source shortest paths.
//!
//! The paper's future work (§VII) calls for "more attributes on vertices
//! and edges than a single label"; edge weights are the canonical case,
//! and SSSP its canonical traversal. This module supplies the substrate:
//! a weighted edge list (deterministic symmetric weights layered over any
//! unweighted topology), its CSR of `(neighbor, weight)` entries, and a
//! Dijkstra reference used to validate the distributed Bellman–Ford in
//! `gcbfs-core`.

use crate::csr::Csr;
use crate::edgelist::{EdgeList, VertexId};
use crate::permute::splitmix64;
use std::collections::BinaryHeap;

/// Distance marker for unreachable vertices.
pub const UNREACHABLE: u64 = u64::MAX;

/// A weighted directed edge list (symmetric pairs carry equal weights).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedEdgeList {
    /// Number of vertices.
    pub num_vertices: u64,
    /// `(source, destination, weight)` triples.
    pub edges: Vec<(u64, u64, u32)>,
}

impl WeightedEdgeList {
    /// Layers deterministic weights in `1..=max_weight` over an existing
    /// (symmetric) topology: both directions of an undirected pair receive
    /// the same weight (hashed from the unordered endpoint pair and the
    /// seed).
    pub fn from_topology(graph: &EdgeList, max_weight: u32, seed: u64) -> Self {
        assert!(max_weight >= 1, "weights start at 1");
        let edges = graph
            .edges
            .iter()
            .map(|&(u, v)| {
                let (a, b) = (u.min(v), u.max(v));
                let h = splitmix64(seed ^ splitmix64(a.wrapping_mul(0x9e37).wrapping_add(b)));
                (u, v, 1 + (h % max_weight as u64) as u32)
            })
            .collect();
        Self { num_vertices: graph.num_vertices, edges }
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// The weighted CSR of this list.
    pub fn csr(&self) -> WeightedCsr {
        Csr::build(self.num_vertices, self.edges.iter().map(|&(u, v, w)| (u, (v, w))))
    }

    /// The unweighted topology (for building the unweighted machinery).
    pub fn topology(&self) -> EdgeList {
        EdgeList {
            num_vertices: self.num_vertices,
            edges: self.edges.iter().map(|&(u, v, _)| (u, v)).collect(),
        }
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
        let a = WeightedEdgeList::from_topology(&g, 10, 7);
        let b = WeightedEdgeList::from_topology(&g, 10, 7);
        assert_eq!(a, b);
        // Same pair, both directions, same weight.
        let mut weights = std::collections::HashMap::new();
        for &(u, v, w) in &a.edges {
            let key = (u.min(v), u.max(v));
            let prev = weights.insert(key, w);
            if let Some(p) = prev {
                assert_eq!(p, w, "asymmetric weight on {key:?}");
            }
            assert!((1..=10).contains(&w));
        }
        // Different seeds differ.
        let c = WeightedEdgeList::from_topology(&g, 10, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn dijkstra_on_uniform_weights_is_scaled_bfs() {
        let g = builders::cycle(8);
        let w = WeightedEdgeList::from_topology(&g, 1, 0); // all weights 1
        let csr = w.csr();
        let dist = dijkstra(&csr, 0);
        assert_eq!(dist, vec![0, 1, 2, 3, 4, 3, 2, 1]);
    }

    #[test]
    fn dijkstra_prefers_cheap_detours() {
        // 0 -10- 1, 0 -1- 2 -1- 1: the detour is cheaper.
        let w = WeightedEdgeList {
            num_vertices: 3,
            edges: vec![(0, 1, 10), (1, 0, 10), (0, 2, 1), (2, 0, 1), (2, 1, 1), (1, 2, 1)],
        };
        let csr = w.csr();
        assert_eq!(dijkstra(&csr, 0), vec![0, 2, 1]);
    }

    #[test]
    fn unreachable_stay_unreachable() {
        let mut g = builders::path(3);
        g.num_vertices = 5;
        let w = WeightedEdgeList::from_topology(&g, 4, 1);
        let csr = w.csr();
        let dist = dijkstra(&csr, 0);
        assert_eq!(dist[3], UNREACHABLE);
        assert_eq!(dist[4], UNREACHABLE);
    }

    #[test]
    fn topology_roundtrip() {
        let g = builders::double_star(4);
        let w = WeightedEdgeList::from_topology(&g, 6, 3);
        assert_eq!(w.topology(), g);
        assert_eq!(w.num_edges(), g.num_edges());
    }
}
