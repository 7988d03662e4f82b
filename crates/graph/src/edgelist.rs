//! Edge-list graph representation.
//!
//! The edge list is the interchange format of the workspace: generators
//! produce it, the edge distributor in `gcbfs-core` consumes it, and the
//! conventional-format memory comparison of Table I is computed against it
//! (16 bytes per directed edge).

use crate::permute::splitmix64;
use rayon::prelude::*;

/// A global vertex identifier. The paper uses 64-bit global ids and converts
/// to 32-bit ids locally on each GPU.
pub type VertexId = u64;

/// A directed edge list over `num_vertices` vertices.
///
/// Undirected graphs are represented by *edge doubling*: both `(u, v)` and
/// `(v, u)` are present. All the paper's graphs are symmetric (§II-A).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeList {
    /// Number of vertices `n`. Vertex ids are in `0..num_vertices`.
    pub num_vertices: u64,
    /// Directed edges `(source, destination)`.
    pub edges: Vec<(VertexId, VertexId)>,
}

impl EdgeList {
    /// Creates an edge list, checking that every endpoint is in range.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn new(num_vertices: u64, edges: Vec<(VertexId, VertexId)>) -> Self {
        debug_assert!(
            edges.iter().all(|&(u, v)| u < num_vertices && v < num_vertices),
            "edge endpoint out of range"
        );
        Self { num_vertices, edges }
    }

    /// Number of directed edges `m`.
    pub fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Makes the graph symmetric by edge doubling: for every `(u, v)` adds
    /// `(v, u)`. Self-loops are not doubled (the reverse would be identical).
    ///
    /// This is exactly the Graph500 preparation step the paper applies to
    /// RMAT, Friendster, and WDC inputs.
    pub fn symmetrize(&mut self) {
        let reverse: Vec<(VertexId, VertexId)> =
            self.edges.par_iter().filter(|&&(u, v)| u != v).map(|&(u, v)| (v, u)).collect();
        self.edges.extend(reverse);
    }

    /// Returns true if for every `(u, v)` the edge `(v, u)` is also present
    /// (with matching multiplicity).
    pub fn is_symmetric(&self) -> bool {
        // The edges going up (`u < v`) must be those going down, flipped:
        // two sorts of half the edges each, not two of all of them.
        let half = |up: bool| {
            let mut half: Vec<(VertexId, VertexId)> = self
                .edges
                .par_iter()
                .filter(|&&(u, v)| u != v && (u < v) == up)
                .map(|&(u, v)| (u.min(v), u.max(v)))
                .collect();
            half.par_sort_unstable();
            half
        };
        half(true) == half(false)
    }

    /// Removes duplicate edges and self-loops, in place.
    pub fn dedup(&mut self) {
        self.edges.par_sort_unstable();
        self.edges.dedup();
        self.edges.retain(|&(u, v)| u != v);
    }

    /// Out-degree of every vertex.
    ///
    /// Parallelized by scattering atomic increments over a shared counter
    /// array instead of per-thread `vec![0; n]` locals. `u64` addition is
    /// commutative and exact, so the result is bit-identical at any thread
    /// count and under any schedule — and crucially the work decomposition
    /// no longer depends on `rayon::current_num_threads()`, keeping the
    /// determinism-under-any-pool-width property structural.
    pub fn out_degrees(&self) -> Vec<u64> {
        use std::sync::atomic::{AtomicU64, Ordering};
        let n = self.num_vertices as usize;
        let degrees: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let degrees_ref = &degrees;
        self.edges.par_iter().for_each(|&(u, _)| {
            degrees_ref[u as usize].fetch_add(1, Ordering::Relaxed);
        });
        degrees.into_iter().map(AtomicU64::into_inner).collect()
    }

    /// The hub: the highest out-degree vertex, the last one on ties (the
    /// rule of `Iterator::max_by_key`), or `None` with no vertices. Every
    /// harness starts one traversal from it.
    pub fn hub(&self) -> Option<VertexId> {
        self.out_degrees().iter().enumerate().max_by_key(|&(_, d)| d).map(|(v, _)| v as VertexId)
    }

    /// Up to `count` distinct sources with at least one edge, drawn in
    /// order by a splitmix64 chain from `seed`: the paper's random sources
    /// that run past one level (§VI-A3). It stops after `4n + 1000` draws,
    /// and returns no source when no vertex has an edge.
    pub fn source_pool(&self, count: usize, seed: u64) -> Vec<VertexId> {
        let mut sources = Vec::new();
        if self.edges.is_empty() {
            return sources;
        }
        let degrees = self.out_degrees();
        let n = self.num_vertices;
        let mut state = seed;
        let mut attempts = 0u64;
        while sources.len() < count && attempts < n * 4 + 1000 {
            state = splitmix64(state);
            let v = state % n;
            attempts += 1;
            if degrees[v as usize] > 0 && !sources.contains(&v) {
                sources.push(v);
            }
        }
        sources
    }

    /// Applies a vertex renumbering `f` to every endpoint.
    ///
    /// `f` must be a bijection on `0..num_vertices`; this is how the
    /// Graph500 vertex-id randomization (deterministic hashing, §VI-A3) is
    /// applied after edge generation.
    pub fn renumber(&mut self, f: impl Fn(VertexId) -> VertexId + Sync) {
        self.edges.par_iter_mut().for_each(|e| {
            e.0 = f(e.0);
            e.1 = f(e.1);
        });
        debug_assert!(
            self.edges.iter().all(|&(u, v)| u < self.num_vertices && v < self.num_vertices),
            "renumbering left the vertex range"
        );
    }

    /// Number of vertices with no outgoing edges (isolated in a symmetric
    /// graph). The paper reports these for Friendster and WDC.
    pub fn count_zero_degree(&self) -> u64 {
        self.out_degrees().iter().filter(|&&d| d == 0).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> EdgeList {
        EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3), (0, 2)])
    }

    #[test]
    fn symmetrize_doubles_edges() {
        let mut g = small();
        g.symmetrize();
        assert_eq!(g.num_edges(), 8);
        assert!(g.is_symmetric());
    }

    #[test]
    fn symmetrize_skips_self_loops() {
        let mut g = EdgeList::new(2, vec![(0, 0), (0, 1)]);
        g.symmetrize();
        assert_eq!(g.num_edges(), 3);
        assert!(g.is_symmetric());
    }

    #[test]
    fn asymmetric_graph_detected() {
        assert!(!small().is_symmetric());
        // Multiplicity counts, in either direction; self-loops pair with
        // themselves.
        assert!(!EdgeList::new(2, vec![(0, 1), (0, 1), (1, 0)]).is_symmetric());
        assert!(!EdgeList::new(2, vec![(1, 0), (1, 0), (0, 1)]).is_symmetric());
        assert!(EdgeList::new(2, vec![(1, 0), (1, 1), (0, 1), (1, 1), (0, 0)]).is_symmetric());
    }

    #[test]
    fn out_degrees_counts_sources() {
        let g = small();
        assert_eq!(g.out_degrees(), vec![2, 1, 1, 0]);
    }

    #[test]
    fn dedup_removes_duplicates_and_loops() {
        let mut g = EdgeList::new(3, vec![(0, 1), (0, 1), (1, 1), (2, 0)]);
        g.dedup();
        assert_eq!(g.edges, vec![(0, 1), (2, 0)]);
    }

    #[test]
    fn renumber_applies_bijection() {
        let mut g = small();
        let n = g.num_vertices;
        g.renumber(|v| n - 1 - v);
        assert_eq!(g.edges, vec![(3, 2), (2, 1), (1, 0), (3, 1)]);
    }

    #[test]
    fn zero_degree_count() {
        let g = small();
        assert_eq!(g.count_zero_degree(), 1);
    }

    #[test]
    fn hub_is_the_last_highest_degree_vertex() {
        // Vertices 0 and 2 tie at degree 2: the later one wins.
        let g = EdgeList::new(4, vec![(0, 1), (0, 3), (2, 1), (2, 3), (1, 0)]);
        assert_eq!(g.hub(), Some(2));
        assert_eq!(small().hub(), Some(0));
        // No edges: every vertex ties at 0, so the last is the hub.
        assert_eq!(EdgeList::new(3, vec![]).hub(), Some(2));
        assert_eq!(EdgeList::new(0, vec![]).hub(), None);
    }

    #[test]
    fn source_pool_draws_distinct_vertices_with_edges() {
        let g = crate::rmat::RmatConfig::graph500(8).generate();
        let degrees = g.out_degrees();
        let pool = g.source_pool(64, 9);
        assert_eq!(pool.len(), 64);
        assert!(pool.iter().all(|&v| degrees[v as usize] > 0));
        let mut distinct = pool.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), pool.len());
        assert_eq!(g.source_pool(64, 9), pool, "one seed, one pool");
        assert_ne!(g.source_pool(64, 10), pool);
        // A pool asks for no more sources than the graph has.
        let star = crate::builders::star(3);
        assert_eq!(star.source_pool(10, 1).len(), 4);
    }

    #[test]
    fn source_pool_is_empty_without_edges() {
        assert!(EdgeList::new(5, vec![]).source_pool(4, 1).is_empty());
        assert!(EdgeList::new(0, vec![]).source_pool(4, 1).is_empty());
    }

    #[test]
    fn source_pool_keeps_the_bench_harness_draw() {
        // Every committed exhibit's sources come from this draw, so it
        // must not move.
        let g = crate::rmat::RmatConfig::graph500(8).generate();
        assert_eq!(g.source_pool(5, 42), vec![149, 4, 70, 147, 198]);
        assert_eq!(
            g.source_pool(16, 0xf10),
            vec![39, 176, 144, 96, 180, 78, 45, 187, 225, 143, 20, 156, 249, 212, 4, 241]
        );
        assert_eq!(g.hub(), Some(80));
    }

    #[test]
    fn empty_graph_is_symmetric() {
        let g = EdgeList::new(5, vec![]);
        assert!(g.is_symmetric());
        assert_eq!(g.count_zero_degree(), 5);
    }
}
