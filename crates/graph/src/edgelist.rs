//! Edge-list graph representation.
//!
//! The edge list is the interchange format of the workspace: generators
//! produce it, the edge distributor in `gcbfs-core` consumes it, and the
//! conventional-format memory comparison of Table I is computed against it
//! (16 bytes per directed edge).

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
    fn empty_graph_is_symmetric() {
        let g = EdgeList::new(5, vec![]);
        assert!(g.is_symmetric());
        assert_eq!(g.count_zero_degree(), 5);
    }
}
