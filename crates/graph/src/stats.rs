//! Degree-distribution statistics.
//!
//! The paper's degree-threshold analysis (Figs. 5, 7, 12) is entirely a
//! function of the out-degree distribution; this module provides the
//! histogram and percentile machinery those figures are computed from.

use crate::edgelist::EdgeList;

/// Summary of an out-degree distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices.
    pub num_vertices: u64,
    /// Number of directed edges (sum of degrees).
    pub num_edges: u64,
    /// Largest out-degree.
    pub max_degree: u64,
    /// Mean out-degree.
    pub mean_degree: f64,
    /// Count of zero-degree vertices.
    pub zero_degree: u64,
    /// `histogram[k]` = number of vertices whose degree's bit length is `k`
    /// (log2 histogram: bucket 0 holds degree 0, bucket 1 degree 1,
    /// bucket 2 degrees 2–3, ...).
    pub log2_histogram: Vec<u64>,
}

impl DegreeStats {
    /// Computes statistics from out-degrees.
    pub fn from_degrees(degrees: &[u64]) -> Self {
        let num_edges: u64 = degrees.iter().sum();
        let max_degree = degrees.iter().copied().max().unwrap_or(0);
        let buckets = 65 - max_degree.leading_zeros() as usize;
        let mut log2_histogram = vec![0u64; buckets.max(1)];
        let mut zero_degree = 0;
        for &d in degrees {
            if d == 0 {
                zero_degree += 1;
            }
            log2_histogram[bit_length(d)] += 1;
        }
        Self {
            num_vertices: degrees.len() as u64,
            num_edges,
            max_degree,
            mean_degree: if degrees.is_empty() {
                0.0
            } else {
                num_edges as f64 / degrees.len() as f64
            },
            zero_degree,
            log2_histogram,
        }
    }

    /// Computes statistics for a graph.
    pub fn from_graph(graph: &EdgeList) -> Self {
        Self::from_degrees(&graph.out_degrees())
    }
}

/// Bit length of `d` (0 for 0).
#[inline]
fn bit_length(d: u64) -> usize {
    (64 - d.leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn stats_on_star() {
        let s = DegreeStats::from_graph(&builders::star(7));
        assert_eq!(s.num_vertices, 8);
        assert_eq!(s.num_edges, 14);
        assert_eq!(s.max_degree, 7);
        assert_eq!(s.zero_degree, 0);
        // degree 7 -> bucket 3; degree 1 -> bucket 1
        assert_eq!(s.log2_histogram[3], 1);
        assert_eq!(s.log2_histogram[1], 7);
    }

    #[test]
    fn empty_distribution() {
        let s = DegreeStats::from_degrees(&[]);
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.mean_degree, 0.0);
    }
}
