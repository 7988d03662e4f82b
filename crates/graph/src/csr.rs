//! Compressed sparse row (CSR): the one adjacency type of the workspace.
//!
//! The paper deliberately keeps the *standard* CSR format (§II-D) so that
//! BFS can sit inside larger workflows without format conversion. One type,
//! [`Csr<C, O>`](Csr), and one builder, [`Csr::build`], hold every
//! adjacency: the reference graph ([`Csr`] at its defaults, 64-bit offsets
//! and columns), the weighted reference (`(column, weight)` entries), the
//! 2D baseline's blocks, and a GPU's four subgraphs in `gcbfs-core` (SSSP's
//! weighted ones too). A subgraph's type parameters are where Table I's
//! widths are decided: 32-bit offsets, 32-bit local columns and 64-bit
//! global `nn` columns; its byte counts are [`Csr::bytes`].

use crate::edgelist::{EdgeList, VertexId};
use rayon::prelude::*;
use std::mem::size_of_val;
use std::ops::Sub;

/// An offset width: the unsigned integer that indexes a CSR's entries.
/// A row id has the same width. `u64` is the reference graph's, `u32` a
/// GPU subgraph's (Table I), and `u8` keeps an overflow testable.
pub trait Offset: Copy + Ord + Send + Sync + Sub<Output = Self> {
    /// `i` at this width, or `None` if it does not fit.
    fn from_usize(i: usize) -> Option<Self>;
    /// This offset as an index.
    fn index(self) -> usize;
}

macro_rules! offset {
    ($($t:ty),*) => {$(
        impl Offset for $t {
            fn from_usize(i: usize) -> Option<Self> {
                Self::try_from(i).ok()
            }
            #[inline]
            fn index(self) -> usize {
                self as usize
            }
        }
    )*};
}
offset!(u8, u32, u64);

/// A CSR: `offsets[r]..offsets[r + 1]` indexes row `r`'s entries inside
/// `cols`, each row sorted. `C` is an entry (a column id, or a `(column,
/// weight)` pair) and `O` the offset width. The defaults are the reference
/// graph's: 64-bit vertex ids and 64-bit offsets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Csr<C = VertexId, O = u64> {
    /// `rows + 1` offsets into `cols`.
    pub offsets: Vec<O>,
    /// Every row's entries, grouped by row.
    pub cols: Vec<C>,
}

impl<C: Copy + Default + Ord + Send, O: Offset> Csr<C, O> {
    /// Builds the CSR of `rows` rows from `(row, entry)` pairs by a
    /// counting sort: count, prefix-sum, fill, then sort each row (in
    /// parallel, or inline inside a pool worker). Duplicates are kept.
    ///
    /// # Panics
    /// If the number of entries does not fit `O` (an offset would wrap),
    /// or an entry's row is not below `rows`.
    pub fn build<I>(rows: O, entries: I) -> Self
    where
        I: Iterator<Item = (O, C)> + Clone,
    {
        let rows = rows.index();
        let mut start = vec![0usize; rows + 1];
        for (r, _) in entries.clone() {
            start[r.index() + 1] += 1;
        }
        for r in 0..rows {
            start[r + 1] += start[r];
        }
        let m = start[rows];
        if O::from_usize(m).is_none() {
            panic!("{m} CSR entries overflow {}-bit offsets", 8 * std::mem::size_of::<O>());
        }
        let offsets: Vec<O> = start.iter().map(|&s| O::from_usize(s).unwrap()).collect();
        let mut cols = vec![C::default(); m];
        for (r, c) in entries {
            let at = &mut start[r.index()];
            cols[*at] = c;
            *at += 1;
        }
        // Sorted rows keep the representation canonical and make a
        // backward pull's early exit deterministic.
        let mut row_slices: Vec<&mut [C]> = Vec::with_capacity(rows);
        let mut rest = cols.as_mut_slice();
        for w in offsets.windows(2) {
            let (row, tail) = rest.split_at_mut((w[1] - w[0]).index());
            row_slices.push(row);
            rest = tail;
        }
        row_slices.par_iter_mut().for_each(|row| row.sort_unstable());
        Self { offsets, cols }
    }
}

impl<C, O: Offset> Csr<C, O> {
    /// Number of rows (vertices).
    pub fn num_vertices(&self) -> O {
        O::from_usize(self.offsets.len() - 1).expect("built rows fit their width")
    }

    /// Number of entries (directed edges).
    pub fn num_edges(&self) -> u64 {
        self.cols.len() as u64
    }

    /// The entries of row `v`.
    #[inline]
    pub fn neighbors(&self, v: O) -> &[C] {
        &self.cols[self.offsets[v.index()].index()..self.offsets[v.index() + 1].index()]
    }

    /// Out-degree of row `v`.
    #[inline]
    pub fn out_degree(&self, v: O) -> O {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// Bytes held by the offsets and by the entries, from their element
    /// widths (Table I's accounting).
    pub fn bytes(&self) -> (u64, u64) {
        (size_of_val(self.offsets.as_slice()) as u64, size_of_val(self.cols.as_slice()) as u64)
    }
}

impl Csr {
    /// The reference graph of an edge list; neighbor lists come out sorted.
    pub fn from_edge_list(list: &EdgeList) -> Self {
        Self::build(list.num_vertices, list.edges.iter().copied())
    }

    /// Memory footprint in bytes of the conventional single-graph CSR with
    /// 64-bit offsets and 64-bit column indices: `8n + 8m` (Table I's
    /// "CSR without degree separation" comparison point).
    pub fn conventional_bytes(n: u64, m: u64) -> u64 {
        8 * n + 8 * m
    }

    /// Memory footprint in bytes of the conventional edge-list format with
    /// two 64-bit endpoints per edge: `16m` (Table I's comparison point).
    pub fn edge_list_bytes(m: u64) -> u64 {
        16 * m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csr() -> Csr {
        Csr::from_edge_list(&EdgeList::new(4, vec![(0, 2), (0, 1), (2, 3), (1, 2), (0, 3)]))
    }

    #[test]
    fn offsets_and_degrees() {
        let c = csr();
        assert_eq!(c.num_vertices(), 4);
        assert_eq!(c.num_edges(), 5);
        assert_eq!(c.out_degree(0), 3);
        assert_eq!(c.out_degree(3), 0);
    }

    #[test]
    fn neighbor_lists_sorted() {
        let c = csr();
        assert_eq!(c.neighbors(0), &[1, 2, 3]);
        assert_eq!(c.neighbors(1), &[2]);
        assert_eq!(c.neighbors(3), &[] as &[u64]);
    }

    #[test]
    fn empty_graph() {
        let c = Csr::from_edge_list(&EdgeList::new(3, vec![]));
        assert_eq!(c.num_vertices(), 3);
        assert_eq!(c.num_edges(), 0);
        assert_eq!(c.neighbors(1), &[] as &[u64]);
    }

    #[test]
    fn conventional_sizes_match_paper_formulas() {
        // Table I cites 16m for edge lists and 8n + 8m for plain CSR.
        assert_eq!(Csr::edge_list_bytes(10), 160);
        assert_eq!(Csr::conventional_bytes(4, 10), 32 + 80);
    }

    #[test]
    fn roundtrip_preserves_edge_multiset() {
        let list = EdgeList::new(5, vec![(4, 0), (0, 4), (4, 1), (4, 1), (2, 2)]);
        let c = Csr::from_edge_list(&list);
        let mut edges: Vec<(u64, u64)> = Vec::new();
        for v in 0..c.num_vertices() {
            for &w in c.neighbors(v) {
                edges.push((v, w));
            }
        }
        let mut expect = list.edges.clone();
        expect.sort_unstable();
        edges.sort_unstable();
        assert_eq!(edges, expect);
    }
}
