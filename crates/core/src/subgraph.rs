//! Per-GPU four-subgraph storage with 32-bit local ids (§III-C, Table I).
//!
//! Each GPU stores a CSR (the one [`Csr`], at 32-bit offsets) for each of
//! its `nn`, `nd`, `dn`, `dd` edge classes. Thanks to the bounded
//! destination ranges of the edge distributor, all ids are 32-bit except
//! `nn` destinations (global 64-bit). Alongside the CSRs we keep the
//! reverse-traversal aids of §IV-B: the source list of the `nd` subgraph
//! (used by backward `dn` visits) and source masks for `dd` and `dn` (used
//! by backward `dd`/`nd` visits).

use crate::distributor::GpuEdgeSet;
use crate::masks::DelegateMask;
use gcbfs_graph::Csr;

/// A CSR whose rows are 32-bit local ids; its entries are 32-bit local
/// ids too for BFS, `(id, weight)` pairs for SSSP.
pub type LocalCsr<L = u32> = Csr<L, u32>;

/// The `nn` CSR: 32-bit local rows, 64-bit global destinations (with a
/// weight for SSSP).
pub type NnCsr<N = u64> = Csr<N, u32>;

/// A subgraph entry: a column id and its edge's payload, `()` for a bare
/// destination (BFS's subgraphs), the weight of a `(destination, weight)`
/// pair (SSSP's). Algorithm 1 joins each placed edge into one; the value
/// engine splits it to hand the payload to its `along`.
pub trait Entry: Copy + Default + Ord + Send + Sync {
    /// The column id.
    type Col;
    /// The per-edge payload.
    type Edge: Copy;
    /// The entry of column `col` carrying `edge`.
    fn join(col: Self::Col, edge: Self::Edge) -> Self;
    /// Column and payload.
    fn split(&self) -> (Self::Col, Self::Edge);
}

macro_rules! bare_entry {
    ($($t:ty),*) => {$(
        impl Entry for $t {
            type Col = $t;
            type Edge = ();
            fn join(col: $t, _: ()) -> $t {
                col
            }
            fn split(&self) -> ($t, ()) {
                (*self, ())
            }
        }
    )*};
}
bare_entry!(u32, u64);

impl<C: Copy + Default + Ord + Send + Sync, W: Copy + Default + Ord + Send + Sync> Entry
    for (C, W)
{
    type Col = C;
    type Edge = W;
    fn join(col: C, edge: W) -> (C, W) {
        (col, edge)
    }
    fn split(&self) -> (C, W) {
        *self
    }
}

/// Memory usage of one GPU's subgraphs, following Table I exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryUsage {
    /// Bytes of `nn` row offsets.
    pub nn_offsets: u64,
    /// Bytes of `nn` column indices (8 B each — global ids).
    pub nn_cols: u64,
    /// Bytes of `nd` row offsets.
    pub nd_offsets: u64,
    /// Bytes of `nd` column indices.
    pub nd_cols: u64,
    /// Bytes of `dn` row offsets.
    pub dn_offsets: u64,
    /// Bytes of `dn` column indices.
    pub dn_cols: u64,
    /// Bytes of `dd` row offsets.
    pub dd_offsets: u64,
    /// Bytes of `dd` column indices.
    pub dd_cols: u64,
}

impl MemoryUsage {
    /// Total bytes on this GPU.
    pub fn total(&self) -> u64 {
        self.nn_offsets
            + self.nn_cols
            + self.nd_offsets
            + self.nd_cols
            + self.dn_offsets
            + self.dn_cols
            + self.dd_offsets
            + self.dd_cols
    }
}

/// All subgraphs and traversal aids of one GPU. `N` is an `nn` entry and
/// `L` an entry of the other three: the bare destination for BFS, or a
/// `(destination, weight)` pair for SSSP.
#[derive(Clone, Debug)]
pub struct GpuSubgraphs<N = u64, L = u32> {
    /// Owned local vertex slots (≈ `n/p`; includes the unused slots of
    /// delegate-owned ids, which simply stay empty).
    pub num_local: u32,
    /// Global delegate count `d` (rows of `dn`/`dd`).
    pub num_delegates: u32,
    /// normal → normal edges (64-bit global destinations).
    pub nn: NnCsr<N>,
    /// normal → delegate edges.
    pub nd: LocalCsr<L>,
    /// delegate → normal edges.
    pub dn: LocalCsr<L>,
    /// delegate → delegate edges.
    pub dd: LocalCsr<L>,
    /// Local normal vertices with at least one `nd` edge — "a source list
    /// of the normal-to-delegate subgraph", the candidates of the backward
    /// `dn` visit (§IV-B).
    pub nd_sources: Vec<u32>,
    /// Delegates with local `dn` edges — candidates of backward `nd`.
    pub dn_source_mask: DelegateMask,
    /// Delegates with local `dd` edges — candidates of backward `dd`.
    pub dd_source_mask: DelegateMask,
}

impl<N: Copy + Default + Ord + Send, L: Copy + Default + Ord + Send> GpuSubgraphs<N, L> {
    /// Builds the four CSRs and reverse aids from the distributed edges.
    pub fn build(num_local: u32, num_delegates: u32, edges: &GpuEdgeSet<N, L>) -> Self {
        let nn = Csr::build(num_local, edges.nn.iter().copied());
        let nd = Csr::build(num_local, edges.nd.iter().copied());
        let dn = Csr::build(num_delegates, edges.dn.iter().copied());
        let dd = Csr::build(num_delegates, edges.dd.iter().copied());
        let nd_sources = (0..num_local).filter(|&r| nd.out_degree(r) > 0).collect();
        let source_mask = |csr: &LocalCsr<L>| {
            let mut mask = DelegateMask::new(num_delegates);
            for x in (0..num_delegates).filter(|&x| csr.out_degree(x) > 0) {
                mask.set(x);
            }
            mask
        };
        Self {
            num_local,
            num_delegates,
            dn_source_mask: source_mask(&dn),
            dd_source_mask: source_mask(&dd),
            nn,
            nd,
            dn,
            dd,
            nd_sources,
        }
    }
}

impl<N, L> GpuSubgraphs<N, L> {
    /// Total edges stored on this GPU.
    pub fn num_edges(&self) -> u64 {
        self.nn.num_edges() + self.nd.num_edges() + self.dn.num_edges() + self.dd.num_edges()
    }

    /// Memory usage per Table I, each byte count from the stored element
    /// widths: 4-byte offsets everywhere, 4-byte columns except the 8-byte
    /// global `nn` destinations.
    pub fn memory_usage(&self) -> MemoryUsage {
        let (nn_offsets, nn_cols) = self.nn.bytes();
        let (nd_offsets, nd_cols) = self.nd.bytes();
        let (dn_offsets, dn_cols) = self.dn.bytes();
        let (dd_offsets, dd_cols) = self.dd.bytes();
        MemoryUsage {
            nn_offsets,
            nn_cols,
            nd_offsets,
            nd_cols,
            dn_offsets,
            dn_cols,
            dd_offsets,
            dd_cols,
        }
    }
}

/// Table I's closed-form total across all GPUs:
/// `8n + 8d·p + 4m + 4|Enn|` bytes.
pub fn paper_total_bytes(n: u64, d: u64, p: u64, m: u64, enn: u64) -> u64 {
    8 * n + 8 * d * p + 4 * m + 4 * enn
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_edges() -> GpuEdgeSet {
        GpuEdgeSet {
            nn: vec![(0, 100), (0, 7), (2, 3)],
            nd: vec![(1, 0), (1, 1), (0, 1)],
            dn: vec![(0, 1), (1, 1), (1, 0)],
            dd: vec![(0, 1), (1, 0)],
        }
    }

    #[test]
    fn rows_are_sorted_and_nn_keeps_global_ids() {
        let g = GpuSubgraphs::build(3, 2, &sample_edges());
        assert_eq!(g.nn.neighbors(0), &[7, 100]);
        assert_eq!(g.nd.neighbors(1), &[0, 1]);
        assert_eq!(g.dn.out_degree(1), 2);
        let far: GpuEdgeSet = GpuEdgeSet { nn: vec![(0, 1 << 40), (0, 3)], ..Default::default() };
        assert_eq!(GpuSubgraphs::build(2, 0, &far).nn.neighbors(0), &[3, 1 << 40]);
    }

    #[test]
    fn build_wires_reverse_aids() {
        let g = GpuSubgraphs::build(3, 2, &sample_edges());
        assert_eq!(g.nd_sources, vec![0, 1]);
        assert!(g.dn_source_mask.get(0) && g.dn_source_mask.get(1));
        assert!(g.dd_source_mask.get(0) && g.dd_source_mask.get(1));
        assert_eq!(g.num_edges(), 11);
    }

    #[test]
    fn memory_usage_matches_table_1_shape() {
        let g = GpuSubgraphs::build(3, 2, &sample_edges());
        let mu = g.memory_usage();
        // nn: (3+1)*4 offsets + 3*8 cols
        assert_eq!(mu.nn_offsets, 16);
        assert_eq!(mu.nn_cols, 24);
        // nd: (3+1)*4 + 3*4
        assert_eq!(mu.nd_offsets, 16);
        assert_eq!(mu.nd_cols, 12);
        // dn/dd rows are delegate-indexed: (2+1)*4 offsets
        assert_eq!(mu.dn_offsets, 12);
        assert_eq!(mu.dd_cols, 8);
        assert_eq!(mu.total(), 16 + 24 + 16 + 12 + 12 + 12 + 12 + 8);
    }

    #[test]
    fn paper_total_formula() {
        assert_eq!(paper_total_bytes(8, 2, 4, 100, 10), 64 + 64 + 400 + 40);
    }

    #[test]
    fn empty_subgraphs() {
        let g = GpuSubgraphs::build(0, 0, &GpuEdgeSet::<u64, u32>::default());
        assert_eq!(g.num_edges(), 0);
        assert!(g.nd_sources.is_empty());
        assert_eq!(g.memory_usage().total(), 4 * 4); // four 1-entry offset arrays
    }
}
