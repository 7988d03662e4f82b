//! The edge distributor — Algorithm 1 of the paper (§III-B).
//!
//! Edges fall into four classes by endpoint type (`nn`, `nd`, `dn`, `dd`)
//! and are placed so that:
//!
//! * the owner is computable from the edge alone (no lookup tables);
//! * every non-`nn` subgraph is symmetric per GPU (both directions of an
//!   undirected pair land together, which DOBFS correctness requires);
//! * destination id ranges are bounded (`n/p` normals, `d` delegates), so
//!   32-bit local ids suffice everywhere except `nn` destinations;
//! * edge counts per GPU come out balanced, because placement follows the
//!   *low*-degree endpoint.

use crate::separation::Separation;
use crate::subgraph::Entry;
use gcbfs_cluster::topology::{GpuId, Topology};
use gcbfs_graph::{EdgeList, VertexId};
use rayon::prelude::*;

/// The four edge classes of §III-B.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeClass {
    /// normal → normal
    Nn,
    /// normal → delegate
    Nd,
    /// delegate → normal
    Dn,
    /// delegate → delegate
    Dd,
}

/// Classifies an edge by its endpoint types.
#[inline]
pub fn classify(u: VertexId, v: VertexId, sep: &Separation) -> EdgeClass {
    match (sep.is_delegate(u), sep.is_delegate(v)) {
        (false, false) => EdgeClass::Nn,
        (false, true) => EdgeClass::Nd,
        (true, false) => EdgeClass::Dn,
        (true, true) => EdgeClass::Dd,
    }
}

/// The owning GPU of an edge per Algorithm 1. `degrees` are global
/// out-degrees (used only for the `dd` tie-break rules: the lower-degree
/// endpoint, on a tie the lower id).
#[inline]
pub fn owner(
    u: VertexId,
    v: VertexId,
    class: EdgeClass,
    degrees: &[u64],
    topo: &Topology,
) -> GpuId {
    let by = match class {
        EdgeClass::Nn | EdgeClass::Nd => u,
        EdgeClass::Dn => v,
        EdgeClass::Dd if (degrees[u as usize], u) < (degrees[v as usize], v) => u,
        EdgeClass::Dd => v,
    };
    topo.vertex_owner(by)
}

/// Global edge counts per class (`|Enn|`, `|End|`, `|Edn|`, `|Edd|`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeClassCounts {
    /// normal → normal edges (`|Enn|`).
    pub nn: u64,
    /// normal → delegate edges (`|End|`).
    pub nd: u64,
    /// delegate → normal edges (`|Edn|`).
    pub dn: u64,
    /// delegate → delegate edges (`|Edd|`).
    pub dd: u64,
}

impl EdgeClassCounts {
    /// Total edges.
    pub fn total(&self) -> u64 {
        self.nn + self.nd + self.dn + self.dd
    }

    /// Percentage of one class (Figs. 5, 12 plot these against `TH`).
    pub fn percentage(&self, class: EdgeClass) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let count = match class {
            EdgeClass::Nn => self.nn,
            EdgeClass::Nd => self.nd,
            EdgeClass::Dn => self.dn,
            EdgeClass::Dd => self.dd,
        };
        100.0 * count as f64 / total as f64
    }
}

/// The edges owned by one GPU, already in local coordinates: each a row
/// and an entry of the [`GpuSubgraphs`](crate::subgraph::GpuSubgraphs) it
/// builds (a bare destination, or a `(destination, weight)` pair for SSSP).
#[derive(Clone, Debug, Default)]
pub struct GpuEdgeSet<N = u64, L = u32> {
    /// normal → normal: (local source, **global** destination). The only
    /// class whose destinations are unbounded, hence 64-bit (§III-C).
    pub nn: Vec<(u32, N)>,
    /// normal → delegate: (local source, delegate id).
    pub nd: Vec<(u32, L)>,
    /// delegate → normal: (delegate id, local destination).
    pub dn: Vec<(u32, L)>,
    /// delegate → delegate: (delegate id, delegate id).
    pub dd: Vec<(u32, L)>,
}

impl<N, L> GpuEdgeSet<N, L> {
    /// Total edges on this GPU.
    pub fn total(&self) -> u64 {
        (self.nn.len() + self.nd.len() + self.dn.len() + self.dd.len()) as u64
    }
}

/// Result of distributing a graph's edges across the device grid.
#[derive(Clone, Debug)]
pub struct DistributedEdges<N = u64, L = u32> {
    /// Local-coordinate edges per GPU, in flat order.
    pub per_gpu: Vec<GpuEdgeSet<N, L>>,
    /// Global per-class totals.
    pub class_counts: EdgeClassCounts,
}

/// Fixed edge-chunk granularity for parallel distribution. A constant —
/// never derived from `rayon::current_num_threads()` — so the chunk
/// boundaries, and therefore the ordered chunk merge below, are identical at
/// any pool width. This is what makes the documented
/// determinism-under-any-thread-count property load-bearing rather than an
/// accident of a particular pool size.
const DISTRIBUTE_CHUNK_EDGES: usize = 1 << 16;

/// Distributes all edges of `graph` per Algorithm 1, with no payload.
pub fn distribute(
    graph: &EdgeList,
    sep: &Separation,
    degrees: &[u64],
    topo: &Topology,
) -> DistributedEdges {
    distribute_with(graph, sep, degrees, topo, |_, _| ())
}

/// Distributes all edges of `graph` per Algorithm 1, each entry carrying
/// `payload(u, v)` of its edge `u -> v` (an SSSP weight, say).
pub(crate) fn distribute_with<N: Entry<Col = u64>, L: Entry<Col = u32, Edge = N::Edge>>(
    graph: &EdgeList,
    sep: &Separation,
    degrees: &[u64],
    topo: &Topology,
    payload: impl Fn(VertexId, VertexId) -> N::Edge + Sync,
) -> DistributedEdges<N, L> {
    let p = topo.num_gpus() as usize;
    let delegate = |x| sep.delegate_id(x).unwrap();
    // Each chunk fills its own per-GPU sets; chunks are then merged in
    // order, keeping the result deterministic under any thread count.
    let chunk_results: Vec<Vec<GpuEdgeSet<N, L>>> = graph
        .edges
        .par_chunks(DISTRIBUTE_CHUNK_EDGES)
        .map(|chunk| {
            let mut sets: Vec<GpuEdgeSet<N, L>> = (0..p).map(|_| GpuEdgeSet::default()).collect();
            for &(u, v) in chunk {
                let class = classify(u, v, sep);
                let set = &mut sets[topo.flat(owner(u, v, class, degrees, topo))];
                let w = payload(u, v);
                match class {
                    EdgeClass::Nn => set.nn.push((topo.local_index(u), N::join(v, w))),
                    EdgeClass::Nd => set.nd.push((topo.local_index(u), L::join(delegate(v), w))),
                    EdgeClass::Dn => set.dn.push((delegate(u), L::join(topo.local_index(v), w))),
                    EdgeClass::Dd => set.dd.push((delegate(u), L::join(delegate(v), w))),
                }
            }
            sets
        })
        .collect();

    let mut per_gpu: Vec<GpuEdgeSet<N, L>> = (0..p).map(|_| GpuEdgeSet::default()).collect();
    for sets in chunk_results {
        for (acc, set) in per_gpu.iter_mut().zip(sets) {
            acc.nn.extend(set.nn);
            acc.nd.extend(set.nd);
            acc.dn.extend(set.dn);
            acc.dd.extend(set.dd);
        }
    }
    let count = |class: fn(&GpuEdgeSet<N, L>) -> usize| per_gpu.iter().map(class).sum::<usize>();
    let class_counts = EdgeClassCounts {
        nn: count(|s| s.nn.len()) as u64,
        nd: count(|s| s.nd.len()) as u64,
        dn: count(|s| s.dn.len()) as u64,
        dd: count(|s| s.dd.len()) as u64,
    };
    DistributedEdges { per_gpu, class_counts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcbfs_graph::builders;
    use gcbfs_graph::rmat::RmatConfig;
    use gcbfs_graph::weighted::Weights;

    fn setup(graph: &EdgeList, th: u64, _topo: &Topology) -> (Separation, Vec<u64>) {
        let degrees = graph.out_degrees();
        let sep = Separation::from_degrees(&degrees, th);
        (sep, degrees)
    }

    #[test]
    fn every_edge_lands_exactly_once() {
        let g = builders::double_star(6);
        let topo = Topology::new(3, 1);
        let (sep, degrees) = setup(&g, 5, &topo);
        let dist = distribute(&g, &sep, &degrees, &topo);
        assert_eq!(dist.class_counts.total(), g.num_edges());
        let placed: u64 = dist.per_gpu.iter().map(GpuEdgeSet::total).sum();
        assert_eq!(placed, g.num_edges());
    }

    #[test]
    fn class_counts_split_by_delegate_status() {
        // double_star(3): vertices 0 and 1 are hubs (degree >= 4).
        let g = builders::double_star(3);
        let topo = Topology::new(2, 1);
        let (sep, degrees) = setup(&g, 3, &topo);
        assert_eq!(sep.num_delegates(), 2);
        let dist = distribute(&g, &sep, &degrees, &topo);
        // hub-hub pair (0,1)+(1,0) -> dd; hub-leaf pairs -> dn/nd equal;
        // leaf-leaf pairs -> nn.
        assert_eq!(dist.class_counts.dd, 2);
        assert_eq!(dist.class_counts.nd, dist.class_counts.dn);
        assert_eq!(dist.class_counts.nn % 2, 0);
        assert!(dist.class_counts.nn > 0);
    }

    #[test]
    fn non_nn_subgraphs_are_symmetric_per_gpu() {
        let g = RmatConfig::graph500(9).generate();
        let topo = Topology::new(2, 2);
        let (sep, degrees) = setup(&g, 16, &topo);
        let dist = distribute(&g, &sep, &degrees, &topo);
        for set in &dist.per_gpu {
            // nd (u -> x) must be dn (x -> u) reversed on the same GPU.
            let mut nd: Vec<(u32, u32)> = set.nd.clone();
            let mut dn_rev: Vec<(u32, u32)> = set.dn.iter().map(|&(x, u)| (u, x)).collect();
            nd.sort_unstable();
            dn_rev.sort_unstable();
            assert_eq!(nd, dn_rev, "nd/dn asymmetric on a GPU");
            // dd must contain both directions of every pair.
            let mut dd: Vec<(u32, u32)> = set.dd.clone();
            let mut dd_rev: Vec<(u32, u32)> = set.dd.iter().map(|&(x, y)| (y, x)).collect();
            dd.sort_unstable();
            dd_rev.sort_unstable();
            assert_eq!(dd, dd_rev, "dd asymmetric on a GPU");
        }
    }

    #[test]
    fn edge_balance_on_rmat() {
        // §III-B "Balanced": per-GPU edge counts should be close.
        let g = RmatConfig::graph500(13).generate();
        let topo = Topology::new(4, 2);
        let (sep, degrees) = setup(&g, 16, &topo);
        let dist = distribute(&g, &sep, &degrees, &topo);
        let totals: Vec<u64> = dist.per_gpu.iter().map(GpuEdgeSet::total).collect();
        let max = *totals.iter().max().unwrap() as f64;
        let min = *totals.iter().min().unwrap() as f64;
        assert!(max / min < 1.35, "imbalanced: {totals:?}");
    }

    #[test]
    fn owner_follows_low_degree_endpoint() {
        let degrees = vec![10, 20, 5, 5];
        let sep = Separation::from_degrees(&degrees, 1);
        let topo = Topology::new(4, 1);
        // dd edge 0->1: deg(0) < deg(1), owner = owner(0) = rank 0.
        assert_eq!(owner(0, 1, classify(0, 1, &sep), &degrees, &topo), topo.vertex_owner(0));
        assert_eq!(owner(1, 0, classify(1, 0, &sep), &degrees, &topo), topo.vertex_owner(0));
        // tie 2->3 and 3->2: owner(min) = owner(2).
        assert_eq!(owner(2, 3, classify(2, 3, &sep), &degrees, &topo), topo.vertex_owner(2));
        assert_eq!(owner(3, 2, classify(3, 2, &sep), &degrees, &topo), topo.vertex_owner(2));
    }

    #[test]
    fn percentages_sum_to_100() {
        let g = RmatConfig::graph500(9).generate();
        let topo = Topology::new(2, 1);
        let (sep, degrees) = setup(&g, 32, &topo);
        let dist = distribute(&g, &sep, &degrees, &topo);
        let sum: f64 = [EdgeClass::Nn, EdgeClass::Nd, EdgeClass::Dn, EdgeClass::Dd]
            .iter()
            .map(|&c| dist.class_counts.percentage(c))
            .sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_across_thread_pools() {
        let g = RmatConfig::graph500(8).generate();
        let topo = Topology::new(2, 2);
        let (sep, degrees) = setup(&g, 8, &topo);
        let weights = Weights::new(12, 5).unwrap();
        let both = || {
            let weighted: DistributedEdges<(u64, u32), (u32, u32)> =
                distribute_with(&g, &sep, &degrees, &topo, |u, v| weights.of(u, v));
            (distribute(&g, &sep, &degrees, &topo), weighted)
        };
        let (par, wpar) = both();
        let (seq, wseq) =
            rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap().install(both);
        for (a, b) in par.per_gpu.iter().zip(&seq.per_gpu) {
            assert_eq!(a.nn, b.nn);
            assert_eq!(a.nd, b.nd);
            assert_eq!(a.dn, b.dn);
            assert_eq!(a.dd, b.dd);
        }
        // The weighted payload rides the same placement in the same order,
        // each entry carrying its own edge's weight, under any pool.
        fn strip<C: Copy>(
            set: &[(u32, (C, u32))],
            weight: impl Fn(u32, C) -> u32,
        ) -> Vec<(u32, C)> {
            set.iter()
                .map(|&(r, (c, w))| {
                    assert_eq!(w, weight(r, c));
                    (r, c)
                })
                .collect()
        }
        let hub = |id: u32| sep.delegates()[id as usize];
        for (flat, ((a, b), bare)) in
            wpar.per_gpu.iter().zip(&wseq.per_gpu).zip(&par.per_gpu).enumerate()
        {
            assert_eq!((&a.nn, &a.nd, &a.dn, &a.dd), (&b.nn, &b.nd, &b.dn, &b.dd));
            let normal = |local| topo.global_id(topo.unflat(flat), local);
            assert_eq!(strip(&a.nn, |r, v| weights.of(normal(r), v)), bare.nn);
            assert_eq!(strip(&a.nd, |r, y| weights.of(normal(r), hub(y))), bare.nd);
            assert_eq!(strip(&a.dn, |x, c| weights.of(hub(x), normal(c))), bare.dn);
            assert_eq!(strip(&a.dd, |x, y| weights.of(hub(x), hub(y))), bare.dd);
        }
    }
}
