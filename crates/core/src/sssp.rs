//! Distributed single-source shortest paths on the degree-separated
//! distribution — the paper's §VII future work made concrete: "more
//! attributes on vertices and edges than a single label".
//!
//! Level-synchronous Bellman–Ford with active sets: every round, vertices
//! whose tentative distance improved relax their out-edges. Delegate
//! distances are 64-bit values merged by a **min** allreduce; remote `nn`
//! relaxations carry `(slot, distance)` pairs. The graph is built by
//! BFS's own Kernel 1 — the one Algorithm 1 placement and per-GPU build
//! behind [`DistributedGraph::build`], with its refusals — and the only
//! new thing is the per-edge payload: the weight rule
//! ([`Weights::of`]) is applied as each edge is placed, so no weighted
//! edge list is ever stored. The subgraphs hold `(destination, weight)`
//! entries, each row sorted by destination, then weight; relaxations
//! combine by `min`, so no distance depends on that order.

use crate::config::BfsConfig;
use crate::driver::{BuildError, DistributedGraph};
use crate::propagate::{assemble, check_sources, Pricing, Reduce, Superstep};
use gcbfs_cluster::topology::Topology;
use gcbfs_graph::weighted::{Weights, UNREACHABLE};
use gcbfs_graph::{EdgeList, VertexId};
use gcbfs_trace::PhaseTimes;

/// A weighted graph distributed across the simulated cluster for SSSP:
/// the one partition type with `(destination, weight)` entries.
pub type DistributedSssp = DistributedGraph<(u64, u32), (u32, u32)>;

/// Result of a distributed SSSP run.
#[derive(Clone, Debug)]
pub struct SsspResult {
    /// The source vertex.
    pub source: VertexId,
    /// Shortest-path distance of every vertex ([`UNREACHABLE`] if none).
    pub distances: Vec<u64>,
    /// Relaxation rounds until convergence.
    pub rounds: u32,
    /// Edges relaxed across all rounds.
    pub edges_relaxed: u64,
    /// Modeled per-phase totals.
    pub phases: PhaseTimes,
    /// Modeled elapsed seconds.
    pub modeled_seconds: f64,
    /// Bytes crossing rank boundaries.
    pub remote_bytes: u64,
}

impl DistributedSssp {
    /// Distributes `graph` by Kernel 1 (degrees and threshold as for BFS),
    /// each edge's entry carrying its weight under `weights`.
    ///
    /// # Errors
    /// The refusals of [`DistributedGraph::build`]:
    /// [`BuildError::LocalIdsOverflow`] before anything is allocated, and
    /// [`BuildError::DeviceMemoryExceeded`].
    pub fn weighted(
        graph: &EdgeList,
        weights: Weights,
        topology: Topology,
        config: &BfsConfig,
    ) -> Result<Self, BuildError> {
        Self::partition(graph, topology, config, |u, v| weights.of(u, v))
    }

    /// Runs Bellman–Ford from `source` to convergence.
    ///
    /// # Errors
    /// Returns [`BuildError::SourceOutOfRange`] for an invalid source.
    pub fn run(&self, source: VertexId, config: &BfsConfig) -> Result<SsspResult, BuildError> {
        check_sources(&[source], self.num_vertices)?;
        let topo = self.topology;
        let d = self.separation.num_delegates();

        let mut dist_local: Vec<Vec<u64>> =
            self.subgraphs.iter().map(|sg| vec![UNREACHABLE; sg.num_local as usize]).collect();
        let mut delegate_dist = vec![UNREACHABLE; d as usize];
        // The value is a tentative distance, combined by min; crossing an
        // edge adds its weight.
        let relax = |dist: u64, w: u32| dist + w as u64;
        let mut eng = Superstep::new(topo, &self.subgraphs, d, UNREACHABLE, u64::min, relax);
        eng.inject(&self.separation, source, 0);

        let pricing = Pricing::bsp(&config.cost, config.blocking_reduce);
        loop {
            // Vertices whose distance improved relax their out-edges next.
            eng.deliver(&mut dist_local, &mut delegate_dist, |dist, inbox, next| {
                for (i, cand) in inbox.touched() {
                    if cand < dist[i] {
                        dist[i] = cand;
                        next.push((i as u32, cand));
                    }
                }
            });
            if !eng.has_frontier() {
                break;
            }
            eng.step(&pricing, Reduce::EveryStep);
        }

        let ledger = eng.ledger;
        Ok(SsspResult {
            source,
            distances: assemble(&topo, &self.separation, &dist_local, &delegate_dist),
            rounds: ledger.steps,
            edges_relaxed: ledger.edges,
            phases: ledger.phases,
            modeled_seconds: ledger.modeled_seconds,
            remote_bytes: ledger.remote_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcbfs_graph::builders;
    use gcbfs_graph::rmat::RmatConfig;
    use gcbfs_graph::weighted::dijkstra;

    fn weighted(graph: &EdgeList, weights: Weights, topo: Topology, th: u64) -> DistributedSssp {
        DistributedSssp::weighted(graph, weights, topo, &BfsConfig::new(th)).unwrap()
    }

    fn check(graph: &EdgeList, weights: Weights, topo: Topology, th: u64, sources: &[u64]) {
        let config = BfsConfig::new(th);
        let dist = weighted(graph, weights, topo, th);
        let csr = weights.csr(graph);
        for &s in sources {
            let r = dist.run(s, &config).unwrap();
            assert_eq!(r.distances, dijkstra(&csr, s), "source {s}, topo {topo:?}, th {th}");
        }
    }

    #[test]
    fn matches_dijkstra_on_rmat() {
        let graph = RmatConfig::graph500(9).generate();
        let weights = Weights::new(16, 7).unwrap();
        let degrees = graph.out_degrees();
        let sources: Vec<u64> =
            (0..graph.num_vertices).filter(|&v| degrees[v as usize] > 0).take(4).collect();
        check(&graph, weights, Topology::new(2, 2), 8, &sources);
        check(&graph, weights, Topology::new(3, 1), 32, &sources);
    }

    #[test]
    fn matches_dijkstra_on_structured_graphs() {
        for base in [builders::grid(5, 6), builders::double_star(7), builders::cycle(17)] {
            let weights = Weights::new(9, 3).unwrap();
            check(&base, weights, Topology::new(2, 2), 3, &[0, base.num_vertices / 2]);
        }
    }

    #[test]
    fn uniform_weights_reduce_to_bfs_depths() {
        let base = RmatConfig::graph500(8).generate();
        let config = BfsConfig::new(8);
        let dist = weighted(&base, Weights::new(1, 0).unwrap(), Topology::new(2, 2), 8);
        let src = base.hub().unwrap();
        let r = dist.run(src, &config).unwrap();
        let depths =
            gcbfs_graph::reference::bfs_depths(&gcbfs_graph::Csr::from_edge_list(&base), src);
        for (v, (&got, &want)) in r.distances.iter().zip(&depths).enumerate() {
            let want64 = if want == u32::MAX { UNREACHABLE } else { want as u64 };
            assert_eq!(got, want64, "vertex {v}");
        }
    }

    #[test]
    fn rounds_exceed_bfs_levels_on_weighted_graphs() {
        // Bellman–Ford revisits vertices when cheaper paths arrive later;
        // rounds >= the unweighted diameter.
        let base = builders::grid(6, 6);
        let config = BfsConfig::new(3);
        let dist = weighted(&base, Weights::new(10, 1).unwrap(), Topology::new(2, 2), 3);
        let r = dist.run(0, &config).unwrap();
        assert!(r.rounds >= 10, "rounds {}", r.rounds);
        assert!(r.edges_relaxed > base.num_edges());
    }

    #[test]
    fn source_out_of_range() {
        let base = builders::path(4);
        let config = BfsConfig::new(4);
        let dist = weighted(&base, Weights::new(4, 0).unwrap(), Topology::new(1, 1), 4);
        assert!(matches!(dist.run(44, &config), Err(BuildError::SourceOutOfRange { .. })));
    }

    #[test]
    fn local_ids_overflow_is_detected_before_allocation() {
        // Out-degrees alone would be a 34 GB allocation here.
        let graph = EdgeList { num_vertices: u32::MAX as u64 + 2, edges: Vec::new() };
        let weights = Weights::new(4, 0).unwrap();
        let err =
            DistributedSssp::weighted(&graph, weights, Topology::new(1, 1), &BfsConfig::new(4))
                .unwrap_err();
        assert!(
            matches!(err, BuildError::LocalIdsOverflow { per_gpu_vertices } if per_gpu_vertices > u32::MAX as u64)
        );
    }

    #[test]
    fn device_memory_limit_enforced() {
        let mut config = BfsConfig::new(4);
        config.cost.device.memory_bytes = 16; // absurdly small device
        let graph = builders::grid(10, 10);
        let weights = Weights::new(4, 0).unwrap();
        let err =
            DistributedSssp::weighted(&graph, weights, Topology::new(1, 1), &config).unwrap_err();
        assert!(matches!(err, BuildError::DeviceMemoryExceeded { gpu: 0, available: 16, .. }));
    }
}
