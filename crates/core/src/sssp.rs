//! Distributed single-source shortest paths on the degree-separated
//! distribution — the paper's §VII future work made concrete: "more
//! attributes on vertices and edges than a single label".
//!
//! Level-synchronous Bellman–Ford with active sets: every round, vertices
//! whose tentative distance improved relax their out-edges. Delegate
//! distances are 64-bit values merged by a **min** allreduce; remote `nn`
//! relaxations carry `(slot, distance)` pairs. Algorithm 1's placement
//! rule (`classify`, `owner`) is reused verbatim; only the per-edge payload
//! (a weight) is new. The subgraphs are BFS's own [`GpuSubgraphs`] with
//! `(destination, weight)` entries, each row sorted by destination, then
//! weight; relaxations combine by `min`, so no distance depends on that
//! order.

use crate::config::BfsConfig;
use crate::distributor::{classify, owner, EdgeClass, GpuEdgeSet};
use crate::driver::BuildError;
use crate::propagate::{assemble, check_sources, Pricing, Reduce, Superstep};
use crate::separation::Separation;
use crate::subgraph::GpuSubgraphs;
use gcbfs_cluster::timing::PhaseTimes;
use gcbfs_cluster::topology::Topology;
use gcbfs_graph::weighted::{WeightedEdgeList, UNREACHABLE};
use gcbfs_graph::VertexId;
use std::sync::Arc;

/// One GPU's weighted subgraphs: `(destination, weight)` entries.
type Weighted = GpuSubgraphs<(u64, u32), (u32, u32)>;

/// A weighted graph distributed across the simulated cluster for SSSP.
#[derive(Clone, Debug)]
pub struct DistributedSssp {
    topology: Topology,
    separation: Arc<Separation>,
    subgraphs: Vec<Arc<Weighted>>,
    num_vertices: u64,
}

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
    /// Distributes `graph` with Algorithm 1 (degrees and threshold as for
    /// BFS) and attaches the edge weights.
    pub fn build(graph: &WeightedEdgeList, topology: Topology, config: &BfsConfig) -> Self {
        let topo_list = graph.topology();
        let degrees = topo_list.out_degrees();
        let separation = Separation::from_degrees(&degrees, config.degree_threshold);
        let mut sets: Vec<GpuEdgeSet<(u64, u32), (u32, u32)>> =
            (0..topology.num_gpus()).map(|_| GpuEdgeSet::default()).collect();
        for &(u, v, w) in &graph.edges {
            let class = classify(u, v, &separation);
            let set = &mut sets[topology.flat(owner(u, v, class, &degrees, &topology))];
            let delegate = |x| separation.delegate_id(x).unwrap();
            match class {
                EdgeClass::Nn => set.nn.push((topology.local_index(u), (v, w))),
                EdgeClass::Nd => set.nd.push((topology.local_index(u), (delegate(v), w))),
                EdgeClass::Dn => set.dn.push((delegate(u), (topology.local_index(v), w))),
                EdgeClass::Dd => set.dd.push((delegate(u), (delegate(v), w))),
            }
        }
        let d = separation.num_delegates();
        let subgraphs = sets
            .iter()
            .enumerate()
            .map(|(flat, set)| {
                let num_local = topology.owned_count(topology.unflat(flat), graph.num_vertices);
                Arc::new(GpuSubgraphs::build(num_local, d, set))
            })
            .collect();
        Self {
            topology,
            separation: Arc::new(separation),
            subgraphs,
            num_vertices: graph.num_vertices,
        }
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

    /// Number of delegates in the separation.
    pub fn num_delegates(&self) -> u32 {
        self.separation.num_delegates()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcbfs_graph::builders;
    use gcbfs_graph::rmat::RmatConfig;
    use gcbfs_graph::weighted::dijkstra;

    fn check(graph: &WeightedEdgeList, topo: Topology, th: u64, sources: &[u64]) {
        let config = BfsConfig::new(th);
        let dist = DistributedSssp::build(graph, topo, &config);
        let csr = graph.csr();
        for &s in sources {
            let r = dist.run(s, &config).unwrap();
            assert_eq!(r.distances, dijkstra(&csr, s), "source {s}, topo {topo:?}, th {th}");
        }
    }

    #[test]
    fn matches_dijkstra_on_rmat() {
        let topo_list = RmatConfig::graph500(9).generate();
        let graph = WeightedEdgeList::from_topology(&topo_list, 16, 7);
        let degrees = topo_list.out_degrees();
        let sources: Vec<u64> =
            (0..topo_list.num_vertices).filter(|&v| degrees[v as usize] > 0).take(4).collect();
        check(&graph, Topology::new(2, 2), 8, &sources);
        check(&graph, Topology::new(3, 1), 32, &sources);
    }

    #[test]
    fn matches_dijkstra_on_structured_graphs() {
        for base in [builders::grid(5, 6), builders::double_star(7), builders::cycle(17)] {
            let graph = WeightedEdgeList::from_topology(&base, 9, 3);
            check(&graph, Topology::new(2, 2), 3, &[0, base.num_vertices / 2]);
        }
    }

    #[test]
    fn uniform_weights_reduce_to_bfs_depths() {
        let base = RmatConfig::graph500(8).generate();
        let graph = WeightedEdgeList::from_topology(&base, 1, 0);
        let config = BfsConfig::new(8);
        let dist = DistributedSssp::build(&graph, Topology::new(2, 2), &config);
        let src =
            base.out_degrees().iter().enumerate().max_by_key(|&(_, deg)| *deg).unwrap().0 as u64;
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
        let graph = WeightedEdgeList::from_topology(&base, 10, 1);
        let config = BfsConfig::new(3);
        let dist = DistributedSssp::build(&graph, Topology::new(2, 2), &config);
        let r = dist.run(0, &config).unwrap();
        assert!(r.rounds >= 10, "rounds {}", r.rounds);
        assert!(r.edges_relaxed > base.num_edges());
    }

    #[test]
    fn source_out_of_range() {
        let base = builders::path(4);
        let graph = WeightedEdgeList::from_topology(&base, 4, 0);
        let config = BfsConfig::new(4);
        let dist = DistributedSssp::build(&graph, Topology::new(1, 1), &config);
        assert!(matches!(dist.run(44, &config), Err(BuildError::SourceOutOfRange { .. })));
    }
}
