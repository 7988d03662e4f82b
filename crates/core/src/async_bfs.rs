//! Asynchronous (non-BSP) distributed BFS — the §VI-D counterpoint.
//!
//! The paper closes its evaluation with: "For graph processing that yields
//! insufficient local workloads over many iterations ... they may not be
//! suitable for Bulk Synchronous Parallel (BSP) frameworks on systems with
//! fat nodes: the GPUs will be underutilized, and the per-iteration
//! overhead may well make such implementations unscalable. Asynchronous
//! graph frameworks, such as HavoqGT and Groute, may be more suitable."
//!
//! This module implements that alternative on the same degree-separated
//! distribution, in the style of the vertex-delegates HavoqGT work the
//! paper builds on (its reference [8]): no global barriers and no
//! collective mask reductions — newly visited delegates propagate as
//! *update messages* through an asynchronous broadcast tree, and normal
//! updates flow point-to-point, all overlapped with computation.
//!
//! Execution here is wave-ordered (deterministic and level-correct — with
//! unit edge weights FIFO waves deliver final depths), but the *cost
//! model* is asynchronous: a wave pays `max(compute, communication)` plus
//! one pipeline latency, and there is no per-wave synchronization charge.
//! On long-tail graphs this removes the `S × sync` term that §VI-D blames;
//! on dense RMAT cores the BSP collectives are cheaper than per-update
//! delegate broadcasts, so BSP wins there — exactly the trade the paper
//! sketches.

use crate::config::BfsConfig;
use crate::driver::{BuildError, DistributedGraph};
use crate::propagate::{assemble, check_sources, Superstep};
use crate::UNREACHED;
use gcbfs_cluster::cost::NetworkModel;
use gcbfs_cluster::timing::PhaseTimes;
use gcbfs_graph::VertexId;

/// Result of an asynchronous BFS run.
#[derive(Clone, Debug)]
pub struct AsyncBfsResult {
    /// The source vertex.
    pub source: VertexId,
    /// Hop distances (`UNREACHED` if unreachable).
    pub depths: Vec<u32>,
    /// Waves processed (equals the BSP iteration count — the *work* is the
    /// same; only synchronization differs).
    pub waves: u32,
    /// Edges examined.
    pub edges_examined: u64,
    /// Modeled elapsed seconds under the asynchronous cost model.
    pub modeled_seconds: f64,
    /// Phase totals (computation vs communication; no sync phase exists).
    pub phases: PhaseTimes,
    /// Bytes crossing rank boundaries (per-update delegate broadcasts plus
    /// point-to-point normal updates).
    pub remote_bytes: u64,
}

impl DistributedGraph {
    /// Runs forward-only BFS with the asynchronous execution model.
    ///
    /// # Errors
    /// Returns [`BuildError::SourceOutOfRange`] for an invalid source.
    pub fn run_async(
        &self,
        source: VertexId,
        config: &BfsConfig,
    ) -> Result<AsyncBfsResult, BuildError> {
        check_sources(&[source], self.num_vertices)?;
        let topo = self.topology;
        let d = self.separation.num_delegates();
        let cost = &config.cost;
        let net: &NetworkModel = &cost.network;

        // Per-GPU state: owned slot depths; replicated delegate depths.
        let mut depths_local: Vec<Vec<u32>> =
            self.subgraphs.iter().map(|sg| vec![UNREACHED; sg.num_local as usize]).collect();
        let mut delegate_depths = vec![UNREACHED; d as usize];
        // The value is "a wave reached me", combined by or. Only the
        // engine's walk and delivery are used: an async wave has no
        // collective, so it prices itself below.
        let mut eng = Superstep::new(topo, &self.subgraphs, d, false, |a, b| a | b, |hit, ()| hit);
        eng.inject(&self.separation, source, true);

        loop {
            // ---- Form the next wave: entries a proposal reached for the
            // first time (stale proposals for vertices visited in earlier
            // waves are dropped). ----
            let depth = eng.ledger.steps;
            eng.deliver(&mut depths_local, &mut delegate_depths, |depths, inbox, next| {
                for (i, hit) in inbox.touched() {
                    if hit && depths[i] == UNREACHED {
                        depths[i] = depth;
                        next.push((i as u32, true));
                    }
                }
            });
            if !eng.has_frontier() {
                break;
            }

            // ---- Wave expansion (same work as the BSP forward kernels):
            // the kernels are the same; asynchrony changes communication,
            // not local work. ----
            eng.walk();
            let compute = eng.kernel_seconds(cost, true);
            eng.ledger.edges += eng.edges_walked();

            // ---- Asynchronous delegate propagation: the proposals are
            // merged, but a wave does not pay for a full-mask collective —
            // each newly visited delegate is one 8-byte update broadcast
            // down a rank tree (HavoqGT-style). ----
            eng.allreduce(cost, true);
            let fresh_delegates = (delegate_depths.iter().zip(&eng.reduced))
                .filter(|&(&depth, &hit)| hit && depth == UNREACHED)
                .count();
            let prank = topo.num_ranks();
            let delegate_update_bytes = 8 * fresh_delegates as u64;
            let delegate_comm = if prank > 1 && fresh_delegates > 0 {
                // One aggregated tree broadcast per wave per rank level.
                eng.ledger.remote_bytes += delegate_update_bytes * (prank as u64 - 1);
                NetworkModel::tree_depth(prank) as f64 * net.p2p_time(delegate_update_bytes, false)
            } else {
                0.0
            };

            // ---- Point-to-point normal updates (identical to BSP, but a
            // bare 4-byte slot: the depth is the wave number). ----
            let normal_comm = eng.p2p_seconds(net, 4, false);
            eng.ledger.remote_bytes += 4 * eng.updates_sent();

            // ---- Asynchronous timing: communication fully overlaps
            // computation; a wave costs max(compute, comm) plus one
            // pipeline hop of latency. No synchronization term. ----
            let comm = delegate_comm.max(normal_comm);
            let phases = PhaseTimes {
                computation: compute,
                local_comm: 0.0,
                remote_normal: normal_comm,
                remote_delegate: delegate_comm,
            };
            eng.ledger.record(phases, compute.max(comm) + net.internode_latency);
        }

        let ledger = eng.ledger;
        Ok(AsyncBfsResult {
            source,
            depths: assemble(&topo, &self.separation, &depths_local, &delegate_depths),
            waves: ledger.steps,
            edges_examined: ledger.edges,
            modeled_seconds: ledger.modeled_seconds,
            phases: ledger.phases,
            remote_bytes: ledger.remote_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcbfs_cluster::topology::Topology;
    use gcbfs_graph::reference::bfs_depths;
    use gcbfs_graph::rmat::RmatConfig;
    use gcbfs_graph::{builders, Csr, WebGraphConfig};

    fn hub(graph: &gcbfs_graph::EdgeList) -> u64 {
        graph.out_degrees().iter().enumerate().max_by_key(|&(_, deg)| *deg).unwrap().0 as u64
    }

    #[test]
    fn matches_reference_on_rmat() {
        let graph = RmatConfig::graph500(9).generate();
        let csr = Csr::from_edge_list(&graph);
        let config = BfsConfig::new(8);
        for topo in [Topology::new(1, 1), Topology::new(2, 2), Topology::new(3, 2)] {
            let dist = DistributedGraph::build(&graph, topo, &config).unwrap();
            let r = dist.run_async(hub(&graph), &config).unwrap();
            assert_eq!(r.depths, bfs_depths(&csr, hub(&graph)));
        }
    }

    #[test]
    fn matches_reference_on_structured_graphs() {
        let config = BfsConfig::new(3);
        for graph in [builders::double_star(6), builders::grid(5, 7), builders::path(30)] {
            let csr = Csr::from_edge_list(&graph);
            let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
            for src in [0u64, graph.num_vertices / 2] {
                let r = dist.run_async(src, &config).unwrap();
                assert_eq!(r.depths, bfs_depths(&csr, src), "src {src}");
            }
        }
    }

    #[test]
    fn async_beats_bsp_on_long_tails() {
        // §VI-D: per-iteration overhead makes BSP unscalable on long-tail
        // graphs; the async model drops the sync term and wins there.
        let graph = WebGraphConfig::wdc_like(9).generate();
        let config = BfsConfig::new(64).with_direction_optimization(false);
        let dist = DistributedGraph::build(&graph, Topology::new(4, 2), &config).unwrap();
        let src = hub(&graph);
        let bsp = dist.run(src, &config).unwrap();
        let asy = dist.run_async(src, &config).unwrap();
        assert_eq!(asy.depths, bsp.depths);
        assert!(asy.waves >= 100, "long tail expected, got {}", asy.waves);
        assert!(
            asy.modeled_seconds < 0.7 * bsp.modeled_seconds(),
            "async {} vs BSP {}",
            asy.modeled_seconds,
            bsp.modeled_seconds()
        );
    }

    #[test]
    fn waves_equal_bsp_iterations() {
        let graph = RmatConfig::graph500(9).generate();
        let config = BfsConfig::new(8).with_direction_optimization(false);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let src = hub(&graph);
        let bsp = dist.run(src, &config).unwrap();
        let asy = dist.run_async(src, &config).unwrap();
        assert_eq!(asy.waves, bsp.iterations());
        assert_eq!(asy.depths, bsp.depths);
    }

    #[test]
    fn source_out_of_range() {
        let graph = builders::path(4);
        let config = BfsConfig::new(4);
        let dist = DistributedGraph::build(&graph, Topology::new(1, 1), &config).unwrap();
        assert!(matches!(dist.run_async(77, &config), Err(BuildError::SourceOutOfRange { .. })));
    }
}
