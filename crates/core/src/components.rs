//! Distributed connected components by label propagation — the
//! "community detection" building-block workload of the paper's
//! introduction, on the degree-separated distribution.
//!
//! Every vertex starts labeled with its own global id and repeatedly
//! adopts the minimum label among its neighbors; at convergence each
//! component carries its smallest member id. On the degree-separated
//! structure this is a third instantiation of the communication model:
//! delegate labels are 64-bit values merged by a **min** allreduce, and
//! `nn` updates carry `(slot, label)` pairs — the "associative values
//! for normal vertices" of §VI-D. The loop is the value superstep
//! (`crate::propagate`) with min as its combine.
//!
//! Like BFS (and unlike PageRank), the active set shrinks every sweep:
//! only vertices whose label changed propagate, so late sweeps are cheap.

use crate::config::BfsConfig;
use crate::driver::DistributedGraph;
use crate::propagate::{assemble, Pricing, Reduce, Superstep};
use gcbfs_cluster::timing::PhaseTimes;

/// Result of a distributed connected-components run.
#[derive(Clone, Debug)]
pub struct ComponentsResult {
    /// Canonical label (smallest component member id) per vertex.
    pub labels: Vec<u64>,
    /// Label-propagation sweeps until convergence.
    pub sweeps: u32,
    /// Edges examined across all sweeps.
    pub edges_examined: u64,
    /// Modeled per-phase totals.
    pub phases: PhaseTimes,
    /// Modeled elapsed seconds.
    pub modeled_seconds: f64,
    /// Bytes crossing rank boundaries.
    pub remote_bytes: u64,
}

impl ComponentsResult {
    /// Number of components.
    pub fn count(&self) -> u64 {
        self.labels.iter().enumerate().filter(|&(v, &l)| v as u64 == l).count() as u64
    }
}

impl DistributedGraph {
    /// Runs label-propagation connected components to convergence.
    ///
    /// ```
    /// use gcbfs_core::{config::BfsConfig, driver::DistributedGraph};
    /// use gcbfs_cluster::topology::Topology;
    /// use gcbfs_graph::EdgeList;
    ///
    /// // Two disjoint edges and an isolated vertex: three components.
    /// let mut graph = EdgeList::new(5, vec![(0, 1), (2, 3)]);
    /// graph.symmetrize();
    /// let config = BfsConfig::new(2);
    /// let dist = DistributedGraph::build(&graph, Topology::new(2, 1), &config).unwrap();
    /// let cc = dist.connected_components(&config);
    /// assert_eq!(cc.labels, vec![0, 0, 2, 2, 4]);
    /// assert_eq!(cc.count(), 3);
    /// ```
    pub fn connected_components(&self, config: &BfsConfig) -> ComponentsResult {
        let topo = self.topology;
        let d = self.separation.num_delegates();

        // Labels: owned slots (delegate-owned slots shadowed by the
        // replicated delegate labels) and replicated delegates.
        let mut labels_local: Vec<Vec<u64>> = topo
            .gpus()
            .zip(&self.subgraphs)
            .map(|(gpu, sg)| (0..sg.num_local).map(|slot| topo.global_id(gpu, slot)).collect())
            .collect();
        let mut delegate_labels: Vec<u64> = self.separation.delegates().to_vec();

        // The value is a label, combined by min. Everything participates
        // in the first sweep.
        let mut eng =
            Superstep::new(topo, &self.subgraphs, d, u64::MAX, u64::min, |label, ()| label);
        for (frontier, labels) in eng.normal_frontier.iter_mut().zip(&labels_local) {
            frontier.extend((0u32..).zip(labels.iter().copied()));
        }
        eng.delegate_frontier.extend((0u32..).zip(delegate_labels.iter().copied()));

        let pricing = Pricing::bsp(&config.cost, config.blocking_reduce);
        while eng.has_frontier() {
            eng.step(&pricing, Reduce::EveryStep);
            // Adopt smaller labels; changed vertices form the next active set.
            eng.deliver(&mut labels_local, &mut delegate_labels, |labels, inbox, next| {
                for (i, prop) in inbox.touched() {
                    if prop < labels[i] {
                        labels[i] = prop;
                        next.push((i as u32, prop));
                    }
                }
            });
        }

        let ledger = eng.ledger;
        ComponentsResult {
            labels: assemble(&topo, &self.separation, &labels_local, &delegate_labels),
            sweeps: ledger.steps,
            edges_examined: ledger.edges,
            phases: ledger.phases,
            modeled_seconds: ledger.modeled_seconds,
            remote_bytes: ledger.remote_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcbfs_cluster::topology::Topology;
    use gcbfs_graph::components::{components as reference, count_components};
    use gcbfs_graph::rmat::RmatConfig;
    use gcbfs_graph::{builders, EdgeList};

    fn check(graph: &EdgeList, topo: Topology, th: u64) {
        let config = BfsConfig::new(th);
        let dist = DistributedGraph::build(graph, topo, &config).unwrap();
        let r = dist.connected_components(&config);
        assert_eq!(r.labels, reference(graph), "topo {topo:?}, th {th}");
        assert_eq!(r.count(), count_components(&r.labels));
        assert!(r.sweeps >= 1);
    }

    #[test]
    fn matches_reference_on_rmat() {
        let graph = RmatConfig::graph500(9).generate();
        check(&graph, Topology::new(2, 2), 8);
        check(&graph, Topology::new(3, 1), 64);
        check(&graph, Topology::new(1, 1), 0);
    }

    #[test]
    fn matches_reference_on_multi_component_graph() {
        // Three disjoint grids plus isolated vertices.
        let a = builders::grid(3, 4);
        let mut edges = a.edges.clone();
        let off1 = a.num_vertices;
        edges.extend(a.edges.iter().map(|&(u, v)| (u + off1, v + off1)));
        let off2 = 2 * a.num_vertices;
        edges.extend(a.edges.iter().map(|&(u, v)| (u + off2, v + off2)));
        let graph = EdgeList::new(3 * a.num_vertices + 5, edges);
        check(&graph, Topology::new(2, 2), 3);
        let config = BfsConfig::new(3);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let r = dist.connected_components(&config);
        assert_eq!(r.count(), 3 + 5);
    }

    #[test]
    fn long_chain_needs_many_sweeps() {
        // Label propagation converges in O(diameter) sweeps; min label 0
        // walks the whole path.
        let graph = builders::path(64);
        let config = BfsConfig::new(4);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let r = dist.connected_components(&config);
        assert!(r.labels.iter().all(|&l| l == 0));
        assert!(r.sweeps >= 32, "only {} sweeps", r.sweeps);
    }

    #[test]
    fn active_set_shrinks() {
        // After convergence a re-run converges immediately (1 no-op sweep
        // beyond the active work); indirectly check via edge counts: total
        // examined edges stay well below sweeps * m.
        let graph = RmatConfig::graph500(10).generate();
        let config = BfsConfig::new(16);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let r = dist.connected_components(&config);
        // Without the active set every sweep would walk all m directed
        // edges; with it, later sweeps shrink drastically.
        assert!(r.sweeps >= 3);
        assert!(
            r.edges_examined < (r.sweeps as u64) * graph.num_edges() * 6 / 10,
            "label propagation did no active-set filtering: {} edges over {} sweeps of m = {}",
            r.edges_examined,
            r.sweeps,
            graph.num_edges()
        );
    }
}
