//! Multi-source BFS (MS-BFS) on the degree-separated distribution.
//!
//! The paper motivates BFS as "a building block of more advanced
//! algorithms that involve graph traversals, such as betweenness
//! centrality and community detection" (§I). Those algorithms run BFS
//! from many sources, and the standard batching trick packs up to 64
//! concurrent searches into one u64 bitmask per vertex so a single edge
//! traversal serves every search at once.
//!
//! The degree-separation machinery carries over directly: the delegate
//! visited state becomes a `u64` *per delegate* (64× the single-BFS mask —
//! another instance of §VI-D's "more bits of state for delegates"),
//! reduced by the same two-phase bit-or collective; `nn` updates carry the
//! source bitmask alongside the destination slot (12 bytes per update).
//! Traversal is forward-only: direction optimization does not compose
//! with source batching (a backward pull terminates per source, not per
//! vertex), which is why centrality codes run top-down batches.

use crate::config::BfsConfig;
use crate::driver::{BfsResult, BuildError, DistributedGraph};
use crate::propagate::{assemble, check_sources, Pricing, Reduce, Superstep};
use crate::UNREACHED;
use gcbfs_cluster::timing::PhaseTimes;
use gcbfs_graph::VertexId;

/// Result of one multi-source batch.
#[derive(Clone, Debug)]
pub struct MsBfsResult {
    /// The batched sources, in bit order.
    pub sources: Vec<VertexId>,
    /// `depths[k][v]` = hop distance from `sources[k]` to `v`.
    pub depths: Vec<Vec<u32>>,
    /// BFS levels processed (max over sources).
    pub iterations: u32,
    /// Per-source termination level: `source_iterations[k]` is the number
    /// of levels an independent single-source run from `sources[k]` would
    /// have processed (its deepest settled depth plus the final
    /// empty-yield pass). Always `<= iterations`; the batch max equals
    /// `iterations` by construction. Lets a scheduler attribute each
    /// query's latency to the level where *it* finished, not the level
    /// where the slowest batch member finished.
    pub source_iterations: Vec<u32>,
    /// Modeled elapsed seconds per level (overlap rule), in level order;
    /// `level_seconds.len() == iterations` and the entries sum to
    /// `modeled_seconds`.
    pub level_seconds: Vec<f64>,
    /// Edges examined — shared across the whole batch.
    pub edges_examined: u64,
    /// Modeled per-phase totals.
    pub phases: PhaseTimes,
    /// Modeled elapsed seconds (overlap rule).
    pub modeled_seconds: f64,
    /// Bytes crossing rank boundaries.
    pub remote_bytes: u64,
}

impl MsBfsResult {
    /// The single-run result view for source `k` (depths only).
    pub fn depths_of(&self, k: usize) -> &[u32] {
        &self.depths[k]
    }

    /// Levels source `k`'s search ran for before its frontier emptied.
    pub fn iterations_of(&self, k: usize) -> u32 {
        self.source_iterations[k]
    }

    /// Modeled seconds from batch start until source `k`'s search
    /// terminated: the cumulative level times through its termination
    /// level. The last batch member's completion equals
    /// `modeled_seconds`.
    pub fn completion_seconds_of(&self, k: usize) -> f64 {
        self.level_seconds.iter().take(self.source_iterations[k] as usize).sum()
    }
}

/// Lane state of one GPU's owned slots, or of the replicated delegates.
struct Lanes {
    /// Sources that reached each entry (cumulative).
    masks: Vec<u64>,
    /// `depths[k][i]`: hop distance from source `k` to entry `i`.
    depths: Vec<Vec<u32>>,
}

impl Lanes {
    fn new(len: usize, k_count: usize) -> Self {
        Self { masks: vec![0; len], depths: vec![vec![UNREACHED; len]; k_count] }
    }

    /// Admits the lanes of `incoming` that have not reached entry `i` yet
    /// at `depth`; returns them.
    fn admit(&mut self, i: usize, incoming: u64, depth: u32) -> u64 {
        let fresh = incoming & !self.masks[i];
        self.masks[i] |= fresh;
        let mut bits = fresh;
        while bits != 0 {
            self.depths[bits.trailing_zeros() as usize][i] = depth;
            bits &= bits - 1;
        }
        fresh
    }
}

impl DistributedGraph {
    /// Runs up to 64 breadth-first searches simultaneously (forward-only).
    ///
    /// # Errors
    /// Returns [`BuildError::BatchSize`] for an empty batch or more than
    /// 64 sources, and [`BuildError::SourceOutOfRange`] if any source is
    /// invalid.
    pub fn run_multi_source(
        &self,
        sources: &[VertexId],
        config: &BfsConfig,
    ) -> Result<MsBfsResult, BuildError> {
        if !(1..=64).contains(&sources.len()) {
            return Err(BuildError::BatchSize { got: sources.len() });
        }
        check_sources(sources, self.num_vertices)?;
        let k_count = sources.len();
        let topo = self.topology;
        let d = self.separation.num_delegates();

        let mut gpus: Vec<Lanes> =
            self.subgraphs.iter().map(|sg| Lanes::new(sg.num_local as usize, k_count)).collect();
        let mut delegates = Lanes::new(d as usize, k_count);
        // The value is the u64 of source lanes, combined by OR.
        let mut eng = Superstep::new(topo, &self.subgraphs, d, 0u64, |a, b| a | b, |bits, ()| bits);
        for (k, &s) in sources.iter().enumerate() {
            eng.inject(&self.separation, s, 1u64 << k);
        }

        let pricing = Pricing::bsp(&config.cost, config.blocking_reduce);
        loop {
            // Lanes new to an entry settle at the current level and travel on.
            let depth = eng.ledger.steps;
            eng.deliver(&mut gpus, &mut delegates, |lanes, inbox, next| {
                for (i, bits) in inbox.touched() {
                    let fresh = lanes.admit(i, bits, depth);
                    if fresh != 0 {
                        next.push((i as u32, fresh));
                    }
                }
            });
            if !eng.has_frontier() {
                break;
            }
            // The d x u64 reduce (64x the single-BFS mask) is skipped on
            // levels where no GPU proposes a lane a delegate lacks.
            let news = |x: usize, bits: u64| bits & !delegates.masks[x] != 0;
            eng.step(&pricing, Reduce::SkipIdle(&news));
        }

        let depths: Vec<Vec<u32>> = (0..k_count)
            .map(|k| {
                let locals = gpus.iter().map(|g| &g.depths[k]);
                assemble(&topo, &self.separation, locals, &delegates.depths[k])
            })
            .collect();

        // Per-source termination level: deepest settled depth plus the
        // final empty-yield pass a standalone run would execute. An
        // unreachable-everything source still seeds itself at depth 0,
        // so the minimum is one level.
        let source_iterations: Vec<u32> = depths
            .iter()
            .map(|dvec| {
                let deepest = dvec.iter().filter(|&&d| d != UNREACHED).max().copied().unwrap_or(0);
                deepest + 1
            })
            .collect();
        let ledger = eng.ledger;
        debug_assert!(source_iterations.iter().all(|&s| s <= ledger.steps.max(1)));

        Ok(MsBfsResult {
            sources: sources.to_vec(),
            depths,
            iterations: ledger.steps,
            source_iterations,
            level_seconds: ledger.step_seconds,
            edges_examined: ledger.edges,
            phases: ledger.phases,
            modeled_seconds: ledger.modeled_seconds,
            remote_bytes: ledger.remote_bytes,
        })
    }
}

/// Convenience: the workload a batch saved versus running each source
/// separately (edges examined by `separate` runs divided by the batch's).
pub fn batch_sharing_factor(batch: &MsBfsResult, separate: &[BfsResult]) -> f64 {
    let separate_edges: u64 = separate.iter().map(|r| r.stats.total_edges_examined()).sum();
    separate_edges as f64 / batch.edges_examined.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcbfs_cluster::topology::Topology;
    use gcbfs_graph::reference::bfs_depths;
    use gcbfs_graph::rmat::RmatConfig;
    use gcbfs_graph::{builders, Csr};

    fn sources_for(graph: &gcbfs_graph::EdgeList, count: usize) -> Vec<u64> {
        let degrees = graph.out_degrees();
        (0..graph.num_vertices).filter(|&v| degrees[v as usize] > 0).take(count).collect()
    }

    #[test]
    fn matches_reference_per_source_on_rmat() {
        let graph = RmatConfig::graph500(9).generate();
        let csr = Csr::from_edge_list(&graph);
        let config = BfsConfig::new(8).with_direction_optimization(false);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let sources = sources_for(&graph, 17);
        let batch = dist.run_multi_source(&sources, &config).unwrap();
        for (k, &s) in sources.iter().enumerate() {
            assert_eq!(batch.depths_of(k), bfs_depths(&csr, s), "source {s}");
        }
    }

    #[test]
    fn full_64_source_batch() {
        let graph = RmatConfig::graph500(10).generate();
        let csr = Csr::from_edge_list(&graph);
        let config = BfsConfig::new(16);
        let dist = DistributedGraph::build(&graph, Topology::new(3, 2), &config).unwrap();
        let sources = sources_for(&graph, 64);
        assert_eq!(sources.len(), 64);
        let batch = dist.run_multi_source(&sources, &config).unwrap();
        for k in [0usize, 13, 31, 63] {
            assert_eq!(batch.depths_of(k), bfs_depths(&csr, sources[k]));
        }
        assert!(batch.iterations >= 2);
    }

    #[test]
    fn delegate_and_normal_sources_mix() {
        let graph = builders::double_star(8);
        let csr = Csr::from_edge_list(&graph);
        let config = BfsConfig::new(5);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        // Hub 0 is a delegate, leaf 3 is normal.
        let sources = vec![0u64, 3];
        let batch = dist.run_multi_source(&sources, &config).unwrap();
        assert_eq!(batch.depths_of(0), bfs_depths(&csr, 0));
        assert_eq!(batch.depths_of(1), bfs_depths(&csr, 3));
    }

    #[test]
    fn batching_shares_edge_traversals() {
        // The whole point of MS-BFS: one batch examines far fewer edges
        // than 32 separate (forward-only) runs.
        let graph = RmatConfig::graph500(10).generate();
        let config = BfsConfig::new(16).with_direction_optimization(false);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let sources = sources_for(&graph, 32);
        let batch = dist.run_multi_source(&sources, &config).unwrap();
        let separate: Vec<BfsResult> =
            sources.iter().map(|&s| dist.run(s, &config).unwrap()).collect();
        let sharing = batch_sharing_factor(&batch, &separate);
        assert!(sharing > 4.0, "sharing factor only {sharing:.2}");
        // And it matches each separate run's depths.
        for (k, r) in separate.iter().enumerate() {
            assert_eq!(batch.depths_of(k), &r.depths[..]);
        }
    }

    #[test]
    fn per_source_iterations_match_standalone_runs() {
        let graph = RmatConfig::graph500(9).generate();
        let config = BfsConfig::new(8).with_direction_optimization(false);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let sources = sources_for(&graph, 24);
        let batch = dist.run_multi_source(&sources, &config).unwrap();
        assert_eq!(batch.source_iterations.len(), sources.len());
        let mut max_levels = 0;
        for (k, &s) in sources.iter().enumerate() {
            let single = dist.run(s, &config).unwrap();
            assert_eq!(
                batch.iterations_of(k),
                single.iterations(),
                "source {s}: batched termination level must equal a standalone run's"
            );
            max_levels = max_levels.max(batch.iterations_of(k));
        }
        // The batch runs exactly as long as its slowest member.
        assert_eq!(max_levels, batch.iterations);
    }

    #[test]
    fn level_seconds_sum_to_modeled_and_order_completions() {
        let graph = RmatConfig::graph500(9).generate();
        let config = BfsConfig::new(8);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let sources = sources_for(&graph, 9);
        let batch = dist.run_multi_source(&sources, &config).unwrap();
        assert_eq!(batch.level_seconds.len(), batch.iterations as usize);
        let sum: f64 = batch.level_seconds.iter().sum();
        assert_eq!(sum.to_bits(), batch.modeled_seconds.to_bits(), "levels must sum exactly");
        for k in 0..sources.len() {
            let c = batch.completion_seconds_of(k);
            assert!(c > 0.0 && c <= batch.modeled_seconds);
            if batch.iterations_of(k) == batch.iterations {
                assert_eq!(c.to_bits(), batch.modeled_seconds.to_bits());
            }
        }
    }

    #[test]
    fn sharing_factor_is_exact_edge_ratio() {
        let graph = RmatConfig::graph500(9).generate();
        let config = BfsConfig::new(8).with_direction_optimization(false);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let sources = sources_for(&graph, 8);
        let batch = dist.run_multi_source(&sources, &config).unwrap();
        let separate: Vec<BfsResult> =
            sources.iter().map(|&s| dist.run(s, &config).unwrap()).collect();
        let expected: u64 = separate.iter().map(|r| r.stats.total_edges_examined()).sum();
        let got = batch_sharing_factor(&batch, &separate);
        assert_eq!(got, expected as f64 / batch.edges_examined as f64);
    }

    #[test]
    fn sharing_factor_guards_zero_edge_batches() {
        // An isolated source examines no edges; the factor must stay
        // finite (the denominator floors at 1).
        let graph = gcbfs_graph::EdgeList::new(3, vec![(0, 1)]);
        let config = BfsConfig::new(4);
        let dist = DistributedGraph::build(&graph, Topology::new(1, 1), &config).unwrap();
        let batch = dist.run_multi_source(&[2], &config).unwrap();
        assert_eq!(batch.edges_examined, 0);
        let separate = vec![dist.run(2, &config).unwrap()];
        let got = batch_sharing_factor(&batch, &separate);
        assert!(got.is_finite());
        assert_eq!(batch.iterations_of(0), 1, "isolated source terminates after one level");
    }

    #[test]
    fn rejects_invalid_inputs() {
        let graph = builders::path(4);
        let config = BfsConfig::new(4);
        let dist = DistributedGraph::build(&graph, Topology::new(1, 1), &config).unwrap();
        assert!(matches!(
            dist.run_multi_source(&[9], &config),
            Err(BuildError::SourceOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_oversized_batch() {
        let graph = builders::path(80);
        let config = BfsConfig::new(4);
        let dist = DistributedGraph::build(&graph, Topology::new(1, 1), &config).unwrap();
        let sources: Vec<u64> = (0..65).collect();
        assert_eq!(
            dist.run_multi_source(&sources, &config).unwrap_err(),
            BuildError::BatchSize { got: 65 }
        );
        assert_eq!(
            dist.run_multi_source(&[], &config).unwrap_err(),
            BuildError::BatchSize { got: 0 }
        );
    }
}
