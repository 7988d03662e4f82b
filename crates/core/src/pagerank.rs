//! Distributed degree-separated PageRank — the paper's generalization
//! target (§VI-D, §VII future work).
//!
//! "Other graph algorithms require more bits of state for delegates — for
//! example, ranking scores for PageRank — and associative values for
//! normal vertices in addition to the vertex numbers themselves. For large
//! scale-free graphs, the increases in computation and communication are
//! roughly in the same order, and our computation and communication models
//! should still be scalable."
//!
//! This module implements exactly that on the BFS infrastructure:
//!
//! * delegate state becomes an `f64` score vector moved by a two-phase
//!   **sum** allreduce (8 bytes/delegate instead of 1 bit);
//! * normal-vertex `nn` contributions travel point-to-point as
//!   `(slot, value)` pairs (12 bytes instead of 4);
//! * local computation walks every subgraph edge per power iteration
//!   (`O(m)` — much heavier than DOBFS, as §VI-D predicts);
//! * dangling mass and the convergence delta ride tiny scalar allreduces.

use crate::driver::DistributedGraph;
use crate::propagate::{assemble, Pricing, Reduce, Superstep};
use gcbfs_cluster::collectives::allreduce_sum;
use gcbfs_cluster::cost::CostModel;
use gcbfs_cluster::timing::PhaseTimes;

/// Configuration of a distributed PageRank run.
#[derive(Clone, Copy, Debug)]
pub struct PageRankConfig {
    /// Damping factor (teleport probability is `1 - damping`).
    pub damping: f64,
    /// Stop when the L1 delta between iterations drops below this.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: u32,
    /// Blocking vs non-blocking delegate score reduction.
    pub blocking_reduce: bool,
    /// Machine model for modeled time.
    pub cost: CostModel,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        Self {
            damping: 0.85,
            tolerance: 1e-10,
            max_iterations: 200,
            blocking_reduce: true,
            cost: CostModel::ray(),
        }
    }
}

/// Result of a distributed PageRank run.
#[derive(Clone, Debug)]
pub struct DistributedPageRankResult {
    /// Score per vertex (global ids); sums to 1.
    pub scores: Vec<f64>,
    /// Power iterations executed.
    pub iterations: u32,
    /// Final L1 delta.
    pub delta: f64,
    /// Modeled per-phase totals (same four phases as BFS).
    pub phases: PhaseTimes,
    /// Modeled elapsed seconds with the overlap rule.
    pub modeled_seconds: f64,
    /// Bytes that crossed rank boundaries.
    pub remote_bytes: u64,
}

/// PageRank state of one GPU's owned slots, or of the replicated delegates.
struct PrState {
    /// Score per entry (0 for the unused slots delegates' ids own).
    scores: Vec<f64>,
    /// Out-degree per entry: `nn` + `nd` edges of a normal slot, the
    /// global `dn` + `dd` total of a delegate.
    degrees: Vec<u32>,
    /// True for the unused slots (they keep no score).
    unused: Vec<bool>,
    /// Score mass on this side's dangling (degree-0) entries.
    dangling: f64,
    /// This side's share of the last iteration's L1 delta.
    delta: f64,
}

impl PrState {
    /// Takes the damped incoming mass as the new scores, then refills
    /// `frontier` with the share `score / degree` every entry pushes and
    /// re-sums the dangling mass. Every entry is listed — the
    /// per-iteration scan covers them all — but unused and dangling ones
    /// have empty rows, so what they push goes nowhere.
    fn update(&mut self, next_score: impl Fn(usize) -> f64, frontier: &mut Vec<(u32, f64)>) {
        self.dangling = 0.0;
        self.delta = 0.0;
        for i in 0..self.scores.len() {
            let mut share = 0.0;
            if !self.unused[i] {
                let score = next_score(i);
                self.delta += (score - self.scores[i]).abs();
                self.scores[i] = score;
                if self.degrees[i] == 0 {
                    self.dangling += score;
                } else {
                    share = score / self.degrees[i] as f64;
                }
            }
            frontier.push((i as u32, share));
        }
    }
}

impl DistributedGraph {
    /// Runs PageRank on the degree-separated distribution.
    ///
    /// ```
    /// use gcbfs_core::{config::BfsConfig, driver::DistributedGraph, pagerank::PageRankConfig};
    /// use gcbfs_cluster::topology::Topology;
    /// use gcbfs_graph::builders;
    ///
    /// let graph = builders::star(8);
    /// let dist = DistributedGraph::build(&graph, Topology::new(2, 1), &BfsConfig::new(4)).unwrap();
    /// let pr = dist.pagerank(&PageRankConfig::default());
    /// assert!(pr.scores[0] > pr.scores[1]); // the hub outranks every leaf
    /// assert!((pr.scores.iter().sum::<f64>() - 1.0).abs() < 1e-8);
    /// ```
    pub fn pagerank(&self, config: &PageRankConfig) -> DistributedPageRankResult {
        let topo = self.topology;
        let n = self.num_vertices;
        let d = self.separation.num_delegates();
        let cost = &config.cost;
        let uniform = 1.0 / n as f64;
        let damping = config.damping;

        // ---- Setup: per-GPU state and global delegate out-degrees. ----
        let mut gpus: Vec<PrState> = topo
            .gpus()
            .zip(&self.subgraphs)
            .map(|(gpu, sg)| {
                let is_delegate = |slot| self.separation.is_delegate(topo.global_id(gpu, slot));
                PrState {
                    scores: vec![0f64; sg.num_local as usize],
                    degrees: (0..sg.num_local)
                        .map(|slot| sg.nn.out_degree(slot) + sg.nd.out_degree(slot))
                        .collect(),
                    unused: (0..sg.num_local).map(is_delegate).collect(),
                    dangling: 0.0,
                    delta: 0.0,
                }
            })
            .collect();

        // Delegate global out-degrees: sum the local dn + dd portions.
        let degree_partials: Vec<Vec<f64>> = self
            .subgraphs
            .iter()
            .map(|sg| (0..d).map(|x| (sg.dn.out_degree(x) + sg.dd.out_degree(x)) as f64).collect())
            .collect();
        let delegate_outdeg = if d > 0 {
            allreduce_sum(topo, cost, &degree_partials, config.blocking_reduce).reduced
        } else {
            Vec::new()
        };
        let mut delegates = PrState {
            scores: vec![0f64; d as usize],
            degrees: delegate_outdeg.iter().map(|&deg| deg as u32).collect(),
            unused: vec![false; d as usize],
            dangling: 0.0,
            delta: 0.0,
        };

        // The value is a rank share, combined by sum. Every vertex is
        // active every iteration, starting from the uniform score.
        let mut eng = Superstep::new(topo, &self.subgraphs, d, 0f64, |a, b| a + b, |s, ()| s);
        for (g, frontier) in gpus.iter_mut().zip(&mut eng.normal_frontier) {
            g.update(|_| uniform, frontier);
        }
        delegates.update(|_| uniform, &mut eng.delegate_frontier);

        let pricing = Pricing {
            // A single rank moves its nn contributions over the node fabric.
            p2p_intra_node: topo.gpus_per_rank() == topo.num_gpus(),
            // (Its termination allreduce is the global delta check.)
            ..Pricing::bsp(cost, config.blocking_reduce)
        };

        // ---- Power iterations. ----
        let mut delta = f64::INFINITY;
        while eng.ledger.steps < config.max_iterations && delta > config.tolerance {
            // The dangling mass rides along the delegate score reduction.
            let dangling: Vec<f64> = gpus.iter().map(|g| g.dangling).collect();
            eng.step(&pricing, Reduce::WithScalar(&dangling));
            let base = (1.0 - damping) * uniform + damping * eng.reduced[d as usize] * uniform;
            eng.deliver(&mut gpus, &mut delegates, |side, inbox, next| {
                side.update(|i| base + damping * inbox.get(i), next);
            });
            delta = gpus.iter().map(|g| g.delta).sum::<f64>() + delegates.delta;
        }

        let locals = gpus.iter().map(|g| &g.scores);
        let ledger = eng.ledger;
        DistributedPageRankResult {
            scores: assemble(&topo, &self.separation, locals, &delegates.scores),
            iterations: ledger.steps,
            delta,
            phases: ledger.phases,
            modeled_seconds: ledger.modeled_seconds,
            remote_bytes: ledger.remote_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BfsConfig;
    use gcbfs_cluster::topology::Topology;
    use gcbfs_graph::pagerank::pagerank as reference_pagerank;
    use gcbfs_graph::rmat::RmatConfig;
    use gcbfs_graph::{builders, Csr};

    fn assert_scores_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= 1e-9 + 1e-6 * y.abs(), "score mismatch at {i}: {x} vs {y}");
        }
    }

    fn check(graph: &gcbfs_graph::EdgeList, topo: Topology, th: u64) {
        let bfs_config = BfsConfig::new(th);
        let dist = DistributedGraph::build(graph, topo, &bfs_config).unwrap();
        let config = PageRankConfig { max_iterations: 60, tolerance: 1e-12, ..Default::default() };
        let ours = dist.pagerank(&config);
        let csr = Csr::from_edge_list(graph);
        let reference = reference_pagerank(&csr, config.damping, 1e-12, 60);
        assert_eq!(ours.iterations, reference.iterations);
        assert_scores_close(&ours.scores, &reference.scores);
        let total: f64 = ours.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-8, "scores must sum to 1, got {total}");
    }

    #[test]
    fn matches_reference_on_rmat() {
        let graph = RmatConfig::graph500(9).generate();
        check(&graph, Topology::new(2, 2), 8);
        check(&graph, Topology::new(3, 1), 32);
    }

    #[test]
    fn matches_reference_on_structured_graphs() {
        check(&builders::star(30), Topology::new(2, 2), 4);
        check(&builders::grid(6, 7), Topology::new(2, 2), 2);
        check(&builders::double_star(8), Topology::new(4, 1), 4);
    }

    #[test]
    fn handles_isolated_vertices() {
        let mut graph = builders::path(5);
        graph.num_vertices = 8; // three isolated (dangling) vertices
        check(&graph, Topology::new(2, 2), 2);
    }

    #[test]
    fn communication_is_heavier_than_bfs() {
        // §VI-D: PageRank needs more bits of state — per iteration its
        // delegate traffic is 64x the BFS mask, and it runs O(m) work
        // every iteration.
        let graph = RmatConfig::graph500(9).generate();
        let topo = Topology::new(2, 2);
        let bfs_config = BfsConfig::new(8);
        let dist = DistributedGraph::build(&graph, topo, &bfs_config).unwrap();
        let src =
            graph.out_degrees().iter().enumerate().max_by_key(|&(_, deg)| *deg).unwrap().0 as u64;
        let bfs = dist.run(src, &bfs_config).unwrap();
        let pr = dist.pagerank(&PageRankConfig {
            max_iterations: bfs.iterations(),
            tolerance: 0.0,
            ..Default::default()
        });
        assert!(pr.remote_bytes > bfs.stats.total_remote_bytes());
    }

    #[test]
    fn zero_delegate_configuration_works() {
        let graph = builders::grid(5, 5);
        check(&graph, Topology::new(2, 2), u64::MAX);
    }
}
