//! Distributed betweenness centrality (Brandes) on the degree-separated
//! distribution — the flagship workload the paper's introduction motivates
//! BFS with ("a building block of more advanced algorithms that involve
//! graph traversals, such as betweenness centrality").
//!
//! Per source: a forward BFS that also accumulates shortest-path counts
//! `σ` (delegate σ merged by a **sum** allreduce; remote `nn` updates
//! carry `(slot, σ)` — §VI-D's "associative values"), then a reverse
//! level-order sweep where every vertex `w` pushes its dependency share
//! `(1 + δ_w)/σ_w` to predecessors over the *mirror* edges: because every
//! non-`nn` subgraph is GPU-local-symmetric and `nn` mirrors live on the
//! other endpoint's GPU, the backward sweep needs no request/reply — it is
//! push-based over exactly the same communication structure as the
//! forward pass.

use crate::config::BfsConfig;
use crate::driver::{BuildError, DistributedGraph};
use crate::propagate::{assemble, check_sources, Inbox, Pricing, Reduce, Superstep};
use crate::UNREACHED;
use gcbfs_cluster::timing::PhaseTimes;
use gcbfs_graph::VertexId;

/// Result of a distributed betweenness run.
#[derive(Clone, Debug)]
pub struct BetweennessResult {
    /// Betweenness score per vertex, accumulated over the given sources.
    pub scores: Vec<f64>,
    /// Sources processed.
    pub sources: Vec<VertexId>,
    /// Total BFS levels across all sources (forward sweeps; the backward
    /// pass revisits each).
    pub levels: u32,
    /// Edges examined across both sweeps of all sources.
    pub edges_examined: u64,
    /// Modeled per-phase totals.
    pub phases: PhaseTimes,
    /// Modeled elapsed seconds.
    pub modeled_seconds: f64,
    /// Bytes crossing rank boundaries.
    pub remote_bytes: u64,
}

/// Per-source Brandes state of one GPU's owned slots, or of the
/// replicated delegates.
struct BcState {
    depth: Vec<u32>,
    sigma: Vec<f64>,
    delta: Vec<f64>,
    /// Entries discovered per level, ascending (forward order).
    levels: Vec<Vec<u32>>,
}

impl BcState {
    fn new(len: usize) -> Self {
        Self {
            depth: vec![UNREACHED; len],
            sigma: vec![0f64; len],
            delta: vec![0f64; len],
            levels: Vec::new(),
        }
    }

    /// Forward: unreached entries that receive a positive path count form
    /// level `depth` with that σ, and push it on.
    fn discover(&mut self, inbox: Inbox<'_, f64>, depth: u32, next: &mut Vec<(u32, f64)>) {
        for (i, sigma) in inbox.touched() {
            if self.depth[i] == UNREACHED && sigma > 0.0 {
                self.depth[i] = depth;
                self.sigma[i] = sigma;
                next.push((i as u32, sigma));
            }
        }
        self.levels.push(next.iter().map(|entry| entry.0).collect());
    }

    /// Backward: level `lv` takes δ(v) = σ(v) · Σ shares from the level
    /// below (the mirror edges also reach vertices off the shortest-path
    /// DAG, which ignore them), then pushes its own share (1 + δ)/σ up.
    fn back_propagate(&mut self, inbox: Inbox<'_, f64>, lv: u32, next: &mut Vec<(u32, f64)>) {
        for (i, shares) in inbox.touched() {
            if self.depth[i] == lv && shares != 0.0 {
                self.delta[i] += self.sigma[i] * shares;
            }
        }
        next.extend(self.levels[lv as usize].iter().map(|&w| {
            let w_us = w as usize;
            (w, (1.0 + self.delta[w_us]) / self.sigma[w_us])
        }));
    }

    /// Adds this source's δ into `bc` (the source itself sits at depth 0).
    fn accumulate_into(&self, bc: &mut [f64]) {
        for (i, &dl) in self.delta.iter().enumerate() {
            if self.depth[i] != UNREACHED && self.depth[i] != 0 {
                bc[i] += dl;
            }
        }
    }
}

impl DistributedGraph {
    /// Accumulates Brandes betweenness over `sources` (exact when every
    /// vertex is given, sampled otherwise).
    ///
    /// # Errors
    /// Returns [`BuildError::SourceOutOfRange`] for an invalid source.
    pub fn betweenness(
        &self,
        sources: &[VertexId],
        config: &BfsConfig,
    ) -> Result<BetweennessResult, BuildError> {
        check_sources(sources, self.num_vertices)?;
        let topo = self.topology;
        let d = self.separation.num_delegates();
        let mut bc_normal: Vec<Vec<f64>> =
            self.subgraphs.iter().map(|sg| vec![0f64; sg.num_local as usize]).collect();
        let mut bc_delegate = vec![0f64; d as usize];

        // The value is a path count (forward) or a dependency share
        // (backward); both combine by sum.
        let mut eng = Superstep::new(topo, &self.subgraphs, d, 0f64, |a, b| a + b, |v, ()| v);
        let forward = Pricing::bsp(&config.cost, config.blocking_reduce);
        // The backward sweep replays the stored levels.
        let backward = Pricing { discovers_frontier: false, ..forward };

        let mut phases = PhaseTimes::zero();
        let mut modeled = 0.0f64;
        let mut remote_bytes = 0u64;
        let mut edges_examined = 0u64;
        let mut levels = 0u32;

        for &s in sources {
            let mut gpus: Vec<BcState> =
                self.subgraphs.iter().map(|sg| BcState::new(sg.num_local as usize)).collect();
            let mut delegates = BcState::new(d as usize);

            // ---- Forward σ-BFS (level-synchronous): every frontier
            // vertex pushes its σ; unreached receivers form the next
            // level. The last level recorded is the empty one.
            eng.inject(&self.separation, s, 1.0);
            let mut level = 0u32;
            loop {
                eng.deliver(&mut gpus, &mut delegates, |side, inbox, next| {
                    side.discover(inbox, level, next)
                });
                if !eng.has_frontier() {
                    break;
                }
                eng.step(&forward, Reduce::EveryStep);
                level += 1;
            }

            // ---- Backward dependency sweep over the mirror edges, from
            // the deepest occupied level (`level - 1`) up to level 1. What
            // finally reaches the source is drained: it scores nothing.
            for lv in (1..level).rev() {
                eng.deliver(&mut gpus, &mut delegates, |side, inbox, next| {
                    side.back_propagate(inbox, lv, next)
                });
                eng.step(&backward, Reduce::EveryStep);
            }
            eng.deliver(&mut gpus, &mut delegates, |_, _, _| {});

            for (g, bc) in gpus.iter().zip(&mut bc_normal) {
                g.accumulate_into(bc);
            }
            delegates.accumulate_into(&mut bc_delegate);

            let ledger = std::mem::take(&mut eng.ledger);
            levels += level;
            edges_examined += ledger.edges;
            phases = phases.combine(&ledger.phases);
            modeled += ledger.modeled_seconds;
            remote_bytes += ledger.remote_bytes;
        }

        Ok(BetweennessResult {
            scores: assemble(&topo, &self.separation, &bc_normal, &bc_delegate),
            sources: sources.to_vec(),
            levels,
            edges_examined,
            phases,
            modeled_seconds: modeled,
            remote_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcbfs_cluster::topology::Topology;
    use gcbfs_graph::betweenness::betweenness as reference;
    use gcbfs_graph::rmat::RmatConfig;
    use gcbfs_graph::{builders, Csr, EdgeList};

    fn check(graph: &EdgeList, topo: Topology, th: u64, sources: &[u64]) {
        let config = BfsConfig::new(th);
        let dist = DistributedGraph::build(graph, topo, &config).unwrap();
        let ours = dist.betweenness(sources, &config).unwrap();
        let expect = reference(&Csr::from_edge_list(graph), sources);
        for (v, (&a, &b)) in ours.scores.iter().zip(&expect).enumerate() {
            assert!(
                (a - b).abs() < 1e-7 + 1e-9 * b.abs(),
                "bc mismatch at {v}: {a} vs {b} (topo {topo:?}, th {th})"
            );
        }
    }

    #[test]
    fn matches_reference_on_star_and_diamond() {
        let star = builders::star(8);
        let all: Vec<u64> = (0..star.num_vertices).collect();
        check(&star, Topology::new(2, 2), 4, &all);

        let mut diamond = EdgeList::new(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        diamond.symmetrize();
        let all: Vec<u64> = (0..4).collect();
        check(&diamond, Topology::new(2, 1), 1, &all);
    }

    #[test]
    fn matches_reference_on_grid_all_sources() {
        let g = builders::grid(4, 4);
        let all: Vec<u64> = (0..g.num_vertices).collect();
        for topo in [Topology::new(1, 1), Topology::new(2, 2), Topology::new(3, 1)] {
            check(&g, topo, 2, &all);
        }
    }

    #[test]
    fn matches_reference_on_rmat_sampled() {
        let graph = RmatConfig::graph500(8).generate();
        let degrees = graph.out_degrees();
        let sources: Vec<u64> =
            (0..graph.num_vertices).filter(|&v| degrees[v as usize] > 0).take(12).collect();
        check(&graph, Topology::new(2, 2), 8, &sources);
        check(&graph, Topology::new(4, 1), 32, &sources);
    }

    #[test]
    fn delegate_hub_receives_expected_centrality() {
        // On a star distributed anywhere, the hub (a delegate) must carry
        // all the betweenness.
        let graph = builders::star(10);
        let all: Vec<u64> = (0..graph.num_vertices).collect();
        let config = BfsConfig::new(4);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        assert!(dist.separation().is_delegate(0));
        let r = dist.betweenness(&all, &config).unwrap();
        assert!((r.scores[0] - 90.0).abs() < 1e-7, "hub bc = {}", r.scores[0]);
    }

    #[test]
    fn source_out_of_range() {
        let graph = builders::path(4);
        let config = BfsConfig::new(4);
        let dist = DistributedGraph::build(&graph, Topology::new(1, 1), &config).unwrap();
        assert!(matches!(
            dist.betweenness(&[0, 99], &config),
            Err(BuildError::SourceOutOfRange { .. })
        ));
    }
}
