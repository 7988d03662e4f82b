//! Single-processor BFS and direction-optimizing BFS (Beamer et al.).
//!
//! This is the algorithm of reference \[4\] in the paper: start top-down
//! (forward push), switch to bottom-up (backward pull) when the frontier's
//! out-edge count exceeds a fraction of the unexplored edges, and switch
//! back when the frontier shrinks again. The measured edges-examined count
//! of a DOBFS run is the `m'` that bounds the distributed implementation's
//! workload in §IV-B.

use crate::UNREACHED;
use gcbfs_cluster::cost::{DeviceModel, KernelKind};
use gcbfs_graph::Csr;

/// Result of a single-processor run.
#[derive(Clone, Debug)]
pub struct SingleResult {
    /// Hop distances (`UNREACHED` if unreachable).
    pub depths: Vec<u32>,
    /// Iterations (BFS levels processed).
    pub iterations: u32,
    /// Iterations run in the backward direction.
    pub backward_iterations: u32,
    /// Edges examined — for plain BFS every out-edge of every reached
    /// vertex; for DOBFS the (much smaller) `m'`.
    pub edges_examined: u64,
    /// Modeled single-device time (visit kernels only).
    pub modeled_seconds: f64,
}

impl SingleResult {
    /// Graph500 TEPS against modeled time.
    pub fn teps(&self, graph500_edges: u64) -> f64 {
        graph500_edges as f64 / self.modeled_seconds
    }
}

/// Single-processor BFS runner.
#[derive(Clone, Copy, Debug)]
pub struct SingleNodeBfs {
    /// Direction optimization on/off.
    pub direction_optimization: bool,
    /// Beamer's α: switch to bottom-up when
    /// `frontier_out_edges > unexplored_edges / alpha`.
    pub alpha: f64,
    /// Beamer's β: switch back to top-down when
    /// `frontier_len < n / beta`.
    pub beta: f64,
    /// Device model for modeled time.
    pub device: DeviceModel,
}

impl SingleNodeBfs {
    /// Plain BFS (no direction switching).
    pub fn plain() -> Self {
        Self { direction_optimization: false, alpha: 14.0, beta: 24.0, device: DeviceModel::p100() }
    }

    /// Direction-optimizing BFS with the standard α = 14, β = 24.
    pub fn direction_optimizing() -> Self {
        Self { direction_optimization: true, ..Self::plain() }
    }

    /// Runs from `source`.
    pub fn run(&self, graph: &Csr, source: u64) -> SingleResult {
        let n = graph.num_vertices() as usize;
        let m = graph.num_edges();
        let mut depths = vec![UNREACHED; n];
        depths[source as usize] = 0;
        let mut frontier: Vec<u64> = vec![source];
        let mut edges_examined = 0u64;
        let mut unexplored = m;
        let mut iterations = 0u32;
        let mut backward_iterations = 0u32;
        let mut backward = false;
        let mut modeled = 0.0f64;

        while !frontier.is_empty() {
            let depth = iterations;
            let frontier_out: u64 = frontier.iter().map(|&u| graph.out_degree(u)).sum();
            if self.direction_optimization {
                if !backward && frontier_out as f64 > unexplored as f64 / self.alpha {
                    backward = true;
                } else if backward && (frontier.len() as f64) < n as f64 / self.beta {
                    backward = false;
                }
            }
            let mut next = Vec::new();
            let examined_before = edges_examined;
            if backward {
                backward_iterations += 1;
                for v in 0..n as u64 {
                    if depths[v as usize] != UNREACHED {
                        continue;
                    }
                    for &u in graph.neighbors(v) {
                        edges_examined += 1;
                        if depths[u as usize] == depth {
                            depths[v as usize] = depth + 1;
                            next.push(v);
                            break;
                        }
                    }
                }
            } else {
                for &u in &frontier {
                    for &v in graph.neighbors(u) {
                        edges_examined += 1;
                        if depths[v as usize] == UNREACHED {
                            depths[v as usize] = depth + 1;
                            next.push(v);
                        }
                    }
                }
            }
            unexplored = unexplored.saturating_sub(frontier_out);
            modeled +=
                self.device.kernel_time(KernelKind::DynamicVisit, edges_examined - examined_before)
                    + self.device.kernel_time(KernelKind::Previsit, frontier.len() as u64);
            frontier = next;
            iterations += 1;
        }

        SingleResult {
            depths,
            iterations,
            backward_iterations,
            edges_examined,
            modeled_seconds: modeled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcbfs_graph::reference::bfs_depths;
    use gcbfs_graph::rmat::RmatConfig;
    use gcbfs_graph::{builders, Csr};

    #[test]
    fn plain_matches_reference() {
        let g = Csr::from_edge_list(&builders::grid(5, 6));
        let r = SingleNodeBfs::plain().run(&g, 3);
        assert_eq!(r.depths, bfs_depths(&g, 3));
        assert_eq!(r.backward_iterations, 0);
    }

    #[test]
    fn dobfs_matches_reference_on_rmat() {
        let list = RmatConfig::graph500(9).generate();
        let g = Csr::from_edge_list(&list);
        let src = (0..list.num_vertices).find(|&v| g.out_degree(v) > 4).unwrap();
        let plain = SingleNodeBfs::plain().run(&g, src);
        let dobfs = SingleNodeBfs::direction_optimizing().run(&g, src);
        assert_eq!(plain.depths, bfs_depths(&g, src));
        assert_eq!(dobfs.depths, plain.depths);
    }

    #[test]
    fn dobfs_examines_fewer_edges_on_rmat() {
        // The headline of Beamer et al.: DO slashes the workload on
        // small-diameter scale-free graphs.
        let list = RmatConfig::graph500(11).generate();
        let g = Csr::from_edge_list(&list);
        let src = (0..list.num_vertices).find(|&v| g.out_degree(v) > 8).unwrap();
        let plain = SingleNodeBfs::plain().run(&g, src);
        let dobfs = SingleNodeBfs::direction_optimizing().run(&g, src);
        assert!(dobfs.backward_iterations > 0, "DO never engaged");
        assert!(
            (dobfs.edges_examined as f64) < 0.7 * plain.edges_examined as f64,
            "DO saved too little: {} vs {}",
            dobfs.edges_examined,
            plain.edges_examined
        );
        assert!(dobfs.modeled_seconds < plain.modeled_seconds);
    }

    #[test]
    fn long_path_mostly_forward() {
        // A path's frontier never gets heavy: DO may only engage at the
        // very end, once `unexplored` has collapsed; results stay correct.
        let g = Csr::from_edge_list(&builders::path(500));
        let r = SingleNodeBfs::direction_optimizing().run(&g, 0);
        assert!(r.backward_iterations < 20, "{} backward iterations", r.backward_iterations);
        assert_eq!(r.iterations, 500);
        assert_eq!(r.depths, bfs_depths(&g, 0));
    }

    #[test]
    fn isolated_source() {
        let mut list = builders::path(3);
        list.num_vertices = 4;
        let g = Csr::from_edge_list(&list);
        let r = SingleNodeBfs::plain().run(&g, 3);
        assert_eq!(r.iterations, 1);
        assert_eq!(r.edges_examined, 0);
        assert_eq!(r.depths[3], 0);
        assert!(r.depths[..3].iter().all(|&d| d == UNREACHED));
    }
}
