//! Conventional 2D-partitioned distributed BFS (§II-B, §II-D).
//!
//! The adjacency matrix is blocked over a √p × √p processor grid:
//! processor `(i, j)` holds the edges whose source lies in vertex part `j`
//! and destination in part `i`. A forward iteration broadcasts each
//! frontier segment down its column (tree, `log √p` rounds), multiplies
//! blocks locally, and reduces the discovery bitmaps across each row to the
//! diagonal owner. A backward iteration moves two bitmasks per part —
//! frontier status down columns and unvisited status across rows — which is
//! the `2nS_b√p(log √p)/8`-byte cost the paper derives.
//!
//! The traversal executes for real and is validated against the reference;
//! volumes are measured per link-transfer (tree fan-out counted), so the
//! `√p` growth of §II-B is *observed*, not assumed. The workload inflation
//! of 2D DOBFS — every row processor independently searches for parents, so
//! up to `√p` parents are found per vertex — also shows up in the measured
//! `edges_examined`.

use crate::UNREACHED;
use gcbfs_cluster::cost::{CostModel, KernelKind, NetworkModel};
use gcbfs_graph::Csr;

/// Result of a 2D-partitioned run.
#[derive(Clone, Debug)]
pub struct TwoDResult {
    /// Hop distances (`UNREACHED` if unreachable).
    pub depths: Vec<u32>,
    /// BFS levels processed.
    pub iterations: u32,
    /// Levels run in the backward direction.
    pub backward_iterations: u32,
    /// Edges examined summed over processors (inflated vs 1D for DOBFS).
    pub edges_examined: u64,
    /// Bytes over links, counting tree fan-out.
    pub comm_bytes: u64,
    /// Modeled computation seconds (max over processors per iteration).
    pub compute_seconds: f64,
    /// Modeled communication seconds.
    pub comm_seconds: f64,
}

impl TwoDResult {
    /// Total modeled seconds.
    pub fn modeled_seconds(&self) -> f64 {
        self.compute_seconds + self.comm_seconds
    }

    /// Graph500 TEPS against modeled time.
    pub fn teps(&self, graph500_edges: u64) -> f64 {
        graph500_edges as f64 / self.modeled_seconds()
    }
}

/// 2D-partitioned BFS runner on an `r × r` grid (`p = r²`).
#[derive(Clone, Debug)]
pub struct TwoDBfs {
    /// Grid side √p.
    pub r: u32,
    /// Direction optimization on/off.
    pub direction_optimization: bool,
    /// Beamer α: switch bottom-up when frontier edges exceed `unexplored/α`.
    pub alpha: f64,
    /// Beamer β: switch top-down when the frontier shrinks below `n/β`.
    pub beta: f64,
    /// Machine model.
    pub cost: CostModel,
}

impl TwoDBfs {
    /// An `r × r`-grid 2D BFS with the Ray cost model.
    pub fn new(r: u32, direction_optimization: bool) -> Self {
        assert!(r >= 1);
        Self { r, direction_optimization, alpha: 14.0, beta: 24.0, cost: CostModel::ray() }
    }

    /// Runs from `source`.
    pub fn run(&self, graph: &Csr, source: u64) -> TwoDResult {
        let n = graph.num_vertices();
        let r = self.r as u64;
        let part_size = n.div_ceil(r).max(1);
        let part = |v: u64| (v / part_size) as usize;
        let local = |v: u64| (v % part_size) as u32;
        let global = |p: usize, l: u32| p as u64 * part_size + l as u64;

        // The r x r blocks: block[i][j] is the CSR of the edges part(u) = j
        // -> part(v) = i, from local source to local destination ids.
        let r_us = self.r as usize;
        let mut block_edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); r_us * r_us];
        for u in 0..n {
            for &v in graph.neighbors(u) {
                block_edges[part(v) * r_us + part(u)].push((local(u), local(v)));
            }
        }
        let blocks: Vec<Csr<u32, u32>> = block_edges
            .into_iter()
            .map(|edges| Csr::build(part_size as u32, edges.into_iter()))
            .collect();

        let net: &NetworkModel = &self.cost.network;
        let dev = &self.cost.device;
        let tree_rounds = NetworkModel::tree_depth(self.r.max(2)) as f64;
        let fanout = (r - 1).max(1);

        let mut depths = vec![UNREACHED; n as usize];
        depths[source as usize] = 0;
        // Frontier segments: local ids per part at the current level.
        let mut segments: Vec<Vec<u32>> = vec![Vec::new(); r_us];
        segments[part(source)].push(local(source));

        let mut iterations = 0u32;
        let mut backward_iterations = 0u32;
        let mut edges_examined = 0u64;
        let mut comm_bytes = 0u64;
        let mut compute_seconds = 0.0f64;
        let mut comm_seconds = 0.0f64;
        let mut unexplored = graph.num_edges();
        let mut backward = false;
        let mask_bytes = part_size.div_ceil(8);

        while segments.iter().any(|s| !s.is_empty()) {
            let depth = iterations;
            let frontier_len: usize = segments.iter().map(Vec::len).sum();
            let frontier_out: u64 = segments
                .iter()
                .enumerate()
                .flat_map(|(j, seg)| seg.iter().map(move |&l| graph.out_degree(global(j, l))))
                .sum();
            if self.direction_optimization && self.r > 1 {
                if !backward && frontier_out as f64 > unexplored as f64 / self.alpha {
                    backward = true;
                } else if backward && (frontier_len as f64) < n as f64 / self.beta {
                    backward = false;
                }
            }

            let mut proc_edges = vec![0u64; r_us * r_us];
            let mut next: Vec<Vec<u32>> = vec![Vec::new(); r_us];
            let mut col_bcast_time = 0.0f64;
            let mut row_reduce_time = 0.0f64;

            if backward && self.r > 1 {
                backward_iterations += 1;
                // Two masks move per part: frontier down columns, unvisited
                // across rows (both tree broadcasts of part-sized bitmaps).
                for _ in 0..2 * r_us {
                    comm_bytes += mask_bytes * fanout;
                }
                col_bcast_time = 2.0 * tree_rounds * net.p2p_time(mask_bytes, false);
                // Pull: for each unvisited vertex of part i, every row
                // processor (i, j) scans its own parent portion
                // *independently* — within an iteration they cannot see each
                // other's discoveries, so each one searches until it finds a
                // parent in its own part or exhausts it. This is the
                // up-to-√p-parents workload inflation of §II-B.
                for i in 0..r_us {
                    for lv in 0..part_size as u32 {
                        let v = global(i, lv);
                        if v >= n || depths[v as usize] != UNREACHED {
                            continue;
                        }
                        let mut found = false;
                        for j in 0..r_us {
                            // Block (i, j) stores by source; the symmetric
                            // block (j, i) keyed by part-i sources gives v's
                            // neighbors in part j.
                            let bt = &blocks[j * r_us + i];
                            let pe = &mut proc_edges[i * r_us + j];
                            for &lu in bt.neighbors(lv) {
                                *pe += 1;
                                let u = global(j, lu);
                                if depths[u as usize] == depth {
                                    found = true;
                                    break;
                                }
                            }
                        }
                        if found {
                            depths[v as usize] = depth + 1;
                            next[i].push(lv);
                        }
                    }
                }
                // Row reduction of discoveries back to the diagonal.
                for _ in 0..r_us {
                    comm_bytes += mask_bytes * fanout;
                }
                row_reduce_time = tree_rounds * net.p2p_time(mask_bytes, false);
            } else {
                // Forward: broadcast each non-empty segment down its column.
                for (j, seg) in segments.iter().enumerate() {
                    if seg.is_empty() {
                        continue;
                    }
                    let bytes = 4 * seg.len() as u64;
                    if self.r > 1 {
                        comm_bytes += bytes * fanout;
                        col_bcast_time =
                            col_bcast_time.max(tree_rounds * net.p2p_time(bytes, false));
                    }
                    // Each processor (i, j) expands the segment on its block.
                    for i in 0..r_us {
                        let b = &blocks[i * r_us + j];
                        let pe = &mut proc_edges[i * r_us + j];
                        for &lu in seg {
                            for &lv in b.neighbors(lu) {
                                *pe += 1;
                                let v = global(i, lv);
                                if depths[v as usize] == UNREACHED {
                                    depths[v as usize] = depth + 1;
                                    next[i].push(lv);
                                }
                            }
                        }
                    }
                }
                // Row reduce discovery bitmaps to the diagonal.
                if self.r > 1 {
                    for seg in next.iter().filter(|s| !s.is_empty()) {
                        let _ = seg;
                        comm_bytes += mask_bytes * fanout;
                    }
                    row_reduce_time = tree_rounds * net.p2p_time(mask_bytes, false);
                }
                for seg in &mut next {
                    seg.sort_unstable();
                    seg.dedup();
                }
            }

            edges_examined += proc_edges.iter().sum::<u64>();
            compute_seconds += proc_edges
                .iter()
                .map(|&e| dev.kernel_time(KernelKind::DynamicVisit, e))
                .fold(0.0, f64::max);
            comm_seconds += col_bcast_time + row_reduce_time;
            unexplored = unexplored.saturating_sub(frontier_out);
            segments = next;
            iterations += 1;
        }

        TwoDResult {
            depths,
            iterations,
            backward_iterations,
            edges_examined,
            comm_bytes,
            compute_seconds,
            comm_seconds,
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
    fn matches_reference_forward() {
        let g = Csr::from_edge_list(&builders::grid(6, 6));
        for r in [1, 2, 3] {
            let result = TwoDBfs::new(r, false).run(&g, 0);
            assert_eq!(result.depths, bfs_depths(&g, 0), "grid {r}x{r}");
        }
    }

    #[test]
    fn matches_reference_with_do_on_rmat() {
        let list = RmatConfig::graph500(9).generate();
        let g = Csr::from_edge_list(&list);
        let src = (0..list.num_vertices).find(|&v| g.out_degree(v) > 8).unwrap();
        for r in [2, 4] {
            let result = TwoDBfs::new(r, true).run(&g, src);
            assert_eq!(result.depths, bfs_depths(&g, src), "grid {r}x{r}");
            assert!(result.backward_iterations > 0);
        }
    }

    #[test]
    fn single_proc_has_no_comm() {
        let g = Csr::from_edge_list(&builders::cycle(16));
        let result = TwoDBfs::new(1, false).run(&g, 3);
        assert_eq!(result.comm_bytes, 0);
    }

    #[test]
    fn do_workload_inflates_with_grid_size() {
        // §II-B: 2D DOBFS tries to find up to sqrt(p) parents per vertex.
        let list = RmatConfig::graph500(10).generate();
        let g = Csr::from_edge_list(&list);
        let src = (0..list.num_vertices).find(|&v| g.out_degree(v) > 8).unwrap();
        let e2 = TwoDBfs::new(2, true).run(&g, src).edges_examined;
        let e6 = TwoDBfs::new(6, true).run(&g, src).edges_examined;
        assert!(e6 > e2, "workload must grow with the grid: {e6} vs {e2}");
    }

    #[test]
    fn comm_volume_grows_with_sqrt_p() {
        let list = RmatConfig::graph500(10).generate();
        let g = Csr::from_edge_list(&list);
        let src = (0..list.num_vertices).find(|&v| g.out_degree(v) > 8).unwrap();
        let c2 = TwoDBfs::new(2, false).run(&g, src).comm_bytes;
        let c8 = TwoDBfs::new(8, false).run(&g, src).comm_bytes;
        assert!(c8 > c2, "volume must grow with the grid: {c8} vs {c2}");
    }
}
