//! Figure 6: traversal rate vs degree threshold for BFS and DOBFS
//! (paper: scale-30 RMAT on 4×1×4; default here: scale 16 on 4×1×4).
//!
//! Expected shape (paper): a wide plateau of near-optimal thresholds
//! (45–90 there), with DOBFS well above BFS everywhere.
//!
//! Usage: `gcbfs-bench fig06_threshold_sweep`. Environment knobs:
//! `GCBFS_SCALE` (default 16), `GCBFS_SOURCES`.

use gcbfs_bench::prelude::*;

/// The columns of [`threshold_rows`].
pub const HEADERS: &[&str] = &["TH", "BFS GTEPS", "DOBFS GTEPS"];

/// One row per threshold: BFS and DOBFS Ray-equivalent GTEPS of `graph`
/// on `topo`, on the Ray model scaled down by `factor` (Figs. 6 and 13).
pub fn threshold_rows(
    graph: &EdgeList,
    topo: Topology,
    factor: f64,
    sources: &[u64],
    g500_edges: u64,
    ths: &[u64],
) -> Vec<Vec<String>> {
    let cost = CostModel::ray_scaled(factor);
    ths.iter()
        .map(|&th| {
            let bfs_cfg =
                BfsConfig::new(th).with_direction_optimization(false).with_cost_model(cost);
            let do_cfg = BfsConfig::new(th).with_cost_model(cost);
            let dist = DistributedGraph::build(graph, topo, &bfs_cfg).expect("build");
            let bfs = run_many(&dist, &bfs_cfg, sources, g500_edges);
            let dobfs = run_many(&dist, &do_cfg, sources, g500_edges);
            vec![th.to_string(), f2(bfs.gteps * factor), f2(dobfs.gteps * factor)]
        })
        .collect()
}

pub fn run(k: &Knobs, _smoke: Option<&str>) {
    let scale = k.scale.unwrap_or(16);
    let cfg = RmatConfig::graph500(scale);
    println!("Fig. 6 reproduction: RMAT scale {scale}, 4x1x4 GPUs (paper: scale 30)");
    let graph = cfg.generate();
    let topo = Topology::from_paper_notation(4, 1, 4);
    let sources = graph.source_pool(k.sources, 0xf16);
    let factor = ray_factor(per_gpu_scale(scale, topo.num_gpus()));
    let ths = [8, 16, 24, 32, 48, 64, 96, 128, 192, 256];
    print_table(
        &format!("Fig. 6 — Ray-equivalent GTEPS vs TH (RMAT scale {scale}, 16 GPUs)"),
        HEADERS,
        &threshold_rows(&graph, topo, factor, &sources, cfg.graph500_edges(), &ths),
    );
    println!("\nShape check: wide near-optimal TH plateau; DOBFS > BFS throughout.");
}
