//! Figure 11: strong scaling on a fixed RMAT graph
//! (paper: scale 30 on 12–64 GPUs; default here: scale 16 on 4–64 GPUs).
//!
//! Expected shape (paper): DOBFS improves modestly, then flattens, then
//! *drops* once communication dominates and GPUs are under-utilized;
//! plain BFS strong-scales better because it has more computation to
//! amortize.
//!
//! Usage: `gcbfs-bench fig11_strong_scaling`. Environment knobs:
//! `GCBFS_SCALE` (default 16), `GCBFS_MAX_GPUS` (default 64),
//! `GCBFS_SOURCES`.

use super::fig09_weak_scaling::topology_cells;
use gcbfs_bench::prelude::*;

pub fn run(k: &Knobs, _smoke: Option<&str>) {
    let scale = k.scale.unwrap_or(16);
    let max_gpus = k.max_gpus.unwrap_or(64);
    let cfg = RmatConfig::graph500(scale);
    println!("Fig. 11 reproduction: strong scaling, RMAT scale {scale} (paper: scale 30)");
    let graph = cfg.generate();
    let th = BfsConfig::suggested_rmat_threshold(scale + 13).max(8);
    let sources = graph.source_pool(k.sources, 0xf11);

    let mut rows = Vec::new();
    let mut gpus = 4u32;
    // Strong scaling: the graph is fixed, so the workload factor is fixed
    // by the *smallest* configuration's per-GPU share; larger GPU counts
    // then genuinely have less work per GPU, exactly as on Ray.
    let factor = ray_factor(per_gpu_scale(scale, 4));
    while gpus <= max_gpus {
        let topos = [Some(Topology::new(gpus / 2, 2)), Some(Topology::new(gpus / 4, 4))];
        let mut row = vec![gpus.to_string()];
        row.extend(topology_cells(&graph, topos, th, factor, &sources, cfg.graph500_edges()));
        rows.push(row);
        gpus *= 2;
    }
    print_table(
        &format!("Fig. 11 — strong scaling, Ray-equivalent GTEPS (RMAT scale {scale})"),
        &["GPUs", "2x2 BFS", "2x2 DO", "1x4 BFS", "1x4 DO"],
        &rows,
    );
    println!(
        "\nShape check: DOBFS gains early, flattens, then declines as communication \
         dominates; BFS strong-scales further thanks to its larger compute share."
    );
}
