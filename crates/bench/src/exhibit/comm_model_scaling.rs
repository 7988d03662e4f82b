//! §II-B / §V: communication-cost scaling of the three partitioning
//! strategies under weak scaling.
//!
//! The paper's analysis: conventional 2D partitioning communicates
//! `O(√p)`-growing volume per unit graph; 1D DOBFS degenerates to
//! broadcasting everything; the degree-separated model's cost grows only
//! as `log(prank)`. Here all three run the *same* per-GPU-sized workload
//! at increasing `p` and we report measured communication per edge plus
//! the modeled communication seconds.
//!
//! Usage: `gcbfs-bench comm_model_scaling`. Environment knob:
//! `GCBFS_SCALE` (per-processor scale, default 11).

use gcbfs_baseline::{OneDBfs, TwoDBfs};
use gcbfs_bench::prelude::*;

pub fn run(k: &Knobs, _smoke: Option<&str>) {
    let per_gpu_scale = k.scale.unwrap_or(11);
    println!(
        "§II-B/§V reproduction: communication growth under weak scaling \
         (scale-{per_gpu_scale} RMAT per processor)"
    );

    let mut rows = Vec::new();
    for exp in [0u32, 2, 4, 6] {
        let p = 1u32 << exp; // 1, 4, 16, 64 processors
        let scale = per_gpu_scale + exp;
        let cfg = RmatConfig::graph500(scale);
        let graph = cfg.generate();
        let csr = Csr::from_edge_list(&graph);
        let m = graph.num_edges();
        let src = pick_sources(&graph, 1, 0xc0)[0];

        // All three strategies charged to the same workload-scaled machine.
        let cost = CostModel::ray_scaled(ray_factor(per_gpu_scale));
        let th = BfsConfig::suggested_rmat_threshold(scale + 15).max(8);
        let config = BfsConfig::new(th).with_blocking_reduce(p >= 32).with_cost_model(cost);
        let topo = if p >= 2 { Topology::new(p / 2, 2) } else { Topology::new(1, 1) };
        let dist = DistributedGraph::build(&graph, topo, &config).expect("build");
        let ours = dist.run(src, &config).expect("run");
        let ours_bytes = ours.stats.total_remote_bytes();

        // 1D DOBFS.
        let mut oned_runner = OneDBfs::new(p, true);
        oned_runner.cost = cost;
        let oned = oned_runner.run(&csr, src);

        // 2D DOBFS on the nearest square grid.
        let r = (p as f64).sqrt().round() as u32;
        let mut twod_runner = TwoDBfs::new(r.max(1), true);
        twod_runner.cost = cost;
        let twod = twod_runner.run(&csr, src);

        rows.push(vec![
            p.to_string(),
            scale.to_string(),
            f2(ours_bytes as f64 / m as f64),
            f2(oned.comm_bytes as f64 / m as f64),
            f2(twod.comm_bytes as f64 / m as f64),
            format!(
                "{:.2}",
                ours.stats.phase_totals().remote_normal * 1e3
                    + ours.stats.phase_totals().remote_delegate * 1e3
            ),
            format!("{:.2}", oned.comm_seconds * 1e3),
            format!("{:.2}", twod.comm_seconds * 1e3),
        ]);
    }
    print_table(
        "Communication per edge (bytes/edge) and modeled comm time (ms)",
        &["p", "scale", "ours B/edge", "1D B/edge", "2D B/edge", "ours ms", "1D ms", "2D ms"],
        &rows,
    );
    println!(
        "\nShape check: ours stays ~flat in bytes/edge (log-rank growth in time); \
         1D and 2D DOBFS bytes/edge grow with p — the 2D per-edge volume tracks sqrt(p)."
    );
}
