//! Figure 9: weak scaling with a fixed-scale RMAT graph per GPU
//! (paper: scale 26 per GPU, 1–124 GPUs, peaking at 259.8 GTEPS;
//! default here: scale 12 per GPU, 1–64 GPUs).
//!
//! Expected shape (paper): close-to-linear growth in GTEPS for both
//! topologies, DOBFS several times above BFS; the paper switches IR→BR
//! above 16 GPUs, which we mirror.
//!
//! Usage: `gcbfs-bench fig09_weak_scaling [--smoke]`. Environment knobs:
//! `GCBFS_SCALE` (per-GPU scale, default 12), `GCBFS_MAX_GPUS` (default
//! 64), `GCBFS_SOURCES`. `--smoke` ignores them and shrinks to scale 10
//! per GPU, ≤8 GPUs, 2 sources — the fixed workload EXPERIMENTS.md uses
//! for wall-clock before/after comparisons of the simulator itself.

use gcbfs_bench::prelude::*;

/// BFS then DOBFS Ray-equivalent GTEPS of `graph` on each of two
/// topologies (`-` for a GPU count with no such shape), on the Ray model
/// scaled down by `factor` (Figs. 9 and 11). Paper: IR below 32 GPUs,
/// BR from 32 up.
pub fn topology_cells(
    graph: &EdgeList,
    topos: [Option<Topology>; 2],
    th: u64,
    factor: f64,
    sources: &[u64],
    g500_edges: u64,
) -> Vec<String> {
    let mut cells = Vec::new();
    for topo in topos {
        let Some(t) = topo else {
            cells.extend(["-".to_string(), "-".to_string()]);
            continue;
        };
        for use_do in [false, true] {
            let config = BfsConfig::new(th)
                .with_direction_optimization(use_do)
                .with_blocking_reduce(t.num_gpus() >= 32)
                .with_cost_model(CostModel::ray_scaled(factor));
            let dist = DistributedGraph::build(graph, t, &config).expect("build");
            let s = run_many(&dist, &config, sources, g500_edges);
            cells.push(f2(s.gteps * factor));
        }
    }
    cells
}

pub fn run(k: &Knobs, smoke: Option<&str>) {
    let smoke = smoke.is_some();
    let per_gpu_scale = if smoke { 10 } else { k.scale.unwrap_or(12) };
    let max_gpus = if smoke { 8 } else { k.max_gpus.unwrap_or(64) };
    let sources_per_point = if smoke { 2 } else { k.sources };
    println!(
        "Fig. 9 reproduction{}: weak scaling, scale-{per_gpu_scale} RMAT per GPU \
         (paper: scale-26 per GPU up to 124 GPUs)",
        if smoke { " (smoke)" } else { "" },
    );
    let wall = std::time::Instant::now();

    let mut rows = Vec::new();
    let mut gpus = 1u32;
    while gpus <= max_gpus {
        let scale = per_gpu_scale + gpus.ilog2();
        let cfg = RmatConfig::graph500(scale);
        let graph = cfg.generate();
        let th = BfsConfig::suggested_rmat_threshold(scale + 13).max(8);
        let sources = graph.source_pool(sources_per_point, 0xf19 + gpus as u64);
        let topos = [topology_2x2(gpus), topology_1x4(gpus)];
        let factor = ray_factor(per_gpu_scale);
        let mut row = vec![gpus.to_string(), scale.to_string(), th.to_string()];
        row.extend(topology_cells(&graph, topos, th, factor, &sources, cfg.graph500_edges()));
        rows.push(row);
        gpus *= 2;
    }
    print_table(
        "Fig. 9 — weak scaling, Ray-equivalent GTEPS (modeled)",
        &["GPUs", "scale", "TH", "2x2 BFS", "2x2 DO", "1x4 BFS", "1x4 DO"],
        &rows,
    );
    println!(
        "\nShape check: near-linear GTEPS growth with GPU count; DOBFS well above BFS; \
         both topologies close (1x4 slightly ahead: more NVLink, fewer ranks)."
    );
    println!("wall-clock: {:.2} s", wall.elapsed().as_secs_f64());
}

/// `*x2x2`-style topology: ranks of 2 GPUs (needs ≥ 4 GPUs to be faithful).
fn topology_2x2(gpus: u32) -> Option<Topology> {
    if gpus >= 2 && gpus.is_multiple_of(2) {
        Some(Topology::new(gpus / 2, 2))
    } else if gpus == 1 {
        Some(Topology::new(1, 1))
    } else {
        None
    }
}

/// `*x1x4`-style topology: ranks of 4 GPUs.
fn topology_1x4(gpus: u32) -> Option<Topology> {
    if gpus >= 4 && gpus.is_multiple_of(4) {
        Some(Topology::new(gpus / 4, 4))
    } else if gpus < 4 {
        Some(Topology::new(1, gpus))
    } else {
        None
    }
}
