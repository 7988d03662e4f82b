//! The full Graph500 benchmark protocol (the contest the paper enters):
//! generate a scale-N RMAT graph, build the distributed structure, run BFS
//! from 64 random sources, validate every result, and report the TEPS
//! statistics the list requires.
//!
//! Usage: `gcbfs-bench graph500_run` — 16 simulated GPUs. Environment
//! knob: `GCBFS_SCALE` (default 15).

use gcbfs_bench::prelude::*;
use gcbfs_core::stats::geometric_mean;
use gcbfs_graph::reference::{validate_depths, validate_parents};

pub fn run(k: &Knobs, _smoke: Option<&str>) {
    let scale = k.scale.unwrap_or(15);
    let gpus = 16;
    let cfg = RmatConfig::graph500(scale);
    println!("Graph500 protocol run: scale {scale}, edge factor 16, {gpus} simulated GPUs");

    // Kernel 0 in Graph500 terms: construction.
    let t0 = std::time::Instant::now();
    let graph = cfg.generate();
    let gen_secs = t0.elapsed().as_secs_f64();
    let th = BfsConfig::suggested_rmat_threshold(scale + 13).max(8);
    let factor = ray_factor(per_gpu_scale(scale, gpus));
    // Paper: IR below 32 GPUs.
    let config = BfsConfig::new(th)
        .with_blocking_reduce(false)
        .with_cost_model(CostModel::ray_scaled(factor));
    let topo = Topology::new(gpus / 2, 2);
    let t1 = std::time::Instant::now();
    let dist = DistributedGraph::build(&graph, topo, &config).expect("build");
    let build_secs = t1.elapsed().as_secs_f64();
    println!(
        "construction: generate {gen_secs:.2}s, distribute+build {build_secs:.2}s (wall); \
         TH {th}, {} delegates, {:.2} MiB total graph storage",
        dist.separation().num_delegates(),
        dist.total_graph_bytes() as f64 / (1 << 20) as f64
    );

    // Kernel 1: 64 BFS runs with validation.
    let sources = pick_sources(&graph, 64, 0x6500);
    let csr = Csr::from_edge_list(&graph);
    let mut rates = Vec::new();
    let mut validated = 0usize;
    for &s in &sources {
        let r = dist.run_with_parents(s, &config).expect("run");
        if r.iterations() <= 1 {
            continue;
        }
        validate_depths(&csr, s, &r.depths).expect("Graph500 depth validation");
        validate_parents(&csr, s, &r.depths, r.parents.as_ref().unwrap())
            .expect("Graph500 tree validation");
        validated += 1;
        rates.push(r.teps(cfg.graph500_edges()) * factor);
    }
    assert!(validated >= 32, "too few multi-iteration sources");

    // The Graph500 result table: min / quartiles / max, harmonic and
    // geometric means of TEPS.
    let mut sorted = rates.clone();
    sorted.sort_by(f64::total_cmp);
    let q = |f: f64| sorted[((sorted.len() - 1) as f64 * f) as usize];
    let harmonic = sorted.len() as f64 / sorted.iter().map(|r| 1.0 / r).sum::<f64>();
    let rows = vec![
        vec!["min".into(), f2(q(0.0) / 1e9)],
        vec!["firstquartile".into(), f2(q(0.25) / 1e9)],
        vec!["median".into(), f2(q(0.5) / 1e9)],
        vec!["thirdquartile".into(), f2(q(0.75) / 1e9)],
        vec!["max".into(), f2(q(1.0) / 1e9)],
        vec!["harmonic_mean".into(), f2(harmonic / 1e9)],
        vec!["geometric_mean".into(), f2(geometric_mean(&rates) / 1e9)],
    ];
    print_table(
        &format!("Graph500 TEPS statistics ({validated} validated searches, Ray-eq GTEPS)"),
        &["statistic", "GTEPS"],
        &rows,
    );
    println!("\nAll {validated} searches passed depth and parent-tree validation.");
}
