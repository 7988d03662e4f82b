//! §VI-D: the long-tail regime (WDC 2012 in the paper; a synthetic
//! web-like graph here — dense RMAT core plus long chains, hundreds of BFS
//! levels).
//!
//! Expected result (paper): ~330 iterations on average, per-iteration time
//! close to the per-iteration overhead, and DOBFS *slightly slower* than
//! BFS because the direction-decision work exceeds the traversal savings.
//!
//! Usage: `gcbfs-bench wdc_longtail` — 300-vertex chains. Environment
//! knobs: `GCBFS_SCALE` (core scale, default 14), `GCBFS_SOURCES`.

use gcbfs_bench::prelude::*;

pub fn run(k: &Knobs, _smoke: Option<&str>) {
    let core_scale = k.scale.unwrap_or(14);
    let mut gen = WebGraphConfig::wdc_like(core_scale);
    gen.chain_length = 300;
    println!(
        "§VI-D reproduction: long-tail web-like graph, core scale {core_scale}, \
         {} chains x {} (paper: WDC 2012, 4.29G vertices, ~330 iterations)",
        gen.num_chains, gen.chain_length
    );
    let graph = gen.generate();
    let g500_edges = graph.num_edges() / 2;
    let topo = Topology::from_paper_notation(4, 2, 2);
    let th = 256;
    let sources = pick_sources(&graph, k.sources, 0x3dc);

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for use_do in [false, true] {
        let config = BfsConfig::new(th).with_direction_optimization(use_do);
        let dist = DistributedGraph::build(&graph, topo, &config).expect("build");
        let s = run_many(&dist, &config, &sources, g500_edges);
        rows.push(vec![
            if use_do { "DOBFS" } else { "BFS" }.to_string(),
            f2(s.gteps * 1e3), // MTEPS at this scale
            f2(s.elapsed_ms),
            f2(s.iterations),
            format!("{:.1}", 1e3 * s.elapsed_ms / s.iterations), // us per iteration
        ]);
        results.push(s);
    }
    print_table(
        "WDC-like long-tail run (16 GPUs, TH 256, modeled)",
        &["algorithm", "MTEPS", "elapsed (ms)", "iterations", "us/iter"],
        &rows,
    );
    let (bfs, dobfs) = (&results[0], &results[1]);
    println!(
        "\nShape check: hundreds of iterations; per-iteration time dominated by \
         overheads; DOBFS/BFS = {:.3} (paper: slightly below 1 — 79.7 vs 84.2 GTEPS).",
        dobfs.gteps / bfs.gteps
    );
}
