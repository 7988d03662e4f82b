//! Figure 13: traversal rate vs degree threshold on the Friendster-like
//! graph with 1×2×2 GPUs (paper: the real Friendster on 4 P100s).
//!
//! Expected shape (paper): a wide range of TH values ([32, 91] there)
//! gives close-to-best performance; DOBFS above BFS.
//!
//! Usage: `gcbfs-bench fig13_friendster_rate`. Environment knobs:
//! `GCBFS_SCALE` (default 16), `GCBFS_SOURCES`.

use super::fig06_threshold_sweep::{threshold_rows, HEADERS};
use gcbfs_bench::prelude::*;

pub fn run(k: &Knobs, _smoke: Option<&str>) {
    let scale = k.scale.unwrap_or(16);
    println!(
        "Fig. 13 reproduction: Friendster-like graph, 1x2x2 GPUs (paper: Friendster on 4 GPUs)"
    );
    let graph = PowerLawConfig::friendster_like(scale).generate();
    // Graph500-style TEPS denominator: undirected edge count.
    let g500_edges = graph.num_edges() / 2;
    let topo = Topology::from_paper_notation(1, 2, 2);
    let sources = graph.source_pool(k.sources, 0xf13);
    // Friendster on 4 GPUs is ~1.3 G directed edges per GPU; ours is the
    // same graph shrunk, so scale the machine by the edge ratio.
    let paper_edges_per_gpu = 10.34e9 / 4.0; // doubled Friendster edges / 4
    let factor = (paper_edges_per_gpu / (graph.num_edges() as f64 / 4.0)).max(1.0);
    print_table(
        "Fig. 13 — Ray-equivalent GTEPS vs TH (Friendster-like, 4 GPUs)",
        HEADERS,
        &threshold_rows(&graph, topo, factor, &sources, g500_edges, &[8, 16, 32, 64, 128, 256]),
    );
    println!("\nShape check: wide near-optimal TH band; DOBFS above BFS.");
}
