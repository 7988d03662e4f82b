//! Figure 12: edge/delegate distribution vs degree threshold on the
//! Friendster-like power-law graph (paper: the real Friendster social
//! network, 134 M vertices; here: a Chung–Lu synthetic with matching
//! shape — see DESIGN.md's substitution table).
//!
//! Expected shape (paper): the same qualitative curves as Fig. 5, with a
//! wide band of suitable thresholds ([16, 128] there).
//!
//! Usage: `gcbfs-bench fig12_friendster_distribution`. Environment knob:
//! `GCBFS_SCALE` (default 18).

use super::fig05_edge_distribution::{distribution_rows, HEADERS};
use gcbfs_bench::prelude::*;

pub fn run(k: &Knobs, _smoke: Option<&str>) {
    let scale = k.scale.unwrap_or(18);
    println!(
        "Fig. 12 reproduction: Friendster-like Chung-Lu graph, 2^{scale} vertices \
         (paper: Friendster, 134M vertices, half isolated)"
    );
    let graph = PowerLawConfig::friendster_like(scale).generate();
    println!(
        "graph: n = {}, m = {}, isolated = {:.1}%",
        graph.num_vertices,
        graph.num_edges(),
        100.0 * graph.count_zero_degree() as f64 / graph.num_vertices as f64
    );
    print_table(
        "Fig. 12 — edge/delegate distribution vs TH (Friendster-like)",
        HEADERS,
        &distribution_rows(&graph, Topology::new(2, 2), &[8, 16, 32, 64, 128, 256, 512]),
    );
    println!("\nShape check: same qualitative behaviour as Fig. 5, wide suitable-TH band.");
}
