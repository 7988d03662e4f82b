//! Table I: memory usage of the four-subgraph representation vs the
//! conventional formats.
//!
//! Expected result (paper, §III-C): with suitable `TH`, total subgraph
//! storage `8n + 8d·p + 4m + 4|Enn|` is about **one third** of the
//! 16-bytes-per-edge edge list and a little more than **half** of plain
//! CSR (`8n + 8m`).
//!
//! Usage: `gcbfs-bench table1_memory`. Environment knob: `GCBFS_SCALE`
//! (smallest scale, default 14).

use gcbfs_bench::prelude::*;
use gcbfs_core::subgraph::paper_total_bytes;

pub fn run(k: &Knobs, _smoke: Option<&str>) {
    let base = k.scale.unwrap_or(14);
    println!("Table I reproduction: RMAT scales {base}..={}", base + 4);
    let topo = Topology::new(4, 4);

    let mut rows = Vec::new();
    for scale in base..=base + 4 {
        let cfg = RmatConfig::graph500(scale);
        let graph = cfg.generate();
        let th = BfsConfig::suggested_rmat_threshold(scale + 13).max(8);
        let config = BfsConfig::new(th);
        let dist = DistributedGraph::build(&graph, topo, &config).expect("build");
        let n = graph.num_vertices;
        let m = graph.num_edges();
        let d = dist.separation().num_delegates() as u64;
        let measured = dist.total_graph_bytes();
        let formula = paper_total_bytes(n, d, topo.num_gpus() as u64, m, dist.class_counts().nn);
        let edge_list = Csr::edge_list_bytes(m);
        let csr = Csr::conventional_bytes(n, m);
        rows.push(vec![
            scale.to_string(),
            th.to_string(),
            mib(measured),
            mib(formula),
            mib(edge_list),
            mib(csr),
            f2(measured as f64 / edge_list as f64),
            f2(measured as f64 / csr as f64),
        ]);
    }
    print_table(
        "Table I — graph storage (MiB) and ratios",
        &["scale", "TH", "ours", "formula", "edge list 16m", "CSR 8n+8m", "vs edge list", "vs CSR"],
        &rows,
    );
    println!(
        "\nShape check: ours/edge-list ~ 1/3 and ours/CSR a little over 1/2, as §III-C claims."
    );
}

fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1 << 20) as f64)
}
