//! Web-graph scenario (the paper's WDC 2012 experiment, §VI-D): a
//! hyperlink-like graph with a dense core and long chain peripheries.
//! BFS here runs for hundreds of levels with tiny frontiers, the regime
//! where direction optimization stops paying off — this example shows how
//! to detect that from the run statistics and pick plain BFS.
//!
//! Run with: `cargo run --release --example web_crawl`

use gpu_cluster_bfs::prelude::*;

fn main() {
    let gen = WebGraphConfig::wdc_like(13);
    let graph = gen.generate();
    println!(
        "web graph: {} vertices, {} edges ({} chains x {} pages deep)",
        graph.num_vertices,
        graph.num_edges(),
        gen.num_chains,
        gen.chain_length
    );
    let topology = Topology::from_paper_notation(2, 2, 2);
    let g500_edges = graph.num_edges() / 2;
    let source = graph.hub().expect("graph has vertices");

    let mut summaries = Vec::new();
    for use_do in [false, true] {
        let config = BfsConfig::new(256).with_direction_optimization(use_do);
        let dist = DistributedGraph::build(&graph, topology, &config).expect("build");
        let r = dist.run(source, &config).expect("run");
        let name = if use_do { "DOBFS" } else { "BFS" };
        println!(
            "\n{name}: {} iterations, {:.3} ms modeled, {:.1} MTEPS",
            r.iterations(),
            r.modeled_seconds() * 1e3,
            r.teps(g500_edges) / 1e6
        );
        // The long-tail signature: most iterations carry almost no work.
        let records = &r.stats.records;
        // Chain iterations advance one page per chain: a few dozen
        // vertices against a graph of hundreds of thousands.
        let tiny = records
            .iter()
            .filter(|rec| rec.frontier_len + rec.new_delegates <= 2 * gen.num_chains)
            .count();
        let heavy = records.iter().map(|rec| rec.work.total_edges()).max().unwrap_or(0);
        println!(
            "  {tiny} of {} iterations touch <= 2 vertices; heaviest iteration examines \
             {heavy} edges; mask reductions in {} iterations (S' << S)",
            records.len(),
            r.stats.mask_reductions()
        );
        summaries.push((name, r.modeled_seconds()));
    }

    let (bfs, dobfs) = (summaries[0].1, summaries[1].1);
    println!(
        "\nDOBFS/BFS elapsed ratio: {:.3} — on long-tail graphs the per-iteration \
         direction decision costs more than it saves (§VI-D); a production pipeline \
         would select plain BFS here{}",
        dobfs / bfs,
        if dobfs >= bfs { " (and this run agrees)" } else { "" }
    );
}
