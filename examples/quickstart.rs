//! Quickstart: generate a Graph500 RMAT graph, distribute it over a
//! simulated 2×2 GPU cluster, run direction-optimized BFS, and validate
//! against the sequential reference.
//!
//! Run with: `cargo run --release --example quickstart`

use gpu_cluster_bfs::graph::reference::{bfs_depths, validate_depths};
use gpu_cluster_bfs::prelude::*;

fn main() {
    // A scale-14 Graph500 RMAT graph: 16k vertices, ~512k directed edges
    // after symmetrization (edge factor 16, A/B/C/D = .57/.19/.19/.05).
    let rmat = RmatConfig::graph500(14);
    let graph = rmat.generate();
    println!(
        "graph: scale {} — {} vertices, {} directed edges",
        rmat.scale,
        graph.num_vertices,
        graph.num_edges()
    );

    // A simulated cluster in the paper's notation: 1 node x 2 MPI ranks x
    // 2 GPUs per rank = 4 GPUs, with the Ray-like cost model.
    let topology = Topology::from_paper_notation(1, 2, 2);

    // Degree threshold 16: vertices with out-degree > 16 become delegates
    // replicated on every GPU; the rest are owned by exactly one GPU.
    let config = BfsConfig::new(16).with_direction_optimization(true);
    let dist = DistributedGraph::build(&graph, topology, &config).expect("fits in GPU memory");
    println!(
        "distribution: {} delegates ({:.2}% of vertices), nn edges {:.2}%",
        dist.separation().num_delegates(),
        100.0 * dist.separation().delegate_fraction(),
        dist.class_counts().percentage(gpu_cluster_bfs::core::distributor::EdgeClass::Nn),
    );
    println!(
        "graph storage: {:.2} MiB (edge list would be {:.2} MiB)",
        dist.total_graph_bytes() as f64 / (1 << 20) as f64,
        Csr::edge_list_bytes(graph.num_edges()) as f64 / (1 << 20) as f64,
    );

    // Pick a well-connected source and run.
    let source = graph.hub().expect("graph has vertices");
    let result = dist.run(source, &config).expect("source in range");
    println!(
        "BFS from {source}: {} iterations, {} of {} vertices reached, max depth {}",
        result.iterations(),
        result.reached(),
        graph.num_vertices,
        result.max_depth()
    );
    println!(
        "modeled Ray time: {:.3} ms -> {:.2} GTEPS (Graph500 convention)",
        result.modeled_seconds() * 1e3,
        result.gteps(rmat.graph500_edges())
    );
    println!("wall clock of the simulation itself: {:.1} ms", result.stats.wall_seconds * 1e3);

    // Validate against the sequential reference BFS.
    let csr = Csr::from_edge_list(&graph);
    assert_eq!(result.depths, bfs_depths(&csr, source), "distributed result must match");
    validate_depths(&csr, source, &result.depths).expect("Graph500-style validation");
    println!("validation: OK (matches sequential reference, passes structural checks)");
}
