//! Integration tests for the extension features: BFS parent trees
//! (§VI-A3), distributed PageRank (§VI-D/VII future work), graph I/O
//! (§II-D workflow interop), and the direction-decision ablation.

use gpu_cluster_bfs::core::driver::DistributedGraph;
use gpu_cluster_bfs::core::pagerank::PageRankConfig;
use gpu_cluster_bfs::graph::pagerank::pagerank as reference_pagerank;
use gpu_cluster_bfs::graph::reference::{bfs_depths, validate_parents};
use gpu_cluster_bfs::graph::{builders, io};
use gpu_cluster_bfs::prelude::*;

#[test]
fn parent_trees_validate_across_graph_families() {
    let config = BfsConfig::new(12);
    for graph in [
        RmatConfig::graph500(10).generate(),
        PowerLawConfig::friendster_like(10).generate(),
        WebGraphConfig::wdc_like(8).generate(),
    ] {
        let csr = Csr::from_edge_list(&graph);
        for topo in [Topology::new(1, 1), Topology::new(2, 2), Topology::new(3, 2)] {
            let dist = DistributedGraph::build(&graph, topo, &config).unwrap();
            let src = graph.hub().unwrap();
            let r = dist.run_with_parents(src, &config).unwrap();
            assert_eq!(r.depths, bfs_depths(&csr, src));
            validate_parents(&csr, src, &r.depths, r.parents.as_ref().unwrap()).unwrap();
        }
    }
}

#[test]
fn parent_exchange_cost_is_small() {
    // §VI-A3: "The cost of building such a tree should be low" — only
    // remote nn destinations communicate parents, once, at the end.
    let graph = RmatConfig::graph500(11).generate();
    let config = BfsConfig::new(16);
    let dist = DistributedGraph::build(&graph, Topology::new(4, 2), &config).unwrap();
    let r = dist.run_with_parents(graph.hub().unwrap(), &config).unwrap();
    assert!(r.parent_exchange_seconds < 0.1 * r.modeled_seconds());
}

#[test]
fn pagerank_matches_reference_through_io_roundtrip() {
    // Full workflow-interop loop (§II-D): generate, serialize, reload,
    // distribute, rank — results must match the reference on the reloaded
    // graph bit-for-bit with the same tolerance as the direct path.
    let graph = RmatConfig::graph500(9).generate();
    let mut binary = Vec::new();
    io::write_binary(&graph, &mut binary).unwrap();
    let reloaded = io::read_binary(&binary[..]).unwrap();
    assert_eq!(reloaded, graph);

    let bfs_config = BfsConfig::new(8);
    let dist = DistributedGraph::build(&reloaded, Topology::new(2, 2), &bfs_config).unwrap();
    let pr_config = PageRankConfig { max_iterations: 40, tolerance: 1e-12, ..Default::default() };
    let ours = dist.pagerank(&pr_config);
    let reference = reference_pagerank(&Csr::from_edge_list(&graph), pr_config.damping, 1e-12, 40);
    for (a, b) in ours.scores.iter().zip(&reference.scores) {
        assert!((a - b).abs() < 1e-9 + 1e-6 * b.abs());
    }
}

#[test]
fn pagerank_ranks_hubs_first_on_scale_free_graphs() {
    let graph = RmatConfig::graph500(10).generate();
    let degrees = graph.out_degrees();
    let config = BfsConfig::new(16);
    let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
    let pr = dist.pagerank(&PageRankConfig::default());
    let top = pr.scores.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
    // The top-ranked vertex must be among the highest-degree vertices.
    let max_deg = *degrees.iter().max().unwrap();
    assert!(degrees[top] as f64 >= 0.2 * max_deg as f64);
}

#[test]
fn text_io_roundtrips_through_distribution() {
    let graph = builders::double_star(6);
    let mut text = Vec::new();
    io::write_text(&graph, &mut text).unwrap();
    let reloaded = io::read_text(&text[..]).unwrap();
    let config = BfsConfig::new(4);
    let dist = DistributedGraph::build(&reloaded, Topology::new(2, 1), &config).unwrap();
    let r = dist.run(0, &config).unwrap();
    assert_eq!(r.depths, bfs_depths(&Csr::from_edge_list(&graph), 0));
}

#[test]
fn global_direction_ablation_still_correct() {
    // The ablation changes performance, never results.
    let graph = RmatConfig::graph500(10).generate();
    let csr = Csr::from_edge_list(&graph);
    let src = graph.hub().unwrap();
    for per_kernel in [true, false] {
        let config = BfsConfig::new(16).with_per_kernel_direction(per_kernel);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let r = dist.run(src, &config).unwrap();
        assert_eq!(r.depths, bfs_depths(&csr, src), "per_kernel = {per_kernel}");
    }
}

#[test]
fn paper_factors_remain_supported_and_correct() {
    let graph = RmatConfig::graph500(10).generate();
    let csr = Csr::from_edge_list(&graph);
    let src = graph.hub().unwrap();
    let config = BfsConfig::new(16).with_paper_factors();
    let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
    let r = dist.run(src, &config).unwrap();
    assert_eq!(r.depths, bfs_depths(&csr, src));
}
