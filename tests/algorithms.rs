//! Integration tests for the traversal-based algorithm suite built on the
//! degree-separated distribution: multi-source BFS, connected components,
//! betweenness centrality, PageRank, and the async execution model — all
//! agreeing with their sequential references on shared graphs.

use gpu_cluster_bfs::core::driver::DistributedGraph;
use gpu_cluster_bfs::core::pagerank::PageRankConfig;
use gpu_cluster_bfs::graph::betweenness::betweenness as bc_reference;
use gpu_cluster_bfs::graph::components::components as cc_reference;
use gpu_cluster_bfs::graph::pagerank::pagerank as pr_reference;
use gpu_cluster_bfs::graph::reference::bfs_depths;
use gpu_cluster_bfs::prelude::*;

fn sources_for(graph: &gpu_cluster_bfs::graph::EdgeList, count: usize) -> Vec<u64> {
    let degrees = graph.out_degrees();
    (0..graph.num_vertices).filter(|&v| degrees[v as usize] > 0).take(count).collect()
}

/// One graph, one distribution, the whole algorithm suite.
fn full_suite(graph: &gpu_cluster_bfs::graph::EdgeList, topo: Topology, th: u64) {
    let config = BfsConfig::new(th);
    let dist = DistributedGraph::build(graph, topo, &config).unwrap();
    let csr = Csr::from_edge_list(graph);
    let sources = sources_for(graph, 8);

    // BFS (BSP and async).
    for &s in &sources[..2] {
        let expect = bfs_depths(&csr, s);
        assert_eq!(dist.run(s, &config).unwrap().depths, expect);
        assert_eq!(dist.run_async(s, &config).unwrap().depths, expect);
    }

    // Multi-source BFS.
    let batch = dist.run_multi_source(&sources, &config).unwrap();
    for (k, &s) in sources.iter().enumerate() {
        assert_eq!(batch.depths_of(k), bfs_depths(&csr, s));
    }

    // Connected components.
    let cc = dist.connected_components(&config);
    assert_eq!(cc.labels, cc_reference(graph));

    // PageRank.
    let pr_config = PageRankConfig { max_iterations: 30, tolerance: 1e-12, ..Default::default() };
    let pr = dist.pagerank(&pr_config);
    let pr_ref = pr_reference(&csr, pr_config.damping, 1e-12, 30);
    for (a, b) in pr.scores.iter().zip(&pr_ref.scores) {
        assert!((a - b).abs() < 1e-9 + 1e-6 * b.abs());
    }

    // Betweenness (sampled).
    let bc = dist.betweenness(&sources[..4], &config).unwrap();
    let bc_ref = bc_reference(&csr, &sources[..4]);
    for (a, b) in bc.scores.iter().zip(&bc_ref) {
        assert!((a - b).abs() < 1e-7 + 1e-9 * b.abs());
    }

    // SSSP on the same topology with synthetic weights.
    use gpu_cluster_bfs::core::sssp::DistributedSssp;
    use gpu_cluster_bfs::graph::weighted::{dijkstra, Weights};
    let weights = Weights::new(12, 5).unwrap();
    let wdist = DistributedSssp::weighted(graph, weights, topo, &config).unwrap();
    let wcsr = weights.csr(graph);
    let r = wdist.run(sources[0], &config).unwrap();
    assert_eq!(r.distances, dijkstra(&wcsr, sources[0]));
}

#[test]
fn suite_on_rmat() {
    let graph = RmatConfig::graph500(9).generate();
    full_suite(&graph, Topology::new(2, 2), 8);
}

#[test]
fn suite_on_rmat_other_shapes() {
    let graph = RmatConfig::graph500(9).generate();
    full_suite(&graph, Topology::new(3, 1), 32);
    full_suite(&graph, Topology::new(1, 4), 4);
}

#[test]
fn suite_on_powerlaw() {
    let graph = PowerLawConfig::friendster_like(9).generate();
    full_suite(&graph, Topology::new(2, 2), 16);
}

#[test]
fn suite_on_long_tail() {
    let graph = WebGraphConfig::wdc_like(8).generate();
    full_suite(&graph, Topology::new(2, 2), 32);
}

#[test]
fn suite_with_no_delegates_and_all_delegates() {
    let graph = RmatConfig::graph500(8).generate();
    full_suite(&graph, Topology::new(2, 2), u64::MAX); // no delegates
    full_suite(&graph, Topology::new(2, 2), 0); // every connected vertex a delegate
}

#[test]
fn state_heaviness_ordering() {
    // §VI-D quantified: per-delegate state grows 1 bit (BFS) → 64 bits
    // (MS-BFS / components / PageRank); remote volume orders accordingly
    // for the same sweep counts.
    let graph = RmatConfig::graph500(10).generate();
    let config = BfsConfig::new(16).with_direction_optimization(false);
    let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
    let sources = sources_for(&graph, 32);
    let single = dist.run(sources[0], &config).unwrap();
    let batch = dist.run_multi_source(&sources, &config).unwrap();
    assert!(
        batch.remote_bytes > single.stats.total_remote_bytes(),
        "a 32-source batch must move more bytes than one BFS"
    );
    // The sharing win shows in modeled time and edge work, not in raw
    // bytes (the batch's masks are 64x denser than a single run's bits).
    let separate: Vec<_> = sources.iter().map(|&s| dist.run(s, &config).unwrap()).collect();
    let separate_seconds: f64 = separate.iter().map(|r| r.modeled_seconds()).sum();
    let separate_edges: u64 = separate.iter().map(|r| r.stats.total_edges_examined()).sum();
    assert!(
        batch.modeled_seconds < 0.5 * separate_seconds,
        "batching should at least halve modeled time: {} vs {}",
        batch.modeled_seconds,
        separate_seconds
    );
    assert!(batch.edges_examined < separate_edges / 2);
}
