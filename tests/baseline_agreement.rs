//! All four BFS implementations — the degree-separated distributed one,
//! the single-processor (Beamer) one, and the 1D- and 2D-partitioned
//! baselines — must agree with each other (and the reference) on every
//! graph, because they all compute the same hop distances.

use gpu_cluster_bfs::baseline::{OneDBfs, SingleNodeBfs, TwoDBfs};
use gpu_cluster_bfs::core::driver::DistributedGraph;
use gpu_cluster_bfs::graph::reference::bfs_depths;
use gpu_cluster_bfs::graph::{builders, EdgeList};
use gpu_cluster_bfs::prelude::*;

fn agree_on(graph: &EdgeList, source: u64) {
    let csr = Csr::from_edge_list(graph);
    let reference = bfs_depths(&csr, source);

    let single = SingleNodeBfs::direction_optimizing().run(&csr, source);
    assert_eq!(single.depths, reference, "single-node DOBFS");

    let oned = OneDBfs::new(4, true).run(&csr, source);
    assert_eq!(oned.depths, reference, "1D DOBFS");

    let twod = TwoDBfs::new(2, true).run(&csr, source);
    assert_eq!(twod.depths, reference, "2D DOBFS");

    let config = BfsConfig::new(12);
    let dist = DistributedGraph::build(graph, Topology::new(2, 2), &config).unwrap();
    let degree_separated = dist.run(source, &config).unwrap();
    assert_eq!(degree_separated.depths, reference, "degree-separated DOBFS");
}

#[test]
fn all_implementations_agree_on_rmat() {
    let graph = RmatConfig::graph500(10).generate();
    let degrees = graph.out_degrees();
    let hub = graph.hub().unwrap();
    let leaf = (0..graph.num_vertices).find(|&v| degrees[v as usize] == 1).unwrap();
    agree_on(&graph, hub);
    agree_on(&graph, leaf);
}

#[test]
fn all_implementations_agree_on_powerlaw() {
    let graph = PowerLawConfig::friendster_like(10).generate();
    let src = graph.hub().unwrap();
    agree_on(&graph, src);
}

#[test]
fn all_implementations_agree_on_long_tail() {
    let graph = WebGraphConfig::wdc_like(8).generate();
    let degrees = graph.out_degrees();
    let src = (0..graph.num_vertices).find(|&v| degrees[v as usize] > 0).unwrap();
    agree_on(&graph, src);
}

#[test]
fn all_implementations_agree_on_structured_graphs() {
    for graph in [builders::grid(6, 8), builders::cycle(30), builders::double_star(9)] {
        agree_on(&graph, 0);
    }
}

#[test]
fn dobfs_saves_edges_everywhere_on_rmat() {
    // The m' bound of §IV-B: the degree-separated DOBFS workload is within
    // m' + d*p*b of the single-processor DOBFS workload, and both are far
    // below plain BFS's ~m.
    let graph = RmatConfig::graph500(11).generate();
    let csr = Csr::from_edge_list(&graph);
    let src = graph.hub().unwrap();

    let plain = SingleNodeBfs::plain().run(&csr, src);
    let single_do = SingleNodeBfs::direction_optimizing().run(&csr, src);
    let config = BfsConfig::new(16);
    let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
    let ours = dist.run(src, &config).unwrap();
    let ours_edges = ours.stats.total_edges_examined();

    assert!(single_do.edges_examined < plain.edges_examined / 2);
    assert!(
        ours_edges < plain.edges_examined / 2,
        "degree-separated DOBFS saved too little: {} vs plain {}",
        ours_edges,
        plain.edges_examined
    );
    // Distributed workload is bounded by m' plus the delegate search term.
    let d = dist.separation().num_delegates() as u64;
    let p = 4u64;
    let bound = single_do.edges_examined + d * p * 32;
    assert!(ours_edges <= bound, "workload {} exceeds m' + d*p*b bound {}", ours_edges, bound);
}

#[test]
fn twod_do_workload_exceeds_oned() {
    // §II-B: the 2D-partitioned DOBFS tries to find up to sqrt(p) parents
    // per vertex, so its workload must exceed the 1D/single workload.
    let graph = RmatConfig::graph500(10).generate();
    let csr = Csr::from_edge_list(&graph);
    let src = graph.hub().unwrap();
    let single = SingleNodeBfs::direction_optimizing().run(&csr, src);
    let twod = TwoDBfs::new(4, true).run(&csr, src);
    assert!(twod.edges_examined > single.edges_examined);
}
