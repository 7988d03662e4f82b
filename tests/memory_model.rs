//! Table I integration tests: measured storage equals the paper's closed
//! form, and at suitable thresholds the representation is about a third of
//! an edge list and a bit more than half of plain CSR.

use gpu_cluster_bfs::core::driver::DistributedGraph;
use gpu_cluster_bfs::core::subgraph::paper_total_bytes;
use gpu_cluster_bfs::prelude::*;

#[test]
fn measured_matches_formula_across_scales_and_thresholds() {
    for scale in [9u32, 11, 13] {
        let graph = RmatConfig::graph500(scale).generate();
        for th in [8u64, 32, 128] {
            for topo in [Topology::new(2, 2), Topology::new(4, 2)] {
                let config = BfsConfig::new(th);
                let dist = DistributedGraph::build(&graph, topo, &config).unwrap();
                let measured = dist.total_graph_bytes();
                let formula = paper_total_bytes(
                    graph.num_vertices,
                    dist.separation().num_delegates() as u64,
                    topo.num_gpus() as u64,
                    graph.num_edges(),
                    dist.class_counts().nn,
                );
                // Implementation adds one sentinel offset entry per CSR
                // (4 subgraphs per GPU, 4 bytes each).
                let sentinel_slack = topo.num_gpus() as u64 * 16;
                assert!(
                    measured >= formula && measured <= formula + sentinel_slack,
                    "scale {scale}, TH {th}, {topo:?}: measured {measured}, formula {formula}"
                );
            }
        }
    }
}

#[test]
fn suitable_threshold_hits_the_paper_ratios() {
    // §III-C: "about one third of the conventional edge list format (16m
    // bytes), and a little more than half of CSR format (8n + 8m)".
    let scale = 14;
    let graph = RmatConfig::graph500(scale).generate();
    let th = BfsConfig::suggested_rmat_threshold(scale + 13);
    let config = BfsConfig::new(th);
    let dist = DistributedGraph::build(&graph, Topology::new(4, 4), &config).unwrap();
    let ours = dist.total_graph_bytes() as f64;
    let edge_list = Csr::edge_list_bytes(graph.num_edges()) as f64;
    let csr = Csr::conventional_bytes(graph.num_vertices, graph.num_edges()) as f64;
    let vs_edge_list = ours / edge_list;
    let vs_csr = ours / csr;
    assert!((0.26..=0.40).contains(&vs_edge_list), "vs edge list: {vs_edge_list} (paper: ~1/3)");
    assert!((0.5..=0.70).contains(&vs_csr), "vs CSR: {vs_csr} (paper: a little over 1/2)");
}

#[test]
fn memory_scales_down_with_more_gpus_per_subgraph() {
    // Per-GPU share shrinks with p (the paper's remedy for large graphs):
    // the max per-GPU footprint at 8 GPUs is well below that at 2 GPUs.
    let graph = RmatConfig::graph500(12).generate();
    let config = BfsConfig::new(32);
    let max_per_gpu = |topo: Topology| {
        DistributedGraph::build(&graph, topo, &config)
            .unwrap()
            .memory_usage()
            .iter()
            .map(|m| m.total())
            .max()
            .unwrap()
    };
    let at2 = max_per_gpu(Topology::new(2, 1));
    let at8 = max_per_gpu(Topology::new(4, 2));
    assert!(
        (at8 as f64) < 0.5 * at2 as f64,
        "per-GPU memory should shrink ~linearly: {at8} vs {at2}"
    );
}

#[test]
fn raising_threshold_trades_delegates_for_nn() {
    // §VI-B option 1: raising TH shrinks d (and its replicated cost d·p)
    // at the price of more nn edges.
    let graph = RmatConfig::graph500(12).generate();
    let topo = Topology::new(2, 2);
    let low = DistributedGraph::build(&graph, topo, &BfsConfig::new(8)).unwrap();
    let high = DistributedGraph::build(&graph, topo, &BfsConfig::new(256)).unwrap();
    assert!(high.separation().num_delegates() < low.separation().num_delegates() / 4);
    assert!(high.class_counts().nn > 4 * low.class_counts().nn);
}

#[test]
fn bounded_local_ids_hold() {
    // §III-B "Bounded size": non-nn destinations fit 32 bits by
    // construction; check the dense id spaces directly.
    let graph = RmatConfig::graph500(11).generate();
    let topo = Topology::new(3, 2);
    let config = BfsConfig::new(16);
    let dist = DistributedGraph::build(&graph, topo, &config).unwrap();
    let d = dist.separation().num_delegates();
    assert!(u64::from(d) <= graph.num_vertices);
    // Every GPU's owned slot count is at most ceil(n/p).
    let bound = graph.num_vertices.div_ceil(topo.num_gpus() as u64);
    for gpu in topo.gpus() {
        assert!(u64::from(topo.owned_count(gpu, graph.num_vertices)) <= bound);
    }
}

#[test]
fn table_1_bytes_are_pinned_exactly_on_rmat_12() {
    // Every GPU's eight Table I fields on RMAT 12, 4x2 GPUs, TH 32: the
    // storage types decide these widths, so a change to them moves a pin.
    // Columns: nn offsets, nn cols, nd offsets, nd cols, dn offsets,
    // dn cols, dd offsets, dd cols.
    let expected: [[u64; 8]; 8] = [
        [2052, 2016, 2052, 7360, 3152, 7360, 3152, 50064],
        [2052, 2264, 2052, 7944, 3152, 7944, 3152, 44252],
        [2052, 2160, 2052, 7596, 3152, 7596, 3152, 53924],
        [2052, 2480, 2052, 8624, 3152, 8624, 3152, 43300],
        [2052, 2096, 2052, 7228, 3152, 7228, 3152, 49304],
        [2052, 2216, 2052, 8076, 3152, 8076, 3152, 49060],
        [2052, 2464, 2052, 8796, 3152, 8796, 3152, 41968],
        [2052, 1992, 2052, 8132, 3152, 8132, 3152, 55252],
    ];
    let graph = RmatConfig::graph500(12).generate();
    let dist = DistributedGraph::build(&graph, Topology::new(4, 2), &BfsConfig::new(32)).unwrap();
    let measured: Vec<[u64; 8]> = dist
        .memory_usage()
        .iter()
        .map(|m| {
            [
                m.nn_offsets,
                m.nn_cols,
                m.nd_offsets,
                m.nd_cols,
                m.dn_offsets,
                m.dn_cols,
                m.dd_offsets,
                m.dd_cols,
            ]
        })
        .collect();
    assert_eq!(measured, expected);
    assert_eq!(dist.total_graph_bytes(), 615_588);
}

#[test]
fn the_one_csr_builder_keeps_empty_rows_and_duplicates_and_sorts_entries() {
    // Rows 0 and 4 are empty; (2, 7) is a duplicate and stays one.
    let csr: Csr<u32, u32> = Csr::build(5, [(2, 7), (1, 3), (2, 1), (2, 7), (3, 0)].into_iter());
    assert_eq!(csr.offsets, vec![0, 0, 1, 4, 5, 5]);
    assert_eq!(csr.neighbors(0), &[] as &[u32]);
    assert_eq!(csr.neighbors(2), &[1, 7, 7]);
    assert_eq!(csr.neighbors(4), &[] as &[u32]);
    assert_eq!((csr.num_vertices(), csr.num_edges(), csr.out_degree(2)), (5, 5, 3));
    assert_eq!(csr.bytes(), (6 * 4, 5 * 4));
    // Weighted rows sort by (column, weight).
    let w: Csr<(u64, u32), u32> =
        Csr::build(1, [(0, (9, 1)), (0, (2, 8)), (0, (9, 0)), (0, (2, 3))].into_iter());
    assert_eq!(w.neighbors(0), &[(2, 3), (2, 8), (9, 0), (9, 1)]);
}

#[test]
#[should_panic(expected = "256 CSR entries overflow 8-bit offsets")]
fn the_one_csr_builder_refuses_an_offset_that_would_wrap() {
    let _: Csr<u32, u8> = Csr::build(2, std::iter::repeat_n((1, 0), 256));
}
