//! Property-based tests (proptest) on the core invariants:
//!
//! * distributed BFS ≡ sequential reference on arbitrary symmetric graphs,
//!   arbitrary topologies, thresholds, and option sets;
//! * the edge distributor never loses or duplicates an edge and keeps
//!   non-`nn` subgraphs symmetric per GPU;
//! * the vertex permutation is a bijection;
//! * the delegate-mask algebra behaves like a set.

use gpu_cluster_bfs::cluster::fault::FaultPlan;
use gpu_cluster_bfs::compress::{CompressionMode, FrontierCodec, MaskCodec};
use gpu_cluster_bfs::core::distributor::{classify, distribute, owner, EdgeClass};
use gpu_cluster_bfs::core::driver::DistributedGraph;
use gpu_cluster_bfs::core::kernels::KernelVariant;
use gpu_cluster_bfs::core::masks::DelegateMask;
use gpu_cluster_bfs::core::separation::Separation;
use gpu_cluster_bfs::graph::permute::VertexPermutation;
use gpu_cluster_bfs::graph::reference::bfs_depths;
use gpu_cluster_bfs::graph::EdgeList;
use gpu_cluster_bfs::prelude::*;
use proptest::prelude::*;

/// Strategy: a random symmetric graph with `1..=max_n` vertices.
fn symmetric_graph(max_n: u64, max_edges: usize) -> impl Strategy<Value = EdgeList> {
    (1..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_edges).prop_map(move |edges| {
            let mut g = EdgeList::new(n, edges);
            g.symmetrize();
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn distributed_bfs_matches_reference(
        graph in symmetric_graph(80, 160),
        prank in 1u32..5,
        pgpu in 1u32..4,
        th in 0u64..20,
        source_sel in 0u64..1000,
        doo in any::<bool>(),
        local_a2a in any::<bool>(),
        uniq in any::<bool>(),
    ) {
        let source = source_sel % graph.num_vertices;
        let topo = Topology::new(prank, pgpu);
        let config = BfsConfig::new(th)
            .with_direction_optimization(doo)
            .with_local_all2all(local_a2a)
            .with_uniquify(uniq);
        let dist = DistributedGraph::build(&graph, topo, &config).unwrap();
        let r = dist.run(source, &config).unwrap();
        let csr = Csr::from_edge_list(&graph);
        prop_assert_eq!(r.depths, bfs_depths(&csr, source));
    }

    #[test]
    fn distributor_preserves_and_places_every_edge(
        graph in symmetric_graph(60, 120),
        prank in 1u32..5,
        pgpu in 1u32..4,
        th in 0u64..16,
    ) {
        let topo = Topology::new(prank, pgpu);
        let degrees = graph.out_degrees();
        let sep = Separation::from_degrees(&degrees, th);
        let dist = distribute(&graph, &sep, &degrees, &topo);
        // No edge lost or duplicated.
        prop_assert_eq!(dist.class_counts.total(), graph.num_edges());
        let placed: u64 = dist.per_gpu.iter().map(|s| s.total()).sum();
        prop_assert_eq!(placed, graph.num_edges());
        // Non-nn subgraphs symmetric per GPU.
        for set in &dist.per_gpu {
            let mut nd = set.nd.clone();
            let mut dn_rev: Vec<(u32, u32)> = set.dn.iter().map(|&(a, b)| (b, a)).collect();
            nd.sort_unstable();
            dn_rev.sort_unstable();
            prop_assert_eq!(nd, dn_rev);
            let mut dd = set.dd.clone();
            let mut dd_rev: Vec<(u32, u32)> = set.dd.iter().map(|&(a, b)| (b, a)).collect();
            dd.sort_unstable();
            dd_rev.sort_unstable();
            prop_assert_eq!(dd, dd_rev);
        }
    }

    #[test]
    fn owner_is_deterministic_and_respects_classes(
        u in 0u64..100,
        v in 0u64..100,
        th in 0u64..8,
        prank in 1u32..6,
        pgpu in 1u32..4,
    ) {
        // Build a degree table where degree(v) = v % 11 for variety.
        let degrees: Vec<u64> = (0..100).map(|x| x % 11).collect();
        let sep = Separation::from_degrees(&degrees, th);
        let topo = Topology::new(prank, pgpu);
        let class = classify(u, v, &sep);
        let gpu = owner(u, v, class, &degrees, &topo);
        // The owner is one of the endpoints' owners.
        prop_assert!(gpu == topo.vertex_owner(u) || gpu == topo.vertex_owner(v));
        match class {
            EdgeClass::Nn | EdgeClass::Nd => prop_assert_eq!(gpu, topo.vertex_owner(u)),
            EdgeClass::Dn => prop_assert_eq!(gpu, topo.vertex_owner(v)),
            EdgeClass::Dd => {
                // Symmetric pair lands on the same GPU.
                let rev = owner(v, u, classify(v, u, &sep), &degrees, &topo);
                prop_assert_eq!(gpu, rev);
            }
        }
    }

    #[test]
    fn permutation_is_a_bijection(domain in 1u64..5000, seed in any::<u64>()) {
        let p = VertexPermutation::new(domain, seed);
        // Sampled inverse check plus small-domain exhaustive image check.
        for v in (0..domain).step_by((domain as usize / 64).max(1)) {
            prop_assert!(p.apply(v) < domain);
            prop_assert_eq!(p.invert(p.apply(v)), v);
        }
        if domain <= 512 {
            let mut image: Vec<u64> = (0..domain).map(|v| p.apply(v)).collect();
            image.sort_unstable();
            image.dedup();
            prop_assert_eq!(image.len() as u64, domain);
        }
    }

    #[test]
    fn masks_behave_like_sets(bits in proptest::collection::vec(0u32..500, 0..64)) {
        let mut mask = DelegateMask::new(500);
        let mut reference = std::collections::BTreeSet::new();
        for &b in &bits {
            let newly = mask.set(b);
            prop_assert_eq!(newly, reference.insert(b));
        }
        prop_assert_eq!(mask.count_ones() as usize, reference.len());
        for b in 0..500 {
            prop_assert_eq!(mask.get(b), reference.contains(&b));
        }
        // new_bits against the empty mask enumerates the set in order.
        let empty = DelegateMask::new(500);
        let enumerated: Vec<u32> = mask.new_bits(&empty).collect();
        let expected: Vec<u32> = reference.iter().copied().collect();
        prop_assert_eq!(enumerated, expected);
    }

    #[test]
    fn parent_trees_are_always_valid(
        graph in symmetric_graph(60, 120),
        prank in 1u32..4,
        pgpu in 1u32..3,
        th in 0u64..16,
        source_sel in 0u64..1000,
    ) {
        use gpu_cluster_bfs::graph::reference::validate_parents;
        let source = source_sel % graph.num_vertices;
        let topo = Topology::new(prank, pgpu);
        let config = BfsConfig::new(th);
        let dist = DistributedGraph::build(&graph, topo, &config).unwrap();
        let r = dist.run_with_parents(source, &config).unwrap();
        let csr = Csr::from_edge_list(&graph);
        prop_assert_eq!(&r.depths, &bfs_depths(&csr, source));
        let parents = r.parents.as_ref().unwrap();
        prop_assert!(validate_parents(&csr, source, &r.depths, parents).is_ok());
    }

    #[test]
    fn pagerank_matches_reference_on_random_graphs(
        graph in symmetric_graph(50, 100),
        prank in 1u32..4,
        pgpu in 1u32..3,
        th in 0u64..10,
    ) {
        use gpu_cluster_bfs::core::pagerank::PageRankConfig;
        use gpu_cluster_bfs::graph::pagerank::pagerank as reference_pagerank;
        let topo = Topology::new(prank, pgpu);
        let config = BfsConfig::new(th);
        let dist = DistributedGraph::build(&graph, topo, &config).unwrap();
        let pr_config = PageRankConfig { max_iterations: 25, tolerance: 1e-12, ..Default::default() };
        let ours = dist.pagerank(&pr_config);
        let reference = reference_pagerank(
            &Csr::from_edge_list(&graph), pr_config.damping, 1e-12, 25);
        prop_assert_eq!(ours.iterations, reference.iterations);
        for (a, b) in ours.scores.iter().zip(&reference.scores) {
            prop_assert!((a - b).abs() < 1e-9 + 1e-6 * b.abs(), "{} vs {}", a, b);
        }
    }

    #[test]
    fn io_roundtrips_any_graph(graph in symmetric_graph(64, 100)) {
        use gpu_cluster_bfs::graph::io;
        let mut bin = Vec::new();
        io::write_binary(&graph, &mut bin).unwrap();
        prop_assert_eq!(io::read_binary(&bin[..]).unwrap(), graph.clone());
        let mut txt = Vec::new();
        io::write_text(&graph, &mut txt).unwrap();
        prop_assert_eq!(io::read_text(&txt[..]).unwrap(), graph);
    }

    #[test]
    fn kernel_variants_agree_on_depths_and_parents(
        graph in symmetric_graph(60, 120),
        prank in 1u32..4,
        pgpu in 1u32..3,
        th in 0u64..16,
        source_sel in 0u64..1000,
        mode_sel in 0usize..3,
    ) {
        use gpu_cluster_bfs::graph::reference::validate_parents;
        let source = source_sel % graph.num_vertices;
        let topo = Topology::new(prank, pgpu);
        let mode = [
            CompressionMode::Off,
            CompressionMode::Fixed(FrontierCodec::VarintDelta, MaskCodec::SparseIndex),
            CompressionMode::Adaptive,
        ][mode_sel];
        let base = BfsConfig::new(th).with_compression(mode);
        let dist = DistributedGraph::build(&graph, topo, &base).unwrap();
        let scalar = base.with_kernel_variant(KernelVariant::Scalar);
        let word = base.with_kernel_variant(KernelVariant::WordParallel);
        let a = dist.run_with_parents(source, &scalar).unwrap();
        let b = dist.run_with_parents(source, &word).unwrap();
        // The variant prices kernels; it must never steer the traversal.
        prop_assert_eq!(&a.depths, &b.depths);
        prop_assert_eq!(a.parents.as_ref().unwrap(), b.parents.as_ref().unwrap());
        let csr = Csr::from_edge_list(&graph);
        prop_assert_eq!(&b.depths, &bfs_depths(&csr, source));
        prop_assert!(
            validate_parents(&csr, source, &b.depths, b.parents.as_ref().unwrap()).is_ok()
        );
    }

    #[test]
    fn separation_partitions_vertices(
        degrees in proptest::collection::vec(0u64..200, 1..120),
        th in 0u64..100,
    ) {
        let sep = Separation::from_degrees(&degrees, th);
        let mut delegate_count = 0u32;
        for (v, &deg) in degrees.iter().enumerate() {
            let is_d = sep.is_delegate(v as u64);
            prop_assert_eq!(is_d, deg > th);
            if is_d {
                let id = sep.delegate_id(v as u64).unwrap();
                prop_assert_eq!(sep.original(id), v as u64);
                delegate_count += 1;
            } else {
                prop_assert!(sep.delegate_id(v as u64).is_none());
            }
        }
        prop_assert_eq!(sep.num_delegates(), delegate_count);
    }
}

/// The raw-speed overhaul's contract, swept deterministically: the
/// word-parallel bottom-up kernels and the in-place frontier walks must
/// reproduce the scalar reference's depths and parents bit-for-bit at
/// every host thread width, at every compression mode, and through a
/// fail-stop rollback.
#[test]
fn word_parallel_is_bit_identical_across_widths_modes_and_rollback() {
    use gpu_cluster_bfs::graph::RmatConfig;
    let modes = [
        CompressionMode::Off,
        CompressionMode::Fixed(FrontierCodec::VarintDelta, MaskCodec::SparseIndex),
        CompressionMode::Adaptive,
    ];
    for scale in [9u32, 11] {
        let graph = RmatConfig::graph500(scale).generate();
        let source =
            graph.out_degrees().iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0 as u64;
        for mode in modes {
            let base = BfsConfig::new(8).with_compression(mode);
            let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &base).unwrap();
            // Scalar variant on a single thread is the reference run.
            let scalar = base.with_kernel_variant(KernelVariant::Scalar);
            let reference = rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .unwrap()
                .install(|| dist.run_with_parents(source, &scalar).unwrap());
            let word = base.with_kernel_variant(KernelVariant::WordParallel);
            for width in [1usize, 2, 4, 8] {
                let got = rayon::ThreadPoolBuilder::new()
                    .num_threads(width)
                    .build()
                    .unwrap()
                    .install(|| dist.run_with_parents(source, &word).unwrap());
                assert_eq!(
                    got.depths, reference.depths,
                    "scale {scale} mode {mode:?} width {width}: depths drifted"
                );
                assert_eq!(
                    got.parents, reference.parents,
                    "scale {scale} mode {mode:?} width {width}: parents drifted"
                );
            }
            // One fail-stop rollback plan: the recovery path re-runs the
            // lost superstep through the same kernels, so depths still
            // land on the reference.
            let plan = FaultPlan::new(1).with_fail_stop(2, 1);
            let faulted = dist.run_with_faults(source, &word, &plan).unwrap();
            assert_eq!(faulted.stats.fault.rollbacks, 1, "the plan must roll back once");
            assert_eq!(
                faulted.depths, reference.depths,
                "scale {scale} mode {mode:?}: rollback changed depths"
            );
        }
    }
}
