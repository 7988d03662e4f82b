//! Determinism guarantees: every algorithm in the workspace produces
//! bit-identical results and modeled times regardless of the host thread
//! count. (The real machine is simulated; nothing about the simulation may
//! depend on how the simulation itself is scheduled.)

use gpu_cluster_bfs::core::driver::DistributedGraph;
use gpu_cluster_bfs::core::pagerank::PageRankConfig;
use gpu_cluster_bfs::prelude::*;

/// Runs `f` once on the default pool and once on a single-thread pool.
fn both_pools<T: PartialEq + std::fmt::Debug + Send>(f: impl Fn() -> T + Sync) {
    let parallel = f();
    let single = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap().install(&f);
    assert_eq!(parallel, single);
}

/// Runs `f` at thread counts 1, 2, 4, and 8 and asserts every result is
/// bit-identical to the width-1 reference. Width 1 runs the chunked code
/// path inline (same chunk boundaries, same merge order), so agreement
/// here certifies the *structure* of the reduction, not luck of the
/// schedule; widths above the host core count exercise oversubscription.
fn width_matrix<T: PartialEq + std::fmt::Debug + Send>(f: impl Fn() -> T + Sync) {
    let reference = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap().install(&f);
    for width in [2usize, 4, 8] {
        let got = rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap().install(&f);
        assert!(got == reference, "result drifted at {width} threads");
    }
}

fn setup() -> (gpu_cluster_bfs::graph::EdgeList, BfsConfig, u64) {
    let graph = RmatConfig::graph500(9).generate();
    let config = BfsConfig::new(8);
    let src = graph.out_degrees().iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0 as u64;
    (graph, config, src)
}

#[test]
fn bfs_deterministic() {
    let (graph, config, src) = setup();
    both_pools(|| {
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let r = dist.run_with_parents(src, &config).unwrap();
        let modeled_bits = r.modeled_seconds().to_bits();
        let iterations = r.iterations();
        (r.depths, r.parents, modeled_bits, iterations)
    });
}

#[test]
fn msbfs_deterministic() {
    let (graph, config, _src) = setup();
    let degrees = graph.out_degrees();
    let sources: Vec<u64> =
        (0..graph.num_vertices).filter(|&v| degrees[v as usize] > 0).take(16).collect();
    both_pools(|| {
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let r = dist.run_multi_source(&sources, &config).unwrap();
        (r.depths, r.modeled_seconds.to_bits(), r.edges_examined)
    });
}

#[test]
fn pagerank_deterministic_bitwise() {
    let (graph, config, _src) = setup();
    let pr = PageRankConfig { max_iterations: 15, tolerance: 0.0, ..Default::default() };
    both_pools(|| {
        let dist = DistributedGraph::build(&graph, Topology::new(3, 2), &config).unwrap();
        let r = dist.pagerank(&pr);
        // Bitwise: floating-point summation order must be fixed.
        let bits: Vec<u64> = r.scores.iter().map(|s| s.to_bits()).collect();
        (bits, r.iterations)
    });
}

#[test]
fn components_deterministic() {
    let (graph, config, _src) = setup();
    both_pools(|| {
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let r = dist.connected_components(&config);
        (r.labels, r.sweeps, r.modeled_seconds.to_bits())
    });
}

#[test]
fn betweenness_deterministic_bitwise() {
    let (graph, config, _src) = setup();
    let degrees = graph.out_degrees();
    let sources: Vec<u64> =
        (0..graph.num_vertices).filter(|&v| degrees[v as usize] > 0).take(6).collect();
    both_pools(|| {
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let r = dist.betweenness(&sources, &config).unwrap();
        let bits: Vec<u64> = r.scores.iter().map(|s| s.to_bits()).collect();
        bits
    });
}

#[test]
fn async_bfs_deterministic() {
    let (graph, config, src) = setup();
    both_pools(|| {
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let r = dist.run_async(src, &config).unwrap();
        (r.depths, r.waves, r.modeled_seconds.to_bits())
    });
}

#[test]
fn generators_deterministic() {
    both_pools(|| RmatConfig::graph500(9).generate());
    both_pools(|| PowerLawConfig::friendster_like(9).generate());
    both_pools(|| WebGraphConfig::wdc_like(7).generate());
}

// ---- thread-count matrix (1/2/4/8) ------------------------------------
//
// The pairwise checks above catch a schedule dependence only if it shows
// up between "default" and "one thread". The matrix below pins the full
// pipeline — generation, distribution, traversal — at explicit widths
// including oversubscribed ones, which is exactly what `GCBFS_THREADS`
// lets an operator do in production.

#[test]
fn bfs_width_matrix_bitwise() {
    let (graph, config, src) = setup();
    width_matrix(|| {
        let dist = DistributedGraph::build(&graph, Topology::new(4, 2), &config).unwrap();
        let r = dist.run_with_parents(src, &config).unwrap();
        let modeled_bits = r.modeled_seconds().to_bits();
        let iterations = r.iterations();
        (r.depths, r.parents, modeled_bits, iterations)
    });
}

#[test]
fn pagerank_width_matrix_bitwise() {
    let (graph, config, _src) = setup();
    let pr = PageRankConfig { max_iterations: 12, tolerance: 0.0, ..Default::default() };
    width_matrix(|| {
        let dist = DistributedGraph::build(&graph, Topology::new(2, 3), &config).unwrap();
        let r = dist.pagerank(&pr);
        let bits: Vec<u64> = r.scores.iter().map(|s| s.to_bits()).collect();
        (bits, r.iterations)
    });
}

#[test]
fn msbfs_width_matrix_bitwise() {
    let (graph, config, _src) = setup();
    let degrees = graph.out_degrees();
    let sources: Vec<u64> =
        (0..graph.num_vertices).filter(|&v| degrees[v as usize] > 0).take(64).collect();
    assert_eq!(sources.len(), 64, "scale-9 RMAT has at least 64 non-isolated vertices");
    width_matrix(|| {
        let dist = DistributedGraph::build(&graph, Topology::new(4, 2), &config).unwrap();
        let r = dist.run_multi_source(&sources, &config).unwrap();
        let level_bits: Vec<u64> = r.level_seconds.iter().map(|s| s.to_bits()).collect();
        (r.depths, r.source_iterations, level_bits, r.modeled_seconds.to_bits(), r.edges_examined)
    });
}

#[test]
fn msbfs_batch_equals_independent_single_runs() {
    // One 64-wide sweep must answer exactly what 64 dedicated BFS runs
    // answer: same depth vectors, same per-source iteration counts.
    let (graph, config, _src) = setup();
    let degrees = graph.out_degrees();
    let sources: Vec<u64> =
        (0..graph.num_vertices).filter(|&v| degrees[v as usize] > 0).take(64).collect();
    assert_eq!(sources.len(), 64);
    let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
    let batch = dist.run_multi_source(&sources, &config).unwrap();
    for (k, &s) in sources.iter().enumerate() {
        let single = dist.run(s, &config).unwrap();
        assert_eq!(batch.depths[k], single.depths, "depths drifted for source {s}");
        assert_eq!(
            batch.iterations_of(k),
            single.iterations(),
            "iteration count drifted for source {s}"
        );
    }
}

#[test]
fn serving_width_matrix_bitwise() {
    // The whole serving pipeline — arrival generation, admission,
    // weighted-fair dispatch, MS-BFS sweeps, SLO quantiles — is a
    // deterministic function of the seed, at any host thread width.
    use gpu_cluster_bfs::serve::{generate, WorkloadSpec};
    let (graph, config, _src) = setup();
    let config = config.with_direction_optimization(false);
    let degrees = graph.out_degrees();
    let pool: Vec<u64> =
        (0..graph.num_vertices).filter(|&v| degrees[v as usize] > 0).take(16).collect();
    let tenants = vec![
        TenantSpec::new(0, "a").with_weight(3.0),
        TenantSpec::new(1, "b"),
        TenantSpec::new(2, "c").with_rate(200.0, 8.0),
    ];
    width_matrix(|| {
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let mut svc = TraversalService::new(
            &dist,
            config,
            tenants.clone(),
            BatchPolicy::new(16, 0.002).with_queue_limit(64),
        );
        let spec = WorkloadSpec::bfs_only(2000.0, 120, 7, pool.clone()).with_deadline(0.05);
        let report = svc.run(&generate(&spec, &tenants));
        let outcome_bits: Vec<(u64, u64, u64)> = report
            .outcomes
            .iter()
            .map(|o| (o.request.id, o.dispatched.to_bits(), o.completed.to_bits()))
            .collect();
        (
            outcome_bits,
            report.latency.p99.to_bits(),
            report.goodput_qps.to_bits(),
            report.sharing_factor.to_bits(),
            report.shed.clone(),
            report.metrics.clone(),
        )
    });
}

#[test]
fn sssp_width_matrix_bitwise() {
    use gpu_cluster_bfs::core::sssp::DistributedSssp;
    use gpu_cluster_bfs::graph::weighted::Weights;
    let (graph, config, src) = setup();
    let weights = Weights::new(12, 5).unwrap();
    width_matrix(|| {
        let dist =
            DistributedSssp::weighted(&graph, weights, Topology::new(2, 2), &config).unwrap();
        let r = dist.run(src, &config).unwrap();
        (r.distances, r.rounds, r.edges_relaxed, r.modeled_seconds.to_bits())
    });
}

/// A message-loss plan's accounting, pinned on RMAT 10 (2 × 2 GPUs, TH 8)
/// from its hub: depths, retries, drops, and the bits of the recovery and
/// modeled seconds, under both wire formats. Each sampled loss is counted
/// and each attempt with one is retried, up to the reliable path; a change
/// to how a loss is sampled, retried or charged moves one of these.
#[test]
fn message_loss_accounting_is_pinned() {
    use gpu_cluster_bfs::cluster::fault::FaultPlan;
    use gpu_cluster_bfs::compress::CompressionMode;
    let graph = RmatConfig::graph500(10).generate();
    let src = graph.out_degrees().iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0 as u64;
    assert_eq!(src, 1014);
    // (mode, recovery seconds bits, modeled seconds bits).
    let pinned = [
        (CompressionMode::Off, 0x3f47_d2b8_899b_e563u64, 0x3f4c_d0c1_6869_395au64),
        (CompressionMode::Adaptive, 0x3f47_d3e2_25cb_37c2, 0x3f4e_652a_f253_3e53),
    ];
    for (mode, recovery_bits, modeled_bits) in pinned {
        let config = BfsConfig::new(8).with_compression(mode);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let clean = dist.run(src, &config).unwrap();
        let r = dist.run_with_faults(src, &config, &FaultPlan::new(99).with_message_drops(0.2));
        let r = r.unwrap();
        assert_eq!(r.depths, clean.depths, "{mode:?}: depths");
        let fnv = |h: u64, &d: &u32| (h ^ d as u64).wrapping_mul(0x100_0000_01b3);
        let depth_hash = r.depths.iter().fold(0xcbf2_9ce4_8422_2325, fnv);
        assert_eq!((r.iterations(), depth_hash), (4, 0x728f_be26_36d4_0e5b), "{mode:?}: depths");
        let f = &r.stats.fault;
        assert_eq!((f.retries, f.injected_drops), (6, 23), "{mode:?}: retries and drops");
        assert_eq!((f.rollbacks, f.checkpoints_taken), (0, 1), "{mode:?}");
        assert_eq!(f.recovery_seconds.to_bits(), recovery_bits, "{mode:?}: recovery seconds");
        assert_eq!(r.modeled_seconds().to_bits(), modeled_bits, "{mode:?}: modeled seconds");
    }
}
