//! Property-based tests on the cluster substrate: cost-model sanity
//! (monotonicity, scaling equivalences) and collective laws.

use gpu_cluster_bfs::cluster::collectives::{allreduce_min, allreduce_or, allreduce_sum};
use gpu_cluster_bfs::cluster::cost::{CostModel, KernelKind, NetworkModel};
use gpu_cluster_bfs::cluster::topology::Topology;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn p2p_time_monotone_in_bytes(a in 1u64..1 << 32, b in 1u64..1 << 32) {
        let net = NetworkModel::ray();
        let (lo, hi) = (a.min(b), a.max(b));
        for intra in [false, true] {
            prop_assert!(net.p2p_time(lo, intra) <= net.p2p_time(hi, intra) + 1e-12);
        }
    }

    #[test]
    fn kernel_time_monotone_in_workload(a in 1u64..1 << 40, b in 1u64..1 << 40) {
        let dev = CostModel::ray().device;
        let (lo, hi) = (a.min(b), a.max(b));
        for kind in [
            KernelKind::MergeVisit,
            KernelKind::DynamicVisit,
            KernelKind::Previsit,
            KernelKind::Binning,
            KernelKind::MaskOps,
        ] {
            prop_assert!(dev.kernel_time(kind, lo) <= dev.kernel_time(kind, hi));
        }
    }

    #[test]
    fn allreduce_time_monotone_in_ranks(bytes in 1u64..1 << 24, r1 in 2u32..64, r2 in 2u32..64) {
        let net = NetworkModel::ray();
        let (lo, hi) = (r1.min(r2), r1.max(r2));
        for blocking in [false, true] {
            prop_assert!(
                net.allreduce_time(bytes, lo, blocking)
                    <= net.allreduce_time(bytes, hi, blocking) + 1e-12
            );
        }
    }

    #[test]
    fn scaled_machine_equivalence(bytes in 1u64..1 << 28, factor_log2 in 1u32..16) {
        // A transfer f-times smaller on the f-times-slower machine costs
        // the same as the original on Ray (fixed latencies aside).
        let f = 2f64.powi(factor_log2 as i32);
        let full = NetworkModel::ray();
        let scaled = NetworkModel::ray_scaled(f);
        let small = ((bytes as f64 / f).round() as u64).max(1);
        let t_full = full.p2p_time(small * f as u64, false);
        let t_scaled = scaled.p2p_time(small, false);
        // Latency terms differ; allow their absolute budget.
        prop_assert!((t_full - t_scaled).abs() < 0.05 * t_full + 1e-4,
            "{t_full} vs {t_scaled}");
    }

    #[test]
    fn or_reduce_equals_fold(
        vals in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 3), 1..9usize),
    ) {
        let p = vals.len() as u32;
        let topo = Topology::new(p, 1);
        let cost = CostModel::ray();
        let out = allreduce_or(topo, &cost, &vals, true);
        for i in 0..3 {
            let expect = vals.iter().fold(0u64, |acc, v| acc | v[i]);
            prop_assert_eq!(out.reduced[i], expect);
        }
    }

    #[test]
    fn min_reduce_equals_fold(
        vals in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 4), 1..9usize),
    ) {
        let p = vals.len() as u32;
        let topo = Topology::new(p, 1);
        let cost = CostModel::ray();
        let out = allreduce_min(topo, &cost, &vals, false);
        for i in 0..4 {
            let expect = vals.iter().map(|v| v[i]).min().unwrap();
            prop_assert_eq!(out.reduced[i], expect);
        }
    }

    #[test]
    fn sum_reduce_order_is_fixed(
        vals in proptest::collection::vec(
            proptest::collection::vec(-1e9f64..1e9, 2), 4..9usize),
    ) {
        // Same inputs, different grid shapes that share the rank grouping
        // order must give bitwise-identical sums (determinism of the
        // two-phase reduction).
        let p = (vals.len() as u32 / 2) * 2;
        let vals = &vals[..p as usize];
        let cost = CostModel::ray();
        let a = allreduce_sum(Topology::new(p, 1), &cost, vals, true).reduced;
        let b = allreduce_sum(Topology::new(p, 1), &cost, vals, false).reduced;
        prop_assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn vertex_ownership_partitions(prank in 1u32..7, pgpu in 1u32..5, n in 1u64..4000) {
        // Every vertex has exactly one owner and the local-id round trip
        // holds for all of them.
        let topo = Topology::new(prank, pgpu);
        for v in (0..n).step_by((n as usize / 97).max(1)) {
            let owner = topo.vertex_owner(v);
            let local = topo.local_index(v);
            prop_assert_eq!(topo.global_id(owner, local), v);
            prop_assert!((local as u64) < n.div_ceil(topo.num_gpus() as u64) + 1);
        }
        let total: u64 = topo.gpus().map(|g| topo.owned_count(g, n) as u64).sum();
        prop_assert_eq!(total, n);
    }
}
