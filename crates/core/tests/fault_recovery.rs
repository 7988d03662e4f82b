//! Property tests of the chaos fabric: any survivable seeded fault plan
//! must recover to depths bit-identical to the fault-free reference, with
//! deterministic fault accounting — across cascading fail-stops, hot-spare
//! absorption, multi-survivor spreading, and checkpoint corruption at
//! rest.

use gcbfs_cluster::fault::{plan_is_survivable, FaultError, FaultPlan};
use gcbfs_cluster::topology::Topology;
use gcbfs_core::driver::{DistributedGraph, RunError};
use gcbfs_core::BfsConfig;
use gcbfs_graph::reference::bfs_depths;
use gcbfs_graph::rmat::RmatConfig;
use gcbfs_graph::Csr;
use gcbfs_trace::{FaultKind, ObservabilityConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

struct Fixture {
    dist: DistributedGraph,
    config: BfsConfig,
    reference: Vec<u32>,
    source: u64,
}

fn build_fixture(topo: Topology) -> Fixture {
    let graph = RmatConfig::graph500(8).generate();
    let config = BfsConfig::new(8);
    let dist = DistributedGraph::build(&graph, topo, &config).unwrap();
    let source = graph.hub().unwrap();
    let reference = bfs_depths(&Csr::from_edge_list(&graph), source);
    Fixture { dist, config, reference, source }
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| build_fixture(Topology::new(2, 2)))
}

/// Same graph and partitioning, but the cluster carries two standby
/// spares outside the `p`-grid.
fn spared_fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| build_fixture(Topology::new(2, 2).with_spares(2)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline acceptance property: a random mix of message drops, a
    /// possible fail-stop, mask corruptions, and a NIC degradation window never changes the answer — only the bill.
    #[test]
    fn random_fault_plans_recover_reference_depths(seed in 0u64..u64::MAX / 2) {
        let fx = fixture();
        let plan = FaultPlan::random(seed, 4, 8);
        prop_assert!(plan_is_survivable(&plan, fx.dist.topology()));
        let r = fx.dist.run_with_faults(fx.source, &fx.config, &plan)
            .expect("survivable plans must recover");
        prop_assert_eq!(&r.depths, &fx.reference);
        // Recovery is charged, never free: if anything fired, time accrued.
        let f = &r.stats.fault;
        if f.any_faults() && (f.retries > 0 || f.rollbacks > 0) {
            prop_assert!(f.recovery_seconds > 0.0);
        }
        prop_assert!(r.modeled_seconds().is_finite() && r.modeled_seconds() > 0.0);
    }

    /// Same plan, same run: the whole fault stream and its accounting are
    /// functions of the seed.
    #[test]
    fn fault_accounting_is_deterministic(seed in 0u64..u64::MAX / 2) {
        let fx = fixture();
        let plan = FaultPlan::random(seed, 4, 8);
        let a = fx.dist.run_with_faults(fx.source, &fx.config, &plan).unwrap();
        let b = fx.dist.run_with_faults(fx.source, &fx.config, &plan).unwrap();
        prop_assert_eq!(&a.depths, &b.depths);
        prop_assert_eq!(&a.stats.fault, &b.stats.fault);
        prop_assert_eq!(a.stats.iterations(), b.stats.iterations());
    }

    /// Spare-less grid: cascading fail-stops spread across survivors, each
    /// death confirmed at the barrier it misses. Whatever the trajectory,
    /// a successful run's depths are bit-exact.
    #[test]
    fn elastic_plans_spread_bit_exact(seed in 0u64..u64::MAX / 2) {
        let fx = fixture();
        let plan = FaultPlan::random_elastic(seed, 4, 8);
        let survivable = plan_is_survivable(&plan, fx.dist.topology());
        match fx.dist.run_with_faults(fx.source, &fx.config, &plan) {
            Ok(r) => {
                prop_assert_eq!(&r.depths, &fx.reference);
                let f = &r.stats.fault;
                // Every re-homing is billed, never free.
                if f.rollbacks > 0 {
                    prop_assert!(f.recovery_seconds > 0.0);
                }
                // No spares on this topology: every death spreads, and a
                // death that fired is never left unrecovered.
                prop_assert_eq!(f.spare_absorptions, 0);
                prop_assert_eq!(f.spread_hostings, f.fail_stops);
                prop_assert_eq!(f.rollbacks > 0, f.fail_stops > 0);
                prop_assert!(r.modeled_seconds().is_finite() && r.modeled_seconds() > 0.0);
            }
            Err(RunError::Fault(FaultError::CheckpointCorrupt { .. })) => {
                // Only legitimate when the plan seeded at-rest corruption.
                prop_assert!(!plan.checkpoint_corruptions.is_empty());
            }
            Err(RunError::Fault(FaultError::GpuFailed { .. })) => {
                // Only legitimate when the loss exhausted the survivors.
                prop_assert!(!survivable);
            }
            Err(e) => panic!("unexpected error: {e:?}"),
        }
    }

    /// Elastic lifecycle with two hot spares: every death that a spare
    /// can absorb must not enter degraded mode, and two spares make any
    /// plan from this generator survivable (it fails at most 3 of 4).
    #[test]
    fn elastic_plans_absorb_into_spares(seed in 0u64..u64::MAX / 2) {
        let fx = spared_fixture();
        let plan = FaultPlan::random_elastic(seed, 4, 8);
        prop_assert!(plan_is_survivable(&plan, fx.dist.topology()));
        match fx.dist.run_with_faults(fx.source, &fx.config, &plan) {
            Ok(r) => {
                prop_assert_eq!(&r.depths, &fx.reference);
                let f = &r.stats.fault;
                // Two spares cover the first two deaths; only a third can
                // spill into spreading.
                if f.spread_hostings > 0 {
                    prop_assert!(f.spare_absorptions == 2);
                }
                prop_assert_eq!(f.spare_absorptions + f.spread_hostings, f.fail_stops);
                // A run whose every death was absorbed never degrades.
                if f.rollbacks > 0 && f.spread_hostings == 0 {
                    prop_assert_eq!(f.degraded_iterations, 0);
                }
            }
            Err(RunError::Fault(FaultError::CheckpointCorrupt { .. })) => {
                prop_assert!(!plan.checkpoint_corruptions.is_empty());
            }
            Err(e) => panic!("unexpected error: {e:?}"),
        }
    }

    /// The elastic fault stream and its accounting are functions of the
    /// seed alone, and the observed trace's fault-span buckets reproduce
    /// `FaultStats` bitwise: checkpoint spans sum to `checkpoint_seconds`,
    /// everything else to `recovery_seconds`, and per-kind span counts
    /// match the per-event counters.
    #[test]
    fn elastic_accounting_matches_fault_spans(seed in 0u64..u64::MAX / 2) {
        let fx = fixture();
        let plan = FaultPlan::random_elastic(seed, 4, 8);
        let observed = fx.config.with_observability(ObservabilityConfig::Full);
        let a = fx.dist.run_with_faults(fx.source, &observed, &plan);
        let b = fx.dist.run_with_faults(fx.source, &observed, &plan);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.depths, &b.depths);
                prop_assert_eq!(&a.stats.fault, &b.stats.fault);
                prop_assert_eq!(a.stats.iterations(), b.stats.iterations());
                let f = &a.stats.fault;
                let log = a.observed.as_ref().expect("Full observability records a trace");
                let mut cp_sum = 0.0f64;
                let mut rec_sum = 0.0f64;
                let count =
                    |k: FaultKind| log.faults.iter().filter(|s| s.kind == k).count() as u64;
                for s in &log.faults {
                    if s.kind == FaultKind::Checkpoint {
                        cp_sum += s.dur;
                    } else {
                        rec_sum += s.dur;
                    }
                }
                prop_assert_eq!(cp_sum.to_bits(), f.checkpoint_seconds.to_bits());
                prop_assert_eq!(rec_sum.to_bits(), f.recovery_seconds.to_bits());
                prop_assert_eq!(count(FaultKind::Recovery), f.rollbacks);
                prop_assert_eq!(count(FaultKind::SpareAbsorb), f.spare_absorptions);
                prop_assert_eq!(count(FaultKind::Spread), f.spread_hostings);
            }
            (Err(_), Err(_)) => {} // deterministic failure is fine
            _ => panic!("non-deterministic outcome for seed {seed}"),
        }
    }
}

/// Hot-spare absorption end to end: a confirmed death lands on the spare,
/// the run never degrades, and the answer is bit-exact.
#[test]
fn spare_absorption_restores_full_speed() {
    let fx = spared_fixture();
    let plan = FaultPlan::new(11).with_fail_stop(2, 1);
    let r = fx.dist.run_with_faults(fx.source, &fx.config, &plan).unwrap();
    assert_eq!(&r.depths, &fx.reference);
    let f = &r.stats.fault;
    assert_eq!(f.fail_stops, 1);
    assert_eq!(f.spare_absorptions, 1);
    assert_eq!(f.spread_hostings, 0);
    assert_eq!(
        f.degraded_iterations, 0,
        "a spare-absorbed partition runs at full speed, not degraded"
    );
    assert!(f.recovery_seconds > 0.0, "absorption (restore + re-replicate) is billed");
}

/// A fail-stop in any superstep, the last one included, is confirmed at
/// that superstep's barrier: exactly one rollback and one re-home, onto
/// the spare when one is free, bit-exact.
#[test]
fn a_fail_stop_in_every_superstep_is_one_rollback_and_one_rehome() {
    let supersteps = fixture().dist.run(fixture().source, &fixture().config).unwrap().iterations();
    assert!(supersteps >= 3, "the fixture runs {supersteps} supersteps");
    for (fx, spare) in [(fixture(), false), (spared_fixture(), true)] {
        for iter in 0..supersteps {
            let plan = FaultPlan::new(13).with_fail_stop(1, iter);
            let r = fx.dist.run_with_faults(fx.source, &fx.config, &plan).unwrap();
            let what = format!("GPU 1 dies in superstep {iter}, spare {spare}");
            assert_eq!(&r.depths, &fx.reference, "{what}");
            let f = &r.stats.fault;
            assert_eq!((f.fail_stops, f.rollbacks), (1, 1), "{what}");
            let homes = (f.spare_absorptions, f.spread_hostings);
            assert_eq!(homes, if spare { (1, 0) } else { (0, 1) }, "{what}");
            assert_eq!(r.stats.iterations(), supersteps, "{what}");
        }
    }
    // A second fail-stop of a dead GPU is no second death.
    let fx = fixture();
    let twice = FaultPlan::new(13).with_fail_stop(1, 0).with_fail_stop(1, 2);
    let r = fx.dist.run_with_faults(fx.source, &fx.config, &twice).unwrap();
    assert_eq!(&r.depths, &fx.reference);
    let f = &r.stats.fault;
    assert_eq!((f.rollbacks, f.spread_hostings), (1, 1));
}

/// A checkpoint corrupted at rest fails its seal when the rollback after
/// a death restores it: a typed error, never wrong depths.
#[test]
fn a_corrupted_checkpoint_fails_the_rollback_typed() {
    let fx = fixture();
    let plan = FaultPlan::new(17).with_checkpoint_corruption(0, 0, 0, 1).with_fail_stop(1, 1);
    let run = fx.dist.run_with_faults(fx.source, &fx.config, &plan);
    assert!(
        matches!(run, Err(RunError::Fault(FaultError::CheckpointCorrupt { gpu: 0, iteration: 1 }))),
        "{run:?}"
    );
}
