//! Silent-data-corruption armor, end to end (proptest + fixed cases):
//!
//! * random seeded SDC plans under `Full` verification: every event that
//!   actually fires is detected, and the recovered depths are bit-exact
//!   against the clean run — or the event is provably masked (it never
//!   fired, so the answer was never touched);
//! * random hand-rolled single-bit flips against every compute site obey
//!   the same detected-and-repaired-or-masked dichotomy;
//! * `verification = Off` is bit-identical to the default run — depths,
//!   modeled seconds, iteration count — across host thread widths, so the
//!   armor costs literally nothing when disarmed.

use std::sync::OnceLock;

use gpu_cluster_bfs::cluster::fault::{FaultPlan, SdcEvent, SdcSite};
use gpu_cluster_bfs::core::driver::DistributedGraph;
use gpu_cluster_bfs::graph::reference::bfs_depths;
use gpu_cluster_bfs::prelude::*;
use proptest::prelude::*;

struct Fixture {
    dist: DistributedGraph,
    config: BfsConfig,
    source: u64,
    clean_depths: Vec<u32>,
    horizon: u32,
}

/// Scale-9 RMAT on 2x2 GPUs, built once: proptest replays hundreds of
/// traversals against it and only the fault plan varies.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let graph = RmatConfig::graph500(9).generate();
        let config = BfsConfig::new(8);
        let source = graph.hub().unwrap();
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let clean = dist.run(source, &config).unwrap();
        assert_eq!(clean.depths, bfs_depths(&Csr::from_edge_list(&graph), source));
        let horizon = clean.iterations();
        Fixture { dist, config, source, clean_depths: clean.depths, horizon }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Seeded random SDC plans (the same generator the CLI's `--sdc` flag
    /// and the `fault_sweep --smoke sdc` gate use): under `Full`, a fired
    /// event is always detected and the recovered answer is bit-exact.
    #[test]
    fn random_sdc_plans_are_detected_and_repaired(seed in any::<u64>()) {
        let fx = fixture();
        let full = fx.config.with_verification(VerificationMode::Full);
        let plan = FaultPlan::random_sdc(seed, 4, fx.horizon);
        let r = fx.dist.run_with_faults(fx.source, &full, &plan).unwrap();
        prop_assert_eq!(&r.depths, &fx.clean_depths, "recovery must be bit-exact");
        let f = &r.stats.fault;
        // Fired-implies-detected; an unfired plan (all events scheduled
        // past the run or onto empty targets) is provably masked.
        prop_assert!(f.injected_sdc == 0 || f.sdc_detections > 0,
            "seed {}: {} fired event(s), zero detections", seed, f.injected_sdc);
        prop_assert!(f.injected_sdc > 0 || f.sdc_detections == 0,
            "a detection with nothing injected is a false positive");
    }

    /// Hand-rolled single-bit flips against each compute site: kernel
    /// depth outputs, the reduced delegate mask, and frontier entries.
    #[test]
    fn single_bit_flips_never_corrupt_a_full_run(
        gpu in 0usize..4,
        iteration in 0u32..8,
        index in any::<u64>(),
        bit in 0u32..32,
        site_sel in 0usize..3,
    ) {
        let fx = fixture();
        let (site, bits) = match site_sel {
            0 => (SdcSite::KernelDepth, 1u64 << bit),
            1 => (SdcSite::ReducedMask, 1u64 << (bit * 2 % 64)),
            _ => (SdcSite::FrontierDrop, 1u64),
        };
        let full = fx.config.with_verification(VerificationMode::Full);
        let plan = FaultPlan::new(0).with_sdc_event(SdcEvent::flip(gpu, iteration, site, index, bits));
        let r = fx.dist.run_with_faults(fx.source, &full, &plan).unwrap();
        prop_assert_eq!(&r.depths, &fx.clean_depths);
        let f = &r.stats.fault;
        prop_assert!(f.injected_sdc == 0 || f.sdc_detections > 0,
            "fired {:?} flip at gpu {} iter {} slipped past Full", site, gpu, iteration);
    }

    /// The same flip under `Off` either reaches the answer or is masked —
    /// never detected, never charged: that is what "silent" means, and why
    /// the detector exists.
    #[test]
    fn flips_under_off_are_silent(iteration in 0u32..6, index in any::<u64>()) {
        let fx = fixture();
        let plan = FaultPlan::new(0)
            .with_sdc_event(SdcEvent::flip(0, iteration, SdcSite::KernelDepth, index, 1 << 4));
        let r = fx.dist.run_with_faults(fx.source, &fx.config, &plan).unwrap();
        let f = &r.stats.fault;
        prop_assert_eq!(f.sdc_detections, 0, "Off has no detector");
        prop_assert_eq!(f.sdc_reexecutions, 0);
        prop_assert_eq!(f.recovery_seconds, 0.0, "nothing is charged under Off");
    }
}

/// `with_verification(Off)` is bit-identical to a config that never heard
/// of verification: depths, modeled time, iterations, traffic.
#[test]
fn off_tier_is_bit_identical_to_default() {
    let fx = fixture();
    let a = fx.dist.run(fx.source, &fx.config).unwrap();
    let b = fx.dist.run(fx.source, &fx.config.with_verification(VerificationMode::Off)).unwrap();
    assert_eq!(a.depths, b.depths);
    assert_eq!(a.modeled_seconds().to_bits(), b.modeled_seconds().to_bits());
    assert_eq!(a.iterations(), b.iterations());
    assert_eq!(a.stats.total_remote_bytes(), b.stats.total_remote_bytes());
}

/// The Off-tier run is bit-identical across host thread widths 1 and 4 —
/// the `GCBFS_THREADS={1,4}` contract: the simulated machine's answer and
/// modeled clock cannot depend on how the simulation itself is scheduled.
#[test]
fn off_tier_is_bit_identical_across_thread_widths() {
    let run = || {
        let graph = RmatConfig::graph500(9).generate();
        let config = BfsConfig::new(8).with_verification(VerificationMode::Off);
        let source = graph.hub().unwrap();
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let r = dist.run(source, &config).unwrap();
        let (bits, iters) = (r.modeled_seconds().to_bits(), r.iterations());
        (r.depths, bits, iters)
    };
    let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap().install(run);
    let four = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap().install(run);
    assert_eq!(one, four, "Off-tier run drifted between 1 and 4 host threads");
}

/// A verified recovery is itself deterministic across thread widths: the
/// full detect → re-execute → repair trajectory, including fault accounting
/// and modeled time, is bit-identical at 1 and 4 host threads.
#[test]
fn sdc_recovery_is_bit_identical_across_thread_widths() {
    let run = || {
        let graph = RmatConfig::graph500(9).generate();
        let config = BfsConfig::new(8).with_verification(VerificationMode::Full);
        let source = graph.hub().unwrap();
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let plan = FaultPlan::random_sdc(7, 4, 6);
        let r = dist.run_with_faults(source, &config, &plan).unwrap();
        let bits = r.modeled_seconds().to_bits();
        (r.depths, r.stats.fault.clone(), bits)
    };
    let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap().install(run);
    let four = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap().install(run);
    assert_eq!(one, four, "verified recovery drifted between 1 and 4 host threads");
}

/// The distributed Graph500-style validator accepts every verified run and
/// rejects a corrupted depth vector, without ever consulting a reference
/// CSR.
#[test]
fn distributed_validator_agrees_with_the_armor() {
    let fx = fixture();
    let v = fx.dist.validate_distributed(fx.source, &fx.clean_depths, &fx.config.cost);
    assert!(v.is_ok(), "clean run must validate: {:?}", v.errors);
    assert!(v.reached > 0 && v.checked_edges > 0);

    let mut bad = fx.clean_depths.clone();
    let victim = bad.iter().position(|&d| d != 0 && d != u32::MAX).unwrap();
    bad[victim] ^= 1 << 3;
    let v = fx.dist.validate_distributed(fx.source, &bad, &fx.config.cost);
    assert!(!v.is_ok(), "a flipped depth must fail distributed validation");
    assert!(v.error_count > 0);
}
