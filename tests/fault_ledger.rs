//! Golden ledger for the sim's fault path: checkpoints, rollbacks,
//! re-homing (spare or spread), transient-fault retries, at-rest
//! checkpoint corruption and the SDC re-execution ladder.
//!
//! Every row runs one fault-injected BFS and records what recovery
//! decided and charged: an FNV-1a hash of the depths, the bits of
//! `modeled_seconds` and every `FaultStats` field — or the typed error
//! the run surfaced. The grid is RMAT 10 and 12 on 2 × 2 GPUs with 0 and 2
//! spares, compression Off and Adaptive, verification Off and Full, and
//! per cell: every single fail-stop at every superstep, one repeated
//! death, a checkpoint corruption followed by a fail-stop and a mask
//! corruption at every superstep, a NIC window, the seeded `random`,
//! `random_elastic` and `random_sdc` plans, a restore-buffer strike and
//! a stuck SDC word. So a change to how the sim commits, verifies or
//! restores a checkpoint, or to any recovery charge, moves a row.
//!
//! Regenerate with `GCBFS_BLESS=1` only after an intentional model
//! change.

use gpu_cluster_bfs::cluster::fault::{FaultPlan, SdcEvent, SdcSite};
use gpu_cluster_bfs::compress::CompressionMode;
use gpu_cluster_bfs::prelude::*;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/fault_ledger.txt");

/// Supersteps each per-superstep plan family covers — past the end of
/// every run in the grid, so the rows after the last superstep pin that
/// an event the run never reaches fires nothing.
const SUPERSTEPS: u32 = 8;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every plan of one cell, labelled.
fn plans() -> Vec<(String, FaultPlan)> {
    let mut plans = Vec::new();
    for iter in 0..SUPERSTEPS {
        for gpu in 0..4 {
            plans.push((format!("fail {gpu}:{iter}"), FaultPlan::new(0).with_fail_stop(gpu, iter)));
        }
    }
    plans
        .push(("fail 1:2 1:5".into(), FaultPlan::new(0).with_fail_stop(1, 2).with_fail_stop(1, 5)));
    for iter in 0..SUPERSTEPS {
        let plan = FaultPlan::new(0)
            .with_checkpoint_corruption(2, iter, 1, 0b101)
            .with_fail_stop(3, iter + 1);
        plans.push((format!("cp-corrupt 2:{iter} fail 3:{}", iter + 1), plan));
    }
    for iter in 0..SUPERSTEPS {
        let plan = FaultPlan::new(0).with_mask_corruption(1, iter, 3, 1 << 7);
        plans.push((format!("mask-corrupt 1:{iter}"), plan));
    }
    plans.push(("nic 1..4 x2.5".into(), FaultPlan::new(0).with_nic_degradation(1, 4, 2.5)));
    for seed in 0..12 {
        plans.push((format!("random {seed}"), FaultPlan::random(seed, 4, 6)));
        plans.push((format!("random_elastic {seed}"), FaultPlan::random_elastic(seed, 4, 6)));
        plans.push((format!("random_sdc {seed}"), FaultPlan::random_sdc(seed, 4, 6)));
    }
    let strike = SdcEvent::flip(0, 2, SdcSite::RestoreBuffer, 5, 1 << 3);
    plans.push((
        "restore-strike 0:2 fail 1:2".into(),
        FaultPlan::new(0).with_fail_stop(1, 2).with_sdc_event(strike),
    ));
    let stuck = SdcEvent::stuck(3, 1, SdcSite::KernelDepth, 11, 0x7);
    plans.push(("stuck 3:1".into(), FaultPlan::new(0).with_sdc_event(stuck)));
    plans
}

/// One run's row: its depth hash, `modeled_seconds` bits and every
/// `FaultStats` field, or its typed error.
fn row(dist: &DistributedGraph, config: &BfsConfig, source: u64, plan: &FaultPlan) -> String {
    match dist.run_with_faults(source, config, plan) {
        Ok(r) => format!(
            "depths={:016x} modeled={:016x} {:?}",
            fnv1a(r.depths.iter().flat_map(|d| d.to_le_bytes())),
            r.modeled_seconds().to_bits(),
            r.stats.fault,
        ),
        Err(e) => format!("error {e:?}"),
    }
}

fn ledger() -> String {
    let modes = [("off", CompressionMode::Off), ("adaptive", CompressionMode::Adaptive)];
    let verifications = [VerificationMode::Off, VerificationMode::Full];
    let mut out = String::new();
    for scale in [10, 12] {
        let graph = RmatConfig::graph500(scale).generate();
        // The hub (a delegate) on RMAT 10, a normal vertex of the giant
        // component on RMAT 12.
        let hub = graph.hub().unwrap();
        let source = if scale == 10 { hub } else { 297 };
        for spares in [0, 2] {
            for ((label, mode), verify) in
                modes.into_iter().flat_map(|m| verifications.map(|v| (m, v)))
            {
                let config = BfsConfig::new(32).with_compression(mode).with_verification(verify);
                let topo = Topology::new(2, 2).with_spares(spares);
                let dist = DistributedGraph::build(&graph, topo, &config).unwrap();
                for (plan_label, plan) in plans() {
                    let cell =
                        format!("rmat{scale} spares={spares} {label} {verify:?} {plan_label}");
                    let _ = writeln!(out, "{cell}: {}", row(&dist, &config, source, &plan));
                }
            }
        }
    }
    out
}

#[test]
fn fault_ledger_matches_the_committed_fixture() {
    let got = ledger();
    if std::env::var("GCBFS_BLESS").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fault_ledger.txt");
        std::fs::write(path, &got).unwrap();
        return;
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "ledger row count drifted");
    for (g, want) in got.lines().zip(GOLDEN.lines()) {
        assert_eq!(g, want, "fault ledger row drifted");
    }
}
