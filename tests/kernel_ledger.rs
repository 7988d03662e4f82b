//! Golden ledger for the previsit and visit kernels (§IV, Fig. 3).
//!
//! Every cell runs one BFS with parents on an RMAT graph and records, per
//! superstep, the kernels' workload counters (previsit vertices on each
//! stream, then `nn`/`nd`/`dn`/`dd` edges) and how many GPUs ran each of
//! `dd`/`dn`/`nd` backward, followed by FNV-1a hashes of the depths and
//! of the parent vector and the bits of `modeled_seconds`. The parent
//! tree depends on the order in which the visits walk their frontiers,
//! so a change to that order, to a direction decision or to a counter
//! moves a row.
//!
//! Cells: RMAT 10 and 12; 2x2 and 4x2 GPUs at TH 32; DO off, DO with a
//! per-kernel direction and DO with one global direction; both kernel
//! variants; the hub (a delegate) and the lowest-id normal vertex with
//! edges as sources.
//!
//! Regenerate with `GCBFS_BLESS=1` only after an intentional model
//! change.

use gpu_cluster_bfs::core::kernels::KernelVariant;
use gpu_cluster_bfs::prelude::*;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/kernel_ledger.txt");

const THRESHOLD: u64 = 32;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn row(dist: &DistributedGraph, source: u64, config: &BfsConfig) -> String {
    let r = dist.run_with_parents(source, config).unwrap();
    let steps: Vec<String> = r
        .stats
        .records
        .iter()
        .map(|rec| {
            let w = &rec.work;
            let (bdd, bdn, bnd) = rec.backward_gpus;
            format!(
                "{},{}/{},{},{},{}/{bdd},{bdn},{bnd}",
                w.normal_previsit_vertices,
                w.delegate_previsit_vertices,
                w.nn_edges,
                w.nd_edges,
                w.dn_edges,
                w.dd_edges,
            )
        })
        .collect();
    format!(
        "depths={:016x} parents={:016x} modeled={:016x} steps={}",
        fnv1a(r.depths.iter().flat_map(|d| d.to_le_bytes())),
        fnv1a(r.parents.as_ref().unwrap().iter().flat_map(|p| p.to_le_bytes())),
        r.modeled_seconds().to_bits(),
        steps.join(" "),
    )
}

fn ledger() -> String {
    let directions = [
        ("do=off", BfsConfig::new(THRESHOLD).with_direction_optimization(false)),
        ("do=per-kernel", BfsConfig::new(THRESHOLD)),
        ("do=global", BfsConfig::new(THRESHOLD).with_per_kernel_direction(false)),
    ];
    let mut out = String::new();
    for scale in [10, 12] {
        let graph = RmatConfig::graph500(scale).generate();
        let degrees = graph.out_degrees();
        let hub = graph.hub().unwrap();
        let normal = degrees.iter().position(|&d| d > 0 && d <= THRESHOLD).unwrap() as u64;
        for (ranks, gpus) in [(2, 2), (4, 2)] {
            let topo = Topology::new(ranks, gpus);
            let dist = DistributedGraph::build(&graph, topo, &directions[0].1).unwrap();
            for (dir_label, config) in directions {
                for variant in [KernelVariant::WordParallel, KernelVariant::Scalar] {
                    let config = config.with_kernel_variant(variant);
                    for (src_label, source) in [("hub", hub), ("normal", normal)] {
                        writeln!(
                            out,
                            "rmat{scale} {ranks}x{gpus} {dir_label} {} {src_label}={source} {}",
                            variant.label(),
                            row(&dist, source, &config)
                        )
                        .unwrap();
                    }
                }
            }
        }
    }
    out
}

#[test]
fn kernel_ledger_matches_the_committed_fixture() {
    let got = ledger();
    if std::env::var("GCBFS_BLESS").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/kernel_ledger.txt");
        std::fs::write(path, &got).unwrap();
        return;
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "ledger row count drifted");
    for (g, want) in got.lines().zip(GOLDEN.lines()) {
        assert_eq!(g, want, "kernel ledger row drifted");
    }
}
