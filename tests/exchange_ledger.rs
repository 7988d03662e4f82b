//! Golden ledger for the `nn` point-to-point exchange (§V-B).
//!
//! Every cell runs one observed BFS on RMAT 10 and records what the
//! exchange decides and charges: supersteps, remote bytes and the bytes
//! compression saved, per-codec message counts, the bits of
//! `modeled_seconds`, an FNV-1a hash of the depths and one of the run's
//! exported JSON-lines trace. The trace carries every per-peer
//! `MessageRecord` (src, dst, raw and wire bytes) and, in the overlap
//! cell, the encode / transfer / decode stage spans, so a change to how
//! blocks are grouped, encoded, priced or ordered moves a row.
//!
//! Regenerate with `GCBFS_BLESS=1` only after an intentional model
//! change.

use gpu_cluster_bfs::compress::{CompressionMode, FrontierCodec, MaskCodec};
use gpu_cluster_bfs::obs::jsonl::export_jsonl;
use gpu_cluster_bfs::obs::ObservabilityConfig;
use gpu_cluster_bfs::prelude::*;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/exchange_ledger.txt");

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn row(graph: &EdgeList, source: u64, topo: Topology, config: BfsConfig, name: &str) -> String {
    let config = config.with_observability(ObservabilityConfig::Full);
    let dist = DistributedGraph::build(graph, topo, &config).unwrap();
    let r = dist.run(source, &config).unwrap();
    let c = r.stats.codec_totals();
    format!(
        "{name} steps={} remote_bytes={} saved={} codecs={},{},{}/{},{},{} modeled={:016x} \
         depths={:016x} trace={:016x}",
        r.iterations(),
        r.stats.total_remote_bytes(),
        r.stats.total_bytes_saved(),
        c.raw32,
        c.varint_delta,
        c.bitmap,
        c.raw_mask,
        c.rle_mask,
        c.sparse_index,
        r.modeled_seconds().to_bits(),
        fnv1a(r.depths.iter().flat_map(|d| d.to_le_bytes())),
        fnv1a(export_jsonl(r.observed.as_ref().unwrap()).into_bytes()),
    )
}

fn ledger() -> String {
    let graph = RmatConfig::graph500(10).generate();
    let source = graph.out_degrees().iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0 as u64;
    let modes = [
        ("off", CompressionMode::Off),
        ("adaptive", CompressionMode::Adaptive),
        (
            "varint+sparse",
            CompressionMode::Fixed(FrontierCodec::VarintDelta, MaskCodec::SparseIndex),
        ),
        ("bitmap+rle", CompressionMode::Fixed(FrontierCodec::Bitmap, MaskCodec::RleMask)),
    ];
    let mut out = String::new();
    for (ranks, gpus) in [(2, 2), (4, 2)] {
        for (label, mode) in modes {
            for lu in [false, true] {
                let config = BfsConfig::new(32)
                    .with_compression(mode)
                    .with_local_all2all(lu)
                    .with_uniquify(lu);
                let name = format!("{ranks}x{gpus} {label} {}", if lu { "L+U" } else { "plain" });
                writeln!(out, "{}", row(&graph, source, Topology::new(ranks, gpus), config, &name))
                    .unwrap();
            }
        }
    }
    let overlap = BfsConfig::new(32)
        .with_compression(CompressionMode::Adaptive)
        .with_local_all2all(true)
        .with_uniquify(true)
        .with_overlap(true);
    writeln!(out, "{}", row(&graph, source, Topology::new(4, 2), overlap, "4x2 adaptive L+U+O"))
        .unwrap();
    out
}

#[test]
fn exchange_ledger_matches_the_committed_fixture() {
    let got = ledger();
    if std::env::var("GCBFS_BLESS").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/exchange_ledger.txt");
        std::fs::write(path, &got).unwrap();
        return;
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "ledger row count drifted");
    for (g, want) in got.lines().zip(GOLDEN.lines()) {
        assert_eq!(g, want, "exchange ledger row drifted");
    }
}
