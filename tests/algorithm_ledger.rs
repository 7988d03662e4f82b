//! Golden ledger for the value-carrying algorithms: MS-BFS (and its
//! sharing factor), SSSP, connected components, PageRank, betweenness
//! and async BFS.
//!
//! `tests/determinism.rs` pins these across pool widths within one
//! build; nothing pinned their *modeled* numbers across commits. The
//! fixture records, per graph × grid × threshold cell and per entry
//! point, the step count, edges, remote bytes, the bits of
//! `modeled_seconds` and of the four phase totals, MS-BFS's per-level
//! seconds and per-source termination levels, and an FNV-1a hash of the
//! result vector's bits — so any refactor of the superstep loops must
//! reproduce every field exactly. Betweenness scores are the one
//! exception: they are compared to the stored scores within 1e-12
//! relative (a sum may be re-associated), never by hash.
//!
//! Regenerate with `GCBFS_BLESS=1` only after an intentional model
//! change.

use gpu_cluster_bfs::core::msbfs::batch_sharing_factor;
use gpu_cluster_bfs::core::sssp::DistributedSssp;
use gpu_cluster_bfs::graph::weighted::Weights;
use gpu_cluster_bfs::obs::PhaseTimes;
use gpu_cluster_bfs::prelude::*;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/algorithm_ledger.txt");
/// The cell whose betweenness scores the fixture stores in full.
const SCORES_CELL: &str = "rmat9_2x2_th8";

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn bits_list(values: &[f64]) -> String {
    values.iter().map(|v| format!("{:016x}", v.to_bits())).collect::<Vec<_>>().join(",")
}

/// The fields every result type shares.
fn common(steps: u32, edges: u64, remote_bytes: u64, modeled: f64, ph: &PhaseTimes) -> String {
    format!(
        "steps={steps} edges={edges} remote_bytes={remote_bytes} modeled={:016x} \
         phases={:016x},{:016x},{:016x},{:016x}",
        modeled.to_bits(),
        ph.computation.to_bits(),
        ph.local_comm.to_bits(),
        ph.remote_normal.to_bits(),
        ph.remote_delegate.to_bits(),
    )
}

fn cell_lines(name: &str, graph: &EdgeList, topo: Topology, th: u64, out: &mut String) {
    let config = BfsConfig::new(th).with_direction_optimization(false);
    let dist = DistributedGraph::build(graph, topo, &config).unwrap();
    let degrees = graph.out_degrees();
    let sources: Vec<u64> =
        (0..graph.num_vertices).filter(|&v| degrees[v as usize] > 0).take(8).collect();
    let hub = graph.hub().unwrap();

    let ms = dist.run_multi_source(&sources, &config).unwrap();
    let separate: Vec<BfsResult> = sources.iter().map(|&s| dist.run(s, &config).unwrap()).collect();
    writeln!(
        out,
        "{name} msbfs {} hash={:016x} sharing={:016x} source_iterations={:?} level_seconds={}",
        common(ms.iterations, ms.edges_examined, ms.remote_bytes, ms.modeled_seconds, &ms.phases),
        fnv1a(ms.depths.iter().flatten().map(|&d| d as u64)),
        batch_sharing_factor(&ms, &separate).to_bits(),
        ms.source_iterations,
        bits_list(&ms.level_seconds),
    )
    .unwrap();

    let weights = Weights::new(12, 5).unwrap();
    let wdist = DistributedSssp::weighted(graph, weights, topo, &config).unwrap();
    for (tag, s) in [("first", sources[0]), ("hub", hub)] {
        let r = wdist.run(s, &config).unwrap();
        writeln!(
            out,
            "{name} sssp/{tag} {} hash={:016x}",
            common(r.rounds, r.edges_relaxed, r.remote_bytes, r.modeled_seconds, &r.phases),
            fnv1a(r.distances.iter().copied()),
        )
        .unwrap();
        let a = dist.run_async(s, &config).unwrap();
        writeln!(
            out,
            "{name} async/{tag} {} hash={:016x}",
            common(a.waves, a.edges_examined, a.remote_bytes, a.modeled_seconds, &a.phases),
            fnv1a(a.depths.iter().map(|&d| d as u64)),
        )
        .unwrap();
    }

    let cc = dist.connected_components(&config);
    writeln!(
        out,
        "{name} components {} hash={:016x}",
        common(cc.sweeps, cc.edges_examined, cc.remote_bytes, cc.modeled_seconds, &cc.phases),
        fnv1a(cc.labels.iter().copied()),
    )
    .unwrap();

    let pr_config = PageRankConfig { max_iterations: 12, tolerance: 1e-12, ..Default::default() };
    let pr = dist.pagerank(&pr_config);
    writeln!(
        out,
        "{name} pagerank {} delta={:016x} hash={:016x}",
        common(pr.iterations, 0, pr.remote_bytes, pr.modeled_seconds, &pr.phases),
        pr.delta.to_bits(),
        fnv1a(pr.scores.iter().map(|s| s.to_bits())),
    )
    .unwrap();

    let bc = dist.betweenness(&sources[..4], &config).unwrap();
    write!(
        out,
        "{name} betweenness {}",
        common(bc.levels, bc.edges_examined, bc.remote_bytes, bc.modeled_seconds, &bc.phases),
    )
    .unwrap();
    if name == SCORES_CELL {
        write!(out, " scores={}", bits_list(&bc.scores)).unwrap();
    }
    out.push('\n');
}

fn ledger() -> String {
    let rmat9 = RmatConfig::graph500(9).generate();
    let rmat8 = RmatConfig::graph500(8).generate();
    let web = WebGraphConfig::wdc_like(8).generate();
    let mut out = String::new();
    cell_lines(SCORES_CELL, &rmat9, Topology::new(2, 2), 8, &mut out);
    cell_lines("wdc8_3x1_th32", &web, Topology::new(3, 1), 32, &mut out);
    // No delegates at all, then nothing but delegates.
    cell_lines("rmat8_2x2_thmax", &rmat8, Topology::new(2, 2), u64::MAX, &mut out);
    cell_lines("rmat8_2x2_th0", &rmat8, Topology::new(2, 2), 0, &mut out);
    // A single rank: pins PageRank's intra-node p2p pricing.
    cell_lines("rmat9_1x4_th8", &rmat9, Topology::new(1, 4), 8, &mut out);
    out
}

/// Splits a betweenness line into its exact fields and its scores.
fn split_scores(line: &str) -> (&str, Option<Vec<f64>>) {
    match line.split_once(" scores=") {
        Some((head, list)) => {
            let scores = list
                .split(',')
                .map(|h| f64::from_bits(u64::from_str_radix(h, 16).expect("hex score")))
                .collect();
            (head, Some(scores))
        }
        None => (line, None),
    }
}

#[test]
fn modeled_ledger_matches_the_committed_fixture() {
    let got = ledger();
    if std::env::var("GCBFS_BLESS").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/algorithm_ledger.txt");
        std::fs::write(path, &got).unwrap();
        return;
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "ledger row count drifted");
    for (g, want) in got.lines().zip(GOLDEN.lines()) {
        let (g_head, g_scores) = split_scores(g);
        let (w_head, w_scores) = split_scores(want);
        assert_eq!(g_head, w_head, "ledger row drifted");
        if let (Some(gs), Some(ws)) = (g_scores, w_scores) {
            assert_eq!(gs.len(), ws.len());
            for (v, (a, b)) in gs.iter().zip(&ws).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-12 * b.abs(),
                    "betweenness score of vertex {v} moved beyond re-association: {a} vs {b}"
                );
            }
        }
    }
}
