//! Differential test oracle for incremental BFS on evolving graphs.
//!
//! Every batch of mutations is followed by three independent checks:
//!
//! 1. the repaired depths must equal a **from-scratch recompute**
//!    through the distributed driver, bit-exactly;
//! 2. the repaired parents must form a valid BFS tree of the mutated
//!    graph under the sequential reference validator;
//! 3. the distributed Graph500-style validator
//!    (`validate_distributed`) must accept the repaired depths — a
//!    second, structurally independent oracle.
//!
//! On top of the differential checks: proptest fuzzing over random
//! graphs/batches, a deterministic RMAT matrix over the ISSUE's
//! scale/width grid (heavy cells `#[ignore]`d; CI runs them in
//! release), adversarial deletion patterns, and the metamorphic
//! batch-split law (batch-by-batch ≡ merged batch).

use gpu_cluster_bfs::graph::reference::{bfs_depths, validate_parents};
use gpu_cluster_bfs::graph::{builders, EdgeList};
use gpu_cluster_bfs::prelude::*;
use proptest::prelude::*;

/// Widths from the ISSUE matrix: total GPUs → (prank, pgpu).
fn width(gpus: u32) -> Topology {
    match gpus {
        1 => Topology::new(1, 1),
        2 => Topology::new(1, 2),
        4 => Topology::new(2, 2),
        8 => Topology::new(4, 2),
        other => panic!("unexpected width {other}"),
    }
}

/// The full oracle: reference depths, reference parents validity,
/// bit-exact distributed recompute, and the distributed validator.
fn assert_oracle(ev: &EvolvingGraph, topo: Topology, cfg: &BfsConfig) {
    let source = ev.source().expect("initial_run ran");
    let list = ev.current_edge_list();
    let csr = Csr::from_edge_list(&list);
    assert_eq!(
        ev.depths(),
        &bfs_depths(&csr, source)[..],
        "repaired depths diverge from the sequential reference"
    );
    validate_parents(&csr, source, ev.depths(), ev.parents())
        .expect("repaired parents must form a valid BFS tree of the mutated graph");
    let dist = DistributedGraph::build(&list, topo, cfg).expect("rebuild");
    let fresh = dist.run_with_parents(source, cfg).expect("recompute");
    assert_eq!(
        ev.depths(),
        &fresh.depths[..],
        "repaired depths diverge from the distributed recompute"
    );
    let v = dist.validate_distributed(source, ev.depths(), &cfg.cost);
    assert!(v.is_ok(), "distributed validator rejected repaired depths: {:?}", v.errors);
}

/// Strategy: a random symmetric graph with `2..=max_n` vertices.
fn symmetric_graph(max_n: u64, max_edges: usize) -> impl Strategy<Value = EdgeList> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_edges).prop_map(move |edges| {
            let mut g = EdgeList::new(n, edges.into_iter().filter(|(u, v)| u != v).collect());
            g.symmetrize();
            g
        })
    })
}

/// Strategy: a mutation batch of undirected adds/deletes over `n` ids.
fn batch(n: u64, max_ops: usize) -> impl Strategy<Value = MutationBatch> {
    proptest::collection::vec((any::<bool>(), 0..n, 0..n), 0..max_ops).prop_map(|ops| {
        let mut b = MutationBatch::new();
        for (add, u, v) in ops {
            if u == v {
                continue;
            }
            if add {
                b.add_undirected(u, v);
            } else {
                b.delete_undirected(u, v);
            }
        }
        b
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The differential oracle holds after every random batch, across
    /// random graphs, topologies, and thresholds. Deletes of absent
    /// edges are included on purpose: they must be skipped, not crash.
    #[test]
    fn random_batches_stay_bit_exact(
        graph in symmetric_graph(60, 120),
        batches in proptest::collection::vec((any::<bool>(), 0u64..60, 0u64..60), 0..40),
        prank in 1u32..4,
        pgpu in 1u32..3,
        th in 0u64..12,
        source_sel in 0u64..1000,
    ) {
        let n = graph.num_vertices;
        let topo = Topology::new(prank, pgpu);
        let cfg = BfsConfig::new(th);
        let mut ev = EvolvingGraph::new(&graph, topo, &cfg);
        ev.initial_run(source_sel % n).unwrap();
        // Split the op stream into two batches to exercise batch
        // boundaries as well as intra-batch interactions.
        for chunk in batches.chunks(20) {
            let mut b = MutationBatch::new();
            for &(add, u, v) in chunk {
                let (u, v) = (u % n, v % n);
                if u == v {
                    continue;
                }
                if add {
                    b.add_undirected(u, v);
                } else {
                    b.delete_undirected(u, v);
                }
            }
            ev.apply_batch(&b);
            assert_oracle(&ev, topo, &cfg);
        }
    }

    /// Metamorphic law: applying a log batch-by-batch and applying its
    /// merged concatenation reach identical final depths (and both keep
    /// valid parents; parent *identity* is not a law, because a vertex
    /// whose depth never changes keeps the parent chosen when it was
    /// last settled, and ties between equal-depth parents are broken by
    /// the graph state at that moment).
    #[test]
    fn split_vs_merged_batches_agree(
        input in symmetric_graph(50, 100).prop_flat_map(|g| {
            let n = g.num_vertices;
            (Just(g), batch(n, 16), batch(n, 16), batch(n, 16))
        }),
    ) {
        let (graph, b1, b2, b3) = input;
        let topo = Topology::new(2, 2);
        let cfg = BfsConfig::new(4);
        let source = 0;

        let mut split = EvolvingGraph::new(&graph, topo, &cfg);
        split.initial_run(source).unwrap();
        for b in [&b1, &b2, &b3] {
            split.apply_batch(b);
        }

        let mut merged_batch = MutationBatch::new();
        for b in [&b1, &b2, &b3] {
            merged_batch.merge(b);
        }
        let mut merged = EvolvingGraph::new(&graph, topo, &cfg);
        merged.initial_run(source).unwrap();
        merged.apply_batch(&merged_batch);

        prop_assert_eq!(split.depths(), merged.depths());
        prop_assert_eq!(split.num_edges(), merged.num_edges());
        assert_oracle(&split, topo, &cfg);
        assert_oracle(&merged, topo, &cfg);
    }
}

/// One deterministic RMAT cell of the ISSUE matrix: `batches` seeded
/// batches of `ops` undirected mutations at the given scale and width,
/// oracle-checked after every batch.
fn rmat_cell(scale: u32, gpus: u32, batches: usize, ops: usize, locality: f64) {
    let graph = RmatConfig::graph500(scale).generate();
    let topo = width(gpus);
    let cfg = BfsConfig::new(BfsConfig::suggested_rmat_threshold(scale));
    let source = graph.out_degrees().iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0 as u64;
    let mut ev = EvolvingGraph::new(&graph, topo, &cfg);
    ev.initial_run(source).unwrap();
    let log =
        MutationLog::random(0x1ea5e ^ u64::from(scale * 8 + gpus), &graph, batches, ops, locality);
    for b in &log.batches {
        ev.apply_batch(b);
        assert_oracle(&ev, topo, &cfg);
    }
}

#[test]
fn rmat_scale14_width1() {
    rmat_cell(14, 1, 2, 48, 0.0);
}

#[test]
fn rmat_scale14_width2() {
    rmat_cell(14, 2, 2, 48, 0.9);
}

#[test]
fn rmat_scale15_width4() {
    rmat_cell(15, 4, 2, 64, 0.5);
}

#[test]
fn rmat_scale16_width8() {
    rmat_cell(16, 8, 1, 96, 0.0);
}

// Heavy cells of the matrix — run by CI in release via `-- --ignored`.

#[test]
#[ignore = "heavy: run in release (cargo test --release --test incremental -- --ignored)"]
fn rmat_scale17_width8() {
    rmat_cell(17, 8, 3, 256, 0.5);
}

#[test]
#[ignore = "heavy: run in release (cargo test --release --test incremental -- --ignored)"]
fn rmat_scale18_width4() {
    rmat_cell(18, 4, 3, 256, 0.9);
}

// ---- Adversarial deterministic cases. ----

/// Deleting a tree edge on the deepest path of a path graph orphans
/// the whole tail; phase 1 must invalidate it and phase 2 must leave
/// it unreached (no other route exists).
#[test]
fn delete_deepest_tree_edge_on_a_path() {
    let graph = builders::path(64);
    let topo = Topology::new(2, 2);
    let cfg = BfsConfig::new(2);
    let mut ev = EvolvingGraph::new(&graph, topo, &cfg);
    ev.initial_run(0).unwrap();
    let mut b = MutationBatch::new();
    b.delete_undirected(40, 41);
    let r = ev.apply_batch(&b);
    assert_eq!(r.invalidated, 23, "vertices 41..=63 must be orphaned");
    assert_eq!(r.resettled, 0, "no alternative route exists on a path");
    assert_oracle(&ev, topo, &cfg);
    assert!(ev.depths()[41..].iter().all(|&d| d == u32::MAX));
}

/// Deleting the bridge of a double star disconnects a whole component.
#[test]
fn disconnect_a_component_via_bridge_delete() {
    // Two hubs (0, 1) joined only by a bridge, each with 12 leaves.
    // (Not `builders::double_star`: that one adds leaf-leaf cross
    // edges, so its bridge delete would not disconnect anything.)
    let mut edges = vec![(0, 1)];
    for i in 0..12u64 {
        edges.push((0, 2 + i));
        edges.push((1, 14 + i));
    }
    let mut graph = EdgeList::new(26, edges);
    graph.symmetrize();
    let topo = Topology::new(2, 1);
    let cfg = BfsConfig::new(4);
    let mut ev = EvolvingGraph::new(&graph, topo, &cfg);
    ev.initial_run(0).unwrap();
    let before_reached = ev.depths().iter().filter(|&&d| d != u32::MAX).count();
    let mut b = MutationBatch::new();
    b.delete_undirected(0, 1);
    ev.apply_batch(&b);
    assert_oracle(&ev, topo, &cfg);
    let after_reached = ev.depths().iter().filter(|&&d| d != u32::MAX).count();
    assert!(
        after_reached < before_reached,
        "the far star must be unreachable after the bridge delete"
    );
}

/// Delete-then-re-add of the same edge within one batch must be a net
/// no-op on the depths (and must not let a phantom edge seed repair).
#[test]
fn delete_then_readd_same_edge_in_one_batch() {
    let graph = builders::grid(8, 8);
    let topo = Topology::new(2, 2);
    let cfg = BfsConfig::new(3);
    let mut ev = EvolvingGraph::new(&graph, topo, &cfg);
    ev.initial_run(0).unwrap();
    let before = ev.depths().to_vec();
    let mut b = MutationBatch::new();
    b.delete_undirected(9, 10);
    b.add_undirected(9, 10);
    // And the reverse order for another edge: add-then-delete.
    b.add_undirected(0, 63);
    b.delete_undirected(0, 63);
    ev.apply_batch(&b);
    assert_oracle(&ev, topo, &cfg);
    assert_eq!(ev.depths(), &before[..], "net-no-op batch must leave depths unchanged");
}

/// A star hub crossing `TH` in both directions is reclassified
/// (promotion on the way up, demotion on the way down) and the answer
/// stays exact through both crossings.
#[test]
fn degree_crossing_th_both_directions() {
    let graph = builders::star(6);
    let topo = Topology::new(2, 2);
    let cfg = BfsConfig::new(8); // hub degree 6 < TH: everyone starts normal
    let mut ev = EvolvingGraph::new(&graph, topo, &cfg);
    ev.initial_run(0).unwrap();
    assert_eq!(ev.num_delegates(), 0);

    // Push the hub's degree past TH: it must be promoted.
    let mut up = MutationBatch::new();
    for leaf in 1..=4 {
        up.add_undirected(0, leaf); // parallel edges: degree 6 → 14
    }
    let r = ev.apply_batch(&up);
    assert_eq!(r.promotions, 1, "hub must cross TH upward");
    assert!(ev.is_delegate(0));
    assert_oracle(&ev, topo, &cfg);

    // Now delete them again: the hub must be demoted.
    let mut down = MutationBatch::new();
    for leaf in 1..=4 {
        down.delete_undirected(0, leaf);
    }
    let r = ev.apply_batch(&down);
    assert_eq!(r.demotions, 1, "hub must cross TH downward");
    assert!(!ev.is_delegate(0));
    assert_eq!(ev.num_delegates(), 0);
    assert_oracle(&ev, topo, &cfg);
}

/// An empty batch is a *charged* no-op: it costs a (tiny) apply pass
/// but runs zero repair waves and changes nothing.
#[test]
fn empty_batch_is_charged_but_runs_no_waves() {
    let graph = builders::cycle(32);
    let topo = Topology::new(2, 2);
    let cfg = BfsConfig::new(2);
    let mut ev = EvolvingGraph::new(&graph, topo, &cfg);
    ev.initial_run(0).unwrap();
    let before = ev.depths().to_vec();
    let r = ev.apply_batch(&MutationBatch::new());
    assert_eq!(r.waves, 0, "an empty batch must run zero repair waves");
    assert!(r.modeled_seconds() > 0.0, "the apply pass is charged, not free");
    assert_eq!(r.apply_seconds, r.modeled_seconds(), "only the apply pass is charged");
    assert_eq!(ev.depths(), &before[..]);
    assert_oracle(&ev, topo, &cfg);
}

/// With observability on, every repair wave emits its iteration spans
/// and the PR 4 accounting invariant holds bitwise with mutations on.
#[test]
fn repair_waves_emit_spans_and_balance_bitwise() {
    let graph = RmatConfig::graph500(9).generate();
    let topo = Topology::new(2, 2);
    let cfg = BfsConfig::new(BfsConfig::suggested_rmat_threshold(9))
        .with_observability(gpu_cluster_bfs::obs::ObservabilityConfig::Full);
    let mut ev = EvolvingGraph::new(&graph, topo, &cfg);
    ev.initial_run(0).unwrap();
    let log = MutationLog::random(11, &graph, 3, 32, 0.5);
    for b in &log.batches {
        let r = ev.apply_batch(b);
        let trace = r.observed.as_ref().expect("observability on");
        assert_eq!(trace.iterations.len() as u32, r.waves, "one span group per repair wave");
        assert_eq!(
            trace.critical_path().total_seconds().to_bits(),
            r.stats.modeled_elapsed().to_bits(),
            "trace critical path must equal modeled elapsed bitwise"
        );
        assert_eq!(
            r.stats.critical_path().total_seconds().to_bits(),
            r.stats.modeled_elapsed().to_bits(),
            "records critical path must equal modeled elapsed bitwise"
        );
    }
    assert_oracle(&ev, topo, &cfg);
}
