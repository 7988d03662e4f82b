//! Cross-backend differential suite: the multi-process runtime must be
//! bit-exact with the deterministic simulator — depths AND parents —
//! because the kernels, value pipeline, and end-of-run assembly are
//! shared code and the wire protocol replicates the sim's delivery
//! order. Any divergence is a protocol bug, not an accuracy tradeoff.
//!
//! Worker processes are the `gcbfs` binary's hidden `backend-worker`
//! subcommand, spawned via `CARGO_BIN_EXE_gcbfs`. One backend keeps its
//! pool between runs; the pool cells check that it serves many sources
//! bit-exact, respawns exactly when a run needs another key, survives a
//! kill and an idle spell, and fails at once when a worker exits before
//! its `Hello`. The small scales run
//! in every `cargo test`; the RMAT 14–16 matrix and the long chaos runs
//! are `#[ignore]`d and driven by the CI `backend-acceptance` job. The
//! in-process cells at the bottom spawn nothing: the coordinator's own
//! `Round` drives the worker round every process runs (`WorkerRound`)
//! through a link in this file, every message through the frame codec.
//! They check the sharing over one worker and over two, a checkpoint
//! saved, resumed and replayed, a death of each slot at each superstep on
//! every delivery schedule (and the sim's fail-stop of the same GPUs,
//! which must resume from the same superstep), hostile `Begin` bodies,
//! `StepRemote`s and deltas, and 32 seeded delivery schedules.

use gpu_cluster_bfs::cluster::fault::{FaultError, FaultPlan};
use gpu_cluster_bfs::compress::{CompressionMode, Frame};
use gpu_cluster_bfs::core::backend::{Backend, BackendError, BackendRun, ProcBackend, SimBackend};
use gpu_cluster_bfs::core::checkpoint::{GpuStateImage, Level, StateDelta};
use gpu_cluster_bfs::core::comm::Block;
use gpu_cluster_bfs::core::driver::RunError;
use gpu_cluster_bfs::core::procrt::protocol::{
    frame_iter, kind, Exchange, Msg, ProtocolError, Stats,
};
use gpu_cluster_bfs::core::procrt::round::{Death, Heard, Link, ProcOutcome, Round};
use gpu_cluster_bfs::core::procrt::worker::WorkerRound;
use gpu_cluster_bfs::core::procrt::{
    hosted_flats, KillSpec, ProcError, ProcOptions, RecoveryMode, WorkerCommand,
};
use gpu_cluster_bfs::core::recovery::RecoveryConfig;
use gpu_cluster_bfs::core::superstep::HostedGroup;
use gpu_cluster_bfs::core::UNREACHED;
use gpu_cluster_bfs::graph::builders;
use gpu_cluster_bfs::graph::permute::splitmix64;
use gpu_cluster_bfs::obs::{Channel, FaultKind, MessageKind, ObservabilityConfig, TraceLog};
use gpu_cluster_bfs::prelude::*;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn worker_cmd() -> WorkerCommand {
    WorkerCommand::new(env!("CARGO_BIN_EXE_gcbfs"), vec!["backend-worker".to_string()])
}

fn proc_opts(procs: u32) -> ProcOptions {
    ProcOptions { workers: procs, ..ProcOptions::default() }
}

/// Runs both backends and asserts bit-exact agreement on depths and
/// parents. Returns the proc run for telemetry assertions.
fn assert_backends_agree(
    graph: &EdgeList,
    topo: Topology,
    source: u64,
    config: &BfsConfig,
    opts: ProcOptions,
) -> BackendRun {
    let sim = SimBackend
        .run(graph, topo, source, config, true)
        .unwrap_or_else(|e| panic!("sim backend: {e}"));
    let proc = ProcBackend::new(worker_cmd(), opts)
        .run(graph, topo, source, config, true)
        .unwrap_or_else(|e| panic!("proc backend: {e}"));
    assert_eq!(sim.depths, proc.depths, "depths diverge across backends");
    assert_eq!(sim.parents, proc.parents, "parents diverge across backends");
    let report = proc.proc.as_ref().expect("proc run carries its report");
    assert_eq!(report.iterations, sim.sim.as_ref().unwrap().iterations(), "iteration counts");
    assert!(report.wire_bytes > 0, "a real run moves real bytes");
    proc
}

#[test]
fn cycle_structured_graph_single_worker() {
    let graph = builders::cycle(64);
    let run =
        assert_backends_agree(&graph, Topology::new(2, 2), 0, &BfsConfig::new(8), proc_opts(1));
    assert!(run.proc.unwrap().recovery.is_none());
}

#[test]
fn grid_graph_two_workers() {
    let graph = builders::grid(12, 12);
    assert_backends_agree(&graph, Topology::new(2, 2), 0, &BfsConfig::new(6), proc_opts(2));
}

#[test]
fn double_star_delegate_heavy_two_workers() {
    // Two high-degree hubs force the delegate mask path to carry real
    // traffic in both directions.
    let graph = builders::double_star(96);
    assert_backends_agree(&graph, Topology::new(2, 2), 0, &BfsConfig::new(16), proc_opts(2));
}

#[test]
fn rmat_scale9_procs_1_and_2() {
    let graph = RmatConfig::graph500(9).generate();
    let config = BfsConfig::new(16);
    for procs in [1, 2] {
        assert_backends_agree(&graph, Topology::new(2, 2), 1, &config, proc_opts(procs));
    }
}

#[test]
fn rmat_scale10_wider_topology() {
    let graph = RmatConfig::graph500(10).generate();
    assert_backends_agree(&graph, Topology::new(4, 2), 2, &BfsConfig::new(32), proc_opts(2));
}

#[test]
fn rmat_scale10_with_adaptive_compression() {
    // Adaptive compression arms the differential mask codec: every worker
    // encodes its ranks' contributions against its visited mask and
    // decodes the relayed ones against the same mask, which every worker
    // holds once a reduction was consumed.
    let graph = RmatConfig::graph500(10).generate();
    let config = BfsConfig::new(16).with_compression(CompressionMode::Adaptive);
    assert_backends_agree(&graph, Topology::new(2, 2), 3, &config, proc_opts(2));
}

#[test]
fn no_direction_optimization_agrees() {
    let graph = RmatConfig::graph500(9).generate();
    let config = BfsConfig::new(16).with_direction_optimization(false);
    assert_backends_agree(&graph, Topology::new(2, 2), 1, &config, proc_opts(2));
}

#[test]
fn a_worker_that_exits_before_hello_fails_the_spawn_at_once() {
    // The pool's appended `--socket PATH --worker N` become the shell's
    // positional arguments, which `exit 3` ignores.
    let cmd = WorkerCommand::new("sh", vec!["-c".to_string(), "exit 3".to_string()]);
    let start = Instant::now();
    let err = ProcBackend::new(cmd, ProcOptions::default())
        .run(&builders::cycle(16), Topology::new(2, 1), 0, &BfsConfig::new(8), false)
        .unwrap_err();
    let elapsed = start.elapsed();
    match &err {
        BackendError::Proc(ProcError::Spawn(detail)) => {
            assert!(detail.contains("exit status: 3"), "{err}")
        }
        other => panic!("expected Spawn, got {other}"),
    }
    assert!(elapsed < Duration::from_secs(5), "the spawn failed after {elapsed:?}");
}

// ---------------------------------------------------------------------------
// The pool: one backend keeps its workers between runs, and respawns only
// when a run needs something they do not hold.
// ---------------------------------------------------------------------------

/// `count` sources with at least one edge, spread over the id range.
fn spread_sources(graph: &EdgeList, count: usize) -> Vec<u64> {
    let degrees = graph.out_degrees();
    let picked: Vec<u64> = (0..graph.num_vertices)
        .filter(|&v| degrees[v as usize] > 0)
        .step_by(97)
        .take(count)
        .collect();
    assert_eq!(picked.len(), count, "the graph has enough connected vertices");
    picked
}

/// Asserts a proc run equals the sim's on depths, parents and supersteps.
fn assert_matches_sim(run: &BackendRun, sim: &BackendRun, cell: &str) {
    assert_eq!(run.depths, sim.depths, "depths, {cell}");
    assert_eq!(run.parents, sim.parents, "parents, {cell}");
    let iterations = sim.sim.as_ref().expect("sim result").iterations();
    assert_eq!(run.proc.as_ref().expect("proc report").iterations, iterations, "{cell}");
}

#[test]
fn one_pool_serves_many_sources_bit_exact() {
    let graph = RmatConfig::graph500(10).generate();
    let topo = Topology::new(2, 2);
    let sources = spread_sources(&graph, 8);
    for mode in [CompressionMode::Off, CompressionMode::Adaptive] {
        let config = BfsConfig::new(16).with_compression(mode);
        let sims: Vec<BackendRun> = sources
            .iter()
            .map(|&s| SimBackend.run(&graph, topo, s, &config, true).unwrap())
            .collect();
        let backend = ProcBackend::new(worker_cmd(), proc_opts(2));
        let mut cold_wire = 0;
        for round in 0..2 {
            for (k, (&source, sim)) in sources.iter().zip(&sims).enumerate() {
                let cell = format!("{mode}, round {round}, source {source}");
                let run = backend
                    .run(&graph, topo, source, &config, true)
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));
                assert_matches_sim(&run, sim, &cell);
                let report = run.proc.unwrap();
                assert_eq!(report.workers, 2, "{cell}");
                if round == 0 && k == 0 {
                    assert_eq!(report.spawned, 2, "the first run spawns the pool, {cell}");
                    cold_wire = report.wire_bytes;
                } else {
                    assert_eq!(report.spawned, 0, "the pool serves {cell}");
                    assert!(
                        report.wire_bytes * 10 < cold_wire,
                        "{cell}: {} wire bytes vs {cold_wire} on the cold run",
                        report.wire_bytes
                    );
                }
            }
        }
    }
}

#[test]
fn pool_traffic_is_pinned_frame_for_frame() {
    // Every frame's size and count is a function of the graph, the
    // topology and the config: no traffic depends on timing.
    // (compression, parents, run) -> (wire bytes, state bytes, frames
    // sent, frames received). The state bytes are the `StepDone` frames
    // that carry a save and the `FinalState` frames (per worker, one save
    // entering superstep 4 and one final state); CHANGES.md derives the
    // table from frame sizes.
    let pinned = [
        (CompressionMode::Off, true, "cold", (1065555, 16659, 26, 26)),
        (CompressionMode::Off, true, "warm", (21221, 16659, 24, 24)),
        (CompressionMode::Off, false, "cold", (1050415, 1519, 26, 26)),
        (CompressionMode::Off, false, "warm", (6081, 1519, 24, 24)),
        (CompressionMode::Adaptive, true, "cold", (1065681, 16659, 26, 26)),
        (CompressionMode::Adaptive, true, "warm", (21347, 16659, 24, 24)),
        (CompressionMode::Adaptive, false, "cold", (1050541, 1519, 26, 26)),
        (CompressionMode::Adaptive, false, "warm", (6207, 1519, 24, 24)),
    ];
    let graph = RmatConfig::graph500(10).generate();
    let topo = Topology::new(4, 2);
    let backend = ProcBackend::new(worker_cmd(), proc_opts(2));
    for (mode, parents, run, want) in pinned {
        let config = BfsConfig::new(16).with_compression(mode);
        let cell = format!("{mode}, parents {parents}, {run}");
        let report = backend
            .run(&graph, topo, 2, &config, parents)
            .unwrap_or_else(|e| panic!("{cell}: {e}"))
            .proc
            .expect("proc report");
        assert_eq!(report.spawned > 0, run == "cold", "{cell}");
        let got =
            (report.wire_bytes, report.state_bytes, report.frames_sent, report.frames_received);
        assert_eq!(got, want, "{cell}");
    }
}

#[test]
fn a_pool_respawns_for_another_graph_topology_threshold_or_parent_tracking() {
    let graph = RmatConfig::graph500(9).generate();
    // Same length, one endpoint different.
    let mut other = graph.clone();
    let last = other.edges.len() - 1;
    other.edges[last].1 = (other.edges[last].1 + 1) % other.num_vertices;
    let wide = Topology::new(4, 1);
    // (what changed, graph, topology, source, TH, parents, respawns)
    let cells = [
        ("first run", &graph, Topology::new(2, 2), 1, 16, true, true),
        ("source", &graph, Topology::new(2, 2), 2, 16, true, false),
        ("one edge", &other, Topology::new(2, 2), 2, 16, true, true),
        ("topology", &other, wide, 2, 16, true, true),
        ("spares", &other, wide.with_spares(1), 2, 16, true, true),
        ("threshold", &other, wide.with_spares(1), 2, 8, true, true),
        ("parent tracking", &other, wide.with_spares(1), 2, 8, false, true),
        ("source again", &other, wide.with_spares(1), 5, 8, false, false),
    ];
    let backend = ProcBackend::new(worker_cmd(), proc_opts(2));
    for (what, g, topo, source, th, parents, respawns) in cells {
        let config = BfsConfig::new(th);
        let sim = SimBackend.run(g, topo, source, &config, parents).unwrap();
        let run = backend
            .run(g, topo, source, &config, parents)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_matches_sim(&run, &sim, what);
        let spawned = run.proc.unwrap().spawned;
        assert_eq!(spawned > 0, respawns, "{what}: {spawned} spawned");
    }
}

#[test]
fn a_spare_recovered_pool_stays_warm_and_a_spread_one_respawns() {
    let graph = RmatConfig::graph500(10).generate();
    let config = kill_config(16);
    for (spares, mode) in [(1, RecoveryMode::Spare), (0, RecoveryMode::Spread)] {
        let topo = Topology::new(2, 2).with_spares(spares);
        let sim = SimBackend.run(&graph, topo, 1, &config, true).unwrap();
        let mut backend = ProcBackend::new(worker_cmd(), proc_opts(2));
        let run = |backend: &ProcBackend, cell: &str| {
            let cell = format!("{cell}, {mode:?}");
            let run = backend.run(&graph, topo, 1, &config, true).unwrap_or_else(|e| panic!("{e}"));
            assert_matches_sim(&run, &sim, &cell);
            run.proc.unwrap()
        };
        assert_eq!(run(&backend, "warm-up").spawned, 2);
        // The kill is per run: the warm pool serves the killed run.
        backend.opts.kill = Some(KillSpec { worker: 1, iter: 1 });
        let killed = run(&backend, "killed");
        let rec = killed.recovery.expect("a SIGKILL'd pooled worker must be recovered");
        assert_eq!((rec.worker, rec.mode), (1, mode));
        assert_eq!(killed.spawned, spares, "only a spare is new");
        // A spare refilled the pool, which stays warm; spreading left a
        // slot empty, so the next run respawns the pool.
        backend.opts.kill = None;
        let after = run(&backend, "after recovery");
        assert_eq!(after.spawned, if mode == RecoveryMode::Spare { 0 } else { 2 }, "{mode:?}");
        assert!(after.recovery.is_none());
    }
}

#[test]
fn an_idle_pool_serves_the_next_run_warm_bit_exact_without_recovery() {
    let graph = RmatConfig::graph500(9).generate();
    let topo = Topology::new(2, 2);
    let config = BfsConfig::new(16);
    let sim = SimBackend.run(&graph, topo, 1, &config, true).unwrap();
    let backend = ProcBackend::new(worker_cmd(), proc_opts(2));
    backend.run(&graph, topo, 3, &config, true).unwrap_or_else(|e| panic!("warm-up: {e}"));
    // Idle workers send nothing and wait for nothing but the next frame.
    std::thread::sleep(Duration::from_millis(600));
    let run = backend.run(&graph, topo, 1, &config, true).unwrap_or_else(|e| panic!("{e}"));
    assert_matches_sim(&run, &sim, "after idling");
    let report = run.proc.unwrap();
    assert!(report.recovery.is_none());
    assert_eq!(report.spawned, 0);
}

#[test]
#[ignore = "idles 11 s: run with --release -- --ignored"]
fn an_idle_pool_outlasts_the_traversal_read_deadline() {
    // A traversal reads under max(2 × step_timeout, 10 s); an idle worker
    // waits without a deadline, so a pool idle for longer is still warm.
    let graph = RmatConfig::graph500(9).generate();
    let topo = Topology::new(2, 2);
    let config = BfsConfig::new(16);
    let sim = SimBackend.run(&graph, topo, 1, &config, true).unwrap();
    let opts = ProcOptions { step_timeout: Duration::from_secs(1), ..proc_opts(2) };
    let backend = ProcBackend::new(worker_cmd(), opts);
    backend.run(&graph, topo, 3, &config, true).unwrap_or_else(|e| panic!("warm-up: {e}"));
    std::thread::sleep(Duration::from_secs(11));
    let run = backend.run(&graph, topo, 1, &config, true).unwrap_or_else(|e| panic!("{e}"));
    assert_matches_sim(&run, &sim, "after idling past the read deadline");
    let report = run.proc.unwrap();
    assert_eq!(report.spawned, 0, "the idle workers must still serve");
    assert!(report.recovery.is_none());
}

fn kill_opts(procs: u32, victim: u32, iter: u32) -> ProcOptions {
    ProcOptions {
        workers: procs,
        kill: Some(KillSpec { worker: victim, iter }),
        ..ProcOptions::default()
    }
}

/// Checkpoints every second superstep, so a kill at superstep 1 or 2
/// rolls back across real work.
fn kill_config(threshold: u64) -> BfsConfig {
    BfsConfig::new(threshold).with_recovery(RecoveryConfig::default().with_checkpoint_interval(2))
}

#[test]
fn sigkill_mid_sweep_recovers_onto_spare_bit_exact() {
    let graph = RmatConfig::graph500(10).generate();
    let topo = Topology::new(2, 2).with_spares(1);
    let run = assert_backends_agree(&graph, topo, 1, &kill_config(16), kill_opts(2, 1, 1));
    let report = run.proc.unwrap();
    let rec = report.recovery.expect("a SIGKILL'd worker must be recovered");
    assert_eq!(rec.worker, 1);
    assert_eq!(rec.mode, RecoveryMode::Spare);
    // The death is heard as the victim's connection closes, which the
    // SIGKILL causes at once: nothing is waited out.
    let detect = rec.detect_seconds;
    assert!(detect > 0.0 && detect < 0.1, "the kill was detected after {detect} s");
    assert!(rec.recover_seconds > 0.0);
}

#[test]
fn sigkill_mid_sweep_spreads_onto_survivor_bit_exact() {
    let graph = RmatConfig::graph500(10).generate();
    let run =
        assert_backends_agree(&graph, Topology::new(2, 2), 1, &kill_config(16), kill_opts(2, 0, 1));
    let report = run.proc.unwrap();
    let rec = report.recovery.expect("recovery must run");
    assert_eq!(rec.worker, 0);
    assert_eq!(rec.mode, RecoveryMode::Spread);
}

#[test]
fn sigkill_with_adaptive_compression_resets_the_mask_reference() {
    // The spare starts with no codec reference, so the survivor must drop
    // its own on restore: after the rollback both encode and decode the
    // next reduction without one. The kill lands past the iteration-2
    // checkpoint, whose visited mask is no longer empty.
    let graph = RmatConfig::graph500(10).generate();
    let topo = Topology::new(2, 2).with_spares(1);
    let config = kill_config(16).with_compression(CompressionMode::Adaptive);
    let run = assert_backends_agree(&graph, topo, 1, &config, kill_opts(2, 1, 3));
    let rec = run.proc.unwrap().recovery.expect("a SIGKILL'd worker must be recovered");
    assert_eq!(rec.mode, RecoveryMode::Spare);
    assert_eq!(rec.resumed_iter, 2);
}

fn assert_unrecoverable(config: &BfsConfig, opts: ProcOptions, graph: &EdgeList) {
    let err = ProcBackend::new(worker_cmd(), opts)
        .run(graph, Topology::new(2, 2), 1, config, false)
        .unwrap_err();
    match err {
        BackendError::Proc(ProcError::Unrecoverable { worker: 0, .. }) => {}
        other => panic!("expected Unrecoverable for worker 0, got {other}"),
    }
}

#[test]
fn unrecoverable_without_checkpoint_or_capacity_is_typed() {
    // One worker, no spares: the only process dies and nothing can
    // adopt its partitions — the run must fail with the typed
    // Unrecoverable error, not hang or panic.
    let graph = RmatConfig::graph500(9).generate();
    assert_unrecoverable(&kill_config(16), kill_opts(1, 0, 1), &graph);
}

#[test]
fn disabled_recovery_takes_no_checkpoints_and_fails_typed() {
    // Recovery off is honoured, not ignored: a clean run ships no
    // checkpoint, and a SIGKILL'd worker is fatal even though a survivor
    // could have adopted its partitions.
    let graph = RmatConfig::graph500(9).generate();
    let config = BfsConfig::new(16).with_recovery(RecoveryConfig::disabled());
    let run = assert_backends_agree(&graph, Topology::new(2, 2), 1, &config, proc_opts(2));
    assert_eq!(run.proc.unwrap().checkpoints, 0, "recovery off must not checkpoint");
    assert_unrecoverable(&config, kill_opts(2, 0, 1), &graph);
}

#[test]
fn strict_degraded_mode_takes_a_spare_or_fails_on_both_backends() {
    // One re-homing decision for both backends: degraded mode off forbids
    // spreading onto survivors, not taking a free spare. The sim loses
    // GPU 0 to a fail-stop, the proc loses worker 0 (GPUs 0-1) to SIGKILL.
    let graph = RmatConfig::graph500(9).generate();
    let config =
        BfsConfig::new(16).with_recovery(RecoveryConfig::default().with_degraded_mode(false));
    let plan = FaultPlan::new(0xfa11).with_fail_stop(0, 1);
    for spares in [1, 0] {
        let topo = Topology::new(2, 2).with_spares(spares);
        let dist = DistributedGraph::build(&graph, topo, &config).unwrap();
        let sim = dist.run_with_faults(1, &config, &plan);
        let proc =
            ProcBackend::new(worker_cmd(), kill_opts(2, 0, 1)).run(&graph, topo, 1, &config, false);
        if spares == 1 {
            let sim = sim.unwrap_or_else(|e| panic!("sim must take the spare: {e}"));
            assert_eq!(sim.depths, dist.run(1, &config).unwrap().depths, "sim bit-exact");
            assert_eq!(sim.stats.fault.spare_absorptions, 1);
            assert_eq!(sim.stats.fault.spread_hostings, 0);
            let proc = proc.unwrap_or_else(|e| panic!("proc must take the spare: {e}"));
            assert_eq!(proc.depths, sim.depths, "depths diverge across backends");
            let rec = proc.proc.unwrap().recovery.expect("recovery must run");
            assert_eq!(rec.mode, RecoveryMode::Spare);
        } else {
            assert!(
                matches!(sim, Err(RunError::Fault(FaultError::GpuFailed { gpu: 0, .. }))),
                "sim: {sim:?}"
            );
            assert!(
                matches!(proc, Err(BackendError::Proc(ProcError::Unrecoverable { worker: 0, .. }))),
                "proc: {proc:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The acceptance matrix: RMAT scales 14–16 at worker widths 1/2/4, plus
// a seeded fail-stop and a spare-recovery run at scale 14. Slow (tens
// of seconds each in debug); run `--release -- --ignored` as CI does.
// ---------------------------------------------------------------------------

fn acceptance_scale(scale: u32, procs: u32) {
    let graph = RmatConfig::graph500(scale).generate();
    let config = BfsConfig::new(64);
    let mut opts = proc_opts(procs);
    opts.step_timeout = Duration::from_secs(300);
    assert_backends_agree(&graph, Topology::new(4, 2), 5, &config, opts);
}

#[test]
#[ignore = "acceptance matrix: run with --release -- --ignored"]
fn acceptance_rmat14_procs_1() {
    acceptance_scale(14, 1);
}

#[test]
#[ignore = "acceptance matrix: run with --release -- --ignored"]
fn acceptance_rmat14_procs_2() {
    acceptance_scale(14, 2);
}

#[test]
#[ignore = "acceptance matrix: run with --release -- --ignored"]
fn acceptance_rmat14_procs_4() {
    acceptance_scale(14, 4);
}

#[test]
#[ignore = "acceptance matrix: run with --release -- --ignored"]
fn acceptance_rmat15_procs_2() {
    acceptance_scale(15, 2);
}

#[test]
#[ignore = "acceptance matrix: run with --release -- --ignored"]
fn acceptance_rmat15_procs_4() {
    acceptance_scale(15, 4);
}

#[test]
#[ignore = "acceptance matrix: run with --release -- --ignored"]
fn acceptance_rmat16_procs_2() {
    acceptance_scale(16, 2);
}

#[test]
#[ignore = "acceptance matrix: run with --release -- --ignored"]
fn acceptance_rmat16_procs_4() {
    acceptance_scale(16, 4);
}

#[test]
#[ignore = "acceptance matrix: run with --release -- --ignored"]
fn acceptance_rmat14_sigkill_spare_recovery() {
    let graph = RmatConfig::graph500(14).generate();
    let mut opts = kill_opts(4, 2, 2);
    opts.step_timeout = Duration::from_secs(300);
    let topo = Topology::new(4, 2).with_spares(1);
    let run = assert_backends_agree(&graph, topo, 5, &kill_config(64), opts);
    let rec = run.proc.unwrap().recovery.expect("recovery must run");
    assert_eq!(rec.mode, RecoveryMode::Spare);
    assert_eq!(rec.worker, 2);
}

#[test]
#[ignore = "acceptance matrix: run with --release -- --ignored"]
fn acceptance_rmat14_adaptive_compression_procs_4() {
    let graph = RmatConfig::graph500(14).generate();
    let config = BfsConfig::new(64).with_compression(CompressionMode::Adaptive);
    let mut opts = proc_opts(4);
    opts.step_timeout = Duration::from_secs(300);
    assert_backends_agree(&graph, Topology::new(4, 2), 5, &config, opts);
}

// ---------------------------------------------------------------------------
// The round in process: the coordinator's own `Round` over a link whose
// workers are the `WorkerRound` every worker process runs, every message
// through the frame codec. It must reproduce the sim driver bit for bit,
// recover every death its policy allows, and stay bit-exact under any
// delivery schedule.
// ---------------------------------------------------------------------------

/// A death the in-process link inflicts: `slot`'s worker dies on the first
/// message of `kind` (of iteration `iter`, when given) it handles once the
/// deaths listed before this one happened, in the middle of it: nothing it
/// answers to that message leaves — on `StepRemote`, neither its
/// `StepDone` nor the save that rides it.
#[derive(Clone, Copy, Debug)]
struct Kill {
    slot: usize,
    kind: u8,
    iter: Option<u32>,
}

/// What a resuming `Begin` found on the worker it reached, and did there.
struct ResumeSeen {
    slot: usize,
    frame: Frame,
    /// The worker held a mask-codec reference before it.
    reference_before: bool,
    /// A copy short of one GPU was refused, with nothing installed.
    partial_refused: bool,
    /// The worker holds none after it.
    reference_after: bool,
}

/// Per superstep of the committed timeline: the frontier total entering
/// it, the wire bytes of its cross-rank block bodies (those a worker holds
/// for itself included), and those of its largest mask contribution (0
/// when no reduction ran).
#[derive(Debug, Default, PartialEq)]
struct Steps {
    frontiers: Vec<u64>,
    cross_rank_bytes: Vec<u64>,
    mask_bytes: Vec<u64>,
}

/// A save as the round heard it: (slot, base, iteration).
type SaveHeard = (usize, u32, u32);

/// The delivery schedules every death is checked under: (eager, seed) —
/// unseeded, eager, and eager on four seeds.
const SCHEDULES: [(bool, Option<u64>); 6] = [
    (false, None),
    (true, None),
    (true, Some(0)),
    (true, Some(1)),
    (true, Some(2)),
    (true, Some(3)),
];

/// The round's [`Link`] in process: one `WorkerRound` per slot, as the
/// `Setup` would leave it. Each slot has an inbox and an outbox, both in
/// order, as a socket is. Unseeded, every worker handles what it was sent
/// before the round hears any reply, in slot order, and a death is
/// confirmed once nothing else is left to deliver — or, eager, as soon as
/// it happened, ahead of the replies other workers queued. Seeded, each event —
/// a worker handling its next frame, or the round hearing a worker's — is
/// drawn from the seed, and every `StepRemote` is held back for a drawn
/// number of events. Every frame is delivered once, as on a socket.
struct InProcess<'g> {
    dist: &'g DistributedGraph,
    config: BfsConfig,
    workers: Vec<Option<WorkerRound<'g>>>,
    /// Per slot: frames for its worker, each with the events it is still
    /// held back for.
    inbox: Vec<VecDeque<(u32, Frame)>>,
    /// Per slot: its worker's replies, not yet heard.
    outbox: Vec<VecDeque<Frame>>,
    kills: Vec<Kill>,
    /// Deaths not yet confirmed to the round.
    dying: VecDeque<usize>,
    /// The schedule's generator state; `None` for the unseeded order.
    rng: Option<u64>,
    /// Deaths are confirmed as soon as they happen.
    eager: bool,
    /// The last message sent was a `StepGo`.
    in_go_broadcast: bool,
    steps: Steps,
    resumes: Vec<ResumeSeen>,
    /// A slot whose next save is forged: its first GPU's seal flipped.
    forging: Option<usize>,
    /// The round was told of a death and has sent nothing but `Begin`
    /// since: its resuming `Ready`s are not all in.
    recovering: bool,
    /// The saves the round heard while recovering.
    saves_while_recovering: Vec<SaveHeard>,
}

impl<'g> InProcess<'g> {
    /// `slots` workers over `dist` under `config`, with parents.
    fn new(dist: &'g DistributedGraph, config: &BfsConfig, slots: usize) -> Self {
        Self {
            dist,
            config: *config,
            workers: (0..slots).map(|_| Some(WorkerRound::new(dist, *config, true))).collect(),
            inbox: vec![VecDeque::new(); slots],
            outbox: vec![VecDeque::new(); slots],
            kills: Vec::new(),
            dying: VecDeque::new(),
            rng: None,
            eager: false,
            in_go_broadcast: false,
            steps: Steps::default(),
            resumes: Vec::new(),
            forging: None,
            recovering: false,
            saves_while_recovering: Vec::new(),
        }
    }

    fn killing(mut self, slot: usize, kind: u8, iter: Option<u32>) -> Self {
        self.kills.push(Kill { slot, kind, iter });
        self
    }

    fn eager(mut self) -> Self {
        self.eager = true;
        self
    }

    fn seeded(mut self, seed: u64) -> Self {
        self.rng = Some(seed);
        self
    }

    /// A seeded draw below `n`.
    fn draw(&mut self, n: usize) -> usize {
        let state = self.rng.as_mut().expect("a seeded schedule");
        *state = splitmix64(*state);
        (*state % n as u64) as usize
    }

    /// `slot`'s worker handles `frame`, and its replies queue for the round.
    fn deliver(&mut self, slot: usize, frame: &Frame) {
        let topo = self.dist.topology();
        let msg = Msg::decode(frame, Some(&topo)).unwrap_or_else(|e| panic!("slot {slot}: {e}"));
        let fires = |k: &Kill| {
            k.slot == slot
                && k.kind == frame.kind
                && k.iter.is_none_or(|i| frame_iter(frame) == Some(i))
        };
        let dies = self.kills.first().is_some_and(fires);
        if dies {
            self.kills.remove(0);
        }
        let mode = self.config.compression;
        let w = self.workers[slot].as_mut().expect("only a live worker is sent frames");
        let go = match msg {
            Msg::StepGo { iter, .. } => Some(iter as usize),
            _ => None,
        };
        let reference =
            |w: &WorkerRound<'_>| w.group().is_some_and(|g| g.mask_reference(mode).is_some());
        let resuming = matches!(msg, Msg::Begin { resume: Some(_), .. });
        if let Msg::Begin { source, hosted, resume: Some(delta) } = &msg {
            let reference_before = reference(w);
            let before = digests(w);
            let resume = Some(StateDelta { gpus: delta.gpus[1..].to_vec(), ..delta.clone() });
            let partial = Msg::Begin { source: *source, hosted: hosted.clone(), resume };
            let refused = w.handle(partial, |_| Ok::<_, ProtocolError>(())).is_err();
            self.resumes.push(ResumeSeen {
                slot,
                frame: frame.clone(),
                reference_before,
                partial_refused: refused && digests(w) == before,
                reference_after: true,
            });
        }
        let mut replies = Vec::new();
        let handled = w.handle(msg, |reply| {
            if !dies {
                replies.push(reply.frame());
            }
            Ok::<_, ProtocolError>(())
        });
        handled.unwrap_or_else(|e| panic!("slot {slot}: {e}"));
        if self.forging == Some(slot) {
            for reply in &mut replies {
                if let Ok(Msg::StepDone { stats, save: Some(mut delta) }) =
                    Msg::decode(reply, Some(&topo))
                {
                    delta.gpus[0].digest ^= 1;
                    *reply = Msg::StepDone { stats, save: Some(delta) }.frame();
                    self.forging = None;
                }
            }
        }
        if resuming {
            self.resumes.last_mut().expect("recorded above").reference_after = reference(w);
        }
        if let Some(iter) = go {
            let crosses = |b: &&Block| !topo.same_rank(topo.unflat(b.src), topo.unflat(b.dst));
            let cross_rank = |blocks: &[Block]| -> u64 {
                blocks.iter().filter(crosses).map(|b| b.wire_bytes()).sum()
            };
            let mut bytes = cross_rank(w.held_blocks());
            let mut mask = 0;
            for reply in &replies {
                if let Ok(Msg::StepLocal(x)) = Msg::decode(reply, Some(&topo)) {
                    bytes += cross_rank(&x.blocks);
                    mask = x.contributions.iter().map(|c| c.wire_bytes()).max().unwrap_or(0);
                }
            }
            if let Some(b) = self.steps.cross_rank_bytes.get_mut(iter) {
                *b += bytes;
                let m = &mut self.steps.mask_bytes[iter];
                *m = (*m).max(mask);
            }
        }
        self.outbox[slot].extend(replies);
        if dies {
            self.workers[slot] = None;
            self.inbox[slot].clear();
            self.dying.push_back(slot);
        }
    }
}

impl Link for InProcess<'_> {
    fn send(&mut self, slot: usize, msg: &Msg<'_>) {
        if let (Msg::StepGo { iter, .. }, false) = (msg, self.in_go_broadcast) {
            // A superstep starts: every worker committed the last one.
            let live = self.workers.iter().flatten().filter_map(WorkerRound::group);
            let frontier = live.map(|g| g.frontier_counts().0).sum();
            let steps = &mut self.steps;
            for v in [&mut steps.frontiers, &mut steps.cross_rank_bytes, &mut steps.mask_bytes] {
                v.truncate(*iter as usize);
            }
            steps.frontiers.push(frontier);
            steps.cross_rank_bytes.push(0);
            steps.mask_bytes.push(0);
        }
        self.in_go_broadcast = matches!(msg, Msg::StepGo { .. });
        // Past the resuming `Begin` round, every `Ready` is in.
        self.recovering &= msg.kind() == kind::BEGIN;
        if self.workers[slot].is_none() {
            return;
        }
        let seeded_remote = self.rng.is_some() && msg.kind() == kind::STEP_REMOTE;
        let hold = if seeded_remote { self.draw(4) as u32 } else { 0 };
        self.inbox[slot].push_back((hold, msg.frame()));
    }

    fn next(&mut self, _deadline: Instant) -> Result<Option<Heard>, ProcError> {
        let n = self.workers.len();
        loop {
            // Events: worker `s` handles its next frame (`s`), unless that is
            // held back, or the round hears its next reply (`n + s`).
            let work =
                (0..n).filter(|&s| self.inbox[s].front().is_some_and(|(hold, _)| *hold == 0));
            let hear = (0..n).filter(|&s| !self.outbox[s].is_empty()).map(|s| n + s);
            let events: Vec<usize> = work.chain(hear).collect();
            let idle = events.is_empty() && !self.inbox.iter().any(|q| !q.is_empty());
            if idle || self.eager {
                // Nothing left to deliver, or an eager link: a death is
                // confirmed now; else an idle round stalled.
                if let Some(slot) = self.dying.pop_front() {
                    self.outbox[slot].clear();
                    self.recovering = true;
                    return Ok(Some(Heard::Dead(Death { slot, detect_seconds: 0.0 })));
                }
                if idle {
                    return Ok(None);
                }
            }
            // One event passes, or, with only held frames left, time does.
            for (hold, _) in self.inbox.iter_mut().flatten() {
                *hold = hold.saturating_sub(1);
            }
            if events.is_empty() {
                continue;
            }
            let event = events[if self.rng.is_some() { self.draw(events.len()) } else { 0 }];
            if event < n {
                let (_, frame) = self.inbox[event].pop_front().expect("a frame to handle");
                self.deliver(event, &frame);
            } else {
                let frame = self.outbox[event - n].pop_front().expect("a reply to hear");
                let topo = self.dist.topology();
                if let Ok(Msg::StepDone { save: Some(d), .. }) = Msg::decode(&frame, Some(&topo)) {
                    if self.recovering {
                        self.saves_while_recovering.push((event - n, d.base, d.iter));
                    }
                }
                return Ok(Some(Heard::Frame(event - n, frame)));
            }
        }
    }

    fn replace(&mut self, slot: usize) -> Result<(), ProcError> {
        self.workers[slot] = Some(WorkerRound::new(self.dist, self.config, true));
        self.inbox[slot].clear();
        self.outbox[slot].clear();
        Ok(())
    }
}

/// The coordinator's round from `source` over `link`, its slot `s` hosting
/// `hosted[s]`, with parents and the link's config's recovery policy.
fn run_round(
    link: &mut InProcess<'_>,
    hosted: &[Vec<usize>],
    source: u64,
) -> Result<ProcOutcome, ProcError> {
    let (topo, recovery) = (link.dist.topology(), link.config.recovery);
    let separation = Arc::new(link.dist.separation().clone());
    let timeout = Duration::from_secs(60);
    let mut round = Round::new(topo, separation, hosted, source, true, recovery, timeout);
    round.begin(link)?;
    round.traverse(link)
}

/// The state digests of a worker's hosted GPUs; `None` outside a traversal.
fn digests(w: &WorkerRound<'_>) -> Option<Vec<u64>> {
    w.group().map(|g| g.capture().iter().map(|img| img.digest).collect())
}

/// The highest-degree vertex: a delegate at any threshold used here.
fn hub(graph: &EdgeList) -> u64 {
    graph.out_degrees().iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0 as u64
}

/// The first vertex farthest from the hub: a traversal from it runs two
/// more supersteps than one from the hub on the RMAT graphs here (6, not
/// 4), so image checkpoints commit past superstep 2 and 4.
fn far(graph: &EdgeList) -> u64 {
    let csr = Csr::from_edge_list(graph);
    let depths = gpu_cluster_bfs::graph::reference::bfs_depths(&csr, hub(graph));
    let deepest = depths.iter().filter(|&&d| d != UNREACHED).max().copied().unwrap();
    depths.iter().position(|&d| d == deepest).unwrap() as u64
}

#[test]
fn hosted_groups_match_the_sim_driver_in_process() {
    let topo = Topology::new(4, 2);
    let whole = vec![(0..8).collect::<Vec<usize>>()];
    let rank_halves = vec![(0..4).collect::<Vec<usize>>(), (4..8).collect()];
    for scale in 10..=12 {
        let graph = RmatConfig::graph500(scale).generate();
        let source = hub(&graph);
        for adaptive in [false, true] {
            for dobfs in [true, false] {
                let mut config = BfsConfig::new(16).with_direction_optimization(dobfs);
                if adaptive {
                    // The codec-bound shape: regrouping and uniquify feed
                    // the compressed (sorted) block path.
                    config = config
                        .with_compression(CompressionMode::Adaptive)
                        .with_local_all2all(true)
                        .with_uniquify(true);
                }
                let cell = format!("scale {scale}, adaptive {adaptive}, DO {dobfs}");
                let dist = DistributedGraph::build(&graph, topo, &config).unwrap();
                let sim = dist.run_with_parents(source, &config).unwrap();
                let sim_frontiers: Vec<u64> =
                    sim.stats.records.iter().map(|r| r.frontier_len).collect();
                // The nn wire bytes the sim charges per superstep, read off
                // its cross-rank message records.
                let observed = config.with_observability(ObservabilityConfig::Full);
                let log = dist.run(source, &observed).unwrap().observed.unwrap();
                let priced = |i, kind| {
                    log.messages.iter().filter(move |m| {
                        m.iter == i && m.kind == kind && m.channel == Channel::CrossRank
                    })
                };
                let sim_nn_bytes: Vec<u64> = (0..sim.iterations())
                    .map(|i| priced(i, MessageKind::NnUpdate).map(|m| m.wire_bytes).sum())
                    .collect();
                // The priced wire bytes of each superstep's MaskReduce hop.
                let sim_mask_bytes: Vec<u64> = (0..sim.iterations())
                    .map(|i| priced(i, MessageKind::MaskReduce).map(|m| m.wire_bytes).max())
                    .map(Option::unwrap_or_default)
                    .collect();
                for hosting in [&whole, &rank_halves] {
                    let groups = hosting.len();
                    let mut link = InProcess::new(&dist, &config, groups);
                    let run = run_round(&mut link, hosting, source)
                        .unwrap_or_else(|e| panic!("{groups} group(s), {cell}: {e}"));
                    let steps = link.steps;
                    assert_eq!(run.depths, sim.depths, "depths, {groups} group(s), {cell}");
                    assert_eq!(run.parents, sim.parents, "parents, {cell}");
                    assert_eq!(steps.frontiers, sim_frontiers, "frontier totals, {cell}");
                    assert_eq!(
                        steps.cross_rank_bytes, sim_nn_bytes,
                        "shipped vs priced nn bytes, {groups} group(s), {cell}"
                    );
                    if groups == 1 {
                        assert_eq!(
                            steps.mask_bytes, sim_mask_bytes,
                            "shipped vs priced mask bytes, {cell}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn checkpoint_through_the_wire_restores_and_replays_bit_exact() {
    for mode in [CompressionMode::Off, CompressionMode::Adaptive] {
        checkpoint_through_the_wire(mode);
    }
}

/// Proc recovery in process: checkpoints every second superstep, worker 1
/// dies in superstep 3, and the round rolls back to the iteration-2 commit
/// — onto a spare, or by worker 0 adopting every GPU — and replays. Every
/// commit is folded from the workers' deltas; the replay's save at 4 is a
/// delta from the resumed base, and on the spare path a second death in
/// superstep 5 resumes from that commit. Under a compressing `mode` the
/// replay only reduces if every worker dropped its mask-codec reference on
/// the resuming `Begin`, as the spare never had one.
fn checkpoint_through_the_wire(mode: CompressionMode) {
    let rank_halves = vec![(0..4).collect::<Vec<usize>>(), (4..8).collect()];
    let graph = RmatConfig::graph500(9).generate();
    let source = far(&graph);
    let checkpoints = RecoveryConfig::default().with_checkpoint_interval(2);
    let config = BfsConfig::new(16).with_compression(mode).with_recovery(checkpoints);
    for spread in [false, true] {
        let topo = Topology::new(4, 2).with_spares(if spread { 0 } else { 2 });
        let dist = DistributedGraph::build(&graph, topo, &config).unwrap();
        let want = dist.run_with_parents(source, &config).unwrap();
        assert!(want.iterations() > 5, "the deaths must follow the checkpoints");
        // Whole images of the uninterrupted traversal, entering each
        // superstep: what every committed store must equal.
        let (captures, _) = solo(&dist, &config, true, source, &[]);
        let mut link = InProcess::new(&dist, &config, 2).killing(1, kind::STEP_GO, Some(3));
        if !spread {
            link = link.killing(1, kind::STEP_GO, Some(5));
        }
        let cell = format!("spread {spread}, {mode}");
        let run =
            run_round(&mut link, &rank_halves, source).unwrap_or_else(|e| panic!("{cell}: {e}"));
        assert_eq!(run.depths, want.depths, "depths, {cell}");
        assert_eq!(run.parents, want.parents, "parents, {cell}");
        let frontiers: Vec<u64> = want.stats.records.iter().map(|r| r.frontier_len).collect();
        assert_eq!(link.steps.frontiers, frontiers, "frontier totals, {cell}");
        let rec = run.report.recovery.expect("the death is recovered");
        let (want_mode, resumed) =
            if spread { (RecoveryMode::Spread, 2) } else { (RecoveryMode::Spare, 4) };
        assert_eq!((rec.worker, rec.mode, rec.resumed_iter), (1, want_mode, resumed), "{cell}");
        // Commits entering 2 and every second superstep after, up to the
        // one the last superstep's barrier enters; a resume at a commit
        // does not save it again.
        let commits = (2..=want.iterations()).step_by(2).count() as u64;
        assert_eq!(run.report.checkpoints, commits, "{cell}");

        // Each resuming `Begin` carries, to every worker, a delta from
        // iteration 0 of exactly the GPUs it hosts from then on, and each
        // folds onto the unreached state into the uninterrupted traversal's
        // whole images at the commit.
        let decoded: Vec<(Vec<usize>, StateDelta)> = link
            .resumes
            .iter()
            .map(|seen| match Msg::decode(&seen.frame, Some(&topo)) {
                Ok(Msg::Begin { hosted, resume: Some(delta), .. }) => (hosted, delta),
                other => panic!("not a resuming Begin: {other:?}"),
            })
            .collect();
        let mut rounds: Vec<u32> = decoded.iter().map(|(_, d)| d.iter).collect();
        rounds.dedup();
        assert_eq!(rounds, if spread { vec![2] } else { vec![2, 4] }, "{cell}");
        let all: Vec<usize> = (0..8).collect();
        let unreached = HostedGroup::new(&dist, &config, true, &all).unwrap().capture();
        for &iter in &rounds {
            let mut cp = Vec::new();
            for (hosted, delta) in decoded.iter().filter(|(_, d)| d.iter == iter) {
                let flats: Vec<usize> = delta.gpus.iter().map(|g| g.gpu_flat as usize).collect();
                assert_eq!((delta.base, &flats), (0, hosted), "{cell}");
                cp.extend(delta.fold(0, &unreached).unwrap_or_else(|e| panic!("{cell}: {e}")));
            }
            cp.sort_by_key(|img| img.gpu_flat);
            assert_eq!(cp, captures[iter as usize], "the store committed at {iter}, {cell}");
        }
        // The resuming `Begin` frames, pinned byte for byte under either
        // mode (the state does not depend on it): the commit at 2 to both
        // workers, or to the one adopting every GPU when spreading, then, on
        // the spare path, the commit at 4. CHANGES.md has the whole-image
        // lists they replaced.
        let resume_bytes: Vec<usize> = link.resumes.iter().map(|r| r.frame.encoded_len()).collect();
        let pinned: &[usize] = if spread { &[684] } else { &[323, 450, 4985, 4792] };
        assert_eq!(resume_bytes, pinned, "{cell}");
        for seen in &link.resumes {
            // The survivor held a codec reference; every worker restarts
            // without one, as the spare.
            assert_eq!(seen.reference_before, seen.slot == 0 && mode.is_on(), "{cell}");
            assert!(!seen.reference_after, "slot {} kept its codec reference, {cell}", seen.slot);
            // A resume that leaves a hosted GPU uncovered is refused
            // before anything is installed.
            assert!(seen.partial_refused, "slot {}, {cell}", seen.slot);
        }
        // Any one changed byte of a resume's delta is refused by the
        // worker's `Begin` — at decode, or at the fold's seal check — before
        // anything is installed: its lowest bit, its highest or all of it
        // flipped.
        let (hosted, _) = &decoded[0];
        let resume = &link.resumes[0].frame;
        let fresh = Msg::Begin { source, hosted: hosted.clone(), resume: None }.frame();
        let begin = |w: &mut WorkerRound<'_>, frame: &Frame| {
            let msg = Msg::decode(frame, Some(&topo))?;
            w.handle(msg, |_| Ok::<_, ProtocolError>(()))
        };
        let mut w = WorkerRound::new(&dist, config, true);
        begin(&mut w, &fresh).unwrap();
        let before = digests(&w);
        for (at, flip) in (fresh.payload_len()..resume.payload_len())
            .flat_map(|at| [0x01, 0x80, 0xff].map(|flip| (at, flip)))
        {
            let mut tampered = resume.payload().to_vec();
            tampered[at] ^= flip;
            let refused = begin(&mut w, &Frame::new(kind::BEGIN, tampered)).is_err();
            assert!(
                refused && digests(&w) == before,
                "flip {flip:#x} at byte {at} of {} went through, {cell}",
                resume.payload_len()
            );
        }
        begin(&mut w, resume).unwrap_or_else(|e| panic!("{cell}: {e}"));
        let hosts = |img: &&GpuStateImage| hosted.contains(&(img.gpu_flat as usize));
        let want: Vec<_> = captures[2].iter().filter(hosts).cloned().collect();
        assert_eq!(w.group().unwrap().capture(), want, "{cell}");
    }
}

/// What `w`'s replies to `msg` carried, read back through the frame codec
/// on `topo`: the counts of a `Ready` or `StepDone`, and the delta of a
/// `StepDone`'s save or of the final state.
fn handle(
    w: &mut WorkerRound<'_>,
    msg: Msg<'_>,
    topo: &Topology,
) -> (Option<Stats>, Option<StateDelta>) {
    let mut frames = Vec::new();
    let collect = |reply: Msg<'_>| {
        frames.push(reply.frame());
        Ok::<_, ProtocolError>(())
    };
    w.handle(msg, collect).unwrap_or_else(|e| panic!("{e}"));
    let (mut stats, mut delta) = (None, None);
    for frame in &frames {
        match Msg::decode(frame, Some(topo)).unwrap_or_else(|e| panic!("{e}")) {
            Msg::Ready(s) => stats = Some(s),
            Msg::StepDone { stats: s, save } => (stats, delta) = (Some(s), save),
            Msg::FinalState(state) => delta = Some(state),
            _ => {}
        }
    }
    (stats, delta)
}

/// One worker hosting every GPU, driven message by message from `source`
/// until the frontier drains, saving entering each iteration of `saves`
/// (at the barrier of the superstep before it): the capture entering every
/// iteration, and the deltas of the saves and of the final state, in
/// order.
fn solo(
    dist: &DistributedGraph,
    config: &BfsConfig,
    parents: bool,
    source: u64,
    saves: &[u32],
) -> (Vec<Vec<GpuStateImage>>, Vec<StateDelta>) {
    let topo = dist.topology();
    let mut w = WorkerRound::new(dist, *config, parents);
    let hosted = (0..topo.num_gpus() as usize).collect();
    let (mut stats, _) = handle(&mut w, Msg::Begin { source, hosted, resume: None }, &topo);
    let mut captures = vec![w.group().unwrap().capture()];
    let mut deltas = Vec::new();
    let mut iter = 0;
    while stats.is_some_and(|s| s.frontier + s.new_delegates > 0) {
        let go = Msg::StepGo { iter, checkpoint: saves.contains(&(iter + 1)) };
        handle(&mut w, go, &topo);
        let remote = Exchange { iter, contributions: Cow::Owned(Vec::new()), blocks: Vec::new() };
        let save;
        (stats, save) = handle(&mut w, Msg::StepRemote(remote), &topo);
        deltas.extend(save);
        captures.push(w.group().unwrap().capture());
        iter += 1;
    }
    deltas.extend(handle(&mut w, Msg::Finish, &topo).1);
    (captures, deltas)
}

/// A grid at TH 3 (its inner vertices are delegates) and RMAT 10 at TH 16,
/// each with its source, on 4 × 2 GPUs.
fn fold_cells() -> Vec<(&'static str, DistributedGraph, BfsConfig, u64)> {
    let topo = Topology::new(4, 2);
    let rmat = RmatConfig::graph500(10).generate();
    let cells = [("grid", builders::grid(8, 8), 3, 0), ("RMAT 10", rmat.clone(), 16, hub(&rmat))];
    cells
        .into_iter()
        .map(|(name, graph, th, source)| {
            let config = BfsConfig::new(th);
            (name, DistributedGraph::build(&graph, topo, &config).unwrap(), config, source)
        })
        .collect()
}

#[test]
fn a_delta_folds_onto_its_base_into_the_capture_at_its_iteration() {
    for (name, dist, config, source) in fold_cells() {
        let all: Vec<usize> = (0..8).collect();
        for parents in [false, true] {
            let (captures, _) = solo(&dist, &config, parents, source, &[]);
            let last = captures.len() as u32 - 1;
            assert!(last >= 4 && dist.separation().num_delegates() > 0, "{name}: too small");
            // The round's store entering iteration 0: nothing reached.
            let unreached = HostedGroup::new(&dist, &config, parents, &all).unwrap().capture();
            for base in 0..last {
                // A save at `base` (none at 0, where `Begin` is the base)
                // and one at `k`, or the final state when `k` is the last.
                for k in base + 1..=last {
                    let cell = format!("{name}, parents {parents}, delta {base} -> {k}");
                    let saves = [(base > 0).then_some(base), (k < last).then_some(k)];
                    let saves: Vec<u32> = saves.into_iter().flatten().collect();
                    let (_, deltas) = solo(&dist, &config, parents, source, &saves);
                    let delta = deltas.iter().find(|d| (d.base, d.iter) == (base, k));
                    let delta = delta.unwrap_or_else(|| panic!("{cell}: no such delta"));
                    let store = if base == 0 { &unreached } else { &captures[base as usize] };
                    let folded = delta.fold(base, store).unwrap_or_else(|e| panic!("{cell}: {e}"));
                    assert_eq!(folded, captures[k as usize], "{cell}");
                }
            }
        }
    }
}

#[test]
fn hostile_deltas_are_typed_errors_that_fold_nothing() {
    let (_, dist, config, source) = fold_cells().remove(1);
    let (captures, deltas) = solo(&dist, &config, true, source, &[1, 3]);
    let (store, good) = (&captures[1], &deltas[1]);
    assert_eq!((good.base, good.iter), (1, 3));
    assert_eq!(good.fold(1, store).unwrap(), captures[3]);
    let d = store[0].delegate_depths.len() as u32;
    // Slots of GPU 0: one past its grid, one settled at the base, one
    // settled at 2 (so not in the frontier entering 3).
    let depths = &captures[3][0].depths_local;
    let slot_at = |depth| depths.iter().position(|&x| x == depth).expect("such a slot") as u32;
    let (outside, early, at_2) = (depths.len() as u32, slot_at(1), slot_at(2));
    let edit = |f: &dyn Fn(&mut StateDelta)| {
        let mut d = good.clone();
        f(&mut d);
        d
    };
    let hostile = [
        ("but the commit is at 1", edit(&|d| d.base = 0)),
        ("gpu 0: slot level 1 outside", edit(&|d| d.gpus[0].levels[0].depth = 1)),
        ("gpu 0: slot level 4 outside", edit(&|d| d.gpus[0].levels.last_mut().unwrap().depth = 4)),
        ("gpu 0: slot level 2 outside or out of order", {
            edit(&|d| {
                let levels = &mut d.gpus[0].levels;
                levels.insert(0, levels[0].clone());
            })
        }),
        (&*format!("gpu 0: slot {outside} outside"), {
            edit(&|d| d.gpus[0].levels[0].ids.push(outside))
        }),
        (&*format!("gpu 0: delegate {d} outside"), {
            edit(&|x| x.delegates = vec![Level { depth: 2, ids: vec![d] }])
        }),
        (&*format!("gpu 0: slot {early} is already settled"), {
            edit(&|d| {
                let ids = &mut d.gpus[0].levels[0].ids;
                ids.insert(ids.partition_point(|&x| x < early), early);
            })
        }),
        (&*format!("gpu 0: frontier entry {at_2} is not at depth 3"), {
            edit(&|d| d.gpus[0].frontier.push(at_2))
        }),
        ("gpu 0: 0 parents for the settled slots", edit(&|d| d.gpus[0].parents.clear())),
        ("gpu 7: fold: checkpoint snapshot of GPU 7 failed its integrity seal", {
            edit(&|d| d.gpus[7].digest ^= 1)
        }),
    ];
    let stats = Stats::default();
    for (detail, delta) in hostile {
        let before = store.clone();
        // Through the wire first: the frame layout holds, the fold refuses.
        let frame = Msg::StepDone { stats, save: Some(delta) }.frame();
        let Ok(Msg::StepDone { save: Some(delta), .. }) =
            Msg::decode(&frame, Some(&dist.topology()))
        else {
            panic!("{detail}: the frame does not decode");
        };
        let err = delta.fold(1, store).unwrap_err();
        assert!(err.detail.contains(detail), "{detail}: {err}");
        assert_eq!(store, &before, "{detail}: the fold touched the store");
    }
    // Every strict prefix and one trailing byte of a save and of a final
    // state are typed decode errors.
    let topo = dist.topology();
    for msg in
        [Msg::StepDone { stats, save: Some(good.clone()) }, Msg::FinalState(deltas[2].clone())]
    {
        let frame = msg.frame();
        let body = frame.payload();
        for len in 0..body.len() {
            let cut = Frame::new(frame.kind, body[..len].to_vec());
            assert!(Msg::decode(&cut, Some(&topo)).is_err(), "cut to {len} of {}", body.len());
        }
        let long = Frame::new(frame.kind, [body, &[0]].concat());
        assert!(Msg::decode(&long, Some(&topo)).unwrap_err().detail.contains("1 trailing bytes"));
    }
    // A round fails the run on a `StepDone` whose save does not fold,
    // naming it.
    let checkpoints = config.with_recovery(RecoveryConfig::default().with_checkpoint_interval(2));
    let mut link = InProcess::new(&dist, &checkpoints, 2);
    link.forging = Some(1);
    let err = run_round(&mut link, &hosted_flats(&topo, 2), source).unwrap_err();
    let sealed = |e: &ProcError| matches!(e, ProcError::Protocol(p) if p.detail.contains("seal"));
    assert!(sealed(&err), "{err}");
}

/// RMAT 10 on 4 × 2 GPUs at TH 16 from a vertex far from the hub (6
/// supersteps), hosted by 2 slots as a pool hosts them.
struct DeathCell {
    graph: EdgeList,
    source: u64,
    hosted: Vec<Vec<usize>>,
}

impl DeathCell {
    fn new() -> Self {
        let graph = RmatConfig::graph500(10).generate();
        let source = far(&graph);
        Self { graph, source, hosted: hosted_flats(&Topology::new(4, 2), 2) }
    }

    /// Runs the round with `spares` spares under `config`, the deaths of
    /// `kills` inflicted, on the unseeded link.
    fn run(
        &self,
        spares: u32,
        config: &BfsConfig,
        kills: &[Kill],
    ) -> Result<ProcOutcome, ProcError> {
        self.run_on(spares, config, kills, (false, None)).0
    }

    /// [`Self::run`] on one of the [`SCHEDULES`]; also returns the saves
    /// the round heard while it recovered from a death.
    fn run_on(
        &self,
        spares: u32,
        config: &BfsConfig,
        kills: &[Kill],
        (eager, seed): (bool, Option<u64>),
    ) -> (Result<ProcOutcome, ProcError>, Vec<SaveHeard>) {
        let topo = Topology::new(4, 2).with_spares(spares);
        let dist = DistributedGraph::build(&self.graph, topo, config).unwrap();
        let mut link = InProcess::new(&dist, config, self.hosted.len());
        link.eager = eager;
        link.rng = seed;
        for k in kills {
            link = link.killing(k.slot, k.kind, k.iter);
        }
        let run = run_round(&mut link, &self.hosted, self.source);
        if run.is_ok() {
            assert!(link.kills.is_empty(), "a death did not happen: {:?}", link.kills);
        }
        (run, link.saves_while_recovering)
    }
}

#[test]
fn every_death_is_recovered_in_process_bit_exact() {
    // On the unseeded link, every worker handles what it was sent in order.
    every_death_is_recovered_on(&SCHEDULES[..1]);
}

#[test]
fn every_death_confirmed_at_once_is_recovered_in_process_bit_exact() {
    // An eager link tells the round of a death before the replies other
    // workers queued; seeded, in any order besides.
    every_death_is_recovered_on(&SCHEDULES[1..]);
}

/// A death of each slot before `Ready` and in each superstep, onto a spare
/// or spreading, on each of `schedules`. A checkpoint commits with the
/// barrier of the superstep before it, so a death in a superstep resumes
/// from the commit entering it, whatever the order.
fn every_death_is_recovered_on(schedules: &[(bool, Option<u64>)]) {
    let cell = DeathCell::new();
    let config = BfsConfig::new(16);
    let topo = Topology::new(4, 2);
    let dist = DistributedGraph::build(&cell.graph, topo, &config).unwrap();
    let sim = dist.run_with_parents(cell.source, &config).unwrap();
    // Deaths in supersteps 4 and 5 resume from the store the workers'
    // deltas folded into at 4.
    assert_eq!(sim.iterations(), 6);
    for &schedule in schedules {
        for (spares, mode) in [(1, RecoveryMode::Spare), (0, RecoveryMode::Spread)] {
            for slot in 0..2 {
                let supersteps = (0..sim.iterations()).map(|i| (kind::STEP_GO, Some(i)));
                for (kind, iter) in std::iter::once((kind::BEGIN, None)).chain(supersteps) {
                    let at = iter.map_or("before Ready".into(), |i| format!("in superstep {i}"));
                    let what = format!("slot {slot} dies {at}, {mode:?}, schedule {schedule:?}");
                    let kills = [Kill { slot, kind, iter }];
                    let (run, saves) = cell.run_on(spares, &config, &kills, schedule);
                    let run = run.unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(run.depths, sim.depths, "depths, {what}");
                    assert_eq!(run.parents, sim.parents, "parents, {what}");
                    assert_eq!(run.report.iterations, sim.iterations(), "supersteps, {what}");
                    let rec = run.report.recovery.expect("the death is recovered");
                    // The default cadence commits images every fourth
                    // superstep past the first; `Begin` is the commit at 0.
                    let resumed = iter.map_or(0, |i| i / 4 * 4);
                    assert_eq!(
                        (rec.worker, rec.mode, rec.resumed_iter),
                        (slot as u32, mode, resumed),
                        "{what}"
                    );
                    // A death at a `StepGo` comes after the last barrier's
                    // saves were all gathered and before the next's were
                    // formed: none is in flight, so none is heard while the
                    // round recovers. The commit at 4 is taken once.
                    assert_eq!(saves, [], "{what}");
                    assert_eq!(run.report.checkpoints, 1, "{what}");
                }
            }
        }
    }
}

/// The superstep a sim run resumed at after its one rollback: the first
/// iteration its observed trace lays out after the `Recovery` span.
fn resumed_iter(log: &TraceLog) -> u32 {
    let [rec] = log.faults.iter().filter(|f| f.kind == FaultKind::Recovery).collect::<Vec<_>>()[..]
    else {
        panic!("one rollback: {:?}", log.faults);
    };
    let after = log.iterations.iter().find(|i| i.start >= rec.start + rec.dur);
    after.expect("an iteration after the rollback").iter
}

#[test]
fn the_sim_confirms_a_death_where_the_proc_round_does() {
    // Slot 1 dies at `StepGo i`, on every schedule; the sim fail-stops
    // every GPU slot 1 hosts in superstep `i`. Both confirm the death at
    // the barrier it misses, so they pick the same re-homing, resume from
    // the same commit and agree on the depths, whichever superstep. Slot 1
    // also dies at `StepRemote 3`, in the barrier whose `StepDone`s carry
    // the saves entering 4: its own never leaves, so the run resumes from
    // the commit before, as the sim does for a fail-stop in superstep 3.
    let cell = DeathCell::new();
    let config = BfsConfig::new(16);
    let observed = config.with_observability(ObservabilityConfig::Full);
    let victims = &cell.hosted[1];
    let supersteps = 6;
    let kills = (0..supersteps)
        .map(|i| (kind::STEP_GO, i))
        .chain([(kind::STEP_REMOTE, 3)])
        .collect::<Vec<_>>();
    let mut stale_saves = 0;
    for (mode, proc_spares, sim_spares) in
        [(RecoveryMode::Spare, 1, victims.len() as u32), (RecoveryMode::Spread, 0, 0)]
    {
        let topo = Topology::new(4, 2).with_spares(sim_spares);
        let dist = DistributedGraph::build(&cell.graph, topo, &config).unwrap();
        let clean = dist.run_with_parents(cell.source, &config).unwrap();
        assert_eq!(clean.iterations(), supersteps);
        for &(kind, i) in &kills {
            let plan = victims
                .iter()
                .fold(FaultPlan::new(0xdead), |plan, &gpu| plan.with_fail_stop(gpu, i));
            let sim = dist
                .run_with_faults(cell.source, &observed, &plan)
                .unwrap_or_else(|e| panic!("superstep {i}, {mode:?}: sim: {e}"));
            let f = &sim.stats.fault;
            let log = sim.observed.as_ref().expect("the sim run is observed");
            assert_eq!(resumed_iter(log), i / 4 * 4, "superstep {i}, {mode:?}");
            for schedule in SCHEDULES {
                let what = format!("slot 1 dies at {kind:#x} {i}, {mode:?}, schedule {schedule:?}");
                let kill = Kill { slot: 1, kind, iter: Some(i) };
                let (proc, saves) = cell.run_on(proc_spares, &config, &[kill], schedule);
                stale_saves += saves.len();
                let proc = proc.unwrap_or_else(|e| panic!("{what}: {e}"));
                let rec = proc.report.recovery.expect("the proc death is recovered");
                assert_eq!(sim.depths, proc.depths, "depths, {what}");
                assert_eq!(proc.parents, clean.parents, "parents, {what}");
                assert_eq!((f.fail_stops, f.rollbacks), (victims.len() as u64, 1), "{what}");
                let homes = match rec.mode {
                    RecoveryMode::Spare => (f.spare_absorptions, f.spread_hostings),
                    RecoveryMode::Spread => (f.spread_hostings, f.spare_absorptions),
                };
                assert_eq!((rec.mode, homes), (mode, (victims.len() as u64, 0)), "{what}");
                assert_eq!(resumed_iter(log), rec.resumed_iter, "resumed superstep, {what}");
                // A save heard after the death, from the aborted barrier,
                // commits nothing: the one commit is at 4.
                assert_eq!(proc.report.checkpoints, 1, "{what}");
            }
        }
    }
    // On the eager schedules, slot 0's save entering 4 is heard after slot
    // 1's death at `StepRemote 3`.
    assert!(stale_saves > 0, "no save was heard while the round recovered");
}

#[test]
fn deaths_without_a_recovery_path_are_unrecoverable_in_process() {
    let cell = DeathCell::new();
    let unrecoverable = |run: Result<ProcOutcome, ProcError>, worker, iter, what: &str| match run {
        Err(ProcError::Unrecoverable { worker: w, iter: i }) if (w, i) == (worker, iter) => {}
        other => panic!("{what}: expected Unrecoverable {{ {worker}, {iter} }}, got {other:?}"),
    };
    // A second death during the resuming `Begin` round, onto a spare or
    // spreading.
    let config = BfsConfig::new(16);
    let second = [
        Kill { slot: 1, kind: kind::STEP_GO, iter: Some(2) },
        Kill { slot: 0, kind: kind::BEGIN, iter: None },
    ];
    for spares in [1, 0] {
        unrecoverable(cell.run(spares, &config, &second), 0, 2, &format!("{spares} spare(s)"));
    }
    // Recovery disabled: no checkpoint is taken, and the first death is
    // fatal, spare or not.
    let config = BfsConfig::new(16).with_recovery(RecoveryConfig::disabled());
    assert_eq!(cell.run(1, &config, &[]).unwrap().report.checkpoints, 0);
    for (kind, iter) in [(kind::BEGIN, None), (kind::STEP_GO, Some(1))] {
        let run = cell.run(1, &config, &[Kill { slot: 0, kind, iter }]);
        unrecoverable(run, 0, iter.unwrap_or(0), "recovery disabled");
    }
}

#[test]
fn a_death_confirmed_before_a_survivors_ready_is_recovered_bit_exact() {
    // Slot 1 dies in its `Begin` and the death is confirmed before slot 0's
    // `Ready` is heard. Slot 0 then begins again, hosting every GPU, and
    // the round must count that `Ready`, not the one still on its way: with
    // the source on a GPU of slot 1 the earlier one reports no frontier.
    let cell = DeathCell::new();
    let (config, topo) = (BfsConfig::new(16), Topology::new(4, 2));
    let dist = DistributedGraph::build(&cell.graph, topo, &config).unwrap();
    let degrees = cell.graph.out_degrees();
    let source = (0..cell.graph.num_vertices)
        .find(|&v| {
            let slot_1 = cell.hosted[1].contains(&topo.flat(topo.vertex_owner(v)));
            slot_1 && degrees[v as usize] > 0 && dist.separation().delegate_id(v).is_none()
        })
        .expect("a normal source on slot 1");
    let sim = dist.run_with_parents(source, &config).unwrap();
    let mut link = InProcess::new(&dist, &config, 2).killing(1, kind::BEGIN, None).eager();
    let run = run_round(&mut link, &cell.hosted, source).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(run.depths, sim.depths);
    assert_eq!(run.parents, sim.parents);
    assert_eq!(run.report.iterations, sim.iterations());
    let rec = run.report.recovery.expect("the death is recovered");
    assert_eq!((rec.worker, rec.mode, rec.resumed_iter), (1, RecoveryMode::Spread, 0));
}

#[test]
fn hostile_begins_are_typed_errors_that_install_nothing() {
    let cell = DeathCell::new();
    let config = BfsConfig::new(16);
    let topo = Topology::new(4, 2);
    let dist = DistributedGraph::build(&cell.graph, topo, &config).unwrap();
    let sim = dist.run_with_parents(cell.source, &config).unwrap();
    let all: Vec<usize> = (0..8).collect();
    // A delta from 0 of every GPU entering superstep 2, as a resume would
    // carry it.
    let (_, deltas) = solo(&dist, &config, true, cell.source, &[2]);
    let good = &deltas[0];
    assert_eq!((good.base, good.iter, good.gpus.len()), (0, 2, 8));
    let begin = |hosted: &[usize], resume: Option<StateDelta>| {
        Msg::Begin { source: cell.source, hosted: hosted.to_vec(), resume }.frame()
    };
    let with = |gpus: &[_]| Some(StateDelta { gpus: gpus.to_vec(), ..good.clone() });
    let mut broken = begin(&all, Some(good.clone())).payload().to_vec();
    *broken.last_mut().unwrap() ^= 1; // the last GPU's seal
    let hostile = [
        ("a hosted flat outside the grid", begin(&[0, 1, 2, 3, 4, 5, 6, 7, 8], None)),
        ("a hosted flat repeated", begin(&[0, 1, 2, 3, 4, 5, 6, 7, 7], None)),
        ("a resume that misses a hosted gpu", begin(&all, with(&good.gpus[1..]))),
        ("a resume that exceeds the hosted gpus", begin(&all[..7], with(&good.gpus))),
        ("a resume foreign to the hosted gpus", begin(&all[..7], with(&good.gpus[1..]))),
        ("a broken seal", Frame::new(kind::BEGIN, broken)),
        ("a resume from a base past 0", begin(&all, Some(StateDelta { base: 1, ..good.clone() }))),
    ];
    let mut link = InProcess::new(&dist, &config, 1);
    for (what, frame) in hostile {
        // Mid-traversal, so there is state a refusal must leave alone.
        let w = link.workers[0].as_mut().unwrap();
        let fresh = Msg::Begin { source: cell.source, hosted: all.clone(), resume: None };
        w.handle(fresh, |_| Ok::<_, ProtocolError>(())).unwrap();
        let before = digests(w);
        let refused = Msg::decode(&frame, Some(&topo))
            .and_then(|msg| w.handle(msg, |_| Ok::<_, ProtocolError>(())));
        assert!(refused.is_err(), "{what} was not refused");
        assert_eq!(digests(w), before, "{what} installed something");
        // The next valid `Begin` runs bit-exact.
        let run = run_round(&mut link, std::slice::from_ref(&all), cell.source)
            .unwrap_or_else(|e| panic!("after {what}: {e}"));
        assert_eq!(run.depths, sim.depths, "depths after {what}");
        assert_eq!(run.parents, sim.parents, "parents after {what}");
    }
}

#[test]
fn hostile_step_remotes_are_typed_errors_that_install_nothing() {
    let cell = DeathCell::new();
    let config = BfsConfig::new(16);
    let topo = Topology::new(4, 2);
    let dist = DistributedGraph::build(&cell.graph, topo, &config).unwrap();
    // The capture entering each superstep of the same run, undisturbed.
    let (captures, _) = solo(&dist, &config, true, cell.source, &[]);
    // One worker hosting every GPU holds every block, so its `StepRemote`s
    // are empty.
    let remote = |iter| {
        let x = Exchange { iter, contributions: Cow::Owned(Vec::new()), blocks: Vec::new() };
        Msg::StepRemote(x).frame()
    };
    let mut w = WorkerRound::new(&dist, config, true);
    let hosted = (0..8).collect();
    handle(&mut w, Msg::Begin { source: cell.source, hosted, resume: None }, &topo);
    handle(&mut w, Msg::StepGo { iter: 0, checkpoint: false }, &topo);
    handle(&mut w, Msg::decode(&remote(0), Some(&topo)).unwrap(), &topo);
    // Superstep 0 committed and none in flight; then superstep 1 in flight.
    let hostile = [
        ("a second StepRemote for the superstep just committed", false, 0),
        ("a StepRemote for the superstep after it, before its StepGo", false, 1),
        ("a second StepRemote for the committed superstep, with 1 in flight", true, 0),
        ("a StepRemote for another superstep than the one in flight", true, 2),
    ];
    let mut going = false;
    for (what, in_flight, iter) in hostile {
        if in_flight && !going {
            handle(&mut w, Msg::StepGo { iter: 1, checkpoint: false }, &topo);
            going = true;
        }
        let before = digests(&w);
        let refused = Msg::decode(&remote(iter), Some(&topo))
            .and_then(|msg| w.handle(msg, |_| Ok::<_, ProtocolError>(())))
            .expect_err(what);
        let detail = format!("StepRemote {iter} with no such superstep in flight");
        assert!(refused.detail.contains(&detail), "{what}: {refused}");
        assert_eq!(digests(&w), before, "{what} installed something");
    }
    // The superstep in flight still completes, bit-exact.
    handle(&mut w, Msg::decode(&remote(1), Some(&topo)).unwrap(), &topo);
    assert_eq!(w.group().unwrap().capture(), captures[2]);
}

#[test]
fn any_delivery_schedule_is_bit_exact_in_process() {
    // Replies cross slots in a seeded order, and every `StepRemote` is held
    // back a seeded number of events; checkpoints every second superstep
    // put saves in every second barrier.
    let cell = DeathCell::new();
    let checkpoints = RecoveryConfig::default().with_checkpoint_interval(2);
    let config =
        BfsConfig::new(16).with_compression(CompressionMode::Adaptive).with_recovery(checkpoints);
    let topo = Topology::new(4, 2);
    let dist = DistributedGraph::build(&cell.graph, topo, &config).unwrap();
    let sim = dist.run_with_parents(cell.source, &config).unwrap();
    for seed in 0..32 {
        let mut link = InProcess::new(&dist, &config, cell.hosted.len()).seeded(seed);
        let run = run_round(&mut link, &cell.hosted, cell.source)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(run.depths, sim.depths, "depths, seed {seed}");
        assert_eq!(run.parents, sim.parents, "parents, seed {seed}");
        assert_eq!(run.report.iterations, sim.iterations(), "supersteps, seed {seed}");
    }
}
