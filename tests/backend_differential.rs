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
//! kill and an idle spell. The small scales run
//! in every `cargo test`; the RMAT 14–16 matrix and the long chaos runs
//! are `#[ignore]`d and driven by the CI `backend-acceptance` job. The
//! in-process cells at the bottom check the same sharing without
//! spawning anything: the `HostedGroup` steps both backends run, over
//! one group and over two that trade mask contributions and blocks by
//! hand, and a checkpoint shipped through the wire codec, restored and
//! replayed.

use gpu_cluster_bfs::cluster::fault::{FaultError, FaultPlan};
use gpu_cluster_bfs::compress::CompressionMode;
use gpu_cluster_bfs::core::assemble::{assemble_depths, assemble_parents, GpuStateView};
use gpu_cluster_bfs::core::backend::{Backend, BackendError, BackendRun, ProcBackend, SimBackend};
use gpu_cluster_bfs::core::checkpoint::Checkpoint;
use gpu_cluster_bfs::core::comm::Block;
use gpu_cluster_bfs::core::driver::RunError;
use gpu_cluster_bfs::core::procrt::protocol::{
    read_contributions, read_images, write_contributions, write_images, WireReader, WireWriter,
};
use gpu_cluster_bfs::core::procrt::{
    ChaosSpec, KillSpec, ProcError, ProcOptions, RecoveryMode, WorkerCommand,
};
use gpu_cluster_bfs::core::recovery::RecoveryConfig;
use gpu_cluster_bfs::core::superstep::HostedGroup;
use gpu_cluster_bfs::graph::builders;
use gpu_cluster_bfs::obs::{Channel, MessageKind, ObservabilityConfig};
use gpu_cluster_bfs::prelude::*;
use std::time::Duration;

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
fn worker_exit_does_not_wait_out_a_heartbeat_period() {
    // The heartbeat thread is woken on stop, so a run ends when its work
    // does rather than on the next beat after it — and so does tearing
    // the pool down. Delayed supersteps keep the run past the provisional
    // beat workers send before Setup.
    let period = Duration::from_secs(2);
    let opts = ProcOptions {
        workers: 2,
        heartbeat_period: period,
        chaos: ChaosSpec { delay_step_remote: Duration::from_millis(20), ..ChaosSpec::default() },
        ..ProcOptions::default()
    };
    let graph = RmatConfig::graph500(9).generate();
    let start = std::time::Instant::now();
    let backend = ProcBackend::new(worker_cmd(), opts);
    let run = backend
        .run(&graph, Topology::new(2, 2), 1, &BfsConfig::new(16), false)
        .unwrap_or_else(|e| panic!("proc backend: {e}"));
    assert!(run.proc.expect("proc report").iterations >= 3);
    drop(backend);
    let elapsed = start.elapsed();
    assert!(elapsed < period / 2, "run and teardown took {elapsed:?} at a {period:?} heartbeat");
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
fn sigkill_on_a_warm_pool_recovers_then_the_next_run_is_cold() {
    let graph = RmatConfig::graph500(10).generate();
    let topo = Topology::new(2, 2).with_spares(1);
    let config = kill_config(16);
    let sim = SimBackend.run(&graph, topo, 1, &config, true).unwrap();
    let mut backend = ProcBackend::new(worker_cmd(), proc_opts(2));
    let run = |backend: &ProcBackend, cell: &str| {
        let run = backend.run(&graph, topo, 1, &config, true).unwrap_or_else(|e| panic!("{e}"));
        assert_matches_sim(&run, &sim, cell);
        run.proc.unwrap()
    };
    assert_eq!(run(&backend, "warm-up").spawned, 2);
    // Chaos is per run: the warm pool serves the killed run.
    backend.opts.chaos.kill = Some(KillSpec { worker: 1, iter: 1 });
    let killed = run(&backend, "killed");
    let rec = killed.recovery.expect("a SIGKILL'd pooled worker must be recovered");
    assert_eq!((rec.worker, rec.mode), (1, RecoveryMode::Spare));
    assert_eq!(killed.spawned, 1, "only the spare is new");
    // The recovery changed who hosts what, so the next run is cold.
    backend.opts.chaos = ChaosSpec::default();
    let after = run(&backend, "after recovery");
    assert_eq!(after.spawned, 2);
    assert!(after.recovery.is_none());
}

#[test]
fn an_idle_pool_is_not_held_to_its_silence() {
    let graph = RmatConfig::graph500(9).generate();
    let topo = Topology::new(2, 2);
    let config = BfsConfig::new(16);
    let sim = SimBackend.run(&graph, topo, 1, &config, true).unwrap();
    let backend = ProcBackend::new(worker_cmd(), proc_opts(2));
    backend.run(&graph, topo, 3, &config, true).unwrap_or_else(|e| panic!("warm-up: {e}"));
    // Well past the wall detector's confirmation window (8 missed beats of
    // 25 ms): without a fresh detector per run, this silence would count.
    std::thread::sleep(Duration::from_millis(600));
    let run = backend.run(&graph, topo, 1, &config, true).unwrap_or_else(|e| panic!("{e}"));
    assert_matches_sim(&run, &sim, "after idling");
    let report = run.proc.unwrap();
    assert_eq!(report.suspicions, 0);
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
    assert_eq!(report.suspicions, 0);
    assert!(report.recovery.is_none());
}

fn kill_opts(procs: u32, victim: u32, iter: u32) -> ProcOptions {
    ProcOptions {
        workers: procs,
        chaos: ChaosSpec { kill: Some(KillSpec { worker: victim, iter }), ..ChaosSpec::default() },
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
    // Death is confirmed by phi-accrual silence, which needs several
    // missed heartbeat periods — real wall-clock time, not a socket
    // EOF race.
    assert!(rec.detect_seconds > 0.0, "detection must take real time");
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

#[test]
fn duplicated_and_delayed_frames_are_absorbed() {
    let graph = RmatConfig::graph500(9).generate();
    let opts = ProcOptions {
        workers: 2,
        chaos: ChaosSpec {
            delay_step_remote: Duration::from_millis(5),
            duplicate_step_remote: true,
            ..ChaosSpec::default()
        },
        ..ProcOptions::default()
    };
    let run = assert_backends_agree(&graph, Topology::new(2, 2), 1, &BfsConfig::new(16), opts);
    let report = run.proc.unwrap();
    assert!(
        report.duplicate_frames_ignored > 0,
        "workers must detect and drop the duplicated StepRemote frames"
    );
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
// The shared superstep core, in process: the steps `procrt::worker` runs
// over its hosted flats, driven here the way the coordinator drives them
// (carry every mask contribution through the wire codec to every group,
// and each block to the group that hosts its destination), must
// reproduce the sim driver bit for bit.
// ---------------------------------------------------------------------------

fn seeded_groups(
    dist: &DistributedGraph,
    config: &BfsConfig,
    source: u64,
    hosting: &[Vec<usize>],
) -> Vec<HostedGroup> {
    let mut groups: Vec<HostedGroup> =
        hosting.iter().map(|flats| HostedGroup::new(dist, config, true, flats).unwrap()).collect();
    for g in &mut groups {
        g.seed_source(dist.separation(), source);
    }
    groups
}

/// Per superstep of a traversal over groups: the frontier total entering
/// it, the wire bytes of its cross-rank block bodies, and those of its
/// largest mask contribution (0 when no reduction ran).
#[derive(Debug, Default, PartialEq)]
struct Steps {
    frontiers: Vec<u64>,
    cross_rank_bytes: Vec<u64>,
    mask_bytes: Vec<u64>,
}

/// Runs supersteps `iter..` until the frontier drains.
fn run_from(
    dist: &DistributedGraph,
    config: &BfsConfig,
    groups: &mut [HostedGroup],
    iter: u32,
) -> Steps {
    let mut steps = Steps::default();
    for iter in iter.. {
        let frontier: u64 = groups.iter().map(|g| g.frontier_counts().0).sum();
        if frontier == 0 && groups[0].frontier_counts().1 == 0 {
            break;
        }
        steps.frontiers.push(frontier);
        let (cross_rank_bytes, mask_bytes) = step(dist, config, groups, iter);
        steps.cross_rank_bytes.push(cross_rank_bytes);
        steps.mask_bytes.push(mask_bytes);
    }
    steps
}

/// One superstep over `groups`, driven the way the coordinator drives it.
/// Returns the wire bytes of the cross-rank blocks' bodies and of the
/// largest mask contribution.
fn step(
    dist: &DistributedGraph,
    config: &BfsConfig,
    groups: &mut [HostedGroup],
    iter: u32,
) -> (u64, u64) {
    let topo = dist.topology();
    let mode = config.compression;
    let mut outputs: Vec<_> = groups.iter_mut().map(|g| g.compute(iter)).collect();

    let mut contributions = Vec::new();
    for (g, out) in groups.iter().zip(&outputs) {
        let own = g.mask_contributions(out, mode);
        let mut w = WireWriter::new();
        write_contributions(&mut w, &own);
        let body = w.finish();
        let mut r = WireReader::new(&body);
        let shipped = read_contributions(&mut r, topo.num_ranks()).unwrap();
        r.expect_end().unwrap();
        assert_eq!(shipped, own, "the contribution codec is lossless");
        contributions.extend(shipped);
    }
    let mask_bytes = contributions.iter().map(|c| c.wire_bytes()).max().unwrap_or(0);
    for g in groups.iter_mut() {
        g.consume_contributions(&contributions, mode, iter + 1).unwrap();
    }

    let mut inboxes: Vec<Vec<Block>> = vec![Vec::new(); groups.len()];
    let mut cross_rank_bytes = 0;
    for (g, out) in groups.iter().zip(&mut outputs) {
        for block in g.outgoing_blocks(out, config) {
            if !topo.same_rank(topo.unflat(block.src), topo.unflat(block.dst)) {
                cross_rank_bytes += block.wire_bytes();
            }
            let mut w = WireWriter::new();
            block.encode(&mut w);
            let body = w.finish();
            let mut r = WireReader::new(&body);
            let shipped = Block::decode(&mut r, topo.num_gpus() as usize).unwrap();
            r.expect_end().unwrap();
            assert_eq!(shipped, block, "the block codec is lossless");
            let host = groups.iter().position(|h| h.hosts(block.dst)).expect("every flat hosted");
            inboxes[host].push(shipped);
        }
    }
    for ((g, out), blocks) in groups.iter_mut().zip(&mut outputs).zip(inboxes) {
        let delivered = g.deliveries(blocks).unwrap();
        g.commit(out, &delivered, iter + 1);
    }
    (cross_rank_bytes, mask_bytes)
}

/// Assembles depths and parents from the groups' workers.
fn assemble(dist: &DistributedGraph, groups: &[HostedGroup], source: u64) -> (Vec<u32>, Vec<u64>) {
    let mut workers: Vec<_> =
        groups.iter().flat_map(|g| g.flats().iter().copied().zip(&g.workers)).collect();
    workers.sort_by_key(|&(flat, _)| flat);
    let views: Vec<GpuStateView<'_>> =
        workers.iter().map(|&(_, w)| GpuStateView::of_worker(w)).collect();
    let (topo, sep, n) = (dist.topology(), dist.separation(), dist.num_vertices());
    let depths = assemble_depths(&topo, sep, n, &views);
    let (parents, _) = assemble_parents(&topo, sep, source, n, &views, &depths);
    (depths, parents)
}

/// Traverses from `source` with one `HostedGroup` per entry of `hosting`.
/// Returns depths, parents and the per-superstep record.
fn traverse_with_groups(
    dist: &DistributedGraph,
    config: &BfsConfig,
    source: u64,
    hosting: &[Vec<usize>],
) -> (Vec<u32>, Vec<u64>, Steps) {
    let mut groups = seeded_groups(dist, config, source, hosting);
    let steps = run_from(dist, config, &mut groups, 0);
    let (depths, parents) = assemble(dist, &groups, source);
    (depths, parents, steps)
}

#[test]
fn hosted_groups_match_the_sim_driver_in_process() {
    let topo = Topology::new(4, 2);
    let whole = vec![(0..8).collect::<Vec<usize>>()];
    let rank_halves = vec![(0..4).collect::<Vec<usize>>(), (4..8).collect()];
    for scale in 10..=12 {
        let graph = RmatConfig::graph500(scale).generate();
        let source =
            graph.out_degrees().iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0 as u64;
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
                    let (depths, parents, steps) =
                        traverse_with_groups(&dist, &config, source, hosting);
                    assert_eq!(depths, sim.depths, "depths, {groups} group(s), {cell}");
                    assert_eq!(Some(&parents), sim.parents.as_ref(), "parents, {cell}");
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

/// What proc recovery does, in process: capture a checkpoint after k
/// supersteps, ship each group its GPUs' images through the wire codec,
/// run on to the end, restore — group 1 onto a freshly built group (the
/// spare path) or group 0 adopting every GPU (the spread path) — and
/// replay. Under a compressing `mode` the replay only reduces if every
/// group dropped its mask-codec reference on restore, as the fresh one
/// never had it.
fn checkpoint_through_the_wire(mode: CompressionMode) {
    let topo = Topology::new(4, 2);
    let rank_halves = vec![(0..4).collect::<Vec<usize>>(), (4..8).collect()];
    let graph = RmatConfig::graph500(9).generate();
    let source = graph.out_degrees().iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0 as u64;
    let config = BfsConfig::new(16).with_compression(mode);
    let dist = DistributedGraph::build(&graph, topo, &config).unwrap();
    let (want_depths, want_parents, want) =
        traverse_with_groups(&dist, &config, source, &rank_halves);
    let k = 2u32;
    assert!(want.frontiers.len() > k as usize + 1, "the checkpoint must precede real work");
    let num_gpus = topo.num_gpus() as usize;

    for spread in [false, true] {
        let mut groups = seeded_groups(&dist, &config, source, &rank_halves);
        let mut frontiers = Vec::new();
        for iter in 0..k {
            frontiers.push(groups.iter().map(|g| g.frontier_counts().0).sum());
            step(&dist, &config, &mut groups, iter);
        }
        let workers: Vec<_> = groups.iter().flat_map(|g| g.workers.iter().cloned()).collect();
        let cp = Checkpoint::capture(k, &workers, 0);
        let hosting =
            if spread { vec![(0..8).collect::<Vec<usize>>()] } else { rank_halves.clone() };
        let bodies: Vec<Vec<u8>> = hosting
            .iter()
            .map(|flats| {
                let mut w = WireWriter::new();
                write_images(&mut w, flats.iter().map(|&f| &cp.images()[f]));
                w.finish()
            })
            .collect();

        run_from(&dist, &config, &mut groups, k);
        assert_eq!(groups[0].mask_reference(mode).is_some(), mode.is_on(), "{mode}");
        let finished: Vec<u64> = groups[0].capture().iter().map(|img| img.digest).collect();
        // Any one flipped byte of an image list — count, any field, seal —
        // is a typed decode error, so nothing is installed.
        let mut w = WireWriter::new();
        write_images(&mut w, &cp.images()[..1]);
        let one = w.finish();
        for at in 0..one.len() {
            let mut tampered = one.clone();
            tampered[at] ^= 0x10;
            let mut r = WireReader::new(&tampered);
            let decoded =
                read_images(&mut r, num_gpus).and_then(|imgs| r.expect_end().map(|_| imgs));
            assert!(decoded.is_err(), "flip at byte {at} of {} went undetected", tampered.len());
        }
        // A restore that leaves a hosted GPU uncovered is refused before
        // any image is installed.
        let partial = &cp.images()[..3];
        assert!(groups[0].restore(&dist, &config, true, partial).is_err());
        let untouched: Vec<u64> = groups[0].capture().iter().map(|img| img.digest).collect();
        assert_eq!(untouched, finished, "a refused restore installs nothing");

        if spread {
            groups.truncate(1);
        } else {
            groups[1] = seeded_groups(&dist, &config, source, &rank_halves[1..]).remove(0);
        }
        for (g, body) in groups.iter_mut().zip(&bodies) {
            let mut r = WireReader::new(body);
            let images = read_images(&mut r, num_gpus).unwrap();
            r.expect_end().unwrap();
            g.restore(&dist, &config, true, &images).unwrap();
        }
        // Every group restarts without a codec reference, as the spare.
        assert!(groups.iter().all(|g| g.mask_reference(mode).is_none()), "{mode}");
        frontiers.extend(run_from(&dist, &config, &mut groups, k).frontiers);
        let (depths, parents) = assemble(&dist, &groups, source);
        assert_eq!(depths, want_depths, "depths, spread {spread}, {mode}");
        assert_eq!(parents, want_parents, "parents, spread {spread}, {mode}");
        assert_eq!(frontiers, want.frontiers, "frontier totals, spread {spread}, {mode}");
    }
}
