//! A proc backend's worker processes live as long as its pool and no
//! longer, and a dead one is reaped. In their own test binary, one cell at
//! a time, so the `/proc` scan for children of this process sees only the
//! running cell's workers.

use gpu_cluster_bfs::core::backend::{Backend, ProcBackend, SimBackend};
use gpu_cluster_bfs::core::procrt::{
    ChaosSpec, KillSpec, ProcOptions, RecoveryMode, WorkerCommand,
};
use gpu_cluster_bfs::core::recovery::RecoveryConfig;
use gpu_cluster_bfs::prelude::*;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Held by each cell for its whole run.
static ONE_CELL_AT_A_TIME: Mutex<()> = Mutex::new(());

fn worker_cmd() -> WorkerCommand {
    WorkerCommand::new(env!("CARGO_BIN_EXE_gcbfs"), vec!["backend-worker".to_string()])
}

/// Pids whose parent is this process, with their state letter (`Z` for a
/// zombie not yet reaped).
fn children() -> Vec<(u32, char)> {
    let me = std::process::id().to_string();
    let entries = std::fs::read_dir("/proc").expect("/proc is readable");
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter_map(|pid| {
            // "pid (comm) state ppid ...": comm may hold spaces.
            let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
            let (_, rest) = stat.rsplit_once(')')?;
            let mut fields = rest.split_whitespace();
            let state = fields.next()?.chars().next()?;
            (fields.next()? == me).then_some((pid, state))
        })
        .collect()
}

/// The worker slot in `pid`'s command line (`... --worker N`).
fn slot_of(pid: u32) -> Option<u32> {
    let cmdline = std::fs::read_to_string(format!("/proc/{pid}/cmdline")).ok()?;
    let mut args = cmdline.split('\0');
    args.find(|&a| a == "--worker")?;
    args.next()?.parse().ok()
}

#[test]
fn a_dropped_pool_leaves_no_child_process() {
    let _serial = ONE_CELL_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let graph = RmatConfig::graph500(9).generate();
    let topo = Topology::new(2, 2);
    let config = BfsConfig::new(16);
    let backend =
        ProcBackend::new(worker_cmd(), ProcOptions { workers: 2, ..ProcOptions::default() });
    assert!(children().is_empty(), "nothing spawns before the first run");
    let run = |source: u64| {
        let want = SimBackend.run(&graph, topo, source, &config, false).unwrap().depths;
        let run = backend.run(&graph, topo, source, &config, false).unwrap();
        assert_eq!(run.depths, want, "source {source}");
        run.proc.unwrap().spawned
    };
    let spawned: Vec<u32> = [1, 2, 3].into_iter().map(run).collect();
    assert_eq!(spawned, [2, 0, 0]);
    let workers = children();
    assert_eq!(workers.len(), 2, "the pool's workers outlive the runs: {workers:?}");

    // A worker killed while the pool idles is found by the next run, which
    // replaces the pool and reaps the corpse.
    let (victim, _) = workers[0];
    let killed = std::process::Command::new("kill").args(["-9", &victim.to_string()]).status();
    assert!(killed.unwrap().success());
    let deadline = Instant::now() + Duration::from_secs(10);
    while !children().contains(&(victim, 'Z')) {
        assert!(Instant::now() < deadline, "worker {victim} did not die");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(run(4), 2, "the run after an idle death is cold");
    let workers = children();
    assert_eq!(workers.len(), 2, "the lost worker was reaped: {workers:?}");
    assert!(workers.iter().all(|&(pid, _)| pid != victim));

    drop(backend);
    assert_eq!(children(), [], "a dropped pool reaps every worker");
}

#[test]
fn a_worker_killed_mid_run_is_reaped_before_its_spare_serves() {
    let _serial = ONE_CELL_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let graph = RmatConfig::graph500(9).generate();
    let topo = Topology::new(2, 2).with_spares(1);
    let config =
        BfsConfig::new(16).with_recovery(RecoveryConfig::default().with_checkpoint_interval(2));
    let mut backend =
        ProcBackend::new(worker_cmd(), ProcOptions { workers: 2, ..ProcOptions::default() });
    let want = SimBackend.run(&graph, topo, 1, &config, false).unwrap().depths;
    backend.run(&graph, topo, 1, &config, false).unwrap();
    let before = children();
    assert_eq!(before.len(), 2, "{before:?}");
    let victim = before.iter().map(|&(pid, _)| pid).find(|&pid| slot_of(pid) == Some(1));
    let victim = victim.expect("slot 1 has a worker");

    backend.opts.chaos = ChaosSpec { kill: Some(KillSpec { worker: 1, iter: 1 }) };
    let run = backend.run(&graph, topo, 1, &config, false).unwrap();
    assert_eq!(run.depths, want);
    let rec = run.proc.unwrap().recovery.expect("the kill is recovered");
    assert_eq!((rec.worker, rec.mode), (1, RecoveryMode::Spare));
    // The victim is gone, not a zombie: the pool reaped it when its
    // connection closed. The survivor and the spare are the pool.
    let after = children();
    assert_eq!(after.len(), 2, "exactly the pool's live workers: {after:?}");
    assert!(after.iter().all(|&(_, state)| state != 'Z'), "a zombie: {after:?}");
    assert!(after.iter().all(|&(pid, _)| pid != victim), "victim {victim} remains: {after:?}");
    let mut slots: Vec<_> = after.iter().map(|&(pid, _)| slot_of(pid)).collect();
    slots.sort();
    assert_eq!(slots, [Some(0), Some(1)], "the survivor and the spare");
    drop(backend);
    assert_eq!(children(), [], "a dropped pool reaps every worker");
}
