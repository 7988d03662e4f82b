//! A proc backend's worker processes live as long as its pool and no
//! longer. Alone in its own test binary, so the `/proc` scan for children
//! of this process sees only this test's workers.

use gpu_cluster_bfs::core::backend::{Backend, ProcBackend, SimBackend};
use gpu_cluster_bfs::core::procrt::{ProcOptions, WorkerCommand};
use gpu_cluster_bfs::prelude::*;
use std::time::{Duration, Instant};

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

#[test]
fn a_dropped_pool_leaves_no_child_process() {
    let graph = RmatConfig::graph500(9).generate();
    let topo = Topology::new(2, 2);
    let config = BfsConfig::new(16);
    let cmd = WorkerCommand::new(env!("CARGO_BIN_EXE_gcbfs"), vec!["backend-worker".to_string()]);
    let backend = ProcBackend::new(cmd, ProcOptions { workers: 2, ..ProcOptions::default() });
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
