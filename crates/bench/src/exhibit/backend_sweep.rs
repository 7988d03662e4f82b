//! Backend sweep: the simulator vs the real multi-process runtime.
//!
//! Not a paper figure — the paper runs on a real GPU cluster — but the
//! repo's closest analogue: the same traversal executed (a) in the
//! deterministic modeled-time simulator and (b) in real worker OS
//! processes exchanging sealed frames over Unix-domain sockets. Each
//! worker width runs on one backend: a cold run from the hub source, which
//! spawns the pool and ships it the graph, then [`WARM_RUNS`] warm runs
//! from other sources on the same workers. Three measurements per width:
//!
//! 1. **Agreement**: depths and parents must be bit-exact across
//!    backends (the whole point of the shared-kernel design), and no
//!    warm run may spawn a process.
//! 2. **Throughput**: the sim's modeled GTEPS next to the proc
//!    backend's wall-clock GTEPS, cold and warm (host-CPU kernels; expect
//!    orders of magnitude below modeled Ray numbers — the columns exist to
//!    track runtime overhead, not to flatter).
//! 3. **Traffic**: bytes the sim *models* crossing rank boundaries vs
//!    bytes the proc runtime *actually shipped* over sockets (frames,
//!    headers and seals included), cold (with the graph's shipping) and
//!    warm, and the part of them that moved GPU state (checkpoint deltas,
//!    final states and resuming `Begin`s, `ProcReport::state_bytes`).
//!
//! Plus the recovery bill: a worker is SIGKILL'd mid-sweep, found dead
//! when its connection closes, and recovered onto a spare process (and,
//! separately, spread onto survivors); the real detect/re-home/total
//! times are reported. `--smoke` fails if either detection took
//! [`DETECT_MS_MAX`] or more, as a death waited out instead of heard would.
//!
//! Usage: `gcbfs-bench backend_sweep [--smoke]`. Environment knobs:
//! `GCBFS_SCALE` (default 12; `--smoke` 10), `GCBFS_JSON_OUT=/path.json`
//! (writes the measurements; `results/BENCH_backend.json` in CI).
//!
//! The coordinator spawns the workers from this same binary, through its
//! hidden `worker --socket PATH --worker N` entry.

use gcbfs_bench::prelude::*;
use gcbfs_core::backend::{Backend, BackendRun, ProcBackend, SimBackend};
use gcbfs_core::procrt::{KillSpec, ProcOptions, RecoveryMode, WorkerCommand};
use gcbfs_core::recovery::RecoveryConfig;

/// Runs per width on the pool the cold run spawned, each from another
/// source.
const WARM_RUNS: usize = 4;

/// The smoke gate on a recovery's detection time, kill to death heard.
const DETECT_MS_MAX: f64 = 100.0;

fn proc_backend(opts: ProcOptions) -> ProcBackend {
    let exe = std::env::current_exe().expect("own path");
    ProcBackend::new(WorkerCommand::new(exe, vec!["worker".to_string()]), opts)
}

fn agrees(proc: &BackendRun, sim: &BackendRun) -> bool {
    proc.depths == sim.depths && proc.parents == sim.parents
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

pub fn run(k: &Knobs, smoke: Option<&str>) {
    let smoke = smoke.is_some();
    let scale = k.scale.unwrap_or(if smoke { 10 } else { 12 });
    let th = 32;
    let topo = Topology::new(4, 2);
    let config = BfsConfig::new(th);
    let graph = RmatConfig::graph500(scale).generate();
    let source = graph.hub().expect("graph has vertices");
    let warm_sources: Vec<u64> = graph
        .source_pool(WARM_RUNS + 1, 7)
        .into_iter()
        .filter(|&s| s != source)
        .take(WARM_RUNS)
        .collect();
    let g500_edges = graph.num_edges() / 2;
    println!(
        "Backend sweep: RMAT scale {scale}, TH {th}, {} GPUs ({}x{}), cold source {source}, \
         warm sources {warm_sources:?}\n",
        topo.num_gpus(),
        topo.num_ranks(),
        topo.gpus_per_rank()
    );

    let sim_run = |s| SimBackend.run(&graph, topo, s, &config, true).expect("sim run");
    let sim = sim_run(source);
    let sim_result = sim.sim.as_ref().expect("sim result");
    let sim_gteps = sim_result.gteps(g500_edges);
    let modeled_bytes = sim_result.stats.total_remote_bytes();
    let warm_sims: Vec<BackendRun> = warm_sources.iter().map(|&s| sim_run(s)).collect();
    let warm_modeled_bytes = warm_sims
        .iter()
        .map(|r| r.sim.as_ref().expect("sim result").stats.total_remote_bytes())
        .sum::<u64>() as f64
        / WARM_RUNS as f64;

    let mut rows = Vec::new();
    let mut width_json = Vec::new();
    let mut all_bit_exact = true;
    let mut warm_spawned_total = 0;
    for procs in [1u32, 2, 4] {
        let backend = proc_backend(ProcOptions { workers: procs, ..ProcOptions::default() });
        let run = |s| backend.run(&graph, topo, s, &config, true).expect("proc backend run");
        let cold = run(source);
        let report = cold.proc.as_ref().expect("proc report");
        let mut bit_exact = agrees(&cold, &sim);
        let mut warm_ms = Vec::new();
        let (mut warm_wire, mut warm_state, mut warm_spawned) = (0u64, 0u64, 0u32);
        for (&s, want) in warm_sources.iter().zip(&warm_sims) {
            let warm = run(s);
            bit_exact &= agrees(&warm, want);
            let r = warm.proc.as_ref().expect("proc report");
            warm_ms.push(ms(r.wall_seconds));
            warm_wire += r.wire_bytes;
            warm_state += r.state_bytes;
            warm_spawned += r.spawned;
        }
        all_bit_exact &= bit_exact;
        warm_spawned_total += warm_spawned;
        let gteps = |wall_ms: f64| g500_edges as f64 / (wall_ms / 1e3).max(1e-12) / 1e9;
        let cold_ms = ms(report.wall_seconds);
        let warm_wall_ms = median(warm_ms);
        let warm_wire = warm_wire as f64 / WARM_RUNS as f64;
        let warm_state = warm_state as f64 / WARM_RUNS as f64;
        rows.push(vec![
            format!("{procs}"),
            format!("{}", report.iterations),
            format!("{:.4}", sim_gteps),
            f2(cold_ms),
            f2(warm_wall_ms),
            format!("{:.6}", gteps(cold_ms)),
            format!("{:.6}", gteps(warm_wall_ms)),
            format!("{modeled_bytes}"),
            format!("{}", report.wire_bytes),
            format!("{warm_wire:.0}"),
            format!("{warm_state:.0}"),
            f2(warm_wire / warm_modeled_bytes.max(1.0)),
            format!("{warm_spawned}"),
            if bit_exact { "yes".into() } else { "NO".into() },
        ]);
        width_json.push(format!(
            "{{\"procs\":{procs},\"iterations\":{},\"sim_gteps\":{sim_gteps},\
             \"proc_gteps\":{},\"wall_ms\":{cold_ms},\"modeled_bytes\":{modeled_bytes},\
             \"wire_bytes\":{},\"state_bytes\":{},\"spawned\":{},\"warm_runs\":{WARM_RUNS},\
             \"warm_wall_ms\":{warm_wall_ms},\"warm_proc_gteps\":{},\
             \"warm_wire_bytes\":{warm_wire},\"warm_state_bytes\":{warm_state},\
             \"warm_modeled_bytes\":{warm_modeled_bytes},\
             \"warm_spawned\":{warm_spawned},\"bit_exact\":{bit_exact}}}",
            report.iterations,
            gteps(cold_ms),
            report.wire_bytes,
            report.state_bytes,
            report.spawned,
            gteps(warm_wall_ms),
        ));
    }
    print_table(
        "sim vs proc backend: 1 cold run, then warm runs on its pool (bit-exact required)",
        &[
            "procs",
            "iters",
            "sim GTEPS",
            "cold ms",
            "warm ms",
            "cold GTEPS",
            "warm GTEPS",
            "modeled B",
            "cold wire B",
            "warm wire B",
            "warm state B",
            "warm wire/modeled",
            "warm spawned",
            "bit-exact",
        ],
        &rows,
    );

    // The recovery bill: SIGKILL a worker mid-sweep and measure the
    // real detection and re-homing times, for both the spare-process and
    // spread-onto-survivors paths.
    println!("\nrecovery bill (SIGKILL mid-sweep, death heard as the connection closes):");
    let mut rec_rows = Vec::new();
    let mut rec_json = Vec::new();
    let mut detect_ms = Vec::new();
    let kill_config = config.with_recovery(RecoveryConfig::default().with_checkpoint_interval(2));
    for (label, spares, victim) in [("spare", 1u32, 1u32), ("spread", 0, 0)] {
        let opts = ProcOptions {
            workers: 2,
            kill: Some(KillSpec { worker: victim, iter: 1 }),
            ..ProcOptions::default()
        };
        let proc = proc_backend(opts)
            .run(&graph, topo.with_spares(spares), source, &kill_config, true)
            .expect("proc backend run");
        let report = proc.proc.as_ref().expect("proc report");
        let rec = report.recovery.expect("a killed worker must be recovered");
        let expected = if label == "spare" { RecoveryMode::Spare } else { RecoveryMode::Spread };
        assert_eq!(rec.mode, expected, "recovery took the wrong path");
        let bit_exact = agrees(&proc, &sim);
        all_bit_exact &= bit_exact;
        detect_ms.push(ms(rec.detect_seconds));
        rec_rows.push(vec![
            label.to_string(),
            format!("{}", rec.worker),
            f2(ms(rec.detect_seconds)),
            f2(ms(rec.recover_seconds)),
            format!("{}", rec.resumed_iter),
            format!("{}", report.state_bytes),
            f2(ms(report.wall_seconds)),
            if bit_exact { "yes".into() } else { "NO".into() },
        ]);
        rec_json.push(format!(
            "{{\"mode\":\"{label}\",\"worker\":{},\"detect_ms\":{},\"recover_ms\":{},\
             \"resumed_iter\":{},\"state_bytes\":{},\"total_wall_ms\":{},\
             \"bit_exact\":{bit_exact}}}",
            rec.worker,
            ms(rec.detect_seconds),
            ms(rec.recover_seconds),
            rec.resumed_iter,
            report.state_bytes,
            ms(report.wall_seconds)
        ));
    }
    print_table(
        "recovery after a real kill",
        &[
            "mode",
            "victim",
            "detect ms",
            "re-home ms",
            "resumed iter",
            "state B",
            "total wall ms",
            "bit-exact",
        ],
        &rec_rows,
    );

    k.emit_json(&format!(
        "{{\"bench\":\"backend\",\"scale\":{scale},\"gpus\":{},\"th\":{th},\
         \"sim_gteps\":{sim_gteps},\"modeled_bytes\":{modeled_bytes},\
         \"widths\":[{}],\"recovery\":[{}],\"bit_exact\":{all_bit_exact}}}",
        topo.num_gpus(),
        width_json.join(","),
        rec_json.join(",")
    ));
    assert!(all_bit_exact, "a proc-backend run diverged from the simulator");
    assert_eq!(warm_spawned_total, 0, "a warm run spawned a process instead of using the pool");
    if smoke {
        assert!(
            detect_ms.iter().all(|&d| d < DETECT_MS_MAX),
            "a kill took {detect_ms:?} ms to detect, not under {DETECT_MS_MAX}: \
             a death was waited out instead of heard"
        );
        println!(
            "\nsmoke: all widths (cold and warm) and both recovery paths bit-exact against the \
             sim; no warm run spawned; both deaths detected in under {DETECT_MS_MAX} ms"
        );
    }
}
