//! Backend sweep: the simulator vs the real multi-process runtime.
//!
//! Not a paper figure — the paper runs on a real GPU cluster — but the
//! repo's closest analogue: the same traversal executed (a) in the
//! deterministic modeled-time simulator and (b) in real worker OS
//! processes exchanging sealed frames over Unix-domain sockets. Three
//! measurements per worker width:
//!
//! 1. **Agreement**: depths and parents must be bit-exact across
//!    backends (the whole point of the shared-kernel design).
//! 2. **Throughput**: the sim's modeled GTEPS next to the proc
//!    backend's wall-clock GTEPS (host-CPU kernels; expect orders of
//!    magnitude below modeled Ray numbers — the column exists to track
//!    runtime overhead, not to flatter).
//! 3. **Traffic**: bytes the sim *models* crossing rank boundaries vs
//!    bytes the proc runtime *actually shipped* over sockets (frames,
//!    headers, seals, heartbeats included).
//!
//! Plus the recovery bill: a worker is SIGKILL'd mid-sweep, confirmed
//! dead by phi-accrual heartbeat silence, and recovered onto a spare
//! process (and, separately, spread onto survivors); the real
//! detect/re-home/total times are reported.
//!
//! Environment knobs: `GCBFS_SCALE` (default 12; `--smoke` 10),
//! `GCBFS_TH`. `GCBFS_JSON_OUT=/path.json` writes the measurements as
//! JSON (`results/BENCH_backend.json` in CI).
//!
//! Usage: `cargo run --release --bin backend_sweep [--smoke]`
//!
//! The binary is its own worker executable: the coordinator respawns it
//! as `backend_sweep worker --socket PATH --worker N` (hidden mode).

use gcbfs_bench::{env_or, f2, print_table};
use gcbfs_cluster::topology::Topology;
use gcbfs_core::backend::{Backend, BackendRun, ProcBackend, SimBackend};
use gcbfs_core::config::BfsConfig;
use gcbfs_core::procrt::{self, ChaosSpec, KillSpec, ProcOptions, RecoveryMode, WorkerCommand};
use gcbfs_core::recovery::RecoveryConfig;
use gcbfs_graph::rmat::RmatConfig;
use gcbfs_graph::EdgeList;

fn ms(s: f64) -> f64 {
    s * 1e3
}

/// Hidden worker mode: `backend_sweep worker --socket PATH --worker N`.
fn worker_mode(args: &[String]) -> ! {
    let mut socket = None;
    let mut worker = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = it.next().cloned(),
            "--worker" => worker = it.next().and_then(|v| v.parse::<u32>().ok()),
            _ => {}
        }
    }
    let (socket, worker) = match (socket, worker) {
        (Some(s), Some(w)) => (s, w),
        _ => {
            eprintln!("worker mode needs --socket PATH --worker N");
            std::process::exit(2);
        }
    };
    match procrt::worker::run_worker(std::path::Path::new(&socket), worker) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("worker {worker}: {e}");
            std::process::exit(1);
        }
    }
}

fn worker_cmd() -> WorkerCommand {
    let exe = std::env::current_exe().expect("own path");
    WorkerCommand::new(exe, vec!["worker".to_string()])
}

fn run_proc(
    graph: &EdgeList,
    topo: Topology,
    source: u64,
    config: &BfsConfig,
    opts: ProcOptions,
) -> BackendRun {
    ProcBackend::new(worker_cmd(), opts)
        .run(graph, topo, source, config, true)
        .expect("proc backend run")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("worker") {
        worker_mode(&args[2..]);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = env_or("GCBFS_SCALE", if smoke { 10 } else { 12 }) as u32;
    let th = env_or("GCBFS_TH", 32);
    let topo = Topology::new(4, 2);
    let config = BfsConfig::new(th);
    let graph = RmatConfig::graph500(scale).generate();
    let degrees = graph.out_degrees();
    let source = degrees.iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0 as u64;
    let g500_edges = graph.num_edges() / 2;
    println!(
        "Backend sweep: RMAT scale {scale}, TH {th}, {} GPUs ({}x{}), source {source}\n",
        topo.num_gpus(),
        topo.num_ranks(),
        topo.gpus_per_rank()
    );

    let sim = SimBackend.run(&graph, topo, source, &config, true).expect("sim run");
    let sim_result = sim.sim.as_ref().expect("sim result");
    let sim_gteps = sim_result.gteps(g500_edges);
    let modeled_bytes = sim_result.stats.total_remote_bytes();

    let mut rows = Vec::new();
    let mut width_json = Vec::new();
    let mut all_bit_exact = true;
    for procs in [1u32, 2, 4] {
        let opts = ProcOptions { workers: procs, ..ProcOptions::default() };
        let proc = run_proc(&graph, topo, source, &config, opts);
        let report = proc.proc.as_ref().expect("proc report");
        let bit_exact = proc.depths == sim.depths && proc.parents == sim.parents;
        all_bit_exact &= bit_exact;
        let proc_gteps = g500_edges as f64 / report.wall_seconds.max(1e-12) / 1e9;
        rows.push(vec![
            format!("{procs}"),
            format!("{}", report.iterations),
            format!("{:.4}", sim_gteps),
            format!("{:.6}", proc_gteps),
            f2(ms(report.wall_seconds)),
            format!("{modeled_bytes}"),
            format!("{}", report.wire_bytes),
            f2(report.wire_bytes as f64 / modeled_bytes.max(1) as f64),
            if bit_exact { "yes".into() } else { "NO".into() },
        ]);
        width_json.push(format!(
            "{{\"procs\":{procs},\"iterations\":{},\"sim_gteps\":{sim_gteps},\
             \"proc_gteps\":{proc_gteps},\"wall_ms\":{},\"modeled_bytes\":{modeled_bytes},\
             \"wire_bytes\":{},\"heartbeats\":{},\"bit_exact\":{bit_exact}}}",
            report.iterations,
            ms(report.wall_seconds),
            report.wire_bytes,
            report.heartbeats
        ));
    }
    print_table(
        "sim vs proc backend (bit-exact required)",
        &[
            "procs",
            "iters",
            "sim GTEPS",
            "proc GTEPS",
            "wall ms",
            "modeled B",
            "wire B",
            "wire/modeled",
            "bit-exact",
        ],
        &rows,
    );

    // The recovery bill: SIGKILL a worker mid-sweep and measure the
    // real phi-accrual detection and re-homing times, for both the
    // spare-process and spread-onto-survivors paths.
    println!("\nrecovery bill (SIGKILL mid-sweep, phi-accrual confirmation):");
    let mut rec_rows = Vec::new();
    let mut rec_json = Vec::new();
    let kill_config = config.with_recovery(RecoveryConfig::default().with_checkpoint_interval(2));
    for (label, spares, victim) in [("spare", 1u32, 1u32), ("spread", 0, 0)] {
        let opts = ProcOptions {
            workers: 2,
            chaos: ChaosSpec {
                kill: Some(KillSpec { worker: victim, iter: 1 }),
                ..ChaosSpec::default()
            },
            ..ProcOptions::default()
        };
        let proc = run_proc(&graph, topo.with_spares(spares), source, &kill_config, opts);
        let report = proc.proc.as_ref().expect("proc report");
        let rec = report.recovery.expect("a killed worker must be recovered");
        let expected = if label == "spare" { RecoveryMode::Spare } else { RecoveryMode::Spread };
        assert_eq!(rec.mode, expected, "recovery took the wrong path");
        let bit_exact = proc.depths == sim.depths && proc.parents == sim.parents;
        all_bit_exact &= bit_exact;
        rec_rows.push(vec![
            label.to_string(),
            format!("{}", rec.worker),
            f2(ms(rec.detect_seconds)),
            f2(ms(rec.recover_seconds)),
            format!("{}", rec.resumed_iter),
            f2(ms(report.wall_seconds)),
            if bit_exact { "yes".into() } else { "NO".into() },
        ]);
        rec_json.push(format!(
            "{{\"mode\":\"{label}\",\"worker\":{},\"detect_ms\":{},\"recover_ms\":{},\
             \"resumed_iter\":{},\"total_wall_ms\":{},\"bit_exact\":{bit_exact}}}",
            rec.worker,
            ms(rec.detect_seconds),
            ms(rec.recover_seconds),
            rec.resumed_iter,
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
            "total wall ms",
            "bit-exact",
        ],
        &rec_rows,
    );

    let doc = format!(
        "{{\"bench\":\"backend\",\"scale\":{scale},\"gpus\":{},\"th\":{th},\
         \"sim_gteps\":{sim_gteps},\"modeled_bytes\":{modeled_bytes},\
         \"widths\":[{}],\"recovery\":[{}],\"bit_exact\":{all_bit_exact}}}",
        topo.num_gpus(),
        width_json.join(","),
        rec_json.join(",")
    );
    println!("\n{doc}");
    if let Ok(path) = std::env::var("GCBFS_JSON_OUT") {
        std::fs::write(&path, &doc).expect("write GCBFS_JSON_OUT");
        println!("json written to {path}");
    }
    assert!(all_bit_exact, "a proc-backend run diverged from the simulator");
    if smoke {
        println!("\nsmoke: all widths and both recovery paths bit-exact against the sim");
    }
}
