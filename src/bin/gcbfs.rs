//! `gcbfs` — command-line front-end for the GPU-cluster BFS reproduction.
//!
//! ```text
//! gcbfs generate rmat --scale 16 --out graph.bin
//! gcbfs generate powerlaw --scale 16 --out social.bin
//! gcbfs generate web --scale 14 --out web.bin
//! gcbfs info graph.bin
//! gcbfs bfs graph.bin --ranks 4 --gpus 2 --threshold 45 [--source V]
//!     [--no-do] [--local-all2all] [--uniquify] [--nonblocking] [--parents]
//! gcbfs pagerank graph.bin --ranks 4 --gpus 2 --threshold 45
//! gcbfs serve graph.bin --ranks 4 --gpus 2 --qps 500 --batch 64
//! ```
//!
//! Files ending in `.txt` use the text edge-list format; anything else the
//! binary format (see `gcbfs_graph::io`).

use gpu_cluster_bfs::core::pagerank::PageRankConfig;
use gpu_cluster_bfs::graph::{io, EdgeList};
use gpu_cluster_bfs::prelude::*;
use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  gcbfs generate <rmat|powerlaw|web> --scale N --out FILE [--seed S]
  gcbfs info FILE
  gcbfs bfs FILE [--ranks R] [--gpus G] [--spares S] [--threshold TH]
            [--source V] [--no-do] [--local-all2all] [--uniquify]
            [--nonblocking] [--parents] [--validate]
            [--verify off|checksums|full] [--backend sim|proc]
      sim only: [--trace] [--profile OUT.json]
            [--fail GPU:ITER] [--chaos SEED] [--sdc SEED]
            [--mutate N] [--mutate-ops K] [--mutate-locality F]
            [--mutate-seed S] [--compact-every N]
      proc only: [--procs N] [--kill WORKER:ITER]
  gcbfs pagerank FILE [--ranks R] [--gpus G] [--threshold TH]
            [--damping D] [--iterations N]
  gcbfs components FILE [--ranks R] [--gpus G] [--threshold TH]
  gcbfs betweenness FILE [--ranks R] [--gpus G] [--threshold TH] [--samples K]
  gcbfs sssp FILE [--ranks R] [--gpus G] [--threshold TH] [--source V]
            [--max-weight W] [--weight-seed S]
  gcbfs serve FILE [--ranks R] [--gpus G] [--threshold TH] [--qps Q]
            [--arrivals N] [--seed S] [--deadline-ms D] [--batch B]
            [--window-ms W] [--queue L] [--pool K] [--tenants T]
            [--sssp-permille X] [--pagerank-permille Y]";

/// The option names each command reads. A trailing `=` marks an option
/// that takes a value (`--ranks 4`); a bare name is a switch
/// (`--validate`).
///
/// `--ranks`/`--gpus`/`--spares`/`--threshold`: every graph command.
const GRID: &[&str] = &["ranks=", "gpus=", "spares=", "threshold="];
/// Options every `bfs` reads beyond [`GRID`], then those only its sim or
/// proc path reads.
const BFS: &[&str] = &[
    "source=",
    "no-do",
    "local-all2all",
    "uniquify",
    "nonblocking",
    "parents",
    "validate",
    "verify=",
    "backend=",
];
const BFS_SIM: &[&str] = &[
    "trace",
    "profile=",
    "fail=",
    "chaos=",
    "sdc=",
    "mutate=",
    "mutate-ops=",
    "mutate-locality=",
    "mutate-seed=",
    "compact-every=",
];
const BFS_PROC: &[&str] = &["procs=", "kill="];
const SERVE: &[&str] = &[
    "qps=",
    "arrivals=",
    "seed=",
    "deadline-ms=",
    "batch=",
    "window-ms=",
    "queue=",
    "pool=",
    "tenants=",
    "sssp-permille=",
    "pagerank-permille=",
];

type Command = fn(&Args) -> Result<(), String>;

/// Every command, the option names it reads, and its entry point.
const COMMANDS: &[(&str, &[&[&str]], Command)] = &[
    ("generate", &[&["scale=", "seed=", "out="]], generate),
    ("info", &[], info),
    ("bfs", &[GRID, BFS, BFS_SIM, BFS_PROC], bfs),
    ("pagerank", &[GRID, &["damping=", "iterations="]], pagerank_cmd),
    ("components", &[GRID], components_cmd),
    ("betweenness", &[GRID, &["samples="]], betweenness_cmd),
    ("sssp", &[GRID, &["source=", "max-weight=", "weight-seed="]], sssp_cmd),
    ("serve", &[GRID, SERVE], serve_cmd),
    // Hidden: the proc-backend worker entry point. The coordinator
    // respawns this same binary with `backend-worker --socket PATH
    // --worker N`; it is not part of the human-facing surface.
    ("backend-worker", &[&["socket=", "worker="]], backend_worker),
];

/// Whether `name` takes a value, if one of `tables` lists it.
fn takes_value(tables: &[&[&str]], name: &str) -> Option<bool> {
    let mut entries = tables.iter().flat_map(|t| t.iter());
    entries.find(|k| k.trim_end_matches('=') == name).map(|k| k.ends_with('='))
}

/// Tiny flag parser: `--key value` options and `--flag` switches.
struct Args<'a> {
    positional: Vec<&'a str>,
    options: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Parses `raw` for `command` against the names it reads: each name
    /// must be known, given at most once, and followed by a value exactly
    /// when its table entry ends in `=`.
    fn parse(command: &str, raw: &'a [String], known: &[&[&str]]) -> Result<Self, String> {
        let mut args = Self { positional: Vec::new(), options: Vec::new(), switches: Vec::new() };
        let mut it = raw.iter().map(String::as_str).peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                args.positional.push(a);
                continue;
            };
            let takes = takes_value(known, name)
                .ok_or_else(|| format!("{command} does not take --{name}"))?;
            if args.options.iter().any(|&(k, _)| k == name) || args.switches.contains(&name) {
                return Err(format!("--{name} given more than once"));
            }
            match (takes, it.next_if(|v| !v.starts_with("--"))) {
                (true, Some(v)) => args.options.push((name, v)),
                (true, None) => return Err(format!("--{name} needs a value")),
                (false, None) => args.switches.push(name),
                (false, Some(v)) => return Err(format!("--{name} takes no value, got {v}")),
            }
        }
        Ok(args)
    }

    fn opt<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.options.iter().find(|(k, _)| *k == name) {
            Some((_, v)) => v.parse().map_err(|_| format!("invalid value for --{name}: {v}")),
            None => Ok(default),
        }
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.options
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("missing required option --{name}"))
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// Rejects any name given outside `known`, a subset of what the
    /// command parsed with (`bfs` narrows to its backend's names).
    fn only(&self, command: &str, known: &[&[&str]]) -> Result<(), String> {
        let given = self.options.iter().map(|&(k, _)| k).chain(self.switches.iter().copied());
        for name in given {
            if takes_value(known, name).is_none() {
                return Err(format!("{command} does not take --{name}"));
            }
        }
        Ok(())
    }
}

fn run(raw: &[String]) -> Result<(), String> {
    let command = raw.first().ok_or("no command given")?;
    let &(_, known, entry) = COMMANDS
        .iter()
        .find(|(name, ..)| name == command)
        .ok_or_else(|| format!("unknown command: {command}"))?;
    entry(&Args::parse(command, raw, known)?)
}

fn load(path: &str) -> Result<EdgeList, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    if path.ends_with(".txt") {
        io::read_text(file).map_err(|e| format!("cannot parse {path}: {e}"))
    } else {
        // Buffered: the decoder reads 8 bytes at a time.
        io::read_binary(BufReader::new(file)).map_err(|e| format!("cannot parse {path}: {e}"))
    }
}

fn store(graph: &EdgeList, path: &str) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    if path.ends_with(".txt") {
        io::write_text(graph, file).map_err(|e| format!("cannot write {path}: {e}"))
    } else {
        io::write_binary(graph, file).map_err(|e| format!("cannot write {path}: {e}"))
    }
}

fn generate(args: &Args) -> Result<(), String> {
    let family = *args.positional.get(1).ok_or("generate needs a family (rmat|powerlaw|web)")?;
    let scale: u32 = args.opt("scale", 14)?;
    let seed: u64 = args.opt("seed", 0x5eed)?;
    let out = args.required("out")?;
    let graph = match family {
        "rmat" => RmatConfig::graph500(scale).with_seed(seed).generate(),
        "powerlaw" => {
            let mut cfg = PowerLawConfig::friendster_like(scale);
            cfg.seed = seed;
            cfg.generate()
        }
        "web" => {
            let mut cfg = WebGraphConfig::wdc_like(scale);
            cfg.seed = seed;
            cfg.generate()
        }
        other => return Err(format!("unknown family: {other}")),
    };
    store(&graph, out)?;
    println!(
        "wrote {out}: {} vertices, {} directed edges ({family}, scale {scale})",
        graph.num_vertices,
        graph.num_edges()
    );
    Ok(())
}

fn info(args: &Args) -> Result<(), String> {
    let path = args.positional.get(1).ok_or("info needs a file")?;
    let graph = load(path)?;
    let stats = gpu_cluster_bfs::graph::stats::DegreeStats::from_graph(&graph);
    println!("{path}:");
    println!("  vertices      {}", stats.num_vertices);
    println!("  edges         {}", stats.num_edges);
    println!("  max degree    {}", stats.max_degree);
    println!("  mean degree   {:.2}", stats.mean_degree);
    println!("  zero-degree   {}", stats.zero_degree);
    println!("  symmetric     {}", graph.is_symmetric());
    Ok(())
}

fn topology(args: &Args) -> Result<Topology, String> {
    let ranks: u32 = args.opt("ranks", 2)?;
    let gpus: u32 = args.opt("gpus", 2)?;
    let spares: u32 = args.opt("spares", 0)?;
    if ranks == 0 || gpus == 0 {
        return Err("--ranks and --gpus must be positive".into());
    }
    Ok(Topology::new(ranks, gpus).with_spares(spares))
}

/// Parses a `GPU:ITER` pair (e.g. `--fail 5:2`).
fn gpu_at_iter(v: &str, name: &str) -> Result<(usize, u32), String> {
    let (g, i) = v.split_once(':').ok_or_else(|| format!("--{name} wants GPU:ITER, got {v}"))?;
    let gpu = g.parse().map_err(|_| format!("invalid GPU in --{name}: {g}"))?;
    let iter = i.parse().map_err(|_| format!("invalid iteration in --{name}: {i}"))?;
    Ok((gpu, iter))
}

fn pick_source(graph: &EdgeList, args: &Args) -> Result<u64, String> {
    match args.options.iter().find(|(k, _)| *k == "source") {
        Some((_, v)) => {
            let s: u64 = v.parse().map_err(|_| format!("invalid --source: {v}"))?;
            if s >= graph.num_vertices {
                return Err(format!("source {s} out of range (n = {})", graph.num_vertices));
            }
            Ok(s)
        }
        None => graph.hub().ok_or_else(|| "the graph has no vertices to start from".into()),
    }
}

/// The proc-backend worker entry point (hidden subcommand): connect to
/// the coordinator socket and serve supersteps until told to finish.
fn backend_worker(args: &Args) -> Result<(), String> {
    let socket = args.required("socket")?;
    let worker: u32 =
        args.required("worker")?.parse().map_err(|_| "invalid --worker id".to_string())?;
    gpu_cluster_bfs::core::procrt::worker::run_worker(std::path::Path::new(socket), worker)
        .map_err(|e| format!("worker {worker}: {e}"))
}

fn bfs(args: &Args) -> Result<(), String> {
    let backend = args.opt::<String>("backend", "sim".into())?;
    let own = match backend.as_str() {
        "sim" => BFS_SIM,
        "proc" => BFS_PROC,
        other => return Err(format!("--backend wants sim or proc, got {other}")),
    };
    args.only(&format!("bfs --backend {backend}"), &[GRID, BFS, own])?;
    let path = args.positional.get(1).ok_or("bfs needs a file")?;
    let graph = load(path)?;
    let topo = topology(args)?;
    let th: u64 = args.opt("threshold", 32)?;
    let profile_out = args.options.iter().find(|(k, _)| *k == "profile").map(|(_, v)| *v);
    let mut config = BfsConfig::new(th)
        .with_direction_optimization(!args.switch("no-do"))
        .with_local_all2all(args.switch("local-all2all"))
        .with_uniquify(args.switch("uniquify"))
        .with_blocking_reduce(!args.switch("nonblocking"));
    if profile_out.is_some() {
        config = config.with_observability(gpu_cluster_bfs::obs::ObservabilityConfig::Full);
    }
    let verify = match args.opt::<String>("verify", "off".into())?.as_str() {
        "off" => gpu_cluster_bfs::core::VerificationMode::Off,
        "checksums" => gpu_cluster_bfs::core::VerificationMode::Checksums,
        "full" => gpu_cluster_bfs::core::VerificationMode::Full,
        other => return Err(format!("--verify wants off, checksums, or full, got {other}")),
    };
    config = config.with_verification(verify);

    if backend == "proc" {
        return bfs_proc(args, &graph, topo, config, path);
    }

    // Optional fault injection: a deterministic fail-stop, or a seeded
    // plan of fail-stops cascading across the grid.
    let mut plan = None;
    if let Some((_, v)) = args.options.iter().find(|(k, _)| *k == "chaos") {
        let seed: u64 = v.parse().map_err(|_| format!("invalid --chaos seed: {v}"))?;
        plan = Some(gpu_cluster_bfs::cluster::fault::FaultPlan::random_elastic(
            seed,
            topo.num_gpus() as usize,
            8,
        ));
    }
    if let Some((_, v)) = args.options.iter().find(|(k, _)| *k == "fail") {
        let (gpu, iter) = gpu_at_iter(v, "fail")?;
        let p = plan.unwrap_or_else(|| gpu_cluster_bfs::cluster::fault::FaultPlan::new(0xfa11));
        plan = Some(p.with_fail_stop(gpu, iter));
    }
    if let Some((_, v)) = args.options.iter().find(|(k, _)| *k == "sdc") {
        let seed: u64 = v.parse().map_err(|_| format!("invalid --sdc seed: {v}"))?;
        // Horizon 4: most traversals of interest run at least that deep,
        // so seeded events land inside the run instead of past its end.
        let sdc = gpu_cluster_bfs::cluster::fault::FaultPlan::random_sdc(
            seed,
            topo.num_gpus() as usize,
            4,
        );
        let mut p = plan.unwrap_or_else(|| gpu_cluster_bfs::cluster::fault::FaultPlan::new(0x5dc));
        for ev in sdc.sdc_events {
            p = p.with_sdc_event(ev);
        }
        plan = Some(p);
    }

    let mutate_batches: usize = args.opt("mutate", 0)?;
    if mutate_batches > 0 {
        // The repair path runs no fault plan, prints no per-superstep
        // trace or parent tree and verifies none of its waves: refuse
        // rather than ignore.
        let refused = [
            (plan.is_some(), "fault injection"),
            (args.switch("trace"), "--trace"),
            (args.switch("parents"), "--parents"),
            (verify.is_on(), "--verify checksums|full"),
        ];
        if let Some((_, what)) = refused.iter().find(|(given, _)| *given) {
            return Err(format!("--mutate cannot be combined with {what}"));
        }
        return bfs_evolving(args, &graph, topo, config, mutate_batches);
    }

    let dist = DistributedGraph::build(&graph, topo, &config).map_err(|e| e.to_string())?;
    let source = pick_source(&graph, args)?;
    let result = match (&plan, args.switch("parents")) {
        (Some(plan), false) => {
            dist.run_with_faults(source, &config, plan).map_err(|e| e.to_string())?
        }
        (Some(_), true) => return Err("--parents cannot be combined with fault injection".into()),
        (None, true) => dist.run_with_parents(source, &config).map_err(|e| e.to_string())?,
        (None, false) => dist.run(source, &config).map_err(|e| e.to_string())?,
    };

    println!(
        "graph {path}: n = {}, m = {}, {} delegates (TH {th}), {} GPUs ({}x{})",
        graph.num_vertices,
        graph.num_edges(),
        dist.separation().num_delegates(),
        topo.num_gpus(),
        topo.num_ranks(),
        topo.gpus_per_rank()
    );
    println!(
        "BFS from {source}: {} iterations, {} reached, max depth {}",
        result.iterations(),
        result.reached(),
        result.max_depth()
    );
    println!(
        "modeled {:.3} ms -> {:.3} GTEPS (Graph500 m/2 convention); wall {:.1} ms",
        result.modeled_seconds() * 1e3,
        result.gteps(graph.num_edges() / 2),
        result.stats.wall_seconds * 1e3
    );
    if plan.is_some() {
        let f = &result.stats.fault;
        println!(
            "resilience: {} fail-stop(s), {} spare absorption(s), {} spreading(s), \
             {} rollback(s)",
            f.fail_stops, f.spare_absorptions, f.spread_hostings, f.rollbacks
        );
        println!(
            "            {} degraded iteration(s); checkpoint {:.3} ms, recovery {:.3} ms",
            f.degraded_iterations,
            f.checkpoint_seconds * 1e3,
            f.recovery_seconds * 1e3
        );
    }
    if result.parents.is_some() {
        println!(
            "parent tree built (final exchange: {:.3} ms modeled)",
            result.parent_exchange_seconds * 1e3
        );
    }
    if args.switch("trace") {
        println!();
        print!("{}", gpu_cluster_bfs::core::trace::RunTrace(&result));
    }
    if let Some(out) = profile_out {
        let log = result.observed.as_ref().expect("observability was enabled");
        let chrome = gpu_cluster_bfs::obs::chrome::export_chrome(log);
        std::fs::write(out, &chrome).map_err(|e| format!("cannot write {out}: {e}"))?;
        let cp = log.critical_path();
        println!("profile: wrote {out} ({} bytes)", chrome.len());
        print!("{}", cp.summary());
    }
    if verify.is_on() {
        let f = &result.stats.fault;
        println!(
            "verification ({}): {} SDC event(s) injected, {} detection(s), \
             {} re-execution(s), {} verified rollback(s)",
            verify.label(),
            f.injected_sdc,
            f.sdc_detections,
            f.sdc_reexecutions,
            f.rollbacks
        );
    }
    if args.switch("validate") {
        // The distributed Graph500-style validator: each GPU checks its
        // own partition's edges against the replicated delegate depths —
        // no reference CSR, no full-graph BFS. Reported untimed, per the
        // Graph500 convention.
        let v = dist.validate_distributed(source, &result.depths, &config.cost);
        println!(
            "distributed validation: {} reached, {} vertices and {} edges checked \
             ({} remote lookups), modeled {:.3} ms (untimed)",
            v.reached,
            v.checked_vertices,
            v.checked_edges,
            v.remote_lookups,
            v.modeled_seconds * 1e3
        );
        if let Some(parents) = &result.parents {
            let csr = Csr::from_edge_list(&graph);
            gpu_cluster_bfs::graph::reference::validate_parents(
                &csr,
                source,
                &result.depths,
                parents,
            )
            .map_err(|e| e.to_string())?;
        }
        if !v.is_ok() {
            for e in &v.errors {
                eprintln!("  invariant violation: {e}");
            }
            return Err(format!("validation FAILED: {} invariant violation(s)", v.error_count));
        }
        println!("validation: OK");
    }
    Ok(())
}

/// The `bfs --backend proc` path: run the traversal in real worker OS
/// processes behind the coordinator, then report wall-clock (not
/// modeled) figures plus the wire and recovery telemetry.
fn bfs_proc(
    args: &Args,
    graph: &EdgeList,
    topo: Topology,
    config: BfsConfig,
    path: &str,
) -> Result<(), String> {
    use gpu_cluster_bfs::core::backend::{Backend, ProcBackend};
    use gpu_cluster_bfs::core::procrt::{KillSpec, ProcOptions, WorkerCommand};
    use gpu_cluster_bfs::core::UNREACHED;

    let procs: u32 = args.opt("procs", 2)?;
    if procs == 0 {
        return Err("--procs must be positive".into());
    }
    let mut kill = None;
    if let Some((_, v)) = args.options.iter().find(|(k, _)| *k == "kill") {
        let (w, i) = gpu_at_iter(v, "kill")?;
        kill = Some(KillSpec { worker: w as u32, iter: i });
    }
    let opts = ProcOptions { workers: procs, kill, ..ProcOptions::default() };
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let backend = ProcBackend::new(WorkerCommand::new(exe, vec!["backend-worker".into()]), opts);
    let source = pick_source(graph, args)?;
    let run = backend
        .run(graph, topo, source, &config, args.switch("parents"))
        .map_err(|e| e.to_string())?;
    let report = run.proc.as_ref().expect("proc backend attaches its report");

    let reached = run.depths.iter().filter(|&&d| d != UNREACHED).count();
    let max_depth = run.depths.iter().filter(|&&d| d != UNREACHED).max().copied().unwrap_or(0);
    println!(
        "graph {path}: n = {}, m = {}, {} GPUs ({}x{}) across {} worker process(es), {} spawned",
        graph.num_vertices,
        graph.num_edges(),
        topo.num_gpus(),
        topo.num_ranks(),
        topo.gpus_per_rank(),
        report.workers,
        report.spawned
    );
    println!(
        "BFS from {source} (proc backend): {} iterations, {reached} reached, max depth {max_depth}",
        report.iterations
    );
    println!(
        "wall {:.1} ms -> {:.3} GTEPS (Graph500 m/2 convention); {} wire bytes \
         ({} of GPU state), {} frames out / {} in, {} checkpoints",
        report.wall_seconds * 1e3,
        (graph.num_edges() / 2) as f64 / report.wall_seconds.max(1e-12) / 1e9,
        report.wire_bytes,
        report.state_bytes,
        report.frames_sent,
        report.frames_received,
        report.checkpoints
    );
    if let Some(r) = &report.recovery {
        println!(
            "recovery: worker {} confirmed dead in {:.1} ms, re-homed via {} in {:.1} ms, \
             resumed at superstep {}",
            r.worker,
            r.detect_seconds * 1e3,
            r.mode.label(),
            r.recover_seconds * 1e3,
            r.resumed_iter
        );
    }
    if args.switch("validate") {
        let csr = Csr::from_edge_list(graph);
        let truth = gpu_cluster_bfs::graph::reference::bfs_depths(&csr, source);
        if run.depths != truth {
            return Err("validation FAILED: proc depths diverge from reference BFS".into());
        }
        if let Some(parents) = &run.parents {
            gpu_cluster_bfs::graph::reference::validate_parents(&csr, source, &run.depths, parents)
                .map_err(|e| e.to_string())?;
        }
        println!("validation: OK (reference BFS agreement)");
    }
    Ok(())
}

/// The `bfs --mutate` path: run once, then stream seeded mutation
/// batches through the incremental repair driver, printing a per-batch
/// summary of repair work and modeled cost.
fn bfs_evolving(
    args: &Args,
    graph: &EdgeList,
    topo: Topology,
    config: BfsConfig,
    num_batches: usize,
) -> Result<(), String> {
    let ops_per_batch: usize = args.opt("mutate-ops", 64)?;
    let locality: f64 = args.opt("mutate-locality", 0.0)?;
    let mutate_seed: u64 = args.opt("mutate-seed", 0x9e3779b9)?;
    let compact_every: u32 = args.opt("compact-every", 8)?;
    if !(0.0..=1.0).contains(&locality) {
        return Err("--mutate-locality must be in [0, 1]".into());
    }

    let mut evolving =
        EvolvingGraph::new(graph, topo, &config).with_compaction_interval(compact_every);
    let source = pick_source(graph, args)?;
    let initial = evolving.initial_run(source).map_err(|e| e.to_string())?;
    println!(
        "graph: n = {}, m = {}, {} delegates (TH {}), {} GPUs ({}x{})",
        evolving.num_vertices(),
        evolving.num_edges(),
        evolving.num_delegates(),
        config.degree_threshold,
        topo.num_gpus(),
        topo.num_ranks(),
        topo.gpus_per_rank()
    );
    println!(
        "initial BFS from {source}: {} iterations, {} reached, modeled {:.3} ms",
        initial.iterations(),
        initial.reached(),
        initial.modeled_seconds() * 1e3
    );

    let log = MutationLog::random(mutate_seed, graph, num_batches, ops_per_batch, locality);
    println!(
        "mutation log: {} batches x {} undirected ops, locality {locality}, seed {mutate_seed:#x}",
        num_batches, ops_per_batch
    );
    let mut repair_total = 0.0;
    let mut last_observed = None;
    for (i, batch) in log.batches.iter().enumerate() {
        let mut r = evolving.apply_batch(batch);
        repair_total += r.modeled_seconds();
        if r.observed.is_some() {
            last_observed = r.observed.take();
        }
        println!(
            "batch {i:>3}: {:>3} ops ({}+ {}- {}skip), reclass {}^ {}v, \
             invalidated {}, resettled {}, {} waves, repair {:.3} ms \
             (maintenance {:.3} ms){}",
            r.ops,
            r.applied_adds,
            r.applied_deletes,
            r.skipped_deletes,
            r.promotions,
            r.demotions,
            r.invalidated,
            r.resettled,
            r.waves,
            r.modeled_seconds() * 1e3,
            r.maintenance_seconds() * 1e3,
            if r.compacted { ", compacted" } else { "" }
        );
        if args.switch("validate") {
            let truth = evolving.recompute().map_err(|e| e.to_string())?;
            if evolving.depths() != truth.depths.as_slice() {
                return Err(format!("batch {i}: repaired depths diverge from recompute"));
            }
            let csr = Csr::from_edge_list(&evolving.current_edge_list());
            gpu_cluster_bfs::graph::reference::validate_parents(
                &csr,
                source,
                evolving.depths(),
                evolving.parents(),
            )
            .map_err(|e| format!("batch {i}: {e}"))?;
        }
    }
    let full = evolving.recompute().map_err(|e| e.to_string())?;
    println!(
        "after {} batches: {} edges ({} overlay entries); repair total {:.3} ms vs \
         full recompute {:.3} ms ({:.1}x)",
        evolving.batches_applied(),
        evolving.num_edges(),
        evolving.overlay_entries(),
        repair_total * 1e3,
        full.modeled_seconds() * 1e3,
        full.modeled_seconds() * num_batches as f64 / repair_total.max(1e-12)
    );
    if args.switch("validate") {
        let dist = DistributedGraph::build(&evolving.current_edge_list(), topo, &config)
            .map_err(|e| e.to_string())?;
        let v = dist.validate_distributed(source, evolving.depths(), &config.cost);
        if !v.is_ok() {
            for e in &v.errors {
                eprintln!("  invariant violation: {e}");
            }
            return Err(format!("validation FAILED: {} invariant violation(s)", v.error_count));
        }
        println!(
            "validation: OK ({} vertices, {} edges checked)",
            v.checked_vertices, v.checked_edges
        );
    }
    if let Some(out) = args.options.iter().find(|(k, _)| *k == "profile").map(|(_, v)| *v) {
        let log = last_observed.as_ref().expect("observability was enabled");
        let chrome = gpu_cluster_bfs::obs::chrome::export_chrome(log);
        std::fs::write(out, &chrome).map_err(|e| format!("cannot write {out}: {e}"))?;
        let cp = log.critical_path();
        println!("profile: wrote {out} ({} bytes, last repair batch)", chrome.len());
        print!("{}", cp.summary());
    }
    Ok(())
}

fn sssp_cmd(args: &Args) -> Result<(), String> {
    use gpu_cluster_bfs::core::sssp::DistributedSssp;
    use gpu_cluster_bfs::graph::weighted::{Weights, UNREACHABLE};
    let path = args.positional.get(1).ok_or("sssp needs a file")?;
    let max_weight: u32 = args.opt("max-weight", 16)?;
    let weight_seed: u64 = args.opt("weight-seed", 7)?;
    let weights = Weights::new(max_weight, weight_seed)
        .map_err(|e| format!("--max-weight {max_weight}: {e}"))?;
    let graph = load(path)?;
    let topo = topology(args)?;
    let th: u64 = args.opt("threshold", 32)?;
    let config = BfsConfig::new(th);
    let dist =
        DistributedSssp::weighted(&graph, weights, topo, &config).map_err(|e| e.to_string())?;
    let source = pick_source(&graph, args)?;
    let r = dist.run(source, &config).map_err(|e| e.to_string())?;
    let reached = r.distances.iter().filter(|&&x| x != UNREACHABLE).count();
    let max = r.distances.iter().filter(|&&x| x != UNREACHABLE).max().copied().unwrap_or(0);
    println!(
        "SSSP from {source} (weights 1..={max_weight}): {} rounds, {reached} reached, \
         max distance {max}; {} edges relaxed; modeled {:.3} ms",
        r.rounds,
        r.edges_relaxed,
        r.modeled_seconds * 1e3
    );
    Ok(())
}

fn serve_cmd(args: &Args) -> Result<(), String> {
    use gpu_cluster_bfs::core::sssp::DistributedSssp;
    use gpu_cluster_bfs::graph::weighted::Weights;
    use gpu_cluster_bfs::serve::generate;

    let path = args.positional.get(1).ok_or("serve needs a file")?;
    let graph = load(path)?;
    let topo = topology(args)?;
    let th: u64 = args.opt("threshold", 32)?;
    let qps: f64 = args.opt("qps", 500.0)?;
    let arrivals: usize = args.opt("arrivals", 256)?;
    let seed: u64 = args.opt("seed", 42)?;
    let deadline_ms: f64 = args.opt("deadline-ms", 250.0)?;
    let batch: usize = args.opt("batch", 64)?;
    let window_ms: f64 = args.opt("window-ms", 1.0)?;
    let queue: usize = args.opt("queue", 4096)?;
    let pool: usize = args.opt("pool", 32)?;
    let num_tenants: u32 = args.opt("tenants", 2)?;
    let sssp_permille: u32 = args.opt("sssp-permille", 0)?;
    let pagerank_permille: u32 = args.opt("pagerank-permille", 0)?;
    if !(1..=gpu_cluster_bfs::serve::MAX_BATCH).contains(&batch) {
        return Err(format!("--batch must be 1..={}", gpu_cluster_bfs::serve::MAX_BATCH));
    }
    if num_tenants == 0 {
        return Err("--tenants must be positive".into());
    }
    if sssp_permille + pagerank_permille > 1000 {
        return Err("--sssp-permille + --pagerank-permille must be <= 1000".into());
    }
    if qps <= 0.0 {
        return Err("--qps must be positive".into());
    }

    // MS-BFS coalescing is forward-only, so the service traverses
    // without direction optimization.
    let config = BfsConfig::new(th).with_direction_optimization(false);
    let dist = DistributedGraph::build(&graph, topo, &config).map_err(|e| e.to_string())?;

    let sources = graph.source_pool(pool, seed);
    if sources.is_empty() {
        return Err("no connected source vertex found".into());
    }

    let tenants: Vec<TenantSpec> =
        (0..num_tenants).map(|i| TenantSpec::new(i, &format!("tenant-{i}"))).collect();
    let policy = BatchPolicy::new(batch, window_ms / 1e3).with_queue_limit(queue);
    let backend = if sssp_permille > 0 {
        let weights = Weights::new(16, 7).expect("weights up to 16 start at 1");
        Some(DistributedSssp::weighted(&graph, weights, topo, &config).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let mut svc = TraversalService::new(&dist, config, tenants.clone(), policy);
    if let Some(b) = backend.as_ref() {
        svc = svc.with_sssp(b);
    }

    let spec = WorkloadSpec::bfs_only(qps, arrivals, seed, sources)
        .with_deadline(deadline_ms / 1e3)
        .with_mix(sssp_permille, pagerank_permille);
    let workload = generate(&spec, &tenants);
    let r = svc.run(&workload);

    println!(
        "serving {path}: n = {}, m = {}, {} GPUs; batch {batch}, window {window_ms} ms, \
         queue bound {queue}",
        graph.num_vertices,
        graph.num_edges(),
        topo.num_gpus()
    );
    println!(
        "offered {} queries at {qps} QPS over {:.3} modeled s (deadline {deadline_ms} ms)",
        r.offered, r.duration
    );
    let shed: Vec<String> = r.shed.iter().map(|(k, v)| format!("{k}: {v}")).collect();
    println!(
        "admitted {}, shed {} ({}), completed {}, on time {}",
        r.admitted,
        r.offered - r.admitted,
        if shed.is_empty() { "none".to_string() } else { shed.join(", ") },
        r.completed,
        r.on_time
    );
    println!(
        "latency p50/p95/p99 {:.3}/{:.3}/{:.3} ms (max {:.3}); queue wait p99 {:.3} ms",
        r.latency.p50 * 1e3,
        r.latency.p95 * 1e3,
        r.latency.p99 * 1e3,
        r.latency.max * 1e3,
        r.queue_wait.p99 * 1e3
    );
    println!(
        "goodput {:.1} QPS of {:.1} offered ({:.1}% shed); {} batches, mean width {:.2}, \
         sharing factor {:.2}x",
        r.goodput_qps,
        r.offered_qps,
        r.shed_rate * 100.0,
        r.batches,
        r.mean_batch,
        r.sharing_factor
    );
    println!("per tenant:");
    println!(
        "  {:>12} {:>8} {:>10} {:>8} {:>10} {:>10}",
        "tenant", "offered", "completed", "on-time", "p50 ms", "p99 ms"
    );
    for t in &r.tenants {
        println!(
            "  {:>12} {:>8} {:>10} {:>8} {:>10.3} {:>10.3}",
            t.name,
            t.offered,
            t.completed,
            t.on_time,
            t.latency.p50 * 1e3,
            t.latency.p99 * 1e3
        );
    }
    Ok(())
}

fn components_cmd(args: &Args) -> Result<(), String> {
    let path = args.positional.get(1).ok_or("components needs a file")?;
    let graph = load(path)?;
    let topo = topology(args)?;
    let th: u64 = args.opt("threshold", 32)?;
    let config = BfsConfig::new(th);
    let dist = DistributedGraph::build(&graph, topo, &config).map_err(|e| e.to_string())?;
    let r = dist.connected_components(&config);
    println!(
        "connected components on {path}: {} components in {} sweeps; modeled {:.3} ms",
        r.count(),
        r.sweeps,
        r.modeled_seconds * 1e3
    );
    // Largest components by size.
    let mut sizes = std::collections::HashMap::new();
    for &l in &r.labels {
        *sizes.entry(l).or_insert(0u64) += 1;
    }
    let mut sorted: Vec<(u64, u64)> = sizes.into_iter().collect();
    sorted.sort_by_key(|&(_, size)| std::cmp::Reverse(size));
    println!("largest components:");
    for &(label, size) in sorted.iter().take(5) {
        println!("  component {label:>10}: {size} vertices");
    }
    Ok(())
}

fn betweenness_cmd(args: &Args) -> Result<(), String> {
    let path = args.positional.get(1).ok_or("betweenness needs a file")?;
    let graph = load(path)?;
    let topo = topology(args)?;
    let th: u64 = args.opt("threshold", 32)?;
    let samples: usize = args.opt("samples", 16)?;
    let config = BfsConfig::new(th);
    let dist = DistributedGraph::build(&graph, topo, &config).map_err(|e| e.to_string())?;
    let degrees = graph.out_degrees();
    let sources: Vec<u64> = (0..graph.num_vertices)
        .filter(|&v| degrees[v as usize] > 0)
        .step_by(((graph.num_vertices as usize / samples.max(1)).max(1)) | 1)
        .take(samples)
        .collect();
    let r = dist.betweenness(&sources, &config).map_err(|e| e.to_string())?;
    println!(
        "sampled betweenness on {path}: {} sources, {} levels, modeled {:.3} ms",
        r.sources.len(),
        r.levels,
        r.modeled_seconds * 1e3
    );
    let mut ranked: Vec<(usize, f64)> = r.scores.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top 10 by betweenness:");
    for &(v, b) in ranked.iter().take(10) {
        println!("  {v:>10}  {b:.3}  (degree {})", degrees[v]);
    }
    Ok(())
}

fn pagerank_cmd(args: &Args) -> Result<(), String> {
    let path = args.positional.get(1).ok_or("pagerank needs a file")?;
    let graph = load(path)?;
    let topo = topology(args)?;
    let th: u64 = args.opt("threshold", 32)?;
    let bfs_config = BfsConfig::new(th);
    let dist = DistributedGraph::build(&graph, topo, &bfs_config).map_err(|e| e.to_string())?;
    let config = PageRankConfig {
        damping: args.opt("damping", 0.85)?,
        max_iterations: args.opt("iterations", 100)?,
        ..Default::default()
    };
    let result = dist.pagerank(&config);
    println!(
        "PageRank on {path}: {} iterations to delta {:.3e}; modeled {:.3} ms",
        result.iterations,
        result.delta,
        result.modeled_seconds * 1e3
    );
    let mut ranked: Vec<(usize, f64)> = result.scores.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top 10:");
    for &(v, s) in ranked.iter().take(10) {
        println!("  {v:>10}  {s:.6e}");
    }
    Ok(())
}
