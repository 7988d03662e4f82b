//! What both passes share: the generated inputs, the engine one op runs
//! on, and the correctness gate.

use crate::workloads::{self, OpKind, Workload};
use gcbfs_cluster::topology::Topology;
use gcbfs_core::backend::{Backend, ProcBackend};
use gcbfs_core::config::BfsConfig;
use gcbfs_core::driver::DistributedGraph;
use gcbfs_core::procrt::{ProcOptions, ProcReport, WorkerCommand};
use gcbfs_graph::reference::bfs_depths;
use gcbfs_graph::{Csr, EdgeList};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// A workload's generated inputs: everything a pass needs that depends
/// only on `(workload, seed, smoke)`.
pub struct Inputs {
    pub workload: &'static Workload,
    pub graph: EdgeList,
    pub degrees: Vec<u64>,
    pub topo: Topology,
    pub config: BfsConfig,
    /// The distinct ops the loops cycle through: one source each, or one
    /// set of [`workloads::BATCH`] sources for the batched workload.
    pub ops: Vec<Vec<u64>>,
    pub generate_s: f64,
    pub out_degrees_s: f64,
}

impl Inputs {
    pub fn generate(workload: &'static Workload, seed: u64, smoke: bool) -> Self {
        let spec = if smoke { workload.smoke_graph } else { workload.graph };
        let t = Instant::now();
        let graph = spec.generate(seed);
        let generate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let degrees = graph.out_degrees();
        let out_degrees_s = t.elapsed().as_secs_f64();
        let per_op = workload.sources_per_op();
        let sources = workloads::pick_sources(&degrees, workload.distinct_ops * per_op, seed);
        Self {
            workload,
            topo: workload.topology(),
            config: workload.config(),
            ops: sources.chunks(per_op).map(<[u64]>::to_vec).collect(),
            graph,
            degrees,
            generate_s,
            out_degrees_s,
        }
    }

    /// Graph500 counts undirected input edges: half the directed list.
    pub fn input_edges(&self) -> f64 {
        (self.graph.num_edges() / 2) as f64
    }

    /// Sequential reference depths of every source of every distinct op.
    pub fn reference_depths(&self) -> Vec<Vec<Vec<u32>>> {
        let csr = Csr::from_edge_list(&self.graph);
        self.ops.iter().map(|op| op.iter().map(|&s| bfs_depths(&csr, s)).collect()).collect()
    }
}

/// Counts ops attempted and failed, and prints each failure with enough
/// to find it again. Any failure makes the command exit non-zero.
pub struct Gate {
    workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    pub fn new(workload: &'static str) -> Self {
        Self { workload, attempted: 0, failed: 0 }
    }

    /// Records one attempted op; `problem` says what is wrong with it.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(what) = problem {
            self.fail(what);
        }
    }

    /// Records a failure of an op already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        println!("FAILED [{}] {what}", self.workload);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// What one op returned.
pub struct OpResult {
    /// Depths per source of the op.
    pub depths: Vec<Vec<u32>>,
    /// The simulator's modeled rate for this op (sim engines only).
    pub modeled_gteps: Option<f64>,
    /// Bytes on the inter-rank wire: counted by the model on the sim
    /// engines, by the socket writers on the proc engine.
    pub wire_bytes: u64,
    pub proc: Option<ProcReport>,
}

/// The program under test, set up for one workload.
pub enum Engine {
    Sim(DistributedGraph),
    Proc(ProcBackend),
}

impl Engine {
    /// Set-up from the in-memory edge list. The proc runtime keeps
    /// nothing between runs, so its set-up is all inside its first op.
    pub fn setup(inputs: &Inputs, sockets: &Path) -> Result<Self, String> {
        if inputs.workload.op == OpKind::Proc {
            return Ok(Self::Proc(proc_backend(sockets)));
        }
        DistributedGraph::build(&inputs.graph, inputs.topo, &inputs.config)
            .map(Self::Sim)
            .map_err(|e| format!("build failed: {e}"))
    }

    /// Runs the workload's op on `sources`.
    pub fn run(&self, inputs: &Inputs, sources: &[u64]) -> Result<OpResult, String> {
        let cfg = &inputs.config;
        match self {
            Self::Sim(dist) if inputs.workload.op == OpKind::Batch => {
                let r = dist.run_multi_source(sources, cfg).map_err(|e| e.to_string())?;
                let work = sources.len() as f64 * inputs.input_edges();
                Ok(OpResult {
                    modeled_gteps: Some(work / r.modeled_seconds / 1e9),
                    wire_bytes: r.remote_bytes,
                    depths: r.depths,
                    proc: None,
                })
            }
            Self::Sim(dist) => {
                let r = dist.run(sources[0], cfg).map_err(|e| e.to_string())?;
                Ok(OpResult {
                    modeled_gteps: Some(r.gteps(inputs.graph.num_edges() / 2)),
                    wire_bytes: r.stats.total_remote_bytes(),
                    depths: vec![r.depths],
                    proc: None,
                })
            }
            Self::Proc(backend) => {
                let r = backend
                    .run(&inputs.graph, inputs.topo, sources[0], cfg, false)
                    .map_err(|e| e.to_string())?;
                let report = r.proc.expect("the proc backend reports");
                Ok(OpResult {
                    depths: vec![r.depths],
                    modeled_gteps: None,
                    wire_bytes: report.wire_bytes,
                    proc: Some(report),
                })
            }
        }
    }
}

/// The benchmark binary is its own worker executable: the coordinator
/// respawns it as `benchmark worker --socket PATH --worker N`.
pub fn worker_command() -> WorkerCommand {
    let exe = std::env::current_exe().expect("own executable path");
    WorkerCommand::new(exe, vec!["worker".to_string()])
}

fn proc_backend(sockets: &Path) -> ProcBackend {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get() as u32);
    let opts = ProcOptions {
        workers: nproc.min(2),
        socket_dir: Some(sockets.to_path_buf()),
        ..ProcOptions::default()
    };
    ProcBackend::new(worker_command(), opts)
}

/// Where this package lives (compiled in: the benchmark is built in the
/// checkout it runs in).
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

pub fn results_dir() -> PathBuf {
    package_dir().join("results")
}

/// A per-run scratch directory under the package, removed on drop. Holds
/// the proc runtime's sockets.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create() -> std::io::Result<Self> {
        // Unique per process and per use within it (tests run in threads).
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let name = format!("{}-{}", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed));
        let abs = package_dir().join(".tmp").join(name);
        std::fs::create_dir_all(&abs)?;
        // A Unix socket path holds ~100 bytes: prefer the path relative to
        // the working directory (workers inherit it) when there is one.
        let rel = std::env::current_dir()
            .ok()
            .and_then(|cwd| abs.strip_prefix(&cwd).map(Path::to_path_buf).ok());
        Ok(Self(rel.unwrap_or(abs)))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once the last run's directory left.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Process ids whose parent is this process. The proc runtime reaps its
/// workers on every path; an entry here at exit is a leaked child.
pub fn live_children() -> Vec<u32> {
    let me = std::process::id().to_string();
    let Ok(entries) = std::fs::read_dir("/proc") else { return Vec::new() };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            // "pid (comm) state ppid ...": comm may hold spaces, so split
            // after the last ')'.
            std::fs::read_to_string(format!("/proc/{pid}/stat")).is_ok_and(|stat| {
                stat.rsplit_once(')')
                    .and_then(|(_, rest)| rest.split_whitespace().nth(1).map(|p| p == me))
                    .unwrap_or(false)
            })
        })
        .collect()
}

/// `VmHWM` of this process in MiB: its peak resident set so far.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Describes the first difference between two ops' depths, if any.
pub fn depths_differ(got: &[Vec<u32>], want: &[Vec<u32>]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} depth vectors, expected {}", got.len(), want.len()));
    }
    got.iter().zip(want).enumerate().find_map(|(k, (g, w))| {
        if g.len() != w.len() {
            return Some(format!("lane {k}: {} depths, expected {}", g.len(), w.len()));
        }
        let v = g.iter().zip(w).position(|(a, b)| a != b)?;
        Some(format!("lane {k}: depth of vertex {v} is {}, expected {}", g[v], w[v]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_differences_are_located() {
        let want = vec![vec![0, 1, 2], vec![1, 0, 1]];
        assert_eq!(depths_differ(&want, &want), None);
        let mut got = want.clone();
        got[1][2] = 7;
        let msg = depths_differ(&got, &want).unwrap();
        assert!(msg.contains("lane 1") && msg.contains("vertex 2"), "{msg}");
        assert!(depths_differ(&got[..1], &want).is_some());
    }

    #[test]
    fn gate_counts_and_fails() {
        let mut gate = Gate::new("t");
        gate.op(None);
        assert!(gate.correct());
        gate.op(Some("boom".into()));
        assert_eq!((gate.attempted, gate.failed), (2, 1));
        assert!(!gate.correct());
    }

    #[test]
    fn a_worker_that_cannot_be_spawned_is_a_failed_op_not_a_panic() {
        let workload = workloads::find("rmat14_proc2").unwrap();
        let inputs = Inputs::generate(workload, 1, true);
        let scratch = ScratchDir::create().unwrap();
        let mut backend = proc_backend(scratch.path());
        backend.worker_cmd = WorkerCommand::new("/nonexistent/benchmark-worker", Vec::new());
        let outcome = Engine::Proc(backend).run(&inputs, &inputs.ops[0]);
        let mut gate = Gate::new(workload.name);
        gate.op(outcome.err());
        assert_eq!((gate.attempted, gate.failed), (1, 1));
        let dir = scratch.path().to_path_buf();
        assert!(dir.is_dir());
        drop(scratch);
        assert!(!dir.exists(), "the scratch directory is removed on drop");
    }

    #[test]
    fn process_introspection_reads_proc() {
        assert!(peak_rss_mib() > 0.0);
        let mut child = std::process::Command::new("sleep").arg("5").spawn().unwrap();
        assert!(live_children().contains(&child.id()));
        child.kill().unwrap();
        child.wait().unwrap();
        assert!(!live_children().contains(&child.id()));
    }
}
