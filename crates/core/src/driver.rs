//! The distributed BFS driver: builds the degree-separated distributed
//! graph and runs (DO)BFS as BSP supersteps over the simulated cluster.
//!
//! `DistributedGraph::traverse` is the paper's loop (Figs. 3–4), read
//! top to bottom: boundary → compute → reduce → exchange → commit →
//! verify → record. The traversal steps themselves live on the
//! [`HostedGroup`] the proc workers also run ([`crate::superstep`]); the
//! modeled Ray time of each step comes from `crate::pricing`; and three
//! optional layers ride along, each an `Option` that runs no code when
//! `None`: the fault layer (`crate::chaos`), online verification
//! ([`VerifyState`]) and observability ([`SpanSink`]).

use crate::assemble::{assemble_depths, assemble_parents, GpuStateView};
use crate::chaos::Chaos;
use crate::comm::exchange_normals_with;
use crate::config::BfsConfig;
use crate::distributor::{distribute, EdgeClassCounts};
use crate::kernels::GpuWorker;
use crate::masks::DelegateMask;
use crate::pricing::Pricer;
use crate::separation::Separation;
use crate::stats::{FaultStats, IterationRecord, RunStats};
use crate::subgraph::{GpuSubgraphs, MemoryUsage};
use crate::superstep::HostedGroup;
use crate::verify::{self, VerifyState};
use crate::UNREACHED;
use gcbfs_cluster::collectives::allreduce_or_compressed;
use gcbfs_cluster::fault::{FaultError, FaultPlan};
use gcbfs_cluster::topology::Topology;
use gcbfs_graph::{EdgeList, VertexId};
use gcbfs_trace::{SpanSink, TraceLog};
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Why a distributed graph could not be built. Field names are
/// self-describing; the variant docs state the failed constraint.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BuildError {
    /// The per-GPU vertex count exceeds the 32-bit local id space.
    LocalIdsOverflow { per_gpu_vertices: u64 },
    /// A GPU's subgraphs exceed device memory (the paper's remedies:
    /// raise `TH` or add GPUs, §VI-B).
    DeviceMemoryExceeded { gpu: usize, needed: u64, available: u64 },
    /// The source vertex of a run is out of range.
    SourceOutOfRange { source: VertexId, num_vertices: u64 },
    /// A multi-source batch must hold 1..=64 sources (one bit lane each).
    BatchSize { got: usize },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LocalIdsOverflow { per_gpu_vertices } => {
                write!(f, "{per_gpu_vertices} vertices per GPU exceed 32-bit local ids")
            }
            Self::DeviceMemoryExceeded { gpu, needed, available } => {
                write!(f, "GPU {gpu} needs {needed} bytes of graph storage, device has {available}")
            }
            Self::SourceOutOfRange { source, num_vertices } => {
                write!(f, "source {source} out of range (n = {num_vertices})")
            }
            Self::BatchSize { got } => {
                write!(f, "a multi-source batch holds 1..=64 sources, got {got}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Why a run could not complete: either construction failed, or a detected
/// fault could not be recovered under the configured
/// [`RecoveryConfig`](crate::recovery::RecoveryConfig) (recovery disabled,
/// retry budget exhausted without the reliable path, or an unsurvivable
/// fail-stop pattern).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// Graph or run construction failed.
    Build(BuildError),
    /// A detected fault was surfaced instead of recovered.
    Fault(FaultError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Build(e) => write!(f, "{e}"),
            Self::Fault(e) => write!(f, "unrecovered fault: {e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Build(e) => Some(e),
            Self::Fault(e) => Some(e),
        }
    }
}

impl From<BuildError> for RunError {
    fn from(e: BuildError) -> Self {
        Self::Build(e)
    }
}

impl From<FaultError> for RunError {
    fn from(e: FaultError) -> Self {
        Self::Fault(e)
    }
}

/// The loop-carried state of one sim traversal: what the superstep loop
/// advances, and what the fault layer rewinds on re-execution or rollback.
pub(crate) struct Traversal {
    /// All `p` GPUs' workers.
    pub group: HostedGroup,
    /// The superstep about to run (or running).
    pub iter: u32,
    /// Committed supersteps.
    pub records: Vec<IterationRecord>,
    /// Online verification's settle digests; `None` when `Off`.
    pub verify: Option<VerifyState>,
    /// The observability sink; `None` when `Off`.
    pub sink: Option<SpanSink>,
}

impl Traversal {
    /// All `p` GPUs built, `source` seeded at depth 0, and the two
    /// config-armed layers constructed. Verification `Off` keeps no
    /// state, runs no check and adds no modeled time; the sink only
    /// *records* the very f64 values the pricing step computes.
    fn start(
        dist: &DistributedGraph,
        source: VertexId,
        config: &BfsConfig,
        track_parents: bool,
    ) -> Self {
        let topo = dist.topology;
        let all: Vec<usize> = (0..topo.num_gpus() as usize).collect();
        let mut group = HostedGroup::new(dist, config, track_parents, &all)
            .expect("0..p is in range and distinct");
        group.seed_source(&dist.separation, source);
        Self {
            group,
            iter: 0,
            records: Vec::new(),
            verify: config
                .verification
                .is_on()
                .then(|| VerifyState::seeded(&topo, &dist.separation, source)),
            sink: config
                .observability
                .is_on()
                .then(|| SpanSink::new(topo.num_ranks(), topo.gpus_per_rank())),
        }
    }
}

/// A graph distributed across the simulated cluster, ready to run BFS from
/// any source. Building once serves any number of runs.
#[derive(Clone, Debug)]
pub struct DistributedGraph {
    pub(crate) topology: Topology,
    pub(crate) separation: Arc<Separation>,
    pub(crate) subgraphs: Vec<Arc<GpuSubgraphs>>,
    pub(crate) class_counts: EdgeClassCounts,
    pub(crate) num_vertices: u64,
    pub(crate) num_edges: u64,
}

impl DistributedGraph {
    /// Distributes `graph` over `topology` with the separation threshold
    /// and device model from `config`.
    pub fn build(
        graph: &EdgeList,
        topology: Topology,
        config: &BfsConfig,
    ) -> Result<Self, BuildError> {
        let p = topology.num_gpus() as u64;
        let per_gpu_vertices = graph.num_vertices.div_ceil(p.max(1));
        if per_gpu_vertices > u32::MAX as u64 {
            return Err(BuildError::LocalIdsOverflow { per_gpu_vertices });
        }
        let degrees = graph.out_degrees();
        let separation = Separation::from_degrees(&degrees, config.degree_threshold);
        let dist = distribute(graph, &separation, &degrees, &topology);
        let d = separation.num_delegates();
        let subgraphs: Vec<Arc<GpuSubgraphs>> = topology
            .gpus()
            .collect::<Vec<_>>()
            .into_par_iter()
            .zip(dist.per_gpu.into_par_iter())
            .map(|(gpu, edges)| {
                Arc::new(GpuSubgraphs::build(
                    topology.owned_count(gpu, graph.num_vertices),
                    d,
                    &edges,
                ))
            })
            .collect();
        for (i, sg) in subgraphs.iter().enumerate() {
            let needed = sg.memory_usage().total();
            let available = config.cost.device.memory_bytes;
            if needed > available {
                return Err(BuildError::DeviceMemoryExceeded { gpu: i, needed, available });
            }
        }
        Ok(Self {
            topology,
            separation: Arc::new(separation),
            subgraphs,
            class_counts: dist.class_counts,
            num_vertices: graph.num_vertices,
            num_edges: graph.num_edges(),
        })
    }

    /// The device grid this graph is distributed over.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The delegate/normal separation.
    pub fn separation(&self) -> &Separation {
        &self.separation
    }

    /// Global edge counts per class.
    pub fn class_counts(&self) -> EdgeClassCounts {
        self.class_counts
    }

    /// Vertex count `n`.
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Directed edge count `m`.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Per-GPU memory usage (Table I).
    pub fn memory_usage(&self) -> Vec<MemoryUsage> {
        self.subgraphs.iter().map(|sg| sg.memory_usage()).collect()
    }

    /// Total graph storage across the cluster in bytes.
    pub fn total_graph_bytes(&self) -> u64 {
        self.memory_usage().iter().map(MemoryUsage::total).sum()
    }

    /// Runs (DO)BFS from `source`, returning depths, statistics, and
    /// modeled time.
    ///
    /// ```
    /// use gcbfs_core::{config::BfsConfig, driver::DistributedGraph};
    /// use gcbfs_cluster::topology::Topology;
    /// use gcbfs_graph::builders;
    ///
    /// let graph = builders::double_star(4);
    /// let config = BfsConfig::new(3);
    /// let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
    /// let result = dist.run(0, &config).unwrap();
    /// assert_eq!(result.depths[1], 1); // the other hub is one hop away
    /// ```
    ///
    /// # Errors
    /// Returns [`BuildError::SourceOutOfRange`] for an invalid source.
    pub fn run(&self, source: VertexId, config: &BfsConfig) -> Result<BfsResult, BuildError> {
        self.traverse(source, config, false, None).map_err(|e| match e {
            RunError::Build(b) => b,
            RunError::Fault(f) => unreachable!("fault error without a fault plan: {f}"),
        })
    }

    /// Runs (DO)BFS from `source` while `plan`'s faults are injected into
    /// the exchanges, the mask reduction, and the heartbeat stream.
    ///
    /// With recovery enabled (the default), transient faults are retried
    /// with backoff (escalating to the reliable verified path after
    /// [`MAX_RETRIES`](crate::recovery::MAX_RETRIES) resampled attempts)
    /// and fail-stop losses roll back to the latest checkpoint and
    /// continue on a spare or in degraded mode — the returned depths are
    /// bit-identical to the fault-free run, with every retry, rollback, and
    /// checkpoint charged to [`RunStats::fault`]. With
    /// [`RecoveryConfig::disabled`](crate::recovery::RecoveryConfig::disabled),
    /// the first detected fault surfaces as [`RunError::Fault`].
    ///
    /// # Errors
    /// [`RunError::Build`] for an invalid source; [`RunError::Fault`] when
    /// a detected fault is not recovered under the configured policy.
    pub fn run_with_faults(
        &self,
        source: VertexId,
        config: &BfsConfig,
        plan: &FaultPlan,
    ) -> Result<BfsResult, RunError> {
        self.traverse(source, config, false, Some(plan))
    }

    /// Like [`DistributedGraph::run`], additionally producing the Graph500
    /// BFS parent tree (§VI-A3): parents come for free locally from the
    /// `dd`/`dn`/`nd` kernels; only remote `nn` destinations need a final
    /// parent exchange, whose modeled cost lands in
    /// [`BfsResult::parent_exchange_seconds`].
    pub fn run_with_parents(
        &self,
        source: VertexId,
        config: &BfsConfig,
    ) -> Result<BfsResult, BuildError> {
        self.traverse(source, config, true, None).map_err(|e| match e {
            RunError::Build(b) => b,
            RunError::Fault(f) => unreachable!("fault error without a fault plan: {f}"),
        })
    }

    /// The BFS superstep loop, shared by every `run*` entry point.
    fn traverse(
        &self,
        source: VertexId,
        config: &BfsConfig,
        track_parents: bool,
        plan: Option<&FaultPlan>,
    ) -> Result<BfsResult, RunError> {
        if source >= self.num_vertices {
            return Err(
                BuildError::SourceOutOfRange { source, num_vertices: self.num_vertices }.into()
            );
        }
        let start = Instant::now();
        let topo = self.topology;
        let cost = &config.cost;
        let d = self.separation.num_delegates();
        let vmode = config.verification;

        let mut t = Traversal::start(self, source, config, track_parents);
        let pricer = Pricer::new(config, topo, d);
        let mut chaos = plan.map(|pl| Chaos::new(self, config, pl, pricer.mask_bytes));

        loop {
            // ---- Boundary: terminate, or let the fault layer checkpoint,
            // read heartbeats and (on a confirmed death) rewind. ----
            let counts = t.group.frontier_counts();
            if counts == (0, 0) {
                break;
            }
            if let Some(c) = chaos.as_mut() {
                if c.boundary(&mut t)? {
                    continue;
                }
            }
            let iter = t.iter;
            let next_depth = iter + 1;
            let bw = chaos.as_ref().map_or(1.0, |c| c.bandwidth_factor(iter));

            // ---- Compute: local kernels on every GPU, in parallel. ----
            let mut outputs = t.group.compute(iter);
            if let Some(c) = chaos.as_mut() {
                c.strike_outputs(iter, &mut t.group.workers, &mut outputs);
            }
            let mut price = pricer.compute(&outputs, bw, t.sink.is_some());
            if let Some(c) = chaos.as_mut() {
                c.degrade_compute(&mut price.phases);
            }

            // ---- Reduce: delegate masks, only when something changed. ----
            // First violated online check this superstep (the reduction's
            // checks run here, the settled-state checks after the commit).
            let mut violation = None;
            if t.group.mask_changed(&outputs) {
                let words: Vec<Vec<u64>> =
                    outputs.iter().map(|o| o.output_mask.words().to_vec()).collect();
                let outcome = match chaos.as_mut() {
                    Some(c) => c.reduce(&mut t, &words, bw)?,
                    None => allreduce_or_compressed(
                        topo,
                        cost,
                        &words,
                        config.blocking_reduce,
                        config.compression,
                        t.group.mask_reference(config.compression),
                    ),
                };
                violation = verify::check_mask_reduction(vmode, &words, &outcome.reduced);
                pricer.mask_reduction(&mut price, &outcome);
                let reduced = DelegateMask::from_words(d, outcome.reduced);
                // Shadow the delegate settles the consume below performs.
                // A spurious reduction bit folds in here too — consistently
                // with the settle — so the digest stays a check on the
                // *settle path*, while `mask-exact` above owns the
                // reduction itself.
                if let Some(vs) = t.verify.as_mut() {
                    for id in reduced.new_bits(&t.group.workers[0].visited_mask) {
                        vs.fold_delegate(id, next_depth);
                    }
                }
                t.group.consume_reduced(&reduced, next_depth);
            }
            pricer.sync(&mut price);

            // ---- Exchange: the `nn` updates, point to point. ----
            let mut ex = exchange_normals_with(
                &topo,
                cost,
                t.group.take_sends(&mut outputs),
                config.local_all2all,
                config.uniquify,
                config.compression,
            );
            let delivered = match chaos.as_mut() {
                Some(c) => {
                    c.degrade_exchange(&mut ex);
                    c.deliver(&mut t, &ex, bw)?
                }
                None => std::mem::take(&mut ex.delivered),
            };

            // ---- Commit: local discoveries + applied remote updates
            // form the next frontiers. ----
            t.group.commit(&mut outputs, &delivered, next_depth);
            if let Some(c) = chaos.as_mut() {
                c.drain_delayed(iter, &mut t.group.workers);
            }

            // ---- Verify: detect on the fully formed superstep (all
            // settles and frontier lists final); a violation vacates it
            // before it reaches the records or the trace. ----
            if let Some(vs) = t.verify.as_mut() {
                vs.fold_frontiers(&t.group.workers, next_depth);
                pricer.verify_scan(&mut price, &t.group.workers);
            }
            let timing = pricer.timing(&mut price, &ex);
            if let Some(vs) = t.verify.as_ref() {
                let violation = violation
                    .or_else(|| verify::check_superstep(vmode, vs, &t.group.workers, next_depth));
                if let Some(check) = violation {
                    // Without an injector there is nothing to corrupt
                    // state: a failed check is a driver bug, not SDC.
                    let Some(c) = chaos.as_mut() else {
                        panic!("verification check `{check}` failed at iteration {iter} with no fault injection");
                    };
                    c.escalate(&mut t, check, timing.elapsed())?;
                    continue;
                }
                if let Some(c) = chaos.as_mut() {
                    c.superstep_verified();
                }
            }

            // ---- Record. ----
            if let Some(s) = t.sink.as_mut() {
                pricer.record_spans(&price, s, iter, &ex);
            }
            t.records.push(pricer.record(price, iter, counts, &outputs, &ex, timing));
            t.iter += 1;
        }

        let (depths, parents, parent_exchange_seconds) =
            self.assemble(source, config, track_parents, &t.group.workers);
        let stats = RunStats {
            records: t.records,
            wall_seconds: start.elapsed().as_secs_f64(),
            fault: chaos.map_or_else(FaultStats::default, Chaos::finish),
            num_gpus: topo.num_gpus(),
        };
        let observed = t.sink.map(SpanSink::finish);
        Ok(BfsResult { source, depths, parents, parent_exchange_seconds, stats, observed })
    }

    /// Assembles global depths and (if requested) parents, via the
    /// backend-agnostic assembly the proc coordinator also uses.
    fn assemble(
        &self,
        source: VertexId,
        config: &BfsConfig,
        track_parents: bool,
        workers: &[GpuWorker],
    ) -> (Vec<u32>, Option<Vec<u64>>, f64) {
        let topo = self.topology;
        let views: Vec<GpuStateView<'_>> = workers.iter().map(GpuStateView::of_worker).collect();
        let depths = assemble_depths(&topo, &self.separation, self.num_vertices, &views);
        if !track_parents {
            return (depths, None, 0.0);
        }
        let (parents, log_entries) =
            assemble_parents(&topo, &self.separation, source, self.num_vertices, &views, &depths);
        // Modeled cost: 16 bytes per proposal (slot + parent + depth),
        // aggregated per sending GPU over the inter-node network.
        let bytes_per_gpu = 16 * log_entries / topo.num_gpus() as u64;
        (depths, Some(parents), config.cost.network.p2p_time(bytes_per_gpu, false))
    }
}

/// The outcome of one BFS run.
#[derive(Clone, Debug)]
pub struct BfsResult {
    /// The source vertex.
    pub source: VertexId,
    /// Hop distance of every vertex (`UNREACHED` if unreachable).
    pub depths: Vec<u32>,
    /// The Graph500 BFS parent tree (source is its own parent, unreached
    /// vertices have `kernels::NO_PARENT`); only present for
    /// [`DistributedGraph::run_with_parents`].
    pub parents: Option<Vec<u64>>,
    /// Modeled cost of the end-of-run parent exchange for remote `nn`
    /// destinations (zero when parents were not requested). Kept separate
    /// from [`BfsResult::modeled_seconds`] as the paper reports hop
    /// distances and argues this cost is low (§VI-A3).
    pub parent_exchange_seconds: f64,
    /// Per-iteration statistics and timing.
    pub stats: RunStats,
    /// The finished structured trace, present only when the run was
    /// configured with
    /// [`ObservabilityConfig::Full`](gcbfs_trace::ObservabilityConfig):
    /// per-rank phase spans, typed kernel spans, per-peer message events,
    /// collective hops, and fault spans, all in modeled-time coordinates.
    pub observed: Option<TraceLog>,
}

impl BfsResult {
    /// Number of iterations `S`.
    pub fn iterations(&self) -> u32 {
        self.stats.iterations()
    }

    /// Modeled elapsed seconds on the Ray-like machine.
    pub fn modeled_seconds(&self) -> f64 {
        self.stats.modeled_elapsed()
    }

    /// Graph500 TEPS against the given edge count (the generator's `m/2`
    /// convention), using modeled time.
    pub fn teps(&self, graph500_edges: u64) -> f64 {
        graph500_edges as f64 / self.modeled_seconds()
    }

    /// Same in GTEPS.
    pub fn gteps(&self, graph500_edges: u64) -> f64 {
        self.teps(graph500_edges) / 1e9
    }

    /// Number of reached vertices.
    pub fn reached(&self) -> u64 {
        self.depths.iter().filter(|&&d| d != UNREACHED).count() as u64
    }

    /// Maximum finite depth.
    pub fn max_depth(&self) -> u32 {
        self.depths.iter().copied().filter(|&d| d != UNREACHED).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcbfs_graph::reference::{bfs_depths, validate_depths};
    use gcbfs_graph::rmat::RmatConfig;
    use gcbfs_graph::{builders, Csr};

    fn check_against_reference(graph: &EdgeList, topo: Topology, config: &BfsConfig, source: u64) {
        let dist = DistributedGraph::build(graph, topo, config).unwrap();
        let result = dist.run(source, config).unwrap();
        let csr = Csr::from_edge_list(graph);
        let expect = bfs_depths(&csr, source);
        assert_eq!(result.depths, expect, "depth mismatch from source {source}");
        validate_depths(&csr, source, &result.depths).unwrap();
    }

    #[test]
    fn matches_reference_on_small_graphs() {
        let config = BfsConfig::new(3);
        for topo in [Topology::new(1, 1), Topology::new(2, 2), Topology::new(3, 1)] {
            check_against_reference(&builders::double_star(4), topo, &config, 0);
            check_against_reference(&builders::double_star(4), topo, &config, 2);
            check_against_reference(&builders::path(9), topo, &config, 4);
            check_against_reference(&builders::grid(4, 5), topo, &config, 7);
        }
    }

    #[test]
    fn matches_reference_on_rmat_all_options() {
        let graph = RmatConfig::graph500(8).generate();
        let topo = Topology::new(2, 2);
        for (doo, l, u, br) in [
            (true, false, false, true),
            (false, false, false, true),
            (true, true, false, false),
            (true, true, true, true),
            (false, true, true, false),
        ] {
            let config = BfsConfig::new(8)
                .with_direction_optimization(doo)
                .with_local_all2all(l)
                .with_uniquify(u)
                .with_blocking_reduce(br);
            check_against_reference(&graph, topo, &config, 1);
            check_against_reference(&graph, topo, &config, 123);
        }
    }

    #[test]
    fn delegate_source_works() {
        let graph = builders::star(10);
        let config = BfsConfig::new(4);
        let topo = Topology::new(2, 1);
        // Vertex 0 is the hub: a delegate source.
        check_against_reference(&graph, topo, &config, 0);
        // And a leaf source reaches the hub in one step.
        check_against_reference(&graph, topo, &config, 5);
    }

    #[test]
    fn unreachable_vertices_stay_unreached() {
        let mut graph = builders::path(4);
        graph.num_vertices = 6; // vertices 4, 5 isolated
        let config = BfsConfig::new(10);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 1), &config).unwrap();
        let r = dist.run(0, &config).unwrap();
        assert_eq!(r.depths[4], UNREACHED);
        assert_eq!(r.depths[5], UNREACHED);
        assert_eq!(r.reached(), 4);
        assert_eq!(r.max_depth(), 3);
    }

    #[test]
    fn source_out_of_range_is_an_error() {
        let graph = builders::path(4);
        let config = BfsConfig::new(10);
        let dist = DistributedGraph::build(&graph, Topology::new(1, 1), &config).unwrap();
        assert!(matches!(
            dist.run(99, &config),
            Err(BuildError::SourceOutOfRange { source: 99, .. })
        ));
    }

    #[test]
    fn stats_are_plausible() {
        let graph = RmatConfig::graph500(8).generate();
        let config = BfsConfig::new(8);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        // Pick a well-connected source (vertex 0 may be isolated after the
        // id randomization).
        let degrees = graph.out_degrees();
        let source = degrees.iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0 as u64;
        let r = dist.run(source, &config).unwrap();
        assert!(r.iterations() >= 2);
        assert!(r.modeled_seconds() > 0.0);
        assert!(r.stats.wall_seconds > 0.0);
        assert!(r.gteps(RmatConfig::graph500(8).graph500_edges()) > 0.0);
        // Every iteration examined at least one edge until the last.
        let s = &r.stats;
        assert_eq!(s.records.len(), r.iterations() as usize);
        assert!(s.total_edges_examined() > 0);
    }

    #[test]
    fn memory_accounting_matches_table_1_total() {
        use crate::subgraph::paper_total_bytes;
        let graph = RmatConfig::graph500(9).generate();
        let config = BfsConfig::new(16);
        let topo = Topology::new(2, 2);
        let dist = DistributedGraph::build(&graph, topo, &config).unwrap();
        let measured = dist.total_graph_bytes();
        let d = dist.separation().num_delegates() as u64;
        let formula = paper_total_bytes(
            graph.num_vertices,
            d,
            topo.num_gpus() as u64,
            graph.num_edges(),
            dist.class_counts().nn,
        );
        // The formula counts payload; the implementation adds one extra
        // offset entry per CSR row array (+1 sentinel per subgraph per GPU)
        // and rounds masks up — allow a small slack.
        let slack = (topo.num_gpus() as u64) * 4 * 16 + 1024;
        assert!(
            measured >= formula && measured <= formula + slack,
            "measured {measured} vs formula {formula}"
        );
    }

    #[test]
    fn device_memory_limit_enforced() {
        let mut config = BfsConfig::new(4);
        config.cost.device.memory_bytes = 16; // absurdly small device
        let graph = builders::grid(10, 10);
        let err = DistributedGraph::build(&graph, Topology::new(1, 1), &config).unwrap_err();
        assert!(matches!(err, BuildError::DeviceMemoryExceeded { .. }));
    }

    #[test]
    fn parent_tree_is_valid_on_rmat() {
        use gcbfs_graph::reference::validate_parents;
        let graph = RmatConfig::graph500(9).generate();
        let csr = Csr::from_edge_list(&graph);
        let config = BfsConfig::new(8);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let degrees = graph.out_degrees();
        let hub = degrees.iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0 as u64;
        let leaf = (0..graph.num_vertices).find(|&v| degrees[v as usize] == 1).unwrap();
        for src in [hub, leaf] {
            let r = dist.run_with_parents(src, &config).unwrap();
            assert_eq!(r.depths, bfs_depths(&csr, src));
            let parents = r.parents.as_ref().expect("parents requested");
            validate_parents(&csr, src, &r.depths, parents).unwrap();
            assert!(r.parent_exchange_seconds >= 0.0);
        }
    }

    #[test]
    fn parent_tree_valid_under_all_options() {
        use gcbfs_graph::reference::validate_parents;
        let graph = RmatConfig::graph500(8).generate();
        let csr = Csr::from_edge_list(&graph);
        let topo = Topology::new(3, 2);
        let src = graph.out_degrees().iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0 as u64;
        for (doo, l, u) in [(true, false, false), (false, true, true), (true, true, true)] {
            let config = BfsConfig::new(8)
                .with_direction_optimization(doo)
                .with_local_all2all(l)
                .with_uniquify(u);
            let dist = DistributedGraph::build(&graph, topo, &config).unwrap();
            let r = dist.run_with_parents(src, &config).unwrap();
            validate_parents(&csr, src, &r.depths, r.parents.as_ref().unwrap()).unwrap();
        }
    }

    #[test]
    fn run_without_parents_has_none() {
        let graph = builders::path(6);
        let config = BfsConfig::new(4);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 1), &config).unwrap();
        let r = dist.run(0, &config).unwrap();
        assert!(r.parents.is_none());
        assert_eq!(r.parent_exchange_seconds, 0.0);
    }

    #[test]
    fn build_once_run_many_sources() {
        let graph = RmatConfig::graph500(7).generate();
        let config = BfsConfig::new(8);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 1), &config).unwrap();
        let csr = Csr::from_edge_list(&graph);
        for source in [0u64, 5, 17, 99] {
            let r = dist.run(source, &config).unwrap();
            assert_eq!(r.depths, bfs_depths(&csr, source));
        }
    }

    // ---- Communication compression. ----

    use gcbfs_compress::{CompressionMode, FrontierCodec, MaskCodec};

    #[test]
    fn compression_is_bit_exact_across_every_mode() {
        let graph = RmatConfig::graph500(8).generate();
        let base = BfsConfig::new(8).with_local_all2all(true).with_uniquify(true);
        let topo = Topology::new(2, 2);
        let dist = DistributedGraph::build(&graph, topo, &base).unwrap();
        let degrees = graph.out_degrees();
        let source = degrees.iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0 as u64;
        let reference = dist.run(source, &base).unwrap();
        assert_eq!(reference.stats.total_bytes_saved(), 0, "Off mode charges raw bytes");
        for mode in [
            CompressionMode::Adaptive,
            CompressionMode::Fixed(FrontierCodec::VarintDelta, MaskCodec::SparseIndex),
            CompressionMode::Fixed(FrontierCodec::Bitmap, MaskCodec::RleMask),
            CompressionMode::Fixed(FrontierCodec::Raw32, MaskCodec::RawMask),
        ] {
            let config = base.with_compression(mode);
            let r = dist.run(source, &config).unwrap();
            assert_eq!(r.depths, reference.depths, "depths drifted under {mode}");
            assert_eq!(
                r.iterations(),
                reference.iterations(),
                "iteration count drifted under {mode}"
            );
            assert!(r.stats.total_codec_seconds() > 0.0, "codec work is charged under {mode}");
        }
    }

    #[test]
    fn adaptive_compression_mixes_codecs_and_saves_bytes() {
        // Needs enough vertices per GPU that mid-traversal messages carry
        // hundreds of ids — below that the 5-byte headers drown the
        // savings, exactly the regime the floor tests pin down.
        let graph = RmatConfig::graph500(12).generate();
        let base = BfsConfig::new(8);
        let topo = Topology::new(2, 2);
        let dist = DistributedGraph::build(&graph, topo, &base).unwrap();
        let degrees = graph.out_degrees();
        let source = degrees.iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0 as u64;
        let raw = dist.run(source, &base).unwrap();
        let config = base.with_compression(CompressionMode::Adaptive);
        let r = dist.run(source, &config).unwrap();
        assert_eq!(r.depths, raw.depths);
        let stats = &r.stats;
        assert!(stats.total_bytes_saved() > 0, "an RMAT run has compressible traffic");
        assert!(stats.total_codec_seconds() > 0.0);
        assert!(stats.compression_ratio() > 1.0);
        assert!(
            stats.total_remote_bytes() < raw.stats.total_remote_bytes(),
            "the wire carries fewer bytes than the raw format"
        );
        let totals = stats.codec_totals();
        assert!(
            totals.distinct_frontier_codecs() >= 2,
            "adaptive selection must mix frontier codecs across the run: {totals:?}"
        );
        assert!(totals.mask_total() > 0, "mask reductions flow through the codec layer");
    }

    // ---- Fault injection and recovery. ----

    use crate::recovery::RecoveryConfig;
    use gcbfs_cluster::fault::FaultPlan;

    fn rmat_fixture() -> (EdgeList, DistributedGraph, BfsConfig, u64) {
        let graph = RmatConfig::graph500(8).generate();
        let config = BfsConfig::new(8);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let degrees = graph.out_degrees();
        let source = degrees.iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0 as u64;
        (graph, dist, config, source)
    }

    #[test]
    fn benign_plan_matches_fault_free_but_pays_for_insurance() {
        let (graph, dist, config, source) = rmat_fixture();
        let clean = dist.run(source, &config).unwrap();
        let r = dist.run_with_faults(source, &config, &FaultPlan::new(7)).unwrap();
        assert_eq!(r.depths, bfs_depths(&Csr::from_edge_list(&graph), source));
        assert_eq!(r.depths, clean.depths);
        let f = &r.stats.fault;
        assert!(!f.any_faults());
        assert_eq!((f.retries, f.rollbacks), (0, 0));
        assert_eq!(f.recovery_seconds, 0.0);
        // Checkpoints are insurance: charged whenever fault tolerance is
        // armed, whether or not a fault ever fires.
        assert!(f.checkpoints_taken > 0);
        assert!(f.checkpoint_seconds > 0.0);
        assert!(r.modeled_seconds() > clean.modeled_seconds());
    }

    #[test]
    fn message_faults_recover_to_reference_depths() {
        let (graph, dist, config, source) = rmat_fixture();
        let expect = bfs_depths(&Csr::from_edge_list(&graph), source);
        let plan = FaultPlan::new(99).with_message_faults(0.2, 0.1, 0.1).with_max_delay(2);
        let r = dist.run_with_faults(source, &config, &plan).unwrap();
        assert_eq!(r.depths, expect, "recovery must be bit-exact");
        let f = &r.stats.fault;
        assert!(f.any_faults());
        assert!(f.injected_drops > 0, "a 20% drop rate must fire");
        assert!(f.retries > 0);
        assert!(f.recovery_seconds > 0.0, "retries are charged");
    }

    #[test]
    fn fail_stop_rolls_back_and_continues_degraded() {
        let (graph, dist, config, source) = rmat_fixture();
        let expect = bfs_depths(&Csr::from_edge_list(&graph), source);
        let plan = FaultPlan::new(1).with_fail_stop(2, 1);
        let r = dist.run_with_faults(source, &config, &plan).unwrap();
        assert_eq!(r.depths, expect);
        let f = &r.stats.fault;
        assert_eq!(f.fail_stops, 1);
        assert_eq!(f.rollbacks, 1);
        assert!(f.degraded_iterations > 0, "survivor hosts the dead partition");
        assert!(f.recovery_seconds > 0.0, "wasted work + reload are charged");
        assert!(f.checkpoints_taken > 0);
    }

    #[test]
    fn mask_corruption_is_detected_and_retried() {
        let graph = builders::double_star(4);
        let config = BfsConfig::new(3);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let expect = bfs_depths(&Csr::from_edge_list(&graph), 0);
        let plan = FaultPlan::new(3).with_mask_corruption(1, 0, 0, 0xff);
        let r = dist.run_with_faults(0, &config, &plan).unwrap();
        assert_eq!(r.depths, expect);
        let f = &r.stats.fault;
        assert_eq!(f.injected_corruptions, 1);
        assert!(f.retries >= 1, "the corrupted reduction re-runs");
        assert!(f.recovery_seconds > 0.0);
    }

    #[test]
    fn nic_degradation_slows_the_run_without_changing_depths() {
        let (_, dist, config, source) = rmat_fixture();
        let clean = dist.run_with_faults(source, &config, &FaultPlan::new(0)).unwrap();
        let plan = FaultPlan::new(0).with_nic_degradation(0, 100, 4.0);
        let slow = dist.run_with_faults(source, &config, &plan).unwrap();
        assert_eq!(slow.depths, clean.depths);
        assert!(
            slow.stats.phase_totals().remote_normal >= clean.stats.phase_totals().remote_normal
        );
        assert!(slow.modeled_seconds() > clean.modeled_seconds());
    }

    #[test]
    fn disabled_recovery_surfaces_typed_faults() {
        let (_, dist, config, source) = rmat_fixture();
        let off = config.with_recovery(RecoveryConfig::disabled());
        // Dropped updates: ack mismatch.
        let drops = FaultPlan::new(11).with_message_faults(1.0, 0.0, 0.0);
        assert!(matches!(
            dist.run_with_faults(source, &off, &drops),
            Err(RunError::Fault(FaultError::ExchangeMismatch { attempts: 1, .. }))
        ));
        // Fail-stop: heartbeat loss.
        let dead = FaultPlan::new(1).with_fail_stop(0, 1);
        assert!(matches!(
            dist.run_with_faults(source, &off, &dead),
            Err(RunError::Fault(FaultError::GpuFailed { gpu: 0, .. }))
        ));
        // Degraded mode off (but retries on) also refuses fail-stops.
        let no_degrade = config.with_recovery(RecoveryConfig::default().with_degraded_mode(false));
        assert!(matches!(
            dist.run_with_faults(source, &no_degrade, &dead),
            Err(RunError::Fault(FaultError::GpuFailed { .. }))
        ));
        // Corrupted mask words: checksum mismatch.
        let corrupt = FaultPlan::new(5).with_mask_corruption(0, 0, 0, 0b1);
        assert!(matches!(
            dist.run_with_faults(source, &off, &corrupt),
            Err(RunError::Fault(FaultError::MaskChecksumMismatch { gpu: 0, .. }))
        ));
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let (_, dist, config, source) = rmat_fixture();
        let plan = FaultPlan::random(5, 4, 8);
        let a = dist.run_with_faults(source, &config, &plan).unwrap();
        let b = dist.run_with_faults(source, &config, &plan).unwrap();
        assert_eq!(a.depths, b.depths);
        assert_eq!(a.stats.fault, b.stats.fault, "fault accounting is seeded");
        assert_eq!(a.modeled_seconds(), b.modeled_seconds());
    }

    #[test]
    fn compression_survives_chaos_bit_exactly() {
        // Satellite f: compressed messages cross the fault injector, get
        // dropped/duplicated/delayed, and the deterministic re-encode on
        // retransmit still recovers the reference depths. Scale 12 so the
        // traversal has iterations whose messages genuinely compress.
        let graph = RmatConfig::graph500(12).generate();
        let config = BfsConfig::new(8);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let degrees = graph.out_degrees();
        let source = degrees.iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0 as u64;
        let expect = bfs_depths(&Csr::from_edge_list(&graph), source);
        let config = config.with_compression(CompressionMode::Adaptive);
        let plan = FaultPlan::new(99).with_message_faults(0.2, 0.1, 0.1).with_max_delay(2);
        let r = dist.run_with_faults(source, &config, &plan).unwrap();
        assert_eq!(r.depths, expect, "compressed recovery must be bit-exact");
        let f = &r.stats.fault;
        assert!(f.any_faults());
        assert!(f.retries > 0);
        assert!(r.stats.total_bytes_saved() > 0, "compression stays active under faults");
        // Deterministic: the same chaotic compressed run replays identically.
        let again = dist.run_with_faults(source, &config, &plan).unwrap();
        assert_eq!(again.depths, r.depths);
        assert_eq!(again.stats.fault, r.stats.fault);
        assert_eq!(again.stats.total_remote_bytes(), r.stats.total_remote_bytes());
    }

    #[test]
    fn compression_survives_fail_stop_rollback() {
        let graph = RmatConfig::graph500(12).generate();
        let config = BfsConfig::new(8);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let degrees = graph.out_degrees();
        let source = degrees.iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0 as u64;
        let expect = bfs_depths(&Csr::from_edge_list(&graph), source);
        let config = config.with_compression(CompressionMode::Adaptive);
        let plan = FaultPlan::new(1).with_fail_stop(2, 1);
        let r = dist.run_with_faults(source, &config, &plan).unwrap();
        assert_eq!(r.depths, expect);
        let f = &r.stats.fault;
        assert_eq!(f.fail_stops, 1);
        assert_eq!(f.rollbacks, 1, "rollback resets the differential-mask baseline");
        assert!(r.stats.total_bytes_saved() > 0);
    }

    #[test]
    fn unsurvivable_plan_is_a_typed_error() {
        let graph = builders::path(9);
        let config = BfsConfig::new(10);
        let dist = DistributedGraph::build(&graph, Topology::new(1, 2), &config).unwrap();
        let plan = FaultPlan::new(0).with_fail_stop(0, 0).with_fail_stop(1, 1);
        assert!(matches!(
            dist.run_with_faults(0, &config, &plan),
            Err(RunError::Fault(FaultError::GpuFailed { .. }))
        ));
    }

    // ---- Silent data corruption: injection, detection, recovery. ----

    use crate::verify::VerificationMode;
    use gcbfs_cluster::fault::{SdcEvent, SdcSite};

    #[test]
    fn verification_off_is_bit_identical_to_the_default_run() {
        let (_, dist, config, source) = rmat_fixture();
        let a = dist.run(source, &config).unwrap();
        let b = dist.run(source, &config.with_verification(VerificationMode::Off)).unwrap();
        assert_eq!(a.depths, b.depths);
        assert_eq!(a.modeled_seconds(), b.modeled_seconds(), "Off adds zero modeled time");
        assert_eq!(a.iterations(), b.iterations());
        assert_eq!(a.stats.total_remote_bytes(), b.stats.total_remote_bytes());
    }

    #[test]
    fn verification_tiers_cost_more_but_stay_bit_exact_on_clean_runs() {
        let (graph, dist, config, source) = rmat_fixture();
        let expect = bfs_depths(&Csr::from_edge_list(&graph), source);
        let off = dist.run(source, &config).unwrap();
        let sums =
            dist.run(source, &config.with_verification(VerificationMode::Checksums)).unwrap();
        let full = dist.run(source, &config.with_verification(VerificationMode::Full)).unwrap();
        for r in [&off, &sums, &full] {
            assert_eq!(r.depths, expect, "verification never perturbs a clean traversal");
            assert_eq!(r.stats.fault.sdc_detections, 0);
        }
        assert!(sums.modeled_seconds() > off.modeled_seconds(), "checksum scans are charged");
        assert!(full.modeled_seconds() > sums.modeled_seconds(), "full re-scans cost more");
    }

    #[test]
    fn sdc_under_off_corrupts_silently() {
        let (graph, dist, config, source) = rmat_fixture();
        let expect = bfs_depths(&Csr::from_edge_list(&graph), source);
        let plan =
            FaultPlan::new(0).with_sdc_event(SdcEvent::flip(0, 1, SdcSite::KernelDepth, 5, 1 << 3));
        let r = dist.run_with_faults(source, &config, &plan).unwrap();
        let f = &r.stats.fault;
        assert_eq!(f.injected_sdc, 1, "the upset fires");
        assert_eq!(f.sdc_detections, 0, "Off has no detector");
        assert_ne!(r.depths, expect, "the corruption reaches the answer");
    }

    #[test]
    fn sdc_kernel_flip_is_detected_and_reexecuted_bit_exact() {
        let (graph, dist, config, source) = rmat_fixture();
        let expect = bfs_depths(&Csr::from_edge_list(&graph), source);
        let config = config.with_verification(VerificationMode::Full);
        let plan =
            FaultPlan::new(0).with_sdc_event(SdcEvent::flip(0, 1, SdcSite::KernelDepth, 5, 1 << 3));
        let r = dist.run_with_faults(source, &config, &plan).unwrap();
        assert_eq!(r.depths, expect, "recovered depths are bit-exact");
        let f = &r.stats.fault;
        assert_eq!(f.injected_sdc, 1);
        assert!(f.sdc_detections >= 1, "the flip cannot slip past Full");
        assert!(f.sdc_reexecutions >= 1, "a transient upset is repaired by re-execution");
        assert_eq!(f.rollbacks, 0, "the ladder never needed the checkpoint");
        assert!(f.recovery_seconds > 0.0, "the wasted superstep is charged");
    }

    #[test]
    fn sdc_reduction_and_frontier_events_recover_under_full() {
        let (graph, dist, config, source) = rmat_fixture();
        let expect = bfs_depths(&Csr::from_edge_list(&graph), source);
        let config = config.with_verification(VerificationMode::Full);
        for site in [SdcSite::ReducedMask, SdcSite::FrontierDrop] {
            let plan = FaultPlan::new(0).with_sdc_event(SdcEvent::flip(1, 1, site, 9, 1));
            let r = dist.run_with_faults(source, &config, &plan).unwrap();
            assert_eq!(r.depths, expect, "bit-exact recovery for {site:?}");
            let f = &r.stats.fault;
            assert_eq!(f.injected_sdc, 1, "{site:?} event fires");
            assert!(f.sdc_detections >= 1, "{site:?} is detected");
            assert!(f.sdc_reexecutions >= 1);
        }
    }

    #[test]
    fn sdc_restore_strike_climbs_the_ladder_to_a_clean_checkpoint() {
        // A fail-stop forces a rollback; the restore buffer is struck on
        // the way back. Re-execution replays the corrupted state and keeps
        // failing, so the ladder rolls back again — this time the one-shot
        // strike is spent and the replay is clean.
        let (graph, dist, config, source) = rmat_fixture();
        let expect = bfs_depths(&Csr::from_edge_list(&graph), source);
        let config = config.with_verification(VerificationMode::Full);
        let plan = FaultPlan::new(1).with_fail_stop(2, 1).with_sdc_event(SdcEvent::flip(
            0,
            0,
            SdcSite::RestoreBuffer,
            3,
            1 << 2,
        ));
        let r = dist.run_with_faults(source, &config, &plan).unwrap();
        assert_eq!(r.depths, expect);
        let f = &r.stats.fault;
        assert_eq!(f.injected_sdc, 1);
        assert!(f.sdc_detections >= 1, "the tampered restore cannot slip past Full");
        assert!(f.rollbacks >= 2, "fail-stop rollback plus the verified SDC rollback");
    }

    #[test]
    fn sdc_persistent_stuck_word_is_unrecoverable() {
        let (_, dist, config, source) = rmat_fixture();
        let config = config.with_verification(VerificationMode::Full);
        // A hard-stuck output word refires on every re-execution and every
        // post-rollback replay: no amount of retrying helps.
        let plan =
            FaultPlan::new(0).with_sdc_event(SdcEvent::stuck(0, 0, SdcSite::KernelDepth, 7, 1000));
        assert!(matches!(
            dist.run_with_faults(source, &config, &plan),
            Err(RunError::Fault(FaultError::SdcUnrecoverable { .. }))
        ));
    }

    #[test]
    fn sdc_detection_without_recovery_is_a_typed_error() {
        let (_, dist, config, source) = rmat_fixture();
        let config = config
            .with_verification(VerificationMode::Full)
            .with_recovery(RecoveryConfig::disabled());
        let plan =
            FaultPlan::new(0).with_sdc_event(SdcEvent::flip(0, 1, SdcSite::KernelDepth, 5, 1 << 3));
        assert!(matches!(
            dist.run_with_faults(source, &config, &plan),
            Err(RunError::Fault(FaultError::SdcDetected { iteration: 1, .. }))
        ));
    }

    #[test]
    fn sdc_runs_are_deterministic() {
        let (_, dist, config, source) = rmat_fixture();
        let config = config.with_verification(VerificationMode::Full);
        let plan = FaultPlan::random_sdc(23, 4, 6);
        let a = dist.run_with_faults(source, &config, &plan).unwrap();
        let b = dist.run_with_faults(source, &config, &plan).unwrap();
        assert_eq!(a.depths, b.depths);
        assert_eq!(a.stats.fault, b.stats.fault);
        assert_eq!(a.modeled_seconds(), b.modeled_seconds());
    }

    #[test]
    fn run_error_display_and_source() {
        use std::error::Error;
        let b = RunError::Build(BuildError::SourceOutOfRange { source: 9, num_vertices: 4 });
        assert!(b.to_string().contains("out of range"));
        assert!(b.source().is_some());
        let f = RunError::Fault(FaultError::GpuFailed { gpu: 1, iteration: 3 });
        assert!(f.to_string().contains("unrecovered fault"));
        assert!(f.source().is_some());
        assert_eq!(RunError::from(BuildError::SourceOutOfRange { source: 9, num_vertices: 4 }), b);
    }

    #[test]
    fn local_ids_overflow_is_detected_before_allocation() {
        let graph = EdgeList { num_vertices: u32::MAX as u64 + 2, edges: Vec::new() };
        let config = BfsConfig::new(4);
        let err = DistributedGraph::build(&graph, Topology::new(1, 1), &config).unwrap_err();
        assert!(
            matches!(err, BuildError::LocalIdsOverflow { per_gpu_vertices } if per_gpu_vertices > u32::MAX as u64)
        );
        assert!(err.to_string().contains("32-bit local ids"));
    }
}
