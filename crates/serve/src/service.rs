//! The serving event loop: modeled-time discrete-event simulation of a
//! single traversal cluster serving many tenants.
//!
//! The cluster executes one dispatch at a time (the distributed machine
//! is one shared accelerator resource, as in the paper's one-traversal-
//! at-a-time runs); concurrency comes from MS-BFS batching, not from
//! overlapping sweeps. Arrivals, admission, batching and completion all
//! happen on the modeled clock, so a `(graph, config, policy, workload)`
//! tuple maps to one bit-reproducible [`ServeReport`] at any host thread
//! width.
//!
//! Control-plane work (queue operations, batch formation) is modeled as
//! free: the simulated GPUs are the bottleneck resource and admission
//! runs host-side off the critical path. Every traversal second, by
//! contrast, is charged through the same cost model as a standalone run.

use crate::admission::AdmissionQueue;
use crate::request::{AdmissionError, QueryKind, QueryRequest, TenantId, TenantSpec};
use crate::scheduler::{form_dispatch, next_dispatch_time, BatchPolicy, Dispatch};
use gcbfs_core::config::BfsConfig;
use gcbfs_core::driver::DistributedGraph;
use gcbfs_core::pagerank::PageRankConfig;
use gcbfs_core::sssp::DistributedSssp;
use gcbfs_trace::{MetricsRegistry, MetricsSnapshot};
use std::collections::BTreeMap;

/// Scheduling-relevant summary of one MS-BFS sweep over a source set.
///
/// Deliberately drops the per-source depth vectors (64 × |V| words at
/// full batch width) so sweeps can be memoized without holding the
/// result bodies; the serving layer needs timing and workload, not
/// answers.
#[derive(Clone, Debug)]
pub struct BatchProfile {
    /// Modeled completion offset per distinct source: cumulative level
    /// seconds through that source's termination level.
    pub completion: BTreeMap<u64, f64>,
    /// Per-source termination levels.
    pub levels: BTreeMap<u64, u32>,
    /// Modeled seconds the whole sweep occupies the cluster.
    pub total_seconds: f64,
    /// Edges the shared sweep examined.
    pub edges: u64,
}

/// The outcome of one served query.
#[derive(Clone, Copy, Debug)]
pub struct QueryOutcome {
    /// The request as admitted.
    pub request: QueryRequest,
    /// Modeled dispatch time (batch start).
    pub dispatched: f64,
    /// Modeled completion time (per-source, not batch max, for BFS).
    pub completed: f64,
    /// Queries sharing the dispatch (1 for solo kinds).
    pub batch_size: usize,
    /// Whether the completion met the deadline.
    pub on_time: bool,
}

impl QueryOutcome {
    /// End-to-end latency (submission to completion).
    pub fn latency(&self) -> f64 {
        self.completed - self.request.submitted
    }

    /// Time spent queued before dispatch.
    pub fn queue_wait(&self) -> f64 {
        self.dispatched - self.request.submitted
    }
}

/// One shed query and its typed reason.
#[derive(Clone, Copy, Debug)]
pub struct ShedQuery {
    /// The rejected request.
    pub request: QueryRequest,
    /// Why admission refused it.
    pub reason: AdmissionError,
}

/// Deterministic exact-quantile summary of a latency population.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Samples summarized.
    pub count: u64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Maximum sample.
    pub max: f64,
}

impl LatencySummary {
    /// Summarizes `samples` (sorted in place; exact nearest-rank
    /// quantiles, bit-deterministic via `total_cmp`).
    pub fn from_samples(samples: &mut [f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let rank = |q: f64| samples[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        Self {
            count: n as u64,
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
            mean: samples.iter().sum::<f64>() / n as f64,
            max: samples[n - 1],
        }
    }
}

/// Per-tenant serving report.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// The tenant.
    pub tenant: TenantId,
    /// Its display name.
    pub name: String,
    /// Queries the tenant offered.
    pub offered: u64,
    /// Queries admitted past the queue.
    pub admitted: u64,
    /// Shed counts by reason label.
    pub shed: BTreeMap<&'static str, u64>,
    /// Queries completed.
    pub completed: u64,
    /// Completions inside the deadline.
    pub on_time: u64,
    /// Latency percentiles (exact, modeled seconds).
    pub latency: LatencySummary,
    /// Queue-wait percentiles.
    pub queue_wait: LatencySummary,
}

/// The full outcome of serving one workload.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Modeled makespan: last completion or last arrival, whichever is
    /// later.
    pub duration: f64,
    /// Queries offered (arrivals).
    pub offered: u64,
    /// Queries admitted.
    pub admitted: u64,
    /// Queries shed, by typed reason label.
    pub shed: BTreeMap<&'static str, u64>,
    /// Queries completed.
    pub completed: u64,
    /// Completions inside their deadline.
    pub on_time: u64,
    /// Global latency summary (modeled seconds).
    pub latency: LatencySummary,
    /// Global queue-wait summary.
    pub queue_wait: LatencySummary,
    /// On-time completions per modeled second.
    pub goodput_qps: f64,
    /// Offered queries per modeled second.
    pub offered_qps: f64,
    /// Fraction of offered queries shed.
    pub shed_rate: f64,
    /// Dispatches that carried a BFS batch.
    pub batches: u64,
    /// BFS queries served through batches.
    pub batched_queries: u64,
    /// Mean queries per batch dispatch.
    pub mean_batch: f64,
    /// Edges actually examined by batched sweeps.
    pub batch_edges: u64,
    /// Edges one-sweep-per-query serving would have examined.
    pub unbatched_edges: u64,
    /// `unbatched_edges / batch_edges` — the MS-BFS win.
    pub sharing_factor: f64,
    /// Per-tenant breakdown, sorted by tenant id.
    pub tenants: Vec<TenantReport>,
    /// Every served query's outcome, in completion order.
    pub outcomes: Vec<QueryOutcome>,
    /// Every shed query with its typed reason, in arrival order.
    pub rejections: Vec<ShedQuery>,
    /// Deterministic metrics snapshot (counters, shed buckets, and
    /// power-of-two latency histograms with p50/p95/p99 extraction).
    pub metrics: MetricsSnapshot,
}

/// A long-lived multi-tenant traversal service over one distributed
/// graph.
pub struct TraversalService<'a> {
    dist: &'a DistributedGraph,
    sssp: Option<&'a DistributedSssp>,
    config: BfsConfig,
    policy: BatchPolicy,
    tenants: Vec<TenantSpec>,
    batch_cache: BTreeMap<Vec<u64>, BatchProfile>,
    sssp_cache: BTreeMap<u64, f64>,
    pagerank_cache: BTreeMap<u32, f64>,
}

impl<'a> TraversalService<'a> {
    /// A service over `dist` with the given tenants and batching policy.
    pub fn new(
        dist: &'a DistributedGraph,
        config: BfsConfig,
        tenants: Vec<TenantSpec>,
        policy: BatchPolicy,
    ) -> Self {
        assert!(!tenants.is_empty(), "a service needs at least one tenant");
        Self {
            dist,
            sssp: None,
            config,
            policy,
            tenants,
            batch_cache: BTreeMap::new(),
            sssp_cache: BTreeMap::new(),
            pagerank_cache: BTreeMap::new(),
        }
    }

    /// Attaches a weighted-graph backend so SSSP queries are servable.
    pub fn with_sssp(mut self, sssp: &'a DistributedSssp) -> Self {
        self.sssp = Some(sssp);
        self
    }

    /// Replaces the batching policy (sweep points reuse the profile
    /// caches across policies — the traversals are policy-independent).
    pub fn set_policy(&mut self, policy: BatchPolicy) {
        self.policy = policy;
    }

    /// The current policy.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// The sweep profile for a distinct-source batch, memoized.
    fn profile(&mut self, sources: &[u64]) -> BatchProfile {
        if let Some(p) = self.batch_cache.get(sources) {
            return p.clone();
        }
        let r = self.dist.run_multi_source(sources, &self.config).expect("validated sources");
        let mut completion = BTreeMap::new();
        let mut levels = BTreeMap::new();
        for (k, &s) in sources.iter().enumerate() {
            completion.insert(s, r.completion_seconds_of(k));
            levels.insert(s, r.iterations_of(k));
        }
        let profile = BatchProfile {
            completion,
            levels,
            total_seconds: r.modeled_seconds,
            edges: r.edges_examined,
        };
        self.batch_cache.insert(sources.to_vec(), profile.clone());
        profile
    }

    /// Edges a dedicated single-source sweep for `s` examines (memoized;
    /// the denominator of the sharing factor).
    fn single_sweep_edges(&mut self, s: u64) -> u64 {
        self.profile(&[s]).edges
    }

    fn sssp_seconds(&mut self, source: u64) -> f64 {
        if let Some(&t) = self.sssp_cache.get(&source) {
            return t;
        }
        let sssp = self.sssp.expect("gated at admission");
        let t = sssp.run(source, &self.config).expect("validated source").modeled_seconds;
        self.sssp_cache.insert(source, t);
        t
    }

    fn pagerank_seconds(&mut self, iterations: u32) -> f64 {
        if let Some(&t) = self.pagerank_cache.get(&iterations) {
            return t;
        }
        let pr =
            PageRankConfig { max_iterations: iterations, tolerance: 0.0, ..Default::default() };
        let t = self.dist.pagerank(&pr).modeled_seconds;
        self.pagerank_cache.insert(iterations, t);
        t
    }

    /// Serves `arrivals` (sorted by submission time) to completion and
    /// reports SLO metrics. Deterministic: same service, same arrivals,
    /// same report, bit-for-bit.
    pub fn run(&mut self, arrivals: &[QueryRequest]) -> ServeReport {
        debug_assert!(
            arrivals.windows(2).all(|w| w[0].submitted <= w[1].submitted),
            "arrivals must be sorted by submission time"
        );
        let num_vertices = self.dist.num_vertices();
        let mut queue = AdmissionQueue::new(&self.tenants, self.policy.queue_limit);
        let mut idx = 0usize;
        let mut server_free = 0.0f64;
        // The modeled clock: the time of the last processed event. A
        // dispatch can never happen before the admissions it serves, so
        // dispatch times are clamped to this.
        let mut clock = 0.0f64;
        let mut outcomes: Vec<QueryOutcome> = Vec::new();
        let mut rejections: Vec<ShedQuery> = Vec::new();
        let mut batches = 0u64;
        let mut batched_queries = 0u64;
        let mut batch_edges = 0u64;
        let mut unbatched_edges = 0u64;

        loop {
            let draining = idx >= arrivals.len();
            let dispatch_t = next_dispatch_time(&queue, &self.policy, server_free, draining);
            let arrival_t = arrivals.get(idx).map(|r| r.submitted);
            let take_arrival = match (arrival_t, dispatch_t) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                // Ties admit first so a same-instant arrival can join the
                // batch (one rule, applied always — determinism).
                (Some(a), Some(d)) => a <= d,
            };
            if take_arrival {
                let request = arrivals[idx];
                idx += 1;
                let now = request.submitted;
                clock = clock.max(now);
                // Service-level gates precede the queue: structural
                // rejections are not the queue's business.
                if let Some(source) = request.kind.source() {
                    if source >= num_vertices {
                        let reason = AdmissionError::SourceOutOfRange { source, num_vertices };
                        rejections.push(ShedQuery { request, reason });
                        continue;
                    }
                }
                if matches!(request.kind, QueryKind::Sssp { .. }) && self.sssp.is_none() {
                    let reason = AdmissionError::Unsupported { kind: "sssp" };
                    rejections.push(ShedQuery { request, reason });
                    continue;
                }
                let earliest = if self.policy.service_estimate > 0.0 {
                    now.max(server_free) + self.policy.service_estimate
                } else {
                    0.0
                };
                if let Err(reason) = queue.submit(request, now, earliest) {
                    rejections.push(ShedQuery { request, reason });
                }
            } else {
                let t = dispatch_t.expect("dispatch branch").max(clock);
                clock = t;
                let dispatch =
                    form_dispatch(&mut queue, &self.policy).expect("dispatch time implies work");
                match dispatch {
                    Dispatch::Batch(items) => {
                        let mut sources: Vec<u64> = Vec::new();
                        for item in &items {
                            let s = item.request.kind.source().expect("batchable");
                            if !sources.contains(&s) {
                                sources.push(s);
                            }
                        }
                        let profile = self.profile(&sources);
                        server_free = t + profile.total_seconds;
                        batches += 1;
                        batched_queries += items.len() as u64;
                        batch_edges += profile.edges;
                        let batch_size = items.len();
                        for item in items {
                            let s = item.request.kind.source().expect("batchable");
                            unbatched_edges += self.single_sweep_edges(s);
                            let completed = t + profile.completion[&s];
                            outcomes.push(QueryOutcome {
                                request: item.request,
                                dispatched: t,
                                completed,
                                batch_size,
                                on_time: completed <= item.request.deadline,
                            });
                        }
                    }
                    Dispatch::Single(item) => {
                        let elapsed = match item.request.kind {
                            QueryKind::Sssp { source } => self.sssp_seconds(source),
                            QueryKind::PageRank { iterations } => self.pagerank_seconds(iterations),
                            QueryKind::Bfs { .. } => unreachable!("BFS always batches"),
                        };
                        server_free = t + elapsed;
                        let completed = t + elapsed;
                        outcomes.push(QueryOutcome {
                            request: item.request,
                            dispatched: t,
                            completed,
                            batch_size: 1,
                            on_time: completed <= item.request.deadline,
                        });
                    }
                }
            }
        }

        self.assemble_report(
            arrivals,
            outcomes,
            rejections,
            batches,
            batched_queries,
            batch_edges,
            unbatched_edges,
        )
    }

    #[allow(clippy::too_many_arguments)] // internal aggregation seam
    fn assemble_report(
        &self,
        arrivals: &[QueryRequest],
        outcomes: Vec<QueryOutcome>,
        rejections: Vec<ShedQuery>,
        batches: u64,
        batched_queries: u64,
        batch_edges: u64,
        unbatched_edges: u64,
    ) -> ServeReport {
        let offered = arrivals.len() as u64;
        let last_arrival = arrivals.last().map(|r| r.submitted).unwrap_or(0.0);
        let last_completion =
            outcomes.iter().map(|o| o.completed).fold(0.0f64, |acc, c| acc.max(c));
        let duration = last_arrival.max(last_completion).max(f64::MIN_POSITIVE);

        let mut registry = MetricsRegistry::new();
        registry.counter_add("serve.offered", offered);
        registry.counter_add("serve.admitted", offered - rejections.len() as u64);
        registry.counter_add("serve.completed", outcomes.len() as u64);
        registry.counter_add("serve.batches", batches);
        registry.counter_add("serve.batched_queries", batched_queries);

        let mut shed: BTreeMap<&'static str, u64> = BTreeMap::new();
        for r in &rejections {
            *shed.entry(r.reason.label()).or_insert(0) += 1;
            registry.counter_add(&format!("serve.shed.{}", r.reason.label()), 1);
        }

        let micros = |s: f64| (s * 1e6).round().max(0.0) as u64;
        let mut global_lat: Vec<f64> = Vec::with_capacity(outcomes.len());
        let mut global_wait: Vec<f64> = Vec::with_capacity(outcomes.len());
        let mut on_time = 0u64;
        for o in &outcomes {
            global_lat.push(o.latency());
            global_wait.push(o.queue_wait());
            on_time += o.on_time as u64;
            registry.histogram_observe("serve.latency_us", micros(o.latency()));
            registry.histogram_observe("serve.queue_wait_us", micros(o.queue_wait()));
            registry.histogram_observe("serve.batch_size", o.batch_size as u64);
        }
        registry.counter_add("serve.on_time", on_time);

        let mut tenants_out = Vec::with_capacity(self.tenants.len());
        let mut sorted_tenants = self.tenants.clone();
        sorted_tenants.sort_by_key(|t| t.id);
        for spec in &sorted_tenants {
            let t_offered = arrivals.iter().filter(|r| r.tenant == spec.id).count() as u64;
            let mut t_shed: BTreeMap<&'static str, u64> = BTreeMap::new();
            for r in rejections.iter().filter(|r| r.request.tenant == spec.id) {
                *t_shed.entry(r.reason.label()).or_insert(0) += 1;
            }
            let t_rejected: u64 = t_shed.values().sum();
            let mut lat = Vec::new();
            let mut wait = Vec::new();
            let mut t_on_time = 0u64;
            for o in outcomes.iter().filter(|o| o.request.tenant == spec.id) {
                lat.push(o.latency());
                wait.push(o.queue_wait());
                t_on_time += o.on_time as u64;
                registry.histogram_observe(
                    &format!("serve.tenant.{}.latency_us", spec.name),
                    micros(o.latency()),
                );
            }
            tenants_out.push(TenantReport {
                tenant: spec.id,
                name: spec.name.clone(),
                offered: t_offered,
                admitted: t_offered - t_rejected,
                shed: t_shed,
                completed: lat.len() as u64,
                on_time: t_on_time,
                latency: LatencySummary::from_samples(&mut lat),
                queue_wait: LatencySummary::from_samples(&mut wait),
            });
        }

        let sharing_factor =
            if batch_edges == 0 { 1.0 } else { unbatched_edges as f64 / batch_edges as f64 };
        ServeReport {
            duration,
            offered,
            admitted: offered - rejections.len() as u64,
            shed,
            completed: outcomes.len() as u64,
            on_time,
            latency: LatencySummary::from_samples(&mut global_lat),
            queue_wait: LatencySummary::from_samples(&mut global_wait),
            goodput_qps: on_time as f64 / duration,
            offered_qps: offered as f64 / duration,
            shed_rate: rejections.len() as f64 / offered.max(1) as f64,
            batches,
            batched_queries,
            mean_batch: if batches == 0 { 0.0 } else { batched_queries as f64 / batches as f64 },
            batch_edges,
            unbatched_edges,
            sharing_factor,
            tenants: tenants_out,
            outcomes,
            rejections,
            metrics: registry.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, WorkloadSpec};
    use gcbfs_cluster::topology::Topology;
    use gcbfs_graph::rmat::RmatConfig;

    fn setup() -> (gcbfs_graph::EdgeList, BfsConfig) {
        (RmatConfig::graph500(9).generate(), BfsConfig::new(8))
    }

    fn pool(graph: &gcbfs_graph::EdgeList, count: usize) -> Vec<u64> {
        let degrees = graph.out_degrees();
        (0..graph.num_vertices).filter(|&v| degrees[v as usize] > 0).take(count).collect()
    }

    #[test]
    fn batching_coalesces_and_meets_deadlines() {
        let (graph, config) = setup();
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let tenants = vec![TenantSpec::new(0, "a"), TenantSpec::new(1, "b")];
        let spec = WorkloadSpec::bfs_only(2000.0, 96, 5, pool(&graph, 32)).with_deadline(1.0);
        let arrivals = generate(&spec, &tenants);
        let mut svc = TraversalService::new(&dist, config, tenants, BatchPolicy::new(64, 0.05));
        let report = svc.run(&arrivals);
        assert_eq!(report.offered, 96);
        assert_eq!(report.completed + report.rejections.len() as u64, 96);
        assert!(report.batches > 0);
        assert!(report.mean_batch > 4.0, "high QPS must coalesce, got {}", report.mean_batch);
        assert!(report.sharing_factor > 1.0);
        assert!(report.metrics.counter("serve.offered") == Some(96));
    }

    #[test]
    fn per_query_latency_beats_batch_max() {
        let (graph, config) = setup();
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let tenants = vec![TenantSpec::new(0, "a")];
        let spec = WorkloadSpec::bfs_only(5000.0, 64, 9, pool(&graph, 48)).with_deadline(10.0);
        let arrivals = generate(&spec, &tenants);
        let mut svc = TraversalService::new(&dist, config, tenants, BatchPolicy::new(64, 0.05));
        let report = svc.run(&arrivals);
        // In at least one batch some member finishes before the batch
        // max — the per-source termination levels are doing their job.
        let early_finisher = report.outcomes.iter().any(|o| {
            o.batch_size > 1
                && report
                    .outcomes
                    .iter()
                    .any(|p| p.dispatched == o.dispatched && p.completed > o.completed)
        });
        assert!(early_finisher, "every query paid the batch-max latency");
    }

    #[test]
    fn repeat_runs_are_bit_identical() {
        let (graph, config) = setup();
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let tenants = vec![TenantSpec::new(0, "a"), TenantSpec::new(1, "b").with_weight(2.0)];
        let spec = WorkloadSpec::bfs_only(800.0, 80, 21, pool(&graph, 16));
        let arrivals = generate(&spec, &tenants);
        let mut svc =
            TraversalService::new(&dist, config, tenants.clone(), BatchPolicy::new(32, 0.02));
        let a = svc.run(&arrivals);
        let b = svc.run(&arrivals);
        assert_eq!(a.latency.p99.to_bits(), b.latency.p99.to_bits());
        assert_eq!(a.goodput_qps.to_bits(), b.goodput_qps.to_bits());
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.completed, b.completed);
    }

    #[test]
    fn source_out_of_range_is_shed_typed() {
        let (graph, config) = setup();
        let dist = DistributedGraph::build(&graph, Topology::new(1, 2), &config).unwrap();
        let tenants = vec![TenantSpec::new(0, "a")];
        let bad = QueryRequest {
            id: 0,
            tenant: 0,
            kind: QueryKind::Bfs { source: u64::MAX },
            submitted: 0.0,
            deadline: 1.0,
        };
        let mut svc = TraversalService::new(&dist, config, tenants, BatchPolicy::default());
        let report = svc.run(&[bad]);
        assert_eq!(report.completed, 0);
        assert!(matches!(report.rejections[0].reason, AdmissionError::SourceOutOfRange { .. }));
    }

    #[test]
    fn sssp_without_backend_is_unsupported() {
        let (graph, config) = setup();
        let dist = DistributedGraph::build(&graph, Topology::new(1, 2), &config).unwrap();
        let tenants = vec![TenantSpec::new(0, "a")];
        let q = QueryRequest {
            id: 0,
            tenant: 0,
            kind: QueryKind::Sssp { source: 0 },
            submitted: 0.0,
            deadline: 1.0,
        };
        let mut svc = TraversalService::new(&dist, config, tenants, BatchPolicy::default());
        let report = svc.run(&[q]);
        assert_eq!(report.rejections[0].reason, AdmissionError::Unsupported { kind: "sssp" });
        assert_eq!(report.shed.get("unsupported"), Some(&1));
    }

    #[test]
    fn latency_summary_nearest_rank() {
        let mut samples = vec![4.0, 1.0, 3.0, 2.0];
        let s = LatencySummary::from_samples(&mut samples);
        assert_eq!(s.count, 4);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p95, 4.0);
        assert_eq!(s.p99, 4.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.5);
        assert_eq!(LatencySummary::from_samples(&mut []).count, 0);
    }
}
