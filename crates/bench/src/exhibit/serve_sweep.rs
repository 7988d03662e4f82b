//! Saturation bench for the multi-tenant serving layer.
//!
//! Ramps open-loop Poisson offered load from well below the no-batching
//! capacity to past the batched capacity, for two scheduler policies on
//! the same arrival sequences:
//!
//! * `batch64` — MS-BFS coalescing up to 64 distinct sources per sweep;
//! * `batch1` — the no-batching baseline (one sweep per query).
//!
//! Reports per-QPS p50/p95/p99 latency, p99 queue wait, goodput (on-time
//! completions per modeled second), shed rate and sharing factor. The
//! full run's output is the committed `results/serve_sweep.txt`, which
//! the exhibit drift gate compares byte for byte.
//!
//! Usage: `gcbfs-bench serve_sweep [--smoke]` — 16 GPUs at the scale's
//! suggested threshold, seed 42, 256 arrivals per QPS point, a pool of 64
//! distinct sources, an admission queue bound of 96. Environment knob:
//! `GCBFS_SCALE` (default 20).
//!
//! `--smoke` additionally asserts the acceptance gates: sharing factor
//! at least 8x at the saturated batch-64 point, batched peak goodput at
//! least 4x the batch-1 peak, p99 monotone non-decreasing in offered
//! load, and bit-identical reports on a repeated run.

use gcbfs_bench::prelude::*;
use gcbfs_serve::{
    generate, BatchPolicy, QueryRequest, ServeReport, TenantSpec, TraversalService, WorkloadSpec,
};

/// One measured point of the ramp.
struct Point {
    qps: f64,
    report: ServeReport,
}

/// Ramp parameters shared by both scheduler policies.
struct Ramp<'a> {
    qps_list: &'a [f64],
    arrivals: usize,
    seed: u64,
    deadline: f64,
    pool: &'a [u64],
    tenants: &'a [TenantSpec],
}

impl Ramp<'_> {
    /// The seeded arrivals of one offered-load point.
    fn workload(&self, qps: f64) -> Vec<QueryRequest> {
        let spec = WorkloadSpec::bfs_only(qps, self.arrivals, self.seed, self.pool.to_vec())
            .with_deadline(self.deadline)
            .with_tenant_shares(vec![4.0, 2.0, 1.0, 1.0]);
        generate(&spec, self.tenants)
    }
}

fn run_ramp(svc: &mut TraversalService<'_>, policy: BatchPolicy, ramp: &Ramp<'_>) -> Vec<Point> {
    svc.set_policy(policy);
    ramp.qps_list.iter().map(|&qps| Point { qps, report: svc.run(&ramp.workload(qps)) }).collect()
}

fn print_ramp(title: &str, points: &[Point]) {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let r = &p.report;
            vec![
                f2(p.qps),
                r.offered.to_string(),
                f2(r.latency.p50 * 1e3),
                f2(r.latency.p95 * 1e3),
                f2(r.latency.p99 * 1e3),
                f2(r.queue_wait.p99 * 1e3),
                f2(r.goodput_qps),
                pct(r.shed_rate * 100.0),
                f2(r.mean_batch),
                f2(r.sharing_factor),
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "offered QPS",
            "queries",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "wait p99 ms",
            "goodput",
            "shed",
            "batch",
            "sharing",
        ],
        &rows,
    );
}

pub fn run(k: &Knobs, smoke: Option<&str>) {
    let smoke = smoke.is_some();
    let scale = k.scale.unwrap_or(20);
    let th = BfsConfig::suggested_rmat_threshold(scale + 13).max(8);
    let seed = 42;
    let arrivals = 256;
    let pool_size = 64;
    // A bounded queue makes backpressure visible: past the knee the
    // open-loop backlog exceeds the limit and excess load is shed with
    // typed rejections instead of queueing without bound.
    let queue_limit = 96;
    let topo = Topology::new(8, 2);
    let p = topo.num_gpus() as usize;
    // MS-BFS is forward-only; direction optimization does not compose
    // with source batching, so both modes serve forward sweeps.
    let config = BfsConfig::new(th).with_direction_optimization(false);
    println!("Serve sweep: RMAT scale {scale}, TH {th}, {p} GPUs, {arrivals} arrivals/point");

    let graph = RmatConfig::graph500(scale).generate();
    let dist = DistributedGraph::build(&graph, topo, &config).expect("build");
    let pool = graph.source_pool(pool_size, seed);

    // Calibrate the ramp on the two capacity anchors: one single-source
    // sweep (batch-1 service time) and one full-width sweep.
    let t1 = dist.run_multi_source(&pool[..1], &config).expect("probe").modeled_seconds;
    let full = &pool[..pool.len().min(64)];
    let t64 = dist.run_multi_source(full, &config).expect("probe").modeled_seconds;
    let cap1 = 1.0 / t1;
    let cap64 = full.len() as f64 / t64;
    println!(
        "capacity anchors: single sweep {:.3} ms ({cap1:.1} QPS), \
         {}-wide sweep {:.3} ms ({cap64:.1} QPS)",
        t1 * 1e3,
        full.len(),
        t64 * 1e3
    );

    // Geometric ramp from half the baseline capacity past the batched
    // capacity — both saturation knees are inside the window.
    let lo = 0.5 * cap1;
    let hi = 2.0 * cap64;
    let points = 7usize;
    let qps_list: Vec<f64> =
        (0..points).map(|i| lo * (hi / lo).powf(i as f64 / (points - 1) as f64)).collect();
    let deadline = 10.0 * t64;
    let window = t1;

    let tenants = vec![
        TenantSpec::new(0, "interactive").with_weight(4.0),
        TenantSpec::new(1, "analytics").with_weight(2.0),
        TenantSpec::new(2, "batch-a").with_weight(1.0),
        TenantSpec::new(3, "batch-b").with_weight(1.0),
    ];
    let mut svc = TraversalService::new(&dist, config, tenants.clone(), BatchPolicy::default());

    let batched_policy = BatchPolicy::new(64, window).with_queue_limit(queue_limit);
    let baseline_policy = BatchPolicy::new(1, 0.0).with_queue_limit(queue_limit);
    let ramp =
        Ramp { qps_list: &qps_list, arrivals, seed, deadline, pool: &pool, tenants: &tenants };
    let batched = run_ramp(&mut svc, batched_policy, &ramp);
    let baseline = run_ramp(&mut svc, baseline_policy, &ramp);

    print_ramp(&format!("batch-64 scheduler (window {:.2} ms)", window * 1e3), &batched);
    print_ramp("batch-1 baseline (no coalescing)", &baseline);

    let peak = |pts: &[Point]| pts.iter().map(|p| p.report.goodput_qps).fold(0.0f64, f64::max);
    let batched_peak = peak(&batched);
    let baseline_peak = peak(&baseline);
    let ratio = batched_peak / baseline_peak.max(f64::MIN_POSITIVE);
    let knee_point = batched
        .iter()
        .max_by(|a, b| a.report.goodput_qps.total_cmp(&b.report.goodput_qps))
        .expect("non-empty ramp");
    let knee_qps = knee_point.qps;
    let saturated = batched.last().expect("non-empty ramp");
    println!(
        "\npeak goodput: batched {batched_peak:.2} QPS vs baseline {baseline_peak:.2} QPS \
         ({ratio:.2}x), knee at ~{knee_qps:.1} offered QPS, \
         saturated sharing factor {:.2}x",
        saturated.report.sharing_factor
    );

    // Fairness at the knee: per-tenant p99 under the batched scheduler.
    let tenant_rows: Vec<Vec<String>> = knee_point
        .report
        .tenants
        .iter()
        .map(|t| {
            vec![
                t.name.clone(),
                t.offered.to_string(),
                t.completed.to_string(),
                f2(t.latency.p50 * 1e3),
                f2(t.latency.p99 * 1e3),
            ]
        })
        .collect();
    print_table(
        "per-tenant latency at the knee (batched)",
        &["tenant", "offered", "completed", "p50 ms", "p99 ms"],
        &tenant_rows,
    );

    if smoke {
        assert!(
            saturated.report.sharing_factor >= 8.0,
            "sharing factor {:.2} below the 8x acceptance bound at batch 64",
            saturated.report.sharing_factor
        );
        assert!(
            ratio >= 4.0,
            "batched goodput only {ratio:.2}x the no-batching baseline (needs >= 4x)"
        );
        for w in batched.windows(2) {
            assert!(
                w[1].report.latency.p99 >= w[0].report.latency.p99 * 0.98,
                "batched p99 not monotone in offered load: {:.4} ms then {:.4} ms",
                w[0].report.latency.p99 * 1e3,
                w[1].report.latency.p99 * 1e3
            );
        }
        // Bit-reproducibility: repeat the saturated point and compare.
        svc.set_policy(BatchPolicy::new(64, window).with_queue_limit(queue_limit));
        let again = svc.run(&ramp.workload(saturated.qps));
        assert_eq!(
            again.latency.p99.to_bits(),
            saturated.report.latency.p99.to_bits(),
            "repeated serving run drifted"
        );
        assert_eq!(again.goodput_qps.to_bits(), saturated.report.goodput_qps.to_bits());
        assert_eq!(again.metrics, saturated.report.metrics);
        println!(
            "\nsmoke: sharing {:.2}x >= 8x, goodput ratio {ratio:.2}x >= 4x, \
             p99 monotone, repeat run bit-identical",
            saturated.report.sharing_factor
        );
    }
}
