//! Accounting invariants of the structured-observability subsystem.
//!
//! The trace is only trustworthy if it is an *exact* second set of books
//! for the run: every byte and every modeled second the driver charges
//! must reappear in the recorded spans, bit-for-bit, under every
//! configuration. This suite locks four identities across the full
//! {compression off/fixed/adaptive} × {faults off/on} matrix:
//!
//! * **(a) bytes**: the per-iteration sum of cross-rank message events
//!   (nn updates + mask-reduction hops) equals
//!   `IterationRecord::remote_bytes`;
//! * **(b) phases**: per-lane phase spans max-combine to the recorded
//!   cluster `IterationTiming`, and the blocking-mode identity
//!   `sum_of_parts() == elapsed()` still holds;
//! * **(c) time**: the trace's critical-path total equals
//!   `RunStats::modeled_elapsed()`;
//! * **(d) work**: visit-kernel span edge counts sum to
//!   `KernelWork::total_edges()` per iteration.
//!
//! Plus the zero-cost contract: `ObservabilityConfig::Off` leaves every
//! seed-visible number bit-identical, and the golden JSON-lines fixture
//! is byte-for-byte stable across host thread widths.

use gpu_cluster_bfs::cluster::fault::FaultPlan;
use gpu_cluster_bfs::cluster::topology::Topology;
use gpu_cluster_bfs::compress::{CompressionMode, FrontierCodec, MaskCodec};
use gpu_cluster_bfs::core::driver::{BfsResult, DistributedGraph};
use gpu_cluster_bfs::obs::{FaultKind, ObservabilityConfig, PhaseTag, TraceLog};
use gpu_cluster_bfs::prelude::*;

fn fixture(scale: u32) -> (EdgeList, u64) {
    let graph = RmatConfig::graph500(scale).generate();
    let src = graph.hub().unwrap();
    (graph, src)
}

fn modes() -> [CompressionMode; 3] {
    [
        CompressionMode::Off,
        CompressionMode::Fixed(FrontierCodec::VarintDelta, MaskCodec::SparseIndex),
        CompressionMode::Adaptive,
    ]
}

fn chaos_plan() -> FaultPlan {
    FaultPlan::new(99).with_message_drops(0.2)
}

/// Max-combine of the recorded per-lane spans for one (iteration, phase),
/// using the same left fold from zero as `IterationTiming::from_lanes`.
fn span_max(log: &TraceLog, iter: u32, phase: PhaseTag) -> f64 {
    log.phase_spans
        .iter()
        .filter(|s| s.iter == iter && s.phase == phase)
        .map(|s| s.dur)
        .fold(0.0f64, f64::max)
}

/// Asserts the four accounting invariants on an observed result.
/// `degraded` relaxes the per-lane kernel-fits-in-phase check: after a
/// fail-stop the dead GPU's computation time moves onto its buddy while
/// the kernel spans stay attributed to the partition that did the work.
fn check_invariants(label: &str, r: &BfsResult, degraded: bool) {
    let log = r.observed.as_ref().expect("observability was on");
    let stats = &r.stats;
    assert_eq!(log.num_gpus(), stats.num_gpus, "{label}: lane count");
    assert_eq!(log.iterations.len(), stats.records.len(), "{label}: iteration count");

    for rec in &stats.records {
        let iter = rec.iter;
        // (a) Every charged remote byte reappears as a cross-rank message.
        assert_eq!(
            log.cross_rank_wire_bytes(iter),
            rec.remote_bytes,
            "{label}: iteration {iter} message bytes != remote_bytes"
        );

        // (b) Per-lane phase spans max-combine to the cluster timing.
        let p = rec.timing.phases;
        assert_eq!(
            span_max(log, iter, PhaseTag::Computation).to_bits(),
            p.computation.to_bits(),
            "{label}: iteration {iter} computation max"
        );
        assert_eq!(
            span_max(log, iter, PhaseTag::LocalComm).to_bits(),
            p.local_comm.to_bits(),
            "{label}: iteration {iter} local_comm max"
        );
        assert_eq!(
            span_max(log, iter, PhaseTag::RemoteNormal).to_bits(),
            p.remote_normal.to_bits(),
            "{label}: iteration {iter} remote_normal max"
        );
        // The delegate reduction is a collective: every lane records the
        // same cluster-wide duration.
        assert!(
            log.phase_spans
                .iter()
                .filter(|s| s.iter == iter && s.phase == PhaseTag::RemoteDelegate)
                .all(|s| s.dur.to_bits() == p.remote_delegate.to_bits()),
            "{label}: iteration {iter} remote_delegate spans"
        );
        if rec.timing.overlap {
            // The pipeline hides the shorter side: elapsed is the max of
            // the two sides, never more than the serial stack and never
            // less than the computation alone.
            assert!(rec.timing.elapsed() <= rec.timing.sum_of_parts());
            assert!(rec.timing.elapsed() >= p.computation);
        } else if rec.timing.blocking_reduce {
            // Same four addends, different association — `sum_of_parts`
            // is ((c+l)+rn)+rd while `elapsed` is (c+l)+(rn+rd) — so the
            // identity holds to 1 ulp, not bitwise.
            let sum = rec.timing.sum_of_parts();
            let elapsed = rec.timing.elapsed();
            assert!(
                (sum - elapsed).abs() <= f64::EPSILON * sum.abs(),
                "{label}: iteration {iter} blocking sum_of_parts {sum} != elapsed {elapsed}"
            );
        } else {
            assert!(rec.timing.elapsed() <= rec.timing.sum_of_parts());
        }

        // (d) Visit-kernel spans account for every examined edge.
        let span_edges: u64 = log
            .kernel_spans
            .iter()
            .filter(|k| k.iter == iter && k.tag.counts_edges())
            .map(|k| k.work)
            .sum();
        assert_eq!(
            span_edges,
            rec.work.total_edges(),
            "{label}: iteration {iter} kernel-span edges != KernelWork::total_edges()"
        );

        // Kernel spans fit inside the computation phase of their lane
        // (both streams start at the phase start and run concurrently).
        if !degraded {
            for g in 0..log.num_gpus() {
                for stream in [
                    gpu_cluster_bfs::obs::StreamTag::Normal,
                    gpu_cluster_bfs::obs::StreamTag::Delegate,
                ] {
                    let stream_sum: f64 = log
                        .kernel_spans
                        .iter()
                        .filter(|k| k.iter == iter && k.gpu == g && k.stream == stream)
                        .map(|k| k.dur)
                        .sum();
                    let lane_comp = log
                        .phase_spans
                        .iter()
                        .find(|s| s.iter == iter && s.gpu == g && s.phase == PhaseTag::Computation)
                        .expect("lane has a computation span")
                        .dur;
                    assert!(
                        stream_sum <= lane_comp + 1e-15,
                        "{label}: iteration {iter} gpu {g} {stream:?} stream overflows its phase"
                    );
                }
            }
        }
    }

    // (c) The trace's critical path reproduces the modeled elapsed time
    // exactly.
    let modeled = stats.modeled_elapsed();
    assert_eq!(
        log.critical_path().total_seconds().to_bits(),
        modeled.to_bits(),
        "{label}: trace critical path != modeled time"
    );
    // The phase attribution partitions each iteration's elapsed time.
    let cp = log.critical_path();
    let attributed: f64 =
        cp.phase_attribution().iter().sum::<f64>() + cp.checkpoint_seconds + cp.recovery_seconds;
    assert!(
        (attributed - modeled).abs() <= 1e-12 * modeled.max(1.0),
        "{label}: phase attribution does not partition the total"
    );

    // Fault spans are the same books as FaultStats, bucket by bucket.
    // Fold from +0.0 in recorded order — the same accumulation
    // `FaultStats` performs (`sum()` would start from -0.0).
    let cp_sum: f64 = log
        .faults
        .iter()
        .filter(|f| f.kind == FaultKind::Checkpoint)
        .map(|f| f.dur)
        .fold(0.0, |a, b| a + b);
    // Every non-checkpoint kind (retry, recovery, spare absorption,
    // spreading, SDC re-execution) charges `recovery_seconds`.
    let rec_sum: f64 = log
        .faults
        .iter()
        .filter(|f| f.kind != FaultKind::Checkpoint)
        .map(|f| f.dur)
        .fold(0.0, |a, b| a + b);
    assert_eq!(cp_sum.to_bits(), stats.fault.checkpoint_seconds.to_bits(), "{label}: checkpoints");
    assert_eq!(rec_sum.to_bits(), stats.fault.recovery_seconds.to_bits(), "{label}: recovery");
}

#[test]
fn invariants_hold_across_compression_and_fault_matrix() {
    let (graph, src) = fixture(10);
    let topo = Topology::new(2, 2);
    for mode in modes() {
        for faults in [false, true] {
            let label = format!("mode={mode} faults={faults}");
            let config = BfsConfig::new(8)
                .with_compression(mode)
                .with_observability(ObservabilityConfig::Full);
            let dist = DistributedGraph::build(&graph, topo, &config).unwrap();
            let r = if faults {
                dist.run_with_faults(src, &config, &chaos_plan()).unwrap()
            } else {
                dist.run(src, &config).unwrap()
            };
            check_invariants(&label, &r, false);
            if faults {
                let log = r.observed.as_ref().unwrap();
                assert!(r.stats.fault.retries > 0, "{label}: chaos plan must fire");
                assert!(
                    log.faults.iter().any(|f| f.kind == FaultKind::Retry),
                    "{label}: retries must be recorded"
                );
            }
        }
    }
}

#[test]
fn invariants_hold_under_nonblocking_and_ablated_options() {
    let (graph, src) = fixture(10);
    let topo = Topology::new(3, 2);
    for (l, u, br) in [(true, true, false), (false, false, false), (true, false, true)] {
        let config = BfsConfig::new(8)
            .with_local_all2all(l)
            .with_uniquify(u)
            .with_blocking_reduce(br)
            .with_observability(ObservabilityConfig::Full);
        let dist = DistributedGraph::build(&graph, topo, &config).unwrap();
        let r = dist.run(src, &config).unwrap();
        check_invariants(&format!("l={l} u={u} br={br}"), &r, false);
    }
}

#[test]
fn invariants_hold_with_pipelined_overlap() {
    let (graph, src) = fixture(10);
    let topo = Topology::new(2, 2);
    for mode in [CompressionMode::Off, CompressionMode::Adaptive] {
        for blocking in [false, true] {
            let label = format!("overlap mode={mode} blocking={blocking}");
            let base = BfsConfig::new(8).with_compression(mode).with_blocking_reduce(blocking);
            let overlapped = base.with_overlap(true).with_observability(ObservabilityConfig::Full);
            let dist = DistributedGraph::build(&graph, topo, &base).unwrap();
            let on = dist.run(src, &overlapped).unwrap();
            check_invariants(&label, &on, false);
            let log = on.observed.as_ref().unwrap();

            // Stage spans decompose every iteration's nn-exchange: three
            // per lane per iteration, and each lane's encode + decode
            // stage time reproduces its local_comm span up to summation
            // order (the mask-reduce share rides the encode stage).
            assert_eq!(
                log.stage_spans.len(),
                3 * log.num_gpus() as usize * log.iterations.len(),
                "{label}: stage span count"
            );
            for it in &log.iterations {
                assert!(it.timing.overlap, "{label}: iteration paths must carry the overlap flag");
                for g in 0..log.num_gpus() {
                    let staged: f64 = log
                        .stage_spans
                        .iter()
                        .filter(|s| {
                            s.iter == it.iter
                                && s.gpu == g
                                && s.stage != gpu_cluster_bfs::obs::StageTag::Transfer
                        })
                        .map(|s| s.dur)
                        .sum();
                    let lane_local = log
                        .phase_spans
                        .iter()
                        .find(|s| s.iter == it.iter && s.gpu == g && s.phase == PhaseTag::LocalComm)
                        .expect("lane has a local_comm span")
                        .dur;
                    assert!(
                        (staged - lane_local).abs() <= 1e-12 * lane_local.max(1.0),
                        "{label}: iter {} gpu {g} encode+decode {staged} != local_comm {lane_local}",
                        it.iter
                    );
                }
            }

            // Overlap changes only when things are charged, never what the
            // traversal computes: depths are bit-exact against the serial
            // schedule and the run can only get faster.
            let off = dist.run(src, &base).unwrap();
            assert_eq!(off.depths, on.depths, "{label}: overlap must not change depths");
            assert!(
                on.modeled_seconds() <= off.modeled_seconds(),
                "{label}: overlap made the run slower"
            );
            assert!(on.modeled_seconds() > 0.0);
        }
    }
}

#[test]
fn invariants_survive_fail_stop_rollback() {
    let (graph, src) = fixture(10);
    let config = BfsConfig::new(8)
        .with_compression(CompressionMode::Adaptive)
        .with_observability(ObservabilityConfig::Full);
    let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
    let plan = FaultPlan::new(1).with_fail_stop(2, 1);
    let r = dist.run_with_faults(src, &config, &plan).unwrap();
    assert_eq!(r.stats.fault.rollbacks, 1, "the plan must roll back once");
    check_invariants("fail-stop", &r, true);
    let log = r.observed.as_ref().unwrap();
    // The rollback vacated a stretch of timeline; the recovery span
    // re-covers it, so the log's extent still reaches the modeled total.
    assert!(log.faults.iter().any(|f| f.kind == FaultKind::Recovery));
    let last_end = log
        .iterations
        .last()
        .map(|i| i.start + i.timing.elapsed())
        .unwrap_or(0.0)
        .max(log.extent_seconds());
    assert!(
        (last_end - r.modeled_seconds()).abs() <= 1e-12 * r.modeled_seconds().max(1.0),
        "timeline extent {last_end} vs modeled {}",
        r.modeled_seconds()
    );
}

#[test]
fn off_mode_is_bit_identical_and_records_nothing() {
    let (graph, src) = fixture(10);
    let topo = Topology::new(2, 2);
    for mode in [CompressionMode::Off, CompressionMode::Adaptive] {
        for faults in [false, true] {
            let base = BfsConfig::new(8).with_compression(mode);
            let observed = base.with_observability(ObservabilityConfig::Full);
            let dist = DistributedGraph::build(&graph, topo, &base).unwrap();
            let (off, on) = if faults {
                let plan = chaos_plan();
                (
                    dist.run_with_faults(src, &base, &plan).unwrap(),
                    dist.run_with_faults(src, &observed, &plan).unwrap(),
                )
            } else {
                (dist.run(src, &base).unwrap(), dist.run(src, &observed).unwrap())
            };
            assert!(off.observed.is_none(), "Off must record nothing");
            assert!(on.observed.is_some(), "Full must record");
            assert_eq!(off.depths, on.depths);
            assert_eq!(
                off.modeled_seconds().to_bits(),
                on.modeled_seconds().to_bits(),
                "observation must not perturb modeled time (mode={mode} faults={faults})"
            );
            assert_eq!(off.stats.fault, on.stats.fault);
            assert_eq!(off.stats.records.len(), on.stats.records.len());
            for (a, b) in off.stats.records.iter().zip(&on.stats.records) {
                assert_eq!(a.remote_bytes, b.remote_bytes);
                assert_eq!(a.timing.elapsed().to_bits(), b.timing.elapsed().to_bits());
                assert_eq!(a.work, b.work);
            }
        }
    }
}

// ---- Golden-trace regression: the exported JSON-lines document of a
// fixed-seed run is byte-for-byte stable across host thread widths (the
// trace lives entirely in modeled-time coordinates) and matches the
// committed fixture. Regenerate with GCBFS_BLESS=1 after an intentional
// format change. ----

const GOLDEN: &str = include_str!("golden/observability_scale8.jsonl");

fn golden_run_jsonl() -> String {
    let graph = RmatConfig::graph500(8).generate();
    let src = graph.hub().unwrap();
    let config = BfsConfig::new(8).with_observability(ObservabilityConfig::Full);
    let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
    let r = dist.run(src, &config).unwrap();
    gpu_cluster_bfs::obs::jsonl::export_jsonl(r.observed.as_ref().unwrap())
}

#[test]
fn golden_jsonl_is_thread_width_stable() {
    let reference =
        rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap().install(golden_run_jsonl);
    for width in [2usize, 4] {
        let got = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .unwrap()
            .install(golden_run_jsonl);
        assert!(got == reference, "jsonl trace drifted at {width} threads");
    }
    if std::env::var("GCBFS_BLESS").is_ok() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/observability_scale8.jsonl"),
            &reference,
        )
        .unwrap();
        return;
    }
    assert_eq!(
        reference, GOLDEN,
        "golden jsonl fixture drifted; run with GCBFS_BLESS=1 to regenerate if intentional"
    );
}

#[test]
fn chrome_export_passes_schema_and_is_stable() {
    use gpu_cluster_bfs::obs::{chrome, json};
    let graph = RmatConfig::graph500(8).generate();
    let src = graph.hub().unwrap();
    let config = BfsConfig::new(8).with_observability(ObservabilityConfig::Full);
    let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
    let export = || {
        let r = dist.run(src, &config).unwrap();
        chrome::export_chrome(r.observed.as_ref().unwrap())
    };
    let a = export();
    let events = json::validate_chrome_trace(&a).expect("chrome trace must validate");
    assert!(events > 0);
    let b = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap().install(export);
    assert_eq!(a, b, "chrome trace must be thread-width stable");
}

#[test]
fn jsonl_summary_matches_the_log() {
    use gpu_cluster_bfs::obs::jsonl;
    let (graph, src) = fixture(10);
    let config = BfsConfig::new(8)
        .with_compression(CompressionMode::Adaptive)
        .with_observability(ObservabilityConfig::Full);
    let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
    let r = dist.run(src, &config).unwrap();
    let log = r.observed.as_ref().unwrap();
    let summary = jsonl::summarize(&jsonl::export_jsonl(log)).unwrap();
    assert_eq!(summary.ranks, 2);
    assert_eq!(summary.gpus_per_rank, 2);
    assert_eq!(summary.phase_spans, log.phase_spans.len() as u64);
    assert_eq!(summary.kernel_spans, log.kernel_spans.len() as u64);
    assert_eq!(summary.messages, log.messages.len() as u64);
    assert_eq!(summary.iterations, log.iterations.len() as u64);
    assert_eq!(summary.total_seconds.to_bits(), r.modeled_seconds().to_bits());
    let total_cross: u64 =
        r.stats.records.iter().map(|rec| log.cross_rank_wire_bytes(rec.iter)).sum();
    assert_eq!(summary.cross_rank_wire_bytes, total_cross);
    assert_eq!(
        summary.visit_edges,
        r.stats.records.iter().map(|rec| rec.work.total_edges()).sum::<u64>()
    );
}

#[test]
fn metrics_registry_snapshots_the_run() {
    use gpu_cluster_bfs::obs::MetricsRegistry;
    let (graph, src) = fixture(10);
    let config = BfsConfig::new(8).with_observability(ObservabilityConfig::Full);
    let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
    let r = dist.run(src, &config).unwrap();
    let log = r.observed.as_ref().unwrap();
    let snap = MetricsRegistry::from_log(log).snapshot();
    assert_eq!(snap.counter("trace.kernel_spans"), Some(log.kernel_spans.len() as u64));
    assert_eq!(snap.counter("trace.phase_spans"), Some(log.phase_spans.len() as u64));
    assert_eq!(snap.counter("trace.iterations"), Some(log.iterations.len() as u64));
    let msgs = snap.counter("message.cross_rank.count").unwrap_or(0)
        + snap.counter("message.intra_rank.count").unwrap_or(0);
    assert_eq!(msgs, log.messages.len() as u64);
    // The registry's traffic counter is the same books as the stats.
    assert_eq!(snap.counter("traffic.cross_rank.wire_bytes"), Some(r.stats.total_remote_bytes()));
    assert_eq!(
        snap.gauge("critical_path.total_seconds").map(f64::to_bits),
        Some(r.modeled_seconds().to_bits())
    );
    // Deterministic snapshot ordering: names are sorted.
    let names: Vec<&String> = snap.counters.iter().map(|(n, _)| n).collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted);
}

// ---- Attribution pin: the critical path's per-phase attribution of
// three fixed-seed runs, bit for bit. The attribution's sum is checked
// above against the modeled total; this pins how it is split, so a
// changed attribution rule (which phase wins a non-blocking overlap,
// which side of a pipelined superstep is charged) cannot pass
// unnoticed. ----

fn attribution_bits(config: BfsConfig, scale: u32) -> [u64; 4] {
    let (graph, src) = fixture(scale);
    let config = config.with_observability(ObservabilityConfig::Full);
    let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
    let r = dist.run(src, &config).unwrap();
    r.observed.unwrap().critical_path().phase_attribution().map(f64::to_bits)
}

#[test]
fn phase_attribution_is_pinned() {
    let runs: [(&str, BfsConfig, u32, [u64; 4]); 3] = [
        (
            "golden",
            BfsConfig::new(8),
            8,
            [4542809033431616668, 4533202887089502988, 4529882252037799077, 4542507984908176877],
        ),
        // Non-blocking as well, so both sides of the pipelined max win
        // some supersteps.
        (
            "overlap",
            BfsConfig::new(8).with_overlap(true).with_blocking_reduce(false),
            10,
            [4541052660390690921, 4530840729859981074, 0, 4536526166609423309],
        ),
        (
            "non-blocking",
            BfsConfig::new(8).with_blocking_reduce(false),
            10,
            [4544365790042914240, 4535345760954691690, 0, 4541960000373765263],
        ),
    ];
    for width in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
        for (label, config, scale, pin) in &runs {
            let got = pool.install(|| attribution_bits(*config, *scale));
            assert_eq!(got, *pin, "{label}: phase attribution drifted at {width} threads");
        }
    }
}
