//! The traced pass: a separate, shorter run that produces the per-layer
//! numbers. End-to-end metrics never come from here.
//!
//! Single-source sim workloads go through the layer probe
//! ([`crate::probe`]), each probed op paired with a `DistributedGraph::run`
//! of the same source so the two walls can be compared. `msbfs` and
//! `procrt` expose no composable pieces, so their layer numbers are taken
//! from outside: report fields, an isolated-source floor, isolated
//! codec/frame timings.

use crate::harness::{depths_differ, peak_rss_mib, worker_command, Engine, Gate, Inputs};
use crate::metrics::{LayerValues, Metric};
use crate::probe::{probe_op, Deep, OpCounts, ProbedOp, StagedGraph};
use crate::spans::Recorder;
use crate::stats::{mean, median};
use crate::workloads::{self, OpKind};
use gcbfs_compress::{Frame, SealedPayload};
use gcbfs_core::backend::{Backend, SimBackend};
use gcbfs_core::driver::{BfsResult, DistributedGraph};
use gcbfs_core::msbfs::{batch_sharing_factor, MsBfsResult};
use gcbfs_core::separation::Separation;
use gcbfs_graph::reference::bfs_depths;
use gcbfs_graph::Csr;
use gcbfs_trace::ObservabilityConfig;
use rayon::prelude::*;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Ops per arm of the observability on/off comparison.
const OBSERVABILITY_OPS: usize = 16;
const FORK_JOINS: usize = 10_000;
const MIB: usize = 1 << 20;
/// Ops whose spans go into the trace file.
const TRACE_OPS_WRITTEN: usize = 8;

/// The per-layer metrics of one traced run, and the probe's spans as a
/// Chrome trace document when the workload has a probe.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub trace_json: Option<String>,
    /// Per span name: calls, total and self time per probed op — the
    /// trace file's summary, printed with the metrics.
    pub span_summary: Vec<String>,
}

pub fn run(inputs: &Inputs, seconds: f64, seed: u64, sockets: &Path, gate: &mut Gate) -> Traced {
    let mut out = LayerValues::new();
    out.set("graph.generate_s", inputs.generate_s, 1);
    out.set("graph.out_degrees_s", inputs.out_degrees_s, 1);

    let mut trace_json = None;
    let mut span_summary = Vec::new();
    let sub = match inputs.workload.op {
        OpKind::Single => {
            let mut rec = Recorder::new();
            let sub = single_source(inputs, seconds, &mut rec, gate, &mut out);
            // Spans of the first few ops only, each from another source:
            // enough to read, small enough to open.
            let written = inputs.ops.len().min(TRACE_OPS_WRITTEN) as u32;
            let header = format!(
                "\"workload\":\"{}\",\"seed\":{seed},\"ops_written\":{written},",
                inputs.workload.name
            );
            trace_json = Some(rec.chrome_trace(written, &header));
            let ops = sub.probed_ops;
            for (name, t) in rec.totals(|op| op < ops) {
                let per_op = |ns: u64| ns as f64 / 1e6 / ops.max(1) as f64;
                span_summary.push(format!(
                    "span {name:<26} calls/op {:>8.2}  total {:>10.4} ms/op  self {:>10.4} ms/op",
                    t.count as f64 / ops.max(1) as f64,
                    per_op(t.total_ns),
                    per_op(t.self_ns),
                ));
            }
            sub
        }
        OpKind::Batch => batched(inputs, seconds, gate, &mut out),
        OpKind::Proc => proc_runtime(inputs, seconds, seed, sockets, gate, &mut out),
    };

    out.set("rayon.fork_join_us", fork_join_us(), FORK_JOINS);
    out.set("trace.peak_rss_mb", peak_rss_mib(), 1);

    // The plain single-thread baseline of the same problem, and the final
    // word on correctness: the answers the layer numbers describe are the
    // reference's.
    let csr = Csr::from_edge_list(&inputs.graph);
    let mut reference_ms = Vec::new();
    for (k, sources) in inputs.ops.iter().enumerate() {
        let t = Instant::now();
        let depths: Vec<Vec<u32>> = sources.iter().map(|&s| bfs_depths(&csr, s)).collect();
        reference_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match sub.answers.get(k).and_then(Option::as_ref) {
            Some(answer) => {
                if let Some(diff) = depths_differ(answer, &depths) {
                    gate.fail(format!("sources {k} ({}...): vs reference: {diff}", sources[0]));
                }
            }
            None => gate.fail(format!("sources {k}: no answer to check")),
        }
    }
    out.set("reference.bfs_ms", mean(&reference_ms), reference_ms.len());
    if sub.run_ms > 0.0 {
        out.set("reference.speedup", mean(&reference_ms) / sub.run_ms, reference_ms.len());
    }
    Traced { metrics: out.into_metrics(), trace_json, span_summary }
}

/// What a workload's sub-pass hands back for the common tail.
#[derive(Default)]
struct SubPass {
    /// Mean wall of the workload's op in this run, ms.
    run_ms: f64,
    /// First answer of each distinct op (depths per source).
    answers: Vec<Option<Vec<Vec<u32>>>>,
    /// Paired (non-deep) ops the probe drove; their op ids come first.
    probed_ops: u32,
}

/// Set-up stage timings shared by the sim workloads: one whole
/// `DistributedGraph::build` (cold, with its first op) and one staged
/// build through the same public functions.
fn sim_setup(
    inputs: &Inputs,
    gate: &mut Gate,
    out: &mut LayerValues,
) -> Option<(DistributedGraph, StagedGraph)> {
    let t = Instant::now();
    let dist = match DistributedGraph::build(&inputs.graph, inputs.topo, &inputs.config) {
        Ok(d) => d,
        Err(e) => {
            gate.op(Some(format!("build failed: {e}")));
            return None;
        }
    };
    out.set("driver.build_s", t.elapsed().as_secs_f64(), 1);
    let first = match inputs.workload.op {
        OpKind::Batch => dist.run_multi_source(&inputs.ops[0], &inputs.config).map(|_| ()),
        _ => dist.run(inputs.ops[0][0], &inputs.config).map(|_| ()),
    };
    out.set("driver.cold_setup_s", t.elapsed().as_secs_f64(), 1);
    gate.op(first.err().map(|e| format!("first op: {e}")));

    let staged = StagedGraph::build(&inputs.graph, &inputs.degrees, inputs.topo, &inputs.config);
    out.set("separation.build_s", staged.separation_s, 1);
    out.set("separation.delegates", staged.separation.num_delegates() as f64, 1);
    out.set("distributor.distribute_s", staged.distribute_s, 1);
    out.set("distributor.nn_edge_share", staged.nn_edge_share_pct(), 1);
    out.set("subgraph.build_s", staged.subgraph_s, 1);
    out.set("subgraph.total_bytes", staged.total_bytes() as f64, 1);
    if staged.total_bytes() != dist.total_graph_bytes() {
        gate.fail("staged build and DistributedGraph::build disagree on graph bytes".into());
    }
    Some((dist, staged))
}

/// The layer probe on a single-source sim workload.
fn single_source(
    inputs: &Inputs,
    seconds: f64,
    rec: &mut Recorder,
    gate: &mut Gate,
    out: &mut LayerValues,
) -> SubPass {
    let Some((dist, staged)) = sim_setup(inputs, gate, out) else {
        return SubPass::default();
    };
    let cfg = &inputs.config;
    let n = inputs.ops.len();

    // ---- Paired loop: `run`, then the probe, same source. ----
    let mut run_ms: Vec<f64> = Vec::new();
    let mut probe_ms: Vec<f64> = Vec::new();
    let mut firsts: Vec<Option<(BfsResult, OpCounts)>> = (0..n).map(|_| None).collect();
    let began = Instant::now();
    let mut i = 0usize;
    while i < n || began.elapsed().as_secs_f64() < seconds * 0.5 {
        let k = i % n;
        let source = inputs.ops[k][0];
        let t = Instant::now();
        let ran = dist.run(source, cfg);
        let run_s = t.elapsed().as_secs_f64();
        rec.set_op(i as u32);
        let t = Instant::now();
        let probed = probe_op(&staged, cfg, source, rec, None);
        let probe_s = t.elapsed().as_secs_f64();
        i += 1;
        let ran = match ran {
            Ok(r) => r,
            Err(e) => {
                gate.op(Some(format!("run from {source}: {e}")));
                continue;
            }
        };
        run_ms.push(run_s * 1e3);
        probe_ms.push(probe_s * 1e3);
        gate.op(probe_diverged(&probed, &ran).map(|d| {
            format!("probe op {} (source {source}) diverged from DistributedGraph::run: {d}", i - 1)
        }));
        if firsts[k].is_none() {
            firsts[k] = Some((ran, probed.counts));
        }
    }
    let probed_ops = i as u32;

    // ---- Deep round: the exchange's stages one by one, on clones. ----
    let mut deep = Deep::default();
    for (k, sources) in inputs.ops.iter().enumerate() {
        rec.set_op(probed_ops + k as u32);
        let probed = probe_op(&staged, cfg, sources[0], rec, Some(&mut deep));
        if let Some((ran, _)) = &firsts[k] {
            gate.op(probe_diverged(&probed, ran)
                .map(|d| format!("deep probe (source {}) diverged: {d}", sources[0])));
        }
    }

    // ---- Observability on vs off, alternating. ----
    let full = cfg.with_observability(ObservabilityConfig::Full);
    let (mut off_s, mut on_s) = (0.0, 0.0);
    for j in 0..OBSERVABILITY_OPS {
        let source = inputs.ops[j % n][0];
        let t = Instant::now();
        std::hint::black_box(dist.run(source, cfg).is_ok());
        off_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(dist.run(source, &full).is_ok());
        on_s += t.elapsed().as_secs_f64();
    }
    out.set("trace.observability_on_pct", (on_s - off_s) / off_s * 100.0, OBSERVABILITY_OPS);

    // ---- Layer times: mean ms per probed op. ----
    let ops = run_ms.len().max(1);
    let totals = rec.totals(|op| op < probed_ops);
    let ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ms()) / ops as f64;
    let layer_spans = [
        ("driver.init", "driver.init_ms"),
        ("kernels.visit", "kernels.visit_ms"),
        ("collectives.mask_reduce", "collectives.mask_reduce_ms"),
        ("kernels.mask_consume", "kernels.mask_consume_ms"),
        ("comm.exchange", "comm.exchange_ms"),
        ("kernels.commit", "kernels.commit_ms"),
        ("assemble.depths", "assemble.depths_ms"),
    ];
    let mut in_layers_ms = 0.0;
    for (span, metric) in layer_spans {
        out.set(metric, ms(span), ops);
        in_layers_ms += ms(span);
    }
    let (run_mean, probe_mean) = (mean(&run_ms), mean(&probe_ms));
    out.set("trace.run_ms", run_mean, ops);
    out.set("trace.probe_ms", probe_mean, ops);
    out.set("trace.probed_ops", ops as f64, ops);
    out.set("trace.spans", rec.spans().len() as f64, 1);
    if run_mean > 0.0 {
        let gap = (probe_mean - run_mean) / run_mean * 100.0;
        out.set("trace.probe_overhead_pct", gap, ops);
        out.set("driver.replay_gap_pct", gap.abs(), ops);
        // What `run` spends outside the layers' functions: records, timing
        // folds, stats.
        out.set("driver.overhead_ms", run_mean - in_layers_ms, ops);
    }

    // ---- Counts: exact, from each distinct source once. ----
    let counts: Vec<OpCounts> = firsts.iter().flatten().map(|(_, c)| *c).collect();
    let per_op = |f: fn(&OpCounts) -> f64| mean(&counts.iter().map(f).collect::<Vec<f64>>());
    let c = counts.len();
    let edges = per_op(|c| c.edges_examined as f64);
    let supersteps = per_op(|c| c.supersteps as f64);
    out.set("kernels.edges_examined", edges, c);
    out.set("kernels.edges_per_input_edge", edges / inputs.input_edges(), c);
    if ms("kernels.visit") > 0.0 {
        out.set("kernels.medges_per_s", edges / 1e6 / (ms("kernels.visit") / 1e3), ops);
    }
    out.set("driver.supersteps", supersteps, c);
    if supersteps > 0.0 {
        out.set("driver.us_per_superstep", run_mean * 1e3 / supersteps, ops);
    }
    out.set("collectives.mask_reductions", per_op(|c| c.mask_reductions as f64), c);
    out.set("collectives.mask_bytes", per_op(|c| c.mask_bytes as f64), c);
    out.set("comm.nn_updates_sent", per_op(|c| c.nn_updates_sent as f64), c);
    let before = per_op(|c| c.nn_updates_before as f64);
    if before > 0.0 {
        out.set("comm.uniquify_kept_share", per_op(|c| c.nn_updates_sent as f64) / before, c);
    }
    out.set("comm.remote_bytes", per_op(|c| c.remote_bytes as f64), c);
    out.set("comm.local_bytes", per_op(|c| c.local_bytes as f64), c);
    out.set("compress.codec_raw32", per_op(|c| c.codecs.raw32 as f64), c);
    out.set("compress.codec_varint", per_op(|c| c.codecs.varint_delta as f64), c);
    out.set("compress.codec_bitmap", per_op(|c| c.codecs.bitmap as f64), c);

    // ---- The exchange taken apart (deep round, mean ms per op). ----
    let per_deep_ms = |s: f64| s * 1e3 / n as f64;
    out.set("comm.prepare_ms", per_deep_ms(deep.prepare_s), n);
    out.set("compress.frontier_encode_ms", per_deep_ms(deep.frontier_encode_s), n);
    out.set("compress.frontier_decode_ms", per_deep_ms(deep.frontier_decode_s), n);
    let codec_s = deep.frontier_encode_s + deep.frontier_decode_s;
    // What is left of the exchange after prepare and codec: grouping by
    // destination, cost-model charges, delivery appends. The stages ran
    // on clones before the real exchange, cache-cold like it, so they are
    // taken from the paired ops' mean exchange.
    let stages_ms = per_deep_ms(deep.prepare_s + codec_s);
    out.set("comm.deliver_ms", (ms("comm.exchange") - stages_ms).max(0.0), n);
    if codec_s > 0.0 {
        out.set("compress.frontier_mb_s", 2.0 * deep.frontier_raw_bytes as f64 / 1e6 / codec_s, n);
        out.set(
            "compress.frontier_ratio",
            deep.frontier_raw_bytes as f64 / deep.frontier_encoded_bytes as f64,
            n,
        );
    }
    out.set("compress.mask_encode_ms", per_deep_ms(deep.mask_codec_s), n);
    if deep.mask_encoded_bytes > 0 {
        let ratio = deep.mask_raw_bytes as f64 / deep.mask_encoded_bytes as f64;
        out.set("compress.mask_ratio", ratio, n);
    }
    let answers = firsts.into_iter().map(|f| f.map(|(ran, _)| vec![ran.depths])).collect();
    SubPass { run_ms: run_mean, answers, probed_ops }
}

/// How a probed op differs from `DistributedGraph::run` of the same
/// source: depths, superstep count, and the modeled wire bytes (which the
/// probe rebuilds from the same `ExchangeResult`/`AllreduceOutcome`
/// fields the driver folds).
fn probe_diverged(probed: &ProbedOp, ran: &BfsResult) -> Option<String> {
    let counts = &probed.counts;
    let one = std::slice::from_ref::<Vec<u32>>;
    if let Some(d) = depths_differ(one(&probed.depths), one(&ran.depths)) {
        return Some(d);
    }
    if counts.supersteps != ran.iterations() {
        return Some(format!("{} supersteps, run took {}", counts.supersteps, ran.iterations()));
    }
    let wire = counts.remote_bytes + counts.mask_bytes;
    (wire != ran.stats.total_remote_bytes())
        .then(|| format!("{wire} wire bytes, run counted {}", ran.stats.total_remote_bytes()))
}

/// Outside-in numbers of the batched path.
fn batched(inputs: &Inputs, seconds: f64, gate: &mut Gate, out: &mut LayerValues) -> SubPass {
    let Some((dist, _staged)) = sim_setup(inputs, gate, out) else {
        return SubPass::default();
    };
    let cfg = &inputs.config;
    let n = inputs.ops.len();
    let mut batch_ms: Vec<f64> = Vec::new();
    let mut supersteps: Vec<f64> = Vec::new();
    let mut firsts: Vec<Option<MsBfsResult>> = (0..n).map(|_| None).collect();
    let began = Instant::now();
    let mut i = 0usize;
    while i < n || began.elapsed().as_secs_f64() < seconds * 0.4 {
        let t = Instant::now();
        let batch = dist.run_multi_source(&inputs.ops[i % n], cfg);
        batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        gate.op(batch.as_ref().err().map(|e| format!("batch {i}: {e}")));
        if let (Ok(batch), true) = (batch, i < n) {
            supersteps.push(batch.iterations as f64);
            firsts[i] = Some(batch);
        }
        i += 1;
    }
    out.set("msbfs.batch_ms", mean(&batch_ms), batch_ms.len());
    out.set("msbfs.supersteps", mean(&supersteps), supersteps.len());
    out.set("trace.run_ms", mean(&batch_ms), batch_ms.len());

    // The same sources one at a time: what batching shares, on the wall
    // clock and in edges examined.
    let answers = |firsts: Vec<Option<MsBfsResult>>| {
        firsts.into_iter().map(|b| b.map(|b| b.depths)).collect()
    };
    let Some(batch) = &firsts[0] else {
        return SubPass { run_ms: mean(&batch_ms), answers: answers(firsts), probed_ops: 0 };
    };
    let mut single_ms: Vec<f64> = Vec::new();
    let mut separate: Vec<BfsResult> = Vec::new();
    for (lane, &source) in inputs.ops[0].iter().enumerate() {
        let t = Instant::now();
        let ran = dist.run(source, cfg);
        single_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match ran {
            Ok(r) => {
                gate.op((r.depths != batch.depths[lane]).then(|| {
                    format!("lane {lane} (source {source}) differs from its single-source run")
                }));
                separate.push(r);
            }
            Err(e) => gate.op(Some(format!("single-source run from {source}: {e}"))),
        }
    }
    let lanes = single_ms.len();
    out.set("msbfs.wall_sharing", lanes as f64 * median(&single_ms) / median(&batch_ms), lanes);
    out.set("msbfs.modeled_sharing", batch_sharing_factor(batch, &separate), lanes);
    SubPass { run_ms: mean(&batch_ms), answers: answers(firsts), probed_ops: 0 }
}

/// The first answer of one source on the proc runtime, with the report
/// fields that are exact per source.
struct ProcFirst {
    depths: Vec<u32>,
    frames_sent: u64,
    frames_received: u64,
    supersteps: u32,
}

/// Outside-in numbers of the real-process runtime.
fn proc_runtime(
    inputs: &Inputs,
    seconds: f64,
    seed: u64,
    sockets: &Path,
    gate: &mut Gate,
    out: &mut LayerValues,
) -> SubPass {
    // The coordinator separates vertices itself before every run.
    let t = Instant::now();
    let separation = Separation::from_degrees(&inputs.degrees, inputs.config.degree_threshold);
    out.set("separation.build_s", t.elapsed().as_secs_f64(), 1);
    out.set("separation.delegates", separation.num_delegates() as f64, 1);

    let engine = Engine::setup(inputs, sockets).expect("proc set-up spawns nothing");
    let n = inputs.ops.len();
    let mut run_ms: Vec<f64> = Vec::new();
    let mut report_ms: Vec<f64> = Vec::new();
    let mut wire: Vec<f64> = Vec::new();
    let mut heartbeats: Vec<f64> = Vec::new();
    let mut firsts: Vec<Option<ProcFirst>> = (0..n).map(|_| None).collect();
    let began = Instant::now();
    let mut i = 0usize;
    while i < n || began.elapsed().as_secs_f64() < seconds * 0.4 {
        let k = i % n;
        let t = Instant::now();
        let ran = engine.run(inputs, &inputs.ops[k]);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if i == 0 {
            out.set("driver.cold_setup_s", ms / 1e3, 1);
        }
        gate.op(ran.as_ref().err().map(|e| format!("op {i} (source {}): {e}", inputs.ops[k][0])));
        if let Ok(mut r) = ran {
            let report = r.proc.take().expect("the proc engine reports");
            run_ms.push(ms);
            report_ms.push(report.wall_seconds * 1e3);
            wire.push(report.wire_bytes as f64);
            heartbeats.push(report.heartbeats as f64);
            firsts[k].get_or_insert(ProcFirst {
                depths: r.depths.swap_remove(0),
                frames_sent: report.frames_sent,
                frames_received: report.frames_received,
                supersteps: report.iterations,
            });
        }
        i += 1;
    }
    if run_ms.is_empty() {
        return SubPass::default();
    }
    let ops = run_ms.len();
    out.set("procrt.run_ms", mean(&run_ms), ops);
    out.set("procrt.report_wall_ms", mean(&report_ms), ops);
    out.set("procrt.wire_bytes", mean(&wire), ops);
    out.set("procrt.heartbeats", mean(&heartbeats), ops);
    out.set("trace.run_ms", mean(&run_ms), ops);
    let answers = firsts.iter().map(|f| f.as_ref().map(|f| vec![f.depths.clone()])).collect();
    let firsts: Vec<&ProcFirst> = firsts.iter().flatten().collect();
    let per_source =
        |f: fn(&ProcFirst) -> u64| mean(&firsts.iter().map(|x| f(x) as f64).collect::<Vec<f64>>());
    let supersteps = per_source(|x| x.supersteps as u64);
    out.set("procrt.frames_sent", per_source(|x| x.frames_sent), firsts.len());
    out.set("procrt.frames_received", per_source(|x| x.frames_received), firsts.len());
    out.set("procrt.supersteps", supersteps, firsts.len());

    // The floor: a BFS from an isolated vertex is one superstep, so the
    // op is spawn + handshake + ship + finish and nothing else.
    let isolated = workloads::pick_isolated(&inputs.degrees, seed);
    let mut floor_ms: Vec<f64> = Vec::new();
    let mut floor_wire: Vec<f64> = Vec::new();
    let began = Instant::now();
    while floor_ms.len() < 3 || began.elapsed().as_secs_f64() < seconds * 0.2 {
        let t = Instant::now();
        let ran = engine.run(inputs, &[isolated]);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match ran {
            Ok(r) => {
                let reached = r.depths[0].iter().filter(|&&d| d != gcbfs_core::UNREACHED).count();
                gate.op((reached != 1).then(|| format!("isolated source reached {reached}")));
                floor_ms.push(ms);
                floor_wire.push(r.wire_bytes as f64);
            }
            Err(e) => {
                gate.op(Some(format!("isolated source {isolated}: {e}")));
                break;
            }
        }
    }
    if !floor_ms.is_empty() {
        let floor = median(&floor_ms);
        let traverse = (median(&run_ms) - floor).max(0.0);
        out.set("procrt.setup_floor_ms", floor, floor_ms.len());
        out.set("procrt.traverse_ms", traverse, ops);
        out.set("procrt.setup_wire_share", mean(&floor_wire) / mean(&wire), floor_wire.len());
        if supersteps > 0.0 {
            out.set("procrt.ms_per_superstep", traverse / supersteps, ops);
        }
    }

    // Lower bound of any spawn saving: the worker executable started so
    // that it exits at once (no socket to connect to).
    let cmd = worker_command();
    let mut exec_ms: Vec<f64> = Vec::new();
    for _ in 0..10 {
        let t = Instant::now();
        let status = Command::new(&cmd.program)
            .args(&cmd.args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status();
        if status.is_ok() {
            exec_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    if !exec_ms.is_empty() {
        out.set("procrt.exec_floor_ms", median(&exec_ms), exec_ms.len());
    }

    // The model half: the sim oracle on the same inputs.
    let mut modeled_bytes: Vec<f64> = Vec::new();
    for (sources, first) in inputs.ops.iter().zip(&firsts) {
        match SimBackend.run(&inputs.graph, inputs.topo, sources[0], &inputs.config, false) {
            Ok(oracle) => {
                gate.op((oracle.depths != first.depths)
                    .then(|| format!("source {}: differs from the sim oracle", sources[0])));
                let sim = oracle.sim.expect("the sim backend reports");
                modeled_bytes.push(sim.stats.total_remote_bytes() as f64);
            }
            Err(e) => gate.op(Some(format!("sim oracle from {}: {e}", sources[0]))),
        }
    }
    if mean(&modeled_bytes) > 0.0 {
        let ratio = mean(&wire) / mean(&modeled_bytes);
        out.set("procrt.wire_over_modeled", ratio, modeled_bytes.len());
    }

    // Frame and seal throughput on one worker's share of an op's wire
    // bytes (at least 8 MiB, so the buffer is well past the caches).
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get()).min(2);
    let len = (mean(&wire) as usize / workers).max(8 * MIB);
    let buffer: Vec<u8> = (0..len).map(|i| (i as u64).wrapping_mul(0x9e37_79b9) as u8).collect();
    let t = Instant::now();
    let encoded = Frame::new(0x42, buffer.clone()).encode();
    let (frame, used) = Frame::decode(&encoded).expect("own frame decodes");
    let frame_s = t.elapsed().as_secs_f64();
    assert_eq!((frame.payload_len(), used), (len, encoded.len()));
    out.set("compress.frame_roundtrip_mb_s", 2.0 * len as f64 / 1e6 / frame_s, 1);
    let t = Instant::now();
    let sealed = SealedPayload::seal(buffer);
    let opened = sealed.open().expect("own seal opens").len();
    let seal_s = t.elapsed().as_secs_f64();
    assert_eq!(opened, len);
    out.set("compress.seal_mb_s", 2.0 * len as f64 / 1e6 / seal_s, 1);

    SubPass { run_ms: mean(&run_ms), answers, probed_ops: 0 }
}

/// Cost of one empty fork-join over 16 items on the pool, in µs: the
/// fixed price of each of a superstep's fan-outs.
fn fork_join_us() -> f64 {
    let mut items = [0u64; 16];
    let t = Instant::now();
    for _ in 0..FORK_JOINS {
        items.par_iter_mut().for_each(|x| {
            std::hint::black_box(x);
        });
    }
    t.elapsed().as_secs_f64() * 1e6 / FORK_JOINS as f64
}
