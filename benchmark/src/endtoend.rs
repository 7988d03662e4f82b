//! The end-to-end pass: probe off, observability off, one op in flight.
//!
//! Set-up is repeated (drop and rebuild) and reported as a median; the
//! timed phase then cycles through the workload's distinct ops closed
//! loop for `seconds`. Every op is checked against the first op of the
//! same sources, and those first answers against the sequential reference
//! once the timed phase — and the peak-RSS reading — are over.

use crate::harness::{depths_differ, peak_rss_mib, Engine, Gate, Inputs, OpResult};
use crate::metrics::{Metric, END_TO_END};
use crate::stats::{harmonic_rate, mean, median, percentile};
use crate::workloads::OpKind;
use gcbfs_core::backend::{Backend, SimBackend};
use gcbfs_core::driver::DistributedGraph;
use gcbfs_core::stats::geometric_mean;
use std::path::Path;
use std::time::Instant;

/// Set-up repetitions: at least [`MIN_SETUPS`], more while they are
/// cheap, so the small workloads' medians rest on more than three samples.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 2.0;

/// First answers of each distinct op: what later ops are compared to.
struct First {
    depths: Vec<Vec<u32>>,
    modeled_gteps: Option<f64>,
    wire_bytes: u64,
}

impl First {
    fn of(r: OpResult) -> Self {
        Self { depths: r.depths, modeled_gteps: r.modeled_gteps, wire_bytes: r.wire_bytes }
    }
}

pub fn run(inputs: &Inputs, seconds: f64, sockets: &Path, gate: &mut Gate) -> Vec<Metric> {
    // ---- Set-up: edge list to first answer, several times over. ----
    let mut setup_s: Vec<f64> = Vec::new();
    // The first set-up's answer is kept for the reference check; later
    // ones are compared to it at once and dropped.
    let mut setup_answer: Option<OpResult> = None;
    let mut engine: Option<Engine> = None;
    let setups_began = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setups_began.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        engine = None; // drop before rebuilding, as a fresh caller would
        let t = Instant::now();
        let outcome = Engine::setup(inputs, sockets).and_then(|e| {
            let first = e.run(inputs, &inputs.ops[0])?;
            Ok((e, first))
        });
        setup_s.push(t.elapsed().as_secs_f64());
        match outcome {
            Ok((e, first)) => {
                engine = Some(e);
                match &setup_answer {
                    None => {
                        gate.op(None);
                        setup_answer = Some(first);
                    }
                    Some(kept) => gate.op(depths_differ(&first.depths, &kept.depths)
                        .map(|d| format!("set-up {}: differs: {d}", setup_s.len() - 1))),
                }
            }
            Err(e) => {
                gate.op(Some(format!("set-up {}: {e}", setup_s.len() - 1)));
                break;
            }
        }
    }
    let Some(engine) = engine else {
        return Vec::new();
    };

    // ---- Timed phase. ----
    let n_ops = inputs.ops.len();
    let mut firsts: Vec<Option<First>> = (0..n_ops).map(|_| None).collect();
    let mut wall_s: Vec<f64> = Vec::new();
    let mut work: Vec<f64> = Vec::new();
    let mut proc_wire: Vec<f64> = Vec::new();
    let began = Instant::now();
    let mut i = 0usize;
    while i < n_ops || began.elapsed().as_secs_f64() < seconds {
        let k = i % n_ops;
        let sources = &inputs.ops[k];
        let t = Instant::now();
        let outcome = engine.run(inputs, sources);
        let dt = t.elapsed().as_secs_f64();
        match outcome {
            Ok(r) => {
                wall_s.push(dt);
                work.push(sources.len() as f64 * inputs.input_edges());
                if r.proc.is_some() {
                    proc_wire.push(r.wire_bytes as f64);
                }
                match &firsts[k] {
                    None => {
                        gate.op(None);
                        firsts[k] = Some(First::of(r));
                    }
                    Some(first) => gate.op(depths_differ(&r.depths, &first.depths)
                        .map(|d| format!("op {i} (sources {k}): differs from its first: {d}"))),
                }
            }
            Err(e) => gate.op(Some(format!("op {i} (sources {k}): {e}"))),
        }
        i += 1;
    }
    let peak_rss = peak_rss_mib();

    // ---- Correctness of the first answers, after the RSS reading so
    // the reference CSR is not in it. ----
    let reference = inputs.reference_depths();
    for (k, first) in firsts.iter().enumerate() {
        if let Some(diff) = first.as_ref().and_then(|f| depths_differ(&f.depths, &reference[k])) {
            gate.fail(format!("sources {k} ({:?}...): vs reference: {diff}", inputs.ops[k][0]));
        }
    }
    if let Some(diff) = setup_answer.and_then(|a| depths_differ(&a.depths, &reference[0])) {
        gate.fail(format!("set-up: first answer vs reference: {diff}"));
    }

    // The proc engine models nothing: its model half is the sim oracle on
    // the same graph, topology, source and config, which is also a second
    // correctness reference.
    if inputs.workload.op == OpKind::Proc {
        for (sources, first) in inputs.ops.iter().zip(&mut firsts) {
            let (source, Some(first)) = (sources[0], first) else { continue };
            match SimBackend.run(&inputs.graph, inputs.topo, source, &inputs.config, false) {
                Ok(oracle) => {
                    if let Some(diff) = depths_differ(&first.depths, &[oracle.depths]) {
                        gate.fail(format!("source {source}: vs sim oracle: {diff}"));
                    }
                    let sim = oracle.sim.expect("the sim backend reports");
                    first.modeled_gteps = Some(sim.gteps(inputs.graph.num_edges() / 2));
                }
                Err(e) => gate.fail(format!("source {source}: sim oracle: {e}")),
            }
        }
    }
    let firsts: Vec<First> = firsts.into_iter().flatten().collect();
    // Modeled numbers are a pure function of the seed: one value per
    // distinct op, however many times the clock let each one run.
    let modeled: Vec<f64> = firsts.iter().filter_map(|f| f.modeled_gteps).collect();
    if wall_s.is_empty() || modeled.is_empty() {
        return Vec::new();
    }

    let graph_bytes = match &engine {
        Engine::Sim(dist) => dist.total_graph_bytes(),
        // Every proc worker builds exactly this.
        Engine::Proc(_) => DistributedGraph::build(&inputs.graph, inputs.topo, &inputs.config)
            .map_or(0, |d| d.total_graph_bytes()),
    };
    let wire = if proc_wire.is_empty() {
        firsts.iter().map(|f| f.wire_bytes as f64).collect()
    } else {
        proc_wire
    };
    let wall_ms: Vec<f64> = wall_s.iter().map(|s| s * 1e3).collect();
    let values = [
        (median(&setup_s), setup_s.len()),
        (percentile(&wall_ms, 50.0), wall_ms.len()),
        (percentile(&wall_ms, 90.0), wall_ms.len()),
        (harmonic_rate(&work, &wall_s) / 1e6, wall_s.len()),
        (geometric_mean(&modeled), modeled.len()),
        (mean(&wire), wire.len()),
        (graph_bytes as f64 / inputs.graph.num_edges() as f64, 1),
        (peak_rss, 1),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (value, samples))| Metric { name: m.name, value, unit: m.unit, samples })
        .collect()
}
