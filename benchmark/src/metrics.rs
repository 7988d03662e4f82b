//! Metric names, units and directions — the code half of
//! `BENCHMARK.json` (a test holds the two in agreement) — and the
//! result line every run prints last.

use std::collections::BTreeMap;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may worsen before a change
/// counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "wall_ms_p50", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "wall_ms_p90", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "wall_mteps", unit: "MTEPS", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "modeled_gteps", unit: "GTEPS", better: Better::Higher, bound: 0.15 },
    EndToEnd { name: "wire_bytes_per_op", unit: "bytes", better: Better::Lower, bound: 0.2 },
    EndToEnd { name: "graph_bytes_per_edge", unit: "bytes", better: Better::Lower, bound: 0.01 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.25 },
];

/// A single layer's metric (layer = module name) and the end-to-end
/// metric and workload it should move; elsewhere the prediction is no
/// change.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer { name, unit, better, moves }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [Layer; 70] = [
    layer("graph.generate_s", "s", Lower, "load generation only"),
    layer("graph.out_degrees_s", "s", Lower, "setup_s on rmat20_dobfs"),
    layer("separation.build_s", "s", Lower, "setup_s"),
    layer("separation.delegates", "count", Lower, "wire_bytes_per_op (mask width)"),
    layer("distributor.distribute_s", "s", Lower, "setup_s on rmat20_dobfs (most of it)"),
    layer("distributor.nn_edge_share", "%", Lower, "explains comm.* and wire_bytes_per_op"),
    layer("subgraph.build_s", "s", Lower, "setup_s"),
    layer("subgraph.total_bytes", "bytes", Lower, "graph_bytes_per_edge"),
    layer("driver.build_s", "s", Lower, "setup_s (sum check of the four stages)"),
    layer("driver.cold_setup_s", "s", Lower, "setup_s (first repetition in a fresh process)"),
    layer("driver.init_ms", "ms", Lower, "wall_ms_p50 on web_longtail"),
    layer("kernels.visit_ms", "ms", Lower, "wall_ms_p50, wall_mteps on rmat20_dobfs"),
    layer("kernels.edges_examined", "count", Lower, "wall_mteps on rmat20_dobfs"),
    layer("kernels.medges_per_s", "Medges/s", Higher, "wall_mteps on rmat20_dobfs"),
    layer(
        "kernels.edges_per_input_edge",
        "ratio",
        Lower,
        "DO's useful-work ratio; wall_mteps on rmat20_dobfs",
    ),
    layer("kernels.mask_consume_ms", "ms", Lower, "wall_ms_p50 on rmat20_dobfs, web_longtail"),
    layer("kernels.commit_ms", "ms", Lower, "wall_ms_p50 on rmat20_dobfs, web_longtail"),
    layer("collectives.mask_reduce_ms", "ms", Lower, "wall_ms_p50 on web_longtail"),
    layer("collectives.mask_reductions", "count", Lower, "wire_bytes_per_op"),
    layer("collectives.mask_bytes", "bytes", Lower, "wire_bytes_per_op on every sim workload"),
    layer("comm.exchange_ms", "ms", Lower, "wall_ms_p50, wall_mteps on rmat17_topdown_codec"),
    layer("comm.prepare_ms", "ms", Lower, "wall_ms_p50 on rmat17_topdown_codec"),
    layer("comm.deliver_ms", "ms", Lower, "wall_ms_p50 on rmat17_topdown_codec"),
    layer("comm.nn_updates_sent", "count", Lower, "wire_bytes_per_op on sim workloads"),
    layer("comm.uniquify_kept_share", "ratio", Lower, "wire_bytes_per_op on rmat17_topdown_codec"),
    layer("comm.remote_bytes", "bytes", Lower, "wire_bytes_per_op on sim workloads"),
    layer("comm.local_bytes", "bytes", Lower, "none end to end (NVLink traffic)"),
    layer("compress.frontier_encode_ms", "ms", Lower, "wall_ms_p50 on rmat17_topdown_codec"),
    layer("compress.frontier_decode_ms", "ms", Lower, "wall_ms_p50 on rmat17_topdown_codec"),
    layer("compress.frontier_mb_s", "MB/s", Higher, "wall_ms_p50 on rmat17_topdown_codec"),
    layer("compress.frontier_ratio", "ratio", Higher, "wire_bytes_per_op on rmat17_topdown_codec"),
    layer("compress.codec_raw32", "count", Lower, "wire_bytes_per_op on rmat17_topdown_codec"),
    layer("compress.codec_varint", "count", Higher, "wire_bytes_per_op on rmat17_topdown_codec"),
    layer("compress.codec_bitmap", "count", Higher, "wire_bytes_per_op on rmat17_topdown_codec"),
    layer("compress.mask_encode_ms", "ms", Lower, "wall_ms_p50 on rmat17_topdown_codec"),
    layer("compress.mask_ratio", "ratio", Higher, "wire_bytes_per_op on rmat17_topdown_codec"),
    layer("compress.frame_roundtrip_mb_s", "MB/s", Higher, "wall_ms_p50 on rmat14_proc2"),
    layer("compress.seal_mb_s", "MB/s", Higher, "wall_ms_p50 on rmat14_proc2"),
    layer("assemble.depths_ms", "ms", Lower, "wall_ms_p50 on rmat20_dobfs"),
    layer("driver.supersteps", "count", Lower, "wall_ms_p50 on web_longtail"),
    layer("driver.us_per_superstep", "us", Lower, "wall_ms_p50 on web_longtail"),
    layer("driver.overhead_ms", "ms", Lower, "wall_ms_p50 on web_longtail"),
    layer(
        "driver.replay_gap_pct",
        "%",
        Lower,
        "validity: above 10 the layer numbers are unresolved",
    ),
    layer("rayon.fork_join_us", "us", Lower, "wall_ms_p50 on web_longtail"),
    layer("msbfs.batch_ms", "ms", Lower, "wall_ms_p50 on rmat16_msbfs64"),
    layer("msbfs.supersteps", "count", Lower, "wall_ms_p50 on rmat16_msbfs64"),
    layer("msbfs.wall_sharing", "ratio", Higher, "wall_mteps on rmat16_msbfs64"),
    layer("msbfs.modeled_sharing", "ratio", Higher, "modeled_gteps on rmat16_msbfs64"),
    layer("procrt.run_ms", "ms", Lower, "wall_ms_p50 on rmat14_proc2"),
    layer("procrt.report_wall_ms", "ms", Lower, "wall_ms_p50 on rmat14_proc2"),
    layer("procrt.setup_floor_ms", "ms", Lower, "setup_s, wall_ms_p50 on rmat14_proc2"),
    layer(
        "procrt.traverse_ms",
        "ms",
        Lower,
        "wall_ms_p50 on rmat14_proc2 (what kernels and routing can move)",
    ),
    layer("procrt.exec_floor_ms", "ms", Lower, "lower bound of any spawn saving"),
    layer("procrt.wire_bytes", "bytes", Lower, "wire_bytes_per_op on rmat14_proc2"),
    layer("procrt.setup_wire_share", "ratio", Lower, "wire_bytes_per_op on rmat14_proc2"),
    layer("procrt.frames_sent", "count", Lower, "wall_ms_p50 on rmat14_proc2"),
    layer("procrt.frames_received", "count", Lower, "wall_ms_p50 on rmat14_proc2"),
    layer("procrt.heartbeats", "count", Lower, "wire_bytes_per_op on rmat14_proc2"),
    layer("procrt.supersteps", "count", Lower, "wall_ms_p50 on rmat14_proc2"),
    layer("procrt.ms_per_superstep", "ms", Lower, "wall_ms_p50 on rmat14_proc2"),
    layer(
        "procrt.wire_over_modeled",
        "ratio",
        Lower,
        "wire_bytes_per_op on rmat14_proc2 (ROADMAP item 2: within 2x)",
    ),
    layer("reference.bfs_ms", "ms", Lower, "context for wall_mteps"),
    layer("reference.speedup", "ratio", Higher, "context for wall_mteps"),
    layer("trace.probe_overhead_pct", "%", Lower, "none: end-to-end runs have the probe off"),
    layer("trace.observability_on_pct", "%", Lower, "none: end-to-end runs have observability off"),
    layer("trace.run_ms", "ms", Lower, "wall_ms_p50 (the same op, timed in the traced run)"),
    layer("trace.probe_ms", "ms", Lower, "none: the probe's own op wall"),
    layer("trace.probed_ops", "count", Higher, "none: sample count behind the layer times"),
    layer("trace.peak_rss_mb", "MiB", Lower, "none: footprint of the traced run"),
    layer("trace.spans", "count", Lower, "none: spans recorded"),
];

/// Per-layer values of one traced run: every name of [`PER_LAYER`],
/// zero until the workload's probe sets it (a layer the workload does not
/// exercise stays zero).
pub struct LayerValues(BTreeMap<&'static str, (f64, usize)>);

impl LayerValues {
    pub fn new() -> Self {
        Self(PER_LAYER.iter().map(|l| (l.name, (0.0, 0))).collect())
    }

    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let slot = self.0.get_mut(name).unwrap_or_else(|| panic!("unknown layer metric {name}"));
        assert!(value.is_finite(), "layer metric {name} is {value}");
        *slot = (value, samples);
    }

    /// In [`PER_LAYER`] order.
    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|l| {
                let (value, samples) = self.0[l.name];
                Metric { name: l.name, value, unit: l.unit, samples }
            })
            .collect()
    }
}

/// The last line of a run's standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use gcbfs_trace::json::Json;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && s.chars().next().unwrap().is_ascii_alphanumeric()
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| is_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| is_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| is_unit(m.unit)));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(PER_LAYER.len() <= 128);
        // setup_s carries the largest bound, as the contract asks.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_agrees_with_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("valid JSON");
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();
        let list = |k: &str| doc.get(k).and_then(Json::as_arr).unwrap().to_vec();

        let workloads: Vec<(String, String)> =
            list("workloads").iter().map(|w| (field(w, "name"), field(w, "why"))).collect();
        let expected: Vec<(String, String)> =
            WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(workloads, expected);

        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_num).unwrap();
                (field(m, "name"), field(m, "unit"), field(m, "better"), bound)
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.label().into(), m.bound))
            .collect();
        assert_eq!(e2e, expected);

        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.label().into()))
            .collect();
        assert_eq!(layers, expected);

        let seconds = doc.get("run_seconds").and_then(Json::as_num).unwrap();
        assert_eq!(seconds, crate::DEFAULT_SECONDS);
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let metrics = [Metric { name: "setup_s", value: 0.8127, unit: "s", samples: 3 }];
        let doc = Json::parse(&result_line(true, 10, 0, &metrics)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_num), Some(10.0));
        assert_eq!(doc.get("failed").and_then(Json::as_num), Some(0.0));
        let m = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_num), Some(0.8127));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
        let mut layers = LayerValues::new();
        layers.set("driver.supersteps", 7.0, 8);
        let listed = layers.into_metrics();
        assert_eq!(listed.len(), PER_LAYER.len());
        let set = listed.iter().find(|m| m.name == "driver.supersteps").unwrap();
        assert_eq!((set.value, set.samples, set.unit), (7.0, 8, "count"));
    }
}
