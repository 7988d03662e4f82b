//! Structured-trace profile of an observed BFS run.
//!
//! Runs the distributed BFS with
//! [`ObservabilityConfig::Full`](gcbfs_trace::ObservabilityConfig) over a
//! small matrix of configurations (raw vs adaptive-compressed wire,
//! fault-free vs message-fault chaos) and reports what the trace recorded:
//! span counts, per-channel message bytes, and the critical-path phase
//! attribution. Every run re-checks the subsystem's two load-bearing
//! identities:
//!
//! * the trace's critical-path total equals the run's modeled elapsed
//!   time bit-for-bit, and
//! * the Chrome `trace_event` export passes the in-tree schema validator
//!   and the JSON-lines export parses back to the same totals.
//!
//! Usage: `gcbfs-bench profile_trace [--smoke]` — scale 14; `--smoke`
//! shrinks to scale 10 for CI. Environment knobs:
//! `GCBFS_PROFILE_OUT=/path.json` writes the fault-free compressed run's
//! Chrome trace to a file (the CI smoke artifact);
//! `GCBFS_JSONL_OUT=/path.jsonl` writes its JSON-lines document.

use gcbfs_bench::prelude::*;
use gcbfs_cluster::fault::FaultPlan;
use gcbfs_compress::CompressionMode;
use gcbfs_trace::{chrome, json, jsonl, ObservabilityConfig, PhaseTag, TraceLog};

struct Case {
    label: &'static str,
    compression: CompressionMode,
    faults: Option<FaultPlan>,
}

fn cases() -> Vec<Case> {
    vec![
        Case { label: "raw", compression: CompressionMode::Off, faults: None },
        Case { label: "adaptive", compression: CompressionMode::Adaptive, faults: None },
        Case {
            label: "raw+chaos",
            compression: CompressionMode::Off,
            faults: Some(FaultPlan::new(99).with_message_drops(0.2)),
        },
        Case {
            label: "adaptive+chaos",
            compression: CompressionMode::Adaptive,
            faults: Some(FaultPlan::new(99).with_message_drops(0.2)),
        },
    ]
}

fn check_exports(label: &str, log: &TraceLog) -> (String, String) {
    let chrome_json = chrome::export_chrome(log);
    let events = json::validate_chrome_trace(&chrome_json)
        .unwrap_or_else(|e| panic!("{label}: chrome export failed validation: {e}"));
    assert!(events > 0, "{label}: chrome export must contain events");
    let lines = jsonl::export_jsonl(log);
    let summary = jsonl::summarize(&lines)
        .unwrap_or_else(|e| panic!("{label}: jsonl export failed to parse back: {e}"));
    assert_eq!(summary.phase_spans, log.phase_spans.len() as u64, "{label}: phase-span count");
    assert_eq!(summary.kernel_spans, log.kernel_spans.len() as u64, "{label}: kernel-span count");
    assert_eq!(summary.messages, log.messages.len() as u64, "{label}: message count");
    assert_eq!(summary.faults, log.faults.len() as u64, "{label}: fault count");
    assert_eq!(
        summary.total_seconds.to_bits(),
        log.critical_path().total_seconds().to_bits(),
        "{label}: jsonl critical-path total drifted"
    );
    (chrome_json, lines)
}

fn row(label: &str, r: &BfsResult) -> Vec<String> {
    let log = r.observed.as_ref().expect("observability was on");
    let cp = log.critical_path();
    assert_eq!(
        cp.total_seconds().to_bits(),
        r.modeled_seconds().to_bits(),
        "{label}: critical path must reproduce modeled time bit-for-bit"
    );
    let attr = cp.phase_attribution();
    let comp = attr[PhaseTag::Computation as usize];
    let remote: f64 =
        attr[PhaseTag::RemoteNormal as usize] + attr[PhaseTag::RemoteDelegate as usize];
    vec![
        label.to_string(),
        r.iterations().to_string(),
        log.phase_spans.len().to_string(),
        log.kernel_spans.len().to_string(),
        log.messages.len().to_string(),
        log.faults.len().to_string(),
        r.stats.total_remote_bytes().to_string(),
        f2(r.modeled_seconds() * 1e3),
        format!(
            "{:.0}%/{:.0}%",
            100.0 * comp / cp.total_seconds(),
            100.0 * remote / cp.total_seconds()
        ),
    ]
}

pub fn run(k: &Knobs, smoke: Option<&str>) {
    let scale = if smoke.is_some() { 10 } else { 14 };
    let topo = Topology::new(2, 2);
    let th = BfsConfig::suggested_rmat_threshold(scale + 13).max(8);
    let graph = RmatConfig::graph500(scale).generate();
    let source = hub_source(&graph);

    let mut rows = Vec::new();
    let mut artifact: Option<(String, String)> = None;
    for case in cases() {
        let config = BfsConfig::new(th)
            .with_compression(case.compression)
            .with_observability(ObservabilityConfig::Full);
        let dist = DistributedGraph::build(&graph, topo, &config).expect("build");
        let r = match &case.faults {
            Some(plan) => dist.run_with_faults(source, &config, plan).expect("faulted run"),
            None => dist.run(source, &config).expect("run"),
        };
        rows.push(row(case.label, &r));
        let exports = check_exports(case.label, r.observed.as_ref().unwrap());
        if case.label == "adaptive" {
            artifact = Some(exports);
        }
    }
    print_table(
        &format!("observed BFS, scale {scale}, TH {th}, {} GPUs, source {source}", topo.num_gpus()),
        &["case", "iters", "phase", "kernel", "msgs", "faults", "rbytes", "elap ms", "comp/net"],
        &rows,
    );
    println!(
        "all traces: chrome schema valid, jsonl roundtrip exact, critical path == modeled time"
    );

    let (chrome_json, lines) = artifact.expect("adaptive case ran");
    if let Some(path) = &k.profile_out {
        std::fs::write(path, &chrome_json).expect("write GCBFS_PROFILE_OUT");
        println!("wrote chrome trace: {path} ({} bytes)", chrome_json.len());
    }
    if let Some(path) = &k.jsonl_out {
        std::fs::write(path, &lines).expect("write GCBFS_JSONL_OUT");
        println!("wrote jsonl trace: {path} ({} bytes)", lines.len());
    }
}
