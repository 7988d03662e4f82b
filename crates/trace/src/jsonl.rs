//! Compact JSON-lines exporter (one event per line) and its reader.
//!
//! The first line is a `meta` record; then phase spans, kernel spans,
//! messages and fault spans in recorded order; the last line is a
//! `summary` with the critical-path total. Floats are modeled seconds
//! formatted with Rust's shortest-round-trip `Display`, so the same
//! `TraceLog` always serializes to the same bytes — the golden-trace
//! regression test pins this format.
//!
//! [`summarize`] parses a document back (using the in-tree JSON parser)
//! into the totals the bench bins report.

use std::fmt::Write as _;

use crate::json::Json;
use crate::sink::TraceLog;

/// Serializes the log to JSON-lines.
pub fn export_jsonl(log: &TraceLog) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"version\":1,\"ranks\":{},\"gpus_per_rank\":{}}}",
        log.num_ranks, log.gpus_per_rank
    );
    for s in &log.phase_spans {
        let _ = writeln!(
            out,
            "{{\"type\":\"phase\",\"iter\":{},\"gpu\":{},\"phase\":\"{}\",\"start\":{},\"dur\":{}}}",
            s.iter,
            s.gpu,
            s.phase.label(),
            s.start,
            s.dur
        );
    }
    for k in &log.kernel_spans {
        let _ = writeln!(
            out,
            "{{\"type\":\"kernel\",\"iter\":{},\"gpu\":{},\"stream\":\"{}\",\"kind\":\"{}\",\
             \"dir\":\"{}\",\"work\":{},\"start\":{},\"dur\":{}}}",
            k.iter,
            k.gpu,
            k.stream.label(),
            k.tag.label(),
            k.dir.as_char(),
            k.work,
            k.start,
            k.dur
        );
    }
    for s in &log.stage_spans {
        let _ = writeln!(
            out,
            "{{\"type\":\"stage\",\"iter\":{},\"gpu\":{},\"stage\":\"{}\",\"start\":{},\"dur\":{}}}",
            s.iter,
            s.gpu,
            s.stage.label(),
            s.start,
            s.dur
        );
    }
    for m in &log.messages {
        let _ = writeln!(
            out,
            "{{\"type\":\"msg\",\"iter\":{},\"src\":{},\"dst\":{},\"chan\":\"{}\",\"kind\":\"{}\",\
             \"raw\":{},\"wire\":{},\"ts\":{}}}",
            m.iter,
            m.src,
            m.dst,
            m.channel.label(),
            m.kind.label(),
            m.raw_bytes,
            m.wire_bytes,
            m.ts
        );
    }
    for f in &log.faults {
        let _ = writeln!(
            out,
            "{{\"type\":\"fault\",\"kind\":\"{}\",\"iter\":{},\"start\":{},\"dur\":{}}}",
            f.kind.label(),
            f.iter,
            f.start,
            f.dur
        );
    }
    let cp = log.critical_path();
    let _ = writeln!(
        out,
        "{{\"type\":\"summary\",\"iterations\":{},\"total_seconds\":{},\
         \"checkpoint_seconds\":{},\"recovery_seconds\":{}}}",
        log.iterations.len(),
        cp.total_seconds(),
        cp.checkpoint_seconds,
        cp.recovery_seconds
    );
    out
}

/// Totals recovered from a JSON-lines document.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct JsonlSummary {
    /// Simulated ranks (from the meta line).
    pub ranks: u32,
    /// GPUs per rank (from the meta line).
    pub gpus_per_rank: u32,
    /// Phase-span lines.
    pub phase_spans: u64,
    /// Kernel-span lines.
    pub kernel_spans: u64,
    /// Pipeline stage-span lines (present only in overlap runs).
    pub stage_spans: u64,
    /// Message lines.
    pub messages: u64,
    /// Fault lines.
    pub faults: u64,
    /// Sum of `wire` over cross-rank message lines.
    pub cross_rank_wire_bytes: u64,
    /// Sum of `work` over kernel lines whose kind is a visit kernel.
    pub visit_edges: u64,
    /// Critical-path total from the summary line.
    pub total_seconds: f64,
    /// Iteration count from the summary line.
    pub iterations: u64,
}

/// Parses a JSON-lines trace document and accumulates its totals.
///
/// Every line must parse as a JSON object with a string `type` field;
/// unknown types are counted as errors so format drift is caught.
pub fn summarize(text: &str) -> Result<JsonlSummary, String> {
    let mut s = JsonlSummary::default();
    let mut saw_meta = false;
    let mut saw_summary = false;
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let ty = doc
            .get("type")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("line {}: missing type", lineno + 1))?;
        let num = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(|v| v.as_num())
                .ok_or_else(|| format!("line {}: missing number '{key}'", lineno + 1))
        };
        match ty {
            "meta" => {
                saw_meta = true;
                s.ranks = num("ranks")? as u32;
                s.gpus_per_rank = num("gpus_per_rank")? as u32;
            }
            "phase" => s.phase_spans += 1,
            "kernel" => {
                s.kernel_spans += 1;
                let kind = doc.get("kind").and_then(|v| v.as_str()).unwrap_or("");
                if kind.starts_with("visit_") {
                    s.visit_edges += num("work")? as u64;
                }
            }
            "stage" => s.stage_spans += 1,
            "msg" => {
                s.messages += 1;
                if doc.get("chan").and_then(|v| v.as_str()) == Some("cross_rank") {
                    s.cross_rank_wire_bytes += num("wire")? as u64;
                }
            }
            "fault" => s.faults += 1,
            "summary" => {
                saw_summary = true;
                s.total_seconds = num("total_seconds")?;
                s.iterations = num("iterations")? as u64;
            }
            other => return Err(format!("line {}: unknown type '{other}'", lineno + 1)),
        }
    }
    if !saw_meta {
        return Err("missing meta line".to_string());
    }
    if !saw_summary {
        return Err("missing summary line".to_string());
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DirTag, FaultKind, KernelEvent, KernelTag, MessageRecord, StreamTag};
    use crate::sink::SpanSink;
    use crate::timing::{IterationTiming, PhaseTimes};

    fn sample_log() -> TraceLog {
        let mut sink = SpanSink::new(1, 2);
        let lanes = [
            PhaseTimes {
                computation: 1e-4,
                local_comm: 2e-5,
                remote_normal: 0.0,
                remote_delegate: 0.0,
            },
            PhaseTimes {
                computation: 3e-4,
                local_comm: 1e-5,
                remote_normal: 0.0,
                remote_delegate: 0.0,
            },
        ];
        let kernels = vec![
            vec![KernelEvent {
                tag: KernelTag::VisitNn,
                dir: DirTag::Forward,
                stream: StreamTag::Normal,
                work: 17,
                seconds: 5e-5,
            }],
            vec![KernelEvent {
                tag: KernelTag::PrevisitDelegate,
                dir: DirTag::NotApplicable,
                stream: StreamTag::Delegate,
                work: 4,
                seconds: 1e-5,
            }],
        ];
        let msgs = [MessageRecord { src: 0, dst: 1, raw_bytes: 96, wire_bytes: 96, intra: true }];
        let timing = IterationTiming::from_lanes(&lanes, 0.0, true, false);
        sink.record_iteration(0, &lanes, &timing, &[], &kernels, &msgs, &[]);
        sink.record_fault(FaultKind::Retry, 0, 2e-5);
        sink.finish()
    }

    #[test]
    fn round_trips_through_summarize() {
        let log = sample_log();
        let text = export_jsonl(&log);
        let s = summarize(&text).unwrap();
        assert_eq!(s.ranks, 1);
        assert_eq!(s.gpus_per_rank, 2);
        assert_eq!(s.phase_spans, 8);
        assert_eq!(s.kernel_spans, 2);
        assert_eq!(s.messages, 1);
        assert_eq!(s.faults, 1);
        assert_eq!(s.cross_rank_wire_bytes, 0); // the only message was intra-rank
        assert_eq!(s.visit_edges, 17);
        assert_eq!(s.iterations, 1);
        assert_eq!(s.total_seconds, log.critical_path().total_seconds());
    }

    #[test]
    fn export_is_deterministic() {
        let log = sample_log();
        assert_eq!(export_jsonl(&log), export_jsonl(&log));
    }

    #[test]
    fn stage_lines_round_trip_in_overlap_runs() {
        use crate::event::LaneStages;
        let mut sink = SpanSink::new(1, 1);
        let lanes = [PhaseTimes {
            computation: 1e-4,
            local_comm: 2e-5,
            remote_normal: 3e-5,
            remote_delegate: 0.0,
        }];
        let stages = [LaneStages { encode: 1.5e-5, decode: 0.5e-5 }];
        let timing = IterationTiming::from_lanes(&lanes, 0.0, false, true);
        sink.record_iteration(0, &lanes, &timing, &stages, &[vec![]], &[], &[]);
        let log = sink.finish();
        let text = export_jsonl(&log);
        assert!(text.contains("\"type\":\"stage\""));
        assert!(text.contains("\"stage\":\"encode\""));
        let s = summarize(&text).unwrap();
        assert_eq!(s.stage_spans, 3);
        // Overlap-off logs carry no stage lines at all.
        let off = summarize(&export_jsonl(&sample_log())).unwrap();
        assert_eq!(off.stage_spans, 0);
    }

    #[test]
    fn summarize_rejects_unknown_types_and_missing_meta() {
        assert!(summarize("{\"type\":\"mystery\"}").is_err());
        assert!(summarize("{\"type\":\"summary\",\"iterations\":0,\"total_seconds\":0}").is_err());
        assert!(summarize("not json").is_err());
    }
}
