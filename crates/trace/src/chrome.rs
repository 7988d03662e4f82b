//! Chrome `trace_event` JSON exporter.
//!
//! Lane mapping: each simulated rank is a *process* (`pid` = rank) and
//! each of its GPUs contributes three *threads*: the phase lane
//! (`tid = local_gpu * 3`), the normal-stream kernel lane (`+ 1`) and
//! the delegate-stream kernel lane (`+ 2`). Resilience events live in a
//! synthetic "runtime" process with `pid = num_ranks`. Timestamps are
//! modeled seconds converted to microseconds (the format's unit), so a
//! run that models 3.2 ms of cluster time renders as a 3200 µs
//! timeline in `chrome://tracing` / Perfetto.
//!
//! Determinism: the exporter walks the log's vectors in recorded order
//! and formats floats with Rust's shortest-round-trip `Display`, so the
//! same `TraceLog` always serializes to the same bytes.

use std::fmt::Write as _;

use crate::event::StreamTag;
use crate::json::escape;
use crate::sink::TraceLog;

/// `pid` used for the synthetic runtime (fault/recovery) process.
pub fn runtime_pid(log: &TraceLog) -> u32 {
    log.num_ranks
}

fn push_event(out: &mut String, first: &mut bool, body: &str) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
    out.push_str("    ");
    out.push_str(body);
}

/// Serializes the log to a complete Chrome `trace_event` JSON document
/// (object form, with `traceEvents` plus a metadata footer).
pub fn export_chrome(log: &TraceLog) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"traceEvents\": [\n");
    let mut first = true;

    // Process / thread naming metadata.
    for rank in 0..log.num_ranks {
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{rank},\"tid\":0,\
                 \"args\":{{\"name\":\"rank {rank}\"}}}}"
            ),
        );
    }
    push_event(
        &mut out,
        &mut first,
        &format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"runtime\"}}}}",
            runtime_pid(log)
        ),
    );
    for gpu in 0..log.num_gpus() {
        let pid = gpu / log.gpus_per_rank;
        let base = (gpu % log.gpus_per_rank) * 3;
        for (off, label) in [(0, "phases"), (1, "normal stream"), (2, "delegate stream")] {
            push_event(
                &mut out,
                &mut first,
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\
                     \"tid\":{},\"args\":{{\"name\":\"gpu {gpu} {label}\"}}}}",
                    base + off
                ),
            );
        }
    }

    for s in &log.phase_spans {
        let pid = s.gpu / log.gpus_per_rank;
        let tid = (s.gpu % log.gpus_per_rank) * 3;
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\
                 \"tid\":{tid},\"args\":{{\"iter\":{},\"gpu\":{}}}}}",
                escape(s.phase.label()),
                s.start * 1e6,
                s.dur * 1e6,
                s.iter,
                s.gpu
            ),
        );
    }

    for k in &log.kernel_spans {
        let pid = k.gpu / log.gpus_per_rank;
        let stream_off = match k.stream {
            StreamTag::Normal => 1,
            StreamTag::Delegate => 2,
        };
        let tid = (k.gpu % log.gpus_per_rank) * 3 + stream_off;
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"{} [{}]\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\
                 \"tid\":{tid},\"args\":{{\"iter\":{},\"work\":{},\"dir\":\"{}\"}}}}",
                escape(k.tag.label()),
                k.dir.as_char(),
                k.start * 1e6,
                k.dur * 1e6,
                k.iter,
                k.work,
                k.dir.as_char()
            ),
        );
    }

    for m in &log.messages {
        let pid = m.src / log.gpus_per_rank;
        let tid = (m.src % log.gpus_per_rank) * 3;
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":{pid},\"tid\":{tid},\
                 \"s\":\"t\",\"args\":{{\"iter\":{},\"src\":{},\"dst\":{},\"channel\":\"{}\",\
                 \"raw_bytes\":{},\"wire_bytes\":{}}}}}",
                escape(m.kind.label()),
                m.ts * 1e6,
                m.iter,
                m.src,
                m.dst,
                m.channel.label(),
                m.raw_bytes,
                m.wire_bytes
            ),
        );
    }

    for f in &log.faults {
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":0,\
                 \"args\":{{\"iter\":{}}}}}",
                escape(f.kind.label()),
                f.start * 1e6,
                f.dur * 1e6,
                runtime_pid(log),
                f.iter
            ),
        );
    }

    out.push_str("\n  ],\n");
    let _ = write!(
        out,
        "  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {{\"ranks\": {}, \
         \"gpus_per_rank\": {}, \"iterations\": {}}}\n}}\n",
        log.num_ranks,
        log.gpus_per_rank,
        log.iterations.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MessageRecord;
    use crate::json::{validate_chrome_trace, Json};
    use crate::sink::SpanSink;
    use crate::timing::{IterationTiming, PhaseTimes};

    fn sample_log() -> TraceLog {
        let mut sink = SpanSink::new(2, 2);
        let lanes = [
            PhaseTimes {
                computation: 1e-4,
                local_comm: 2e-5,
                remote_normal: 3e-5,
                remote_delegate: 0.0,
            },
            PhaseTimes {
                computation: 2e-4,
                local_comm: 1e-5,
                remote_normal: 0.0,
                remote_delegate: 0.0,
            },
            PhaseTimes {
                computation: 5e-5,
                local_comm: 0.0,
                remote_normal: 4e-5,
                remote_delegate: 0.0,
            },
            PhaseTimes {
                computation: 1e-4,
                local_comm: 3e-5,
                remote_normal: 1e-5,
                remote_delegate: 0.0,
            },
        ];
        let msgs =
            [MessageRecord { src: 1, dst: 2, raw_bytes: 640, wire_bytes: 200, intra: false }];
        let timing = IterationTiming::from_lanes(&lanes, 6e-5, false, false);
        sink.record_iteration(
            0,
            &lanes,
            &timing,
            &[],
            &[vec![], vec![], vec![], vec![]],
            &msgs,
            &[],
        );
        sink.record_fault(crate::event::FaultKind::Checkpoint, 1, 1e-5);
        sink.finish()
    }

    #[test]
    fn export_passes_schema_validation() {
        let text = export_chrome(&sample_log());
        let n = validate_chrome_trace(&text).unwrap();
        // 3 process_name + 12 thread_name + 16 phase spans + 1 message + 1 fault.
        assert_eq!(n, 33);
    }

    #[test]
    fn lane_mapping_is_rank_process_gpu_thread() {
        let text = export_chrome(&sample_log());
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // Find the computation span of global gpu 3 (rank 1, local 1).
        let span = events
            .iter()
            .find(|e| {
                e.get("name").and_then(|v| v.as_str()) == Some("computation")
                    && e.get("args").and_then(|a| a.get("gpu")).and_then(|v| v.as_num())
                        == Some(3.0)
            })
            .unwrap();
        assert_eq!(span.get("pid").unwrap().as_num(), Some(1.0));
        assert_eq!(span.get("tid").unwrap().as_num(), Some(3.0));
    }

    #[test]
    fn timestamps_are_microseconds() {
        let text = export_chrome(&sample_log());
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // The message instant fires at the remote-normal phase start:
        // (comp_max + local_max) seconds = (2e-4 + 3e-5) * 1e6 µs = 230 µs.
        let msg = events
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("nn_update"))
            .unwrap();
        let ts = msg.get("ts").unwrap().as_num().unwrap();
        assert!((ts - 230.0).abs() < 1e-9, "ts = {ts}");
    }

    #[test]
    fn export_is_deterministic() {
        let log = sample_log();
        assert_eq!(export_chrome(&log), export_chrome(&log));
    }
}
