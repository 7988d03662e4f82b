//! The per-run span recorder and its finished log.
//!
//! [`SpanSink`] maintains a *monotone modeled-time cursor*. The BFS
//! driver calls it at exactly the sites where it charges modeled time
//! (`record_fault` wherever `FaultStats` accumulates, `record_iteration`
//! where an `IterationRecord` is pushed), passing the *same* values it
//! charges: a superstep arrives as its per-GPU lane [`PhaseTimes`] plus
//! the [`IterationTiming`] the caller built from them once, with
//! [`IterationTiming::from_lanes`]. The sink derives no time of its own —
//! it lays the given spans out on the timeline and advances the cursor
//! by [`IterationTiming::elapsed`] — so every quantity it stores is
//! bit-identical to the run's own accounting, and the invariants enforced
//! by `tests/observability.rs` hold exactly, not approximately.
//!
//! Rollback semantics: a checkpoint takes a [`SinkMark`]; a rollback
//! truncates iteration-derived events back to the mark and rewinds the
//! cursor to it, then the driver records a `Recovery` fault span whose
//! duration is the wasted-plus-reload time it charges. Fault spans are
//! *never* truncated (their time has already been charged), so the
//! recovery span exactly covers the timeline hole left by the discarded
//! iterations and the log's total extent still equals the run's modeled
//! elapsed time.

use crate::critical_path::{CriticalPath, IterationPath};
use crate::event::{
    Channel, CollectiveHop, FaultKind, FaultSpan, KernelEvent, KernelSpan, LaneStages,
    MessageEvent, MessageKind, MessageRecord, PhaseSpan, PhaseTag, StageSpan, StageTag,
};
use crate::timing::{IterationTiming, PhaseTimes};

/// The finished, immutable record of one observed run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceLog {
    /// Number of simulated ranks (hosts).
    pub num_ranks: u32,
    /// GPUs per rank; global GPU `g` belongs to rank `g / gpus_per_rank`.
    pub gpus_per_rank: u32,
    /// Per-lane phase intervals, in (iteration, lane) order.
    pub phase_spans: Vec<PhaseSpan>,
    /// Per-stream kernel intervals, in (iteration, lane, stream) order.
    pub kernel_spans: Vec<KernelSpan>,
    /// Pipeline-stage intervals (encode → transfer → decode) of the
    /// nn-exchange, in (iteration, lane) order; empty unless the run had
    /// compute/comm overlap on.
    pub stage_spans: Vec<StageSpan>,
    /// Point-to-point message events, in iteration order.
    pub messages: Vec<MessageEvent>,
    /// Resilience events, in the order their time was charged.
    pub faults: Vec<FaultSpan>,
    /// Per-iteration critical-path summaries, in iteration order.
    pub iterations: Vec<IterationPath>,
}

impl TraceLog {
    /// Total number of GPU lanes.
    pub fn num_gpus(&self) -> u32 {
        self.num_ranks * self.gpus_per_rank
    }

    /// Walks the per-iteration rank×phase summaries and the fault spans
    /// to attribute every modeled second; the result's
    /// [`CriticalPath::total_seconds`] is bit-identical to the run's
    /// `RunStats::modeled_elapsed()`.
    pub fn critical_path(&self) -> CriticalPath {
        let mut checkpoint_seconds = 0.0f64;
        let mut recovery_seconds = 0.0f64;
        // Fold in recorded order, bucketed exactly as FaultStats buckets
        // its charges, so each total reproduces the same f64 sum.
        for f in &self.faults {
            if f.kind == FaultKind::Checkpoint {
                checkpoint_seconds += f.dur;
            } else {
                // Retry, Recovery, SpareAbsorb, Spread, SDC re-execution:
                // everything that is not a checkpoint is recovery-side time.
                recovery_seconds += f.dur;
            }
        }
        CriticalPath { iterations: self.iterations.clone(), checkpoint_seconds, recovery_seconds }
    }

    /// Sum of cross-rank wire bytes recorded for iteration `iter`
    /// (normal-exchange messages plus mask-reduction hops).
    pub fn cross_rank_wire_bytes(&self, iter: u32) -> u64 {
        self.messages
            .iter()
            .filter(|m| m.iter == iter && m.channel == Channel::CrossRank)
            .map(|m| m.wire_bytes)
            .sum()
    }

    /// Largest end time over all recorded spans, in modeled seconds.
    pub fn extent_seconds(&self) -> f64 {
        let mut end = 0.0f64;
        for s in &self.phase_spans {
            end = end.max(s.start + s.dur);
        }
        for f in &self.faults {
            end = end.max(f.start + f.dur);
        }
        end
    }
}

/// A restore point for rollback truncation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SinkMark {
    phase_spans: usize,
    kernel_spans: usize,
    stage_spans: usize,
    messages: usize,
    iterations: usize,
    faults: usize,
    cursor: f64,
}

/// The active recorder owned by the BFS driver during an observed run.
#[derive(Clone, Debug)]
pub struct SpanSink {
    log: TraceLog,
    cursor: f64,
}

impl SpanSink {
    /// A fresh sink for a cluster of `num_ranks * gpus_per_rank` GPUs,
    /// with the modeled clock at zero.
    pub fn new(num_ranks: u32, gpus_per_rank: u32) -> Self {
        SpanSink { log: TraceLog { num_ranks, gpus_per_rank, ..TraceLog::default() }, cursor: 0.0 }
    }

    /// Current modeled time (end of everything recorded so far).
    pub fn cursor(&self) -> f64 {
        self.cursor
    }

    /// Takes a restore point; pair it with the checkpoint it describes.
    pub fn mark(&self) -> SinkMark {
        SinkMark {
            phase_spans: self.log.phase_spans.len(),
            kernel_spans: self.log.kernel_spans.len(),
            stage_spans: self.log.stage_spans.len(),
            messages: self.log.messages.len(),
            iterations: self.log.iterations.len(),
            faults: self.log.faults.len(),
            cursor: self.cursor,
        }
    }

    /// Discards every iteration-derived event recorded after `mark` and
    /// rewinds the cursor past it. Fault spans are kept: the time they
    /// represent has already been charged to the run, so the cursor lands
    /// at the mark *plus* the durations of fault spans recorded since it
    /// (e.g. retries between the checkpoint and the rollback).
    /// The driver records the rollback's `Recovery` span immediately
    /// after, which re-covers only the vacated iteration timeline.
    pub fn truncate(&mut self, mark: &SinkMark) {
        self.log.phase_spans.truncate(mark.phase_spans);
        self.log.kernel_spans.truncate(mark.kernel_spans);
        self.log.stage_spans.truncate(mark.stage_spans);
        self.log.messages.truncate(mark.messages);
        self.log.iterations.truncate(mark.iterations);
        let kept: f64 = self.log.faults[mark.faults..].iter().map(|f| f.dur).sum();
        self.cursor = mark.cursor + kept;
    }

    /// Records a resilience charge of `seconds` at the cursor and
    /// advances the cursor by it. `seconds` must be the exact value
    /// added to `FaultStats` at the same site.
    pub fn record_fault(&mut self, kind: FaultKind, iter: u32, seconds: f64) {
        self.log.faults.push(FaultSpan { kind, iter, start: self.cursor, dur: seconds });
        self.cursor += seconds;
    }

    /// Records one BSP superstep.
    ///
    /// * `lanes[g]` carries GPU `g`'s final phase seconds and `timing`
    ///   the cluster timing the caller built from them
    ///   ([`IterationTiming::from_lanes`]); each lane's delegate span
    ///   lasts the collective's `timing.phases.remote_delegate`.
    /// * `kernels[g]` lists the kernels GPU `g` ran; they are laid out
    ///   sequentially per stream from the computation phase start.
    /// * `messages` are the exchange's point-to-point transfers and
    ///   `mask_hops` the reduction's rank-level hops; both are stamped
    ///   with the start of the phase that pays for them.
    /// * Under `timing.overlap` the communication is pipelined against
    ///   the computation: the comm phases start at the iteration start
    ///   instead of after the compute barrier.
    /// * `stages[g]` splits lane `g`'s nn-exchange into encode/decode
    ///   seconds; stage spans are emitted only under overlap, so an
    ///   overlap-off run's log is byte-identical to the pre-overlap one.
    ///
    /// The cursor advances by `timing.elapsed()`.
    #[allow(clippy::too_many_arguments)]
    pub fn record_iteration(
        &mut self,
        iter: u32,
        lanes: &[PhaseTimes],
        timing: &IterationTiming,
        stages: &[LaneStages],
        kernels: &[Vec<KernelEvent>],
        messages: &[MessageRecord],
        mask_hops: &[CollectiveHop],
    ) {
        debug_assert_eq!(lanes.len(), kernels.len());
        let cluster = &timing.phases;
        let overlap = timing.overlap;
        // Common phase boundaries: the BSP barrier after each phase
        // means every lane's next phase starts at the slowest lane's end.
        // Under overlap the comm pipeline runs on the copy engines
        // concurrently with the kernels, so it starts at the iteration
        // start rather than after the compute barrier.
        let c0 = self.cursor;
        let l0 = if overlap { c0 } else { c0 + cluster.computation };
        let rn0 = l0 + cluster.local_comm;
        let rd0 = if timing.blocking_reduce { rn0 + cluster.remote_normal } else { rn0 };

        for (g, lane) in lanes.iter().enumerate() {
            let gpu = g as u32;
            self.log.phase_spans.push(PhaseSpan {
                gpu,
                iter,
                phase: PhaseTag::Computation,
                start: c0,
                dur: lane.computation,
            });
            self.log.phase_spans.push(PhaseSpan {
                gpu,
                iter,
                phase: PhaseTag::LocalComm,
                start: l0,
                dur: lane.local_comm,
            });
            self.log.phase_spans.push(PhaseSpan {
                gpu,
                iter,
                phase: PhaseTag::RemoteNormal,
                start: rn0,
                dur: lane.remote_normal,
            });
            self.log.phase_spans.push(PhaseSpan {
                gpu,
                iter,
                phase: PhaseTag::RemoteDelegate,
                start: rd0,
                dur: cluster.remote_delegate,
            });
        }

        if overlap {
            for (g, lane) in lanes.iter().enumerate() {
                let gpu = g as u32;
                let st = stages.get(g).copied().unwrap_or_default();
                self.log.stage_spans.push(StageSpan {
                    gpu,
                    iter,
                    stage: StageTag::Encode,
                    start: l0,
                    dur: st.encode,
                });
                self.log.stage_spans.push(StageSpan {
                    gpu,
                    iter,
                    stage: StageTag::Transfer,
                    start: rn0,
                    dur: lane.remote_normal,
                });
                self.log.stage_spans.push(StageSpan {
                    gpu,
                    iter,
                    stage: StageTag::Decode,
                    start: rn0 + lane.remote_normal,
                    dur: st.decode,
                });
            }
        }

        for (g, evs) in kernels.iter().enumerate() {
            let mut stream_cursor = [c0, c0]; // normal, delegate
            for ev in evs {
                let idx = ev.stream as usize;
                self.log.kernel_spans.push(KernelSpan {
                    gpu: g as u32,
                    iter,
                    stream: ev.stream,
                    tag: ev.tag,
                    dir: ev.dir,
                    work: ev.work,
                    start: stream_cursor[idx],
                    dur: ev.seconds,
                });
                stream_cursor[idx] += ev.seconds;
            }
        }

        for m in messages {
            let (channel, ts) =
                if m.intra { (Channel::IntraRank, l0) } else { (Channel::CrossRank, rn0) };
            self.log.messages.push(MessageEvent {
                iter,
                ts,
                src: m.src,
                dst: m.dst,
                channel,
                kind: MessageKind::NnUpdate,
                raw_bytes: m.raw_bytes,
                wire_bytes: m.wire_bytes,
            });
        }
        for h in mask_hops {
            self.log.messages.push(MessageEvent {
                iter,
                ts: rd0,
                src: h.src_rank * self.log.gpus_per_rank,
                dst: h.dst_rank * self.log.gpus_per_rank,
                channel: Channel::CrossRank,
                kind: MessageKind::MaskReduce,
                raw_bytes: h.raw_bytes,
                wire_bytes: h.wire_bytes,
            });
        }

        self.log.iterations.push(IterationPath { iter, start: c0, timing: *timing });
        self.cursor = c0 + timing.elapsed();
    }

    /// Consumes the sink and returns the finished log.
    pub fn finish(self) -> TraceLog {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DirTag, KernelTag, StreamTag};

    fn lane(c: f64, l: f64, rn: f64) -> PhaseTimes {
        PhaseTimes { computation: c, local_comm: l, remote_normal: rn, remote_delegate: 0.0 }
    }

    #[test]
    fn phase_layout_and_elapsed_nonblocking() {
        let mut sink = SpanSink::new(1, 2);
        let lanes = [lane(4.0, 1.0, 2.0), lane(3.0, 1.5, 0.5)];
        let timing = IterationTiming::from_lanes(&lanes, 3.0, false, false);
        sink.record_iteration(0, &lanes, &timing, &[], &[vec![], vec![]], &[], &[]);
        // elapsed = 4.0 + 1.5 + max(2.0, 3.0)
        assert_eq!(sink.cursor(), 8.5);
        let log = sink.finish();
        assert_eq!(log.phase_spans.len(), 8);
        // Both lanes' local_comm spans start at the computation max.
        let lc: Vec<&PhaseSpan> =
            log.phase_spans.iter().filter(|s| s.phase == PhaseTag::LocalComm).collect();
        assert!(lc.iter().all(|s| s.start == 4.0));
        // Non-blocking: remote phases share a start.
        let rn = log.phase_spans.iter().find(|s| s.phase == PhaseTag::RemoteNormal).unwrap();
        let rd = log.phase_spans.iter().find(|s| s.phase == PhaseTag::RemoteDelegate).unwrap();
        assert_eq!(rn.start, rd.start);
        // Max-combine reproduces the cluster phases.
        let max_of = |p: PhaseTag| {
            log.phase_spans.iter().filter(|s| s.phase == p).map(|s| s.dur).fold(0.0f64, f64::max)
        };
        assert_eq!(max_of(PhaseTag::Computation), 4.0);
        assert_eq!(max_of(PhaseTag::LocalComm), 1.5);
        assert_eq!(max_of(PhaseTag::RemoteNormal), 2.0);
        assert_eq!(max_of(PhaseTag::RemoteDelegate), 3.0);
    }

    #[test]
    fn blocking_serializes_remote_and_records_the_given_timing() {
        let mut sink = SpanSink::new(2, 1);
        let lanes = [lane(1.0, 0.5, 2.0), lane(6.0, 0.25, 1.0)];
        let timing = IterationTiming::from_lanes(&lanes, 0.5, true, false);
        sink.record_iteration(3, &lanes, &timing, &[], &[vec![], vec![]], &[], &[]);
        assert_eq!(sink.cursor(), 6.0 + 0.5 + 2.0 + 0.5);
        let log = sink.finish();
        let rd = log.phase_spans.iter().find(|s| s.phase == PhaseTag::RemoteDelegate).unwrap();
        assert_eq!(rd.start, 6.0 + 0.5 + 2.0);
        // The path records the given timing; the gating lane of each
        // phase is read from the lane spans.
        assert_eq!(log.iterations[0].timing, timing);
        assert_eq!(log.iterations[0].timing.elapsed(), 9.0);
        let gating = |p: PhaseTag| {
            let spans = log.phase_spans.iter().filter(|s| s.phase == p);
            spans
                .fold((0.0f64, 0u32), |(d, g), s| if s.dur > d { (s.dur, s.gpu) } else { (d, g) })
                .1
        };
        assert_eq!(gating(PhaseTag::Computation), 1);
        assert_eq!(gating(PhaseTag::LocalComm), 0);
        assert_eq!(gating(PhaseTag::RemoteNormal), 0);
    }

    #[test]
    fn kernel_spans_lay_out_per_stream() {
        let mut sink = SpanSink::new(1, 1);
        let evs = vec![
            KernelEvent {
                tag: KernelTag::PrevisitNormal,
                dir: DirTag::NotApplicable,
                stream: StreamTag::Normal,
                work: 10,
                seconds: 1.0,
            },
            KernelEvent {
                tag: KernelTag::VisitDd,
                dir: DirTag::Backward,
                stream: StreamTag::Delegate,
                work: 99,
                seconds: 2.0,
            },
            KernelEvent {
                tag: KernelTag::VisitNn,
                dir: DirTag::Forward,
                stream: StreamTag::Normal,
                work: 42,
                seconds: 0.5,
            },
        ];
        let lanes = [lane(2.5, 0.0, 0.0)];
        let timing = IterationTiming::from_lanes(&lanes, 0.0, true, false);
        sink.record_iteration(0, &lanes, &timing, &[], &[evs], &[], &[]);
        let log = sink.finish();
        assert_eq!(log.kernel_spans.len(), 3);
        // Normal stream: previsit at 0.0, visit_nn follows at 1.0.
        assert_eq!(log.kernel_spans[0].start, 0.0);
        assert_eq!(log.kernel_spans[2].start, 1.0);
        // Delegate stream runs concurrently from 0.0.
        assert_eq!(log.kernel_spans[1].start, 0.0);
        assert_eq!(log.kernel_spans[1].work, 99);
    }

    #[test]
    fn messages_stamped_by_paying_phase() {
        let mut sink = SpanSink::new(2, 2);
        let lanes = [lane(1.0, 0.5, 0.25); 4];
        let msgs = [
            MessageRecord { src: 0, dst: 1, raw_bytes: 64, wire_bytes: 64, intra: true },
            MessageRecord { src: 0, dst: 2, raw_bytes: 64, wire_bytes: 20, intra: false },
        ];
        let hops = [CollectiveHop { src_rank: 0, dst_rank: 1, raw_bytes: 128, wire_bytes: 32 }];
        let timing = IterationTiming::from_lanes(&lanes, 0.125, false, false);
        sink.record_iteration(
            0,
            &lanes,
            &timing,
            &[],
            &[vec![], vec![], vec![], vec![]],
            &msgs,
            &hops,
        );
        let log = sink.finish();
        assert_eq!(log.messages.len(), 3);
        assert_eq!(log.messages[0].channel, Channel::IntraRank);
        assert_eq!(log.messages[0].ts, 1.0); // local phase start
        assert_eq!(log.messages[1].channel, Channel::CrossRank);
        assert_eq!(log.messages[1].ts, 1.5); // remote normal start
        assert_eq!(log.messages[2].kind, MessageKind::MaskReduce);
        assert_eq!(log.messages[2].src, 0);
        assert_eq!(log.messages[2].dst, 2); // rank 1 → first gpu of rank 1
        assert_eq!(log.cross_rank_wire_bytes(0), 20 + 32);
    }

    #[test]
    fn truncate_rewinds_iterations_but_keeps_faults() {
        let mut sink = SpanSink::new(1, 1);
        sink.record_fault(FaultKind::Checkpoint, 0, 0.25);
        let mark = sink.mark();
        let lanes = [lane(1.0, 0.0, 0.0)];
        let timing = IterationTiming::from_lanes(&lanes, 0.0, true, false);
        sink.record_iteration(0, &lanes, &timing, &[], &[vec![]], &[], &[]);
        let lanes = [lane(2.0, 0.0, 0.0)];
        let timing = IterationTiming::from_lanes(&lanes, 0.0, true, false);
        sink.record_iteration(1, &lanes, &timing, &[], &[vec![]], &[], &[]);
        assert_eq!(sink.cursor(), 3.25);
        sink.truncate(&mark);
        assert_eq!(sink.cursor(), 0.25);
        // wasted = 3.0, reload = 0.5 → the recovery span re-covers the hole.
        sink.record_fault(FaultKind::Recovery, 1, 3.5);
        assert_eq!(sink.cursor(), 3.75);
        let log = sink.finish();
        assert_eq!(log.iterations.len(), 0);
        assert_eq!(log.faults.len(), 2);
        let cp = log.critical_path();
        assert_eq!(cp.checkpoint_seconds, 0.25);
        assert_eq!(cp.recovery_seconds, 3.5);
        assert_eq!(cp.total_seconds(), 0.25 + 3.5);
        assert_eq!(log.extent_seconds(), 3.75);
    }

    #[test]
    fn overlap_pipelines_comm_against_compute() {
        let mut sink = SpanSink::new(1, 2);
        let lanes = [lane(4.0, 1.0, 2.0), lane(3.0, 1.5, 0.5)];
        let stages =
            [LaneStages { encode: 0.75, decode: 0.25 }, LaneStages { encode: 1.0, decode: 0.5 }];
        let timing = IterationTiming::from_lanes(&lanes, 3.0, false, true);
        sink.record_iteration(0, &lanes, &timing, &stages, &[vec![], vec![]], &[], &[]);
        // elapsed = max(comp 4.0, pipeline 1.5 + max(2.0, 3.0) = 4.5):
        // the comm side wins by half a second.
        assert_eq!(sink.cursor(), 4.5);
        let log = sink.finish();
        // The comm pipeline starts with the computation, not after it.
        let lc: Vec<&PhaseSpan> =
            log.phase_spans.iter().filter(|s| s.phase == PhaseTag::LocalComm).collect();
        assert!(lc.iter().all(|s| s.start == 0.0));
        let rn = log.phase_spans.iter().find(|s| s.phase == PhaseTag::RemoteNormal).unwrap();
        assert_eq!(rn.start, 1.5);
        // Stage spans lay out encode → transfer → decode per lane.
        assert_eq!(log.stage_spans.len(), 6);
        let enc = &log.stage_spans[0];
        assert_eq!((enc.stage, enc.start, enc.dur), (StageTag::Encode, 0.0, 0.75));
        let xfer = &log.stage_spans[1];
        assert_eq!((xfer.stage, xfer.start, xfer.dur), (StageTag::Transfer, 1.5, 2.0));
        let dec = &log.stage_spans[2];
        assert_eq!((dec.stage, dec.start, dec.dur), (StageTag::Decode, 3.5, 0.25));
        // The iteration path carries the overlap flag and its elapsed
        // matches the pipelined expression.
        let it = &log.iterations[0];
        assert!(it.timing.overlap);
        assert_eq!(it.timing.elapsed(), 4.5);
        assert_eq!(log.critical_path().total_seconds(), 4.5);
    }

    #[test]
    fn overlap_off_records_no_stage_spans() {
        let mut sink = SpanSink::new(1, 1);
        let lanes = [lane(1.0, 0.5, 0.25)];
        let timing = IterationTiming::from_lanes(&lanes, 0.0, false, false);
        sink.record_iteration(0, &lanes, &timing, &[], &[vec![]], &[], &[]);
        let log = sink.finish();
        assert!(log.stage_spans.is_empty());
        assert!(!log.iterations[0].timing.overlap);
    }

    #[test]
    fn truncate_rewinds_stage_spans() {
        let mut sink = SpanSink::new(1, 1);
        let mark = sink.mark();
        let stages = [LaneStages { encode: 0.1, decode: 0.1 }];
        let lanes = [lane(1.0, 0.5, 0.25)];
        let timing = IterationTiming::from_lanes(&lanes, 0.0, false, true);
        sink.record_iteration(0, &lanes, &timing, &stages, &[vec![]], &[], &[]);
        assert_eq!(sink.log.stage_spans.len(), 3);
        sink.truncate(&mark);
        assert_eq!(sink.log.stage_spans.len(), 0);
        assert_eq!(sink.cursor(), 0.0);
    }

    #[test]
    fn critical_path_total_matches_cursor() {
        let mut sink = SpanSink::new(2, 2);
        for iter in 0..5u32 {
            let lanes: Vec<PhaseTimes> =
                (0..4).map(|g| lane(0.1 * (g + 1) as f64, 0.01, 0.002 * iter as f64)).collect();
            let kernels = vec![vec![]; 4];
            let timing = IterationTiming::from_lanes(&lanes, 0.003, iter % 2 == 0, false);
            sink.record_iteration(iter, &lanes, &timing, &[], &kernels, &[], &[]);
        }
        sink.record_fault(FaultKind::Retry, 2, 0.5);
        let cursor = sink.cursor();
        let log = sink.finish();
        assert_eq!(log.critical_path().total_seconds(), cursor);
    }
}
