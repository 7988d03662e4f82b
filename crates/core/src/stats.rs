//! Per-iteration and per-run statistics.
//!
//! Everything the paper's evaluation reports is derived from these records:
//! runtime breakdowns by phase (Figs. 8, 10), communication volumes (§V's
//! analysis), direction choices, the number of iterations `S` and the
//! number of iterations needing mask reductions `S'` ("about half of S"),
//! and the Graph500 TEPS metric.

use crate::kernels::KernelWork;
use gcbfs_cluster::timing::{IterationTiming, PhaseTimes};
use gcbfs_compress::CodecCounts;
use gcbfs_trace::{CriticalPath, IterationPath, PathSegment, PhaseTag};

/// One BFS iteration's cluster-wide record.
#[derive(Clone, Debug)]
pub struct IterationRecord {
    /// Iteration index (super-step), starting at 0.
    pub iter: u32,
    /// Normal-frontier size entering this iteration (summed over GPUs).
    pub frontier_len: u64,
    /// Newly visited delegates entering this iteration.
    pub new_delegates: u64,
    /// Workload counters summed over GPUs.
    pub work: KernelWork,
    /// GPUs that ran the (dd, dn, nd) kernels backward.
    pub backward_gpus: (u32, u32, u32),
    /// Normal-vertex updates transmitted (after uniquify).
    pub nn_updates_sent: u64,
    /// Bytes crossing rank boundaries this iteration, as charged to the
    /// wire (compressed when compression is on).
    pub remote_bytes: u64,
    /// Bytes the same messages would have cost under the paper's raw wire
    /// format minus what actually shipped; 0 when compression is off.
    pub bytes_saved: u64,
    /// Modeled codec (encode + decode) seconds this iteration; 0 when
    /// compression is off. Already folded into the phase times.
    pub codec_seconds: f64,
    /// Which codecs this iteration's messages selected.
    pub codec_counts: CodecCounts,
    /// Whether the delegate mask reduction ran (counts toward `S'`).
    pub mask_reduced: bool,
    /// Modeled timing of this iteration.
    pub timing: IterationTiming,
}

/// Fault-injection and recovery accounting of one run. All zeros on
/// fault-free runs, so resilience bookkeeping never perturbs the paper's
/// headline numbers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultStats {
    /// Normal-vertex updates dropped in flight by the injector.
    pub injected_drops: u64,
    /// Delegate-mask words corrupted in the reduction.
    pub injected_corruptions: u64,
    /// Fail-stop GPU losses injected (each misses a superstep barrier).
    pub fail_stops: u64,
    /// Checkpoint snapshots corrupted at rest by the injector (detected —
    /// if at all — by the integrity seals at restore time).
    pub injected_checkpoint_corruptions: u64,
    /// Dead partitions absorbed whole by hot spares (full-speed
    /// continuation, no degraded iterations from these).
    pub spare_absorptions: u64,
    /// Dead partitions spread across multiple survivors by the
    /// edge-balanced plan (`(p+1)/p` degraded bound).
    pub spread_hostings: u64,
    /// Transient-fault retries performed (exchange re-runs and mask
    /// reduction re-runs).
    pub retries: u64,
    /// Rollbacks to a checkpoint (after a fail-stop, or on the SDC
    /// ladder).
    pub rollbacks: u64,
    /// Checkpoints captured.
    pub checkpoints_taken: u64,
    /// Modeled seconds spent capturing checkpoints.
    pub checkpoint_seconds: f64,
    /// Modeled seconds of recovery work: retry transfers, backoff waits,
    /// state reloads, and iterations discarded by rollback.
    pub recovery_seconds: f64,
    /// Iterations executed with at least one partition spread across
    /// survivors (spare-absorbed partitions run at full speed and do not
    /// count).
    pub degraded_iterations: u64,
    /// In-device silent-data-corruption events fired by the injector
    /// (kernel-output flips, reduction-word flips, dropped frontier
    /// entries, restore-buffer flips).
    pub injected_sdc: u64,
    /// Online verification checks that fired (each one starts the
    /// re-execute → rollback escalation ladder).
    pub sdc_detections: u64,
    /// Supersteps re-executed from device-side shadow state after a
    /// verification check fired.
    pub sdc_reexecutions: u64,
}

impl FaultStats {
    /// Total modeled resilience overhead (checkpointing + recovery),
    /// included in [`RunStats::modeled_elapsed`].
    pub fn overhead_seconds(&self) -> f64 {
        self.checkpoint_seconds + self.recovery_seconds
    }

    /// True if any fault was injected or any recovery action taken.
    pub fn any_faults(&self) -> bool {
        self.injected_drops
            + self.injected_corruptions
            + self.fail_stops
            + self.injected_checkpoint_corruptions
            + self.injected_sdc
            > 0
    }
}

/// A whole run's statistics.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Per-iteration records; `iterations()` = `len()` = the paper's `S`.
    pub records: Vec<IterationRecord>,
    /// Wall-clock seconds of the Rust execution (the simulator's own
    /// speed — *not* comparable to the paper's numbers).
    pub wall_seconds: f64,
    /// Fault-injection and recovery accounting (all zero without faults).
    pub fault: FaultStats,
    /// Number of simulated GPUs the run used (0 for hand-built stats);
    /// lets renderers distinguish all-backward iterations from mixed
    /// per-GPU directions.
    pub num_gpus: u32,
}

impl RunStats {
    /// Number of iterations `S`.
    pub fn iterations(&self) -> u32 {
        self.records.len() as u32
    }

    /// Iterations that required a delegate mask reduction (`S'`).
    pub fn mask_reductions(&self) -> u32 {
        self.records.iter().filter(|r| r.mask_reduced).count() as u32
    }

    /// Phase totals over all iterations (the stacked bars of Figs. 8/10).
    pub fn phase_totals(&self) -> PhaseTimes {
        self.records
            .iter()
            .map(|r| r.timing.phases)
            .fold(PhaseTimes::zero(), |acc, p| acc.combine(&p))
    }

    /// Total modeled elapsed seconds (with overlap), including any
    /// checkpointing and recovery overhead — resilience is charged, not
    /// hidden.
    pub fn modeled_elapsed(&self) -> f64 {
        self.records.iter().map(|r| r.timing.elapsed()).sum::<f64>() + self.fault.overhead_seconds()
    }

    /// Total edges examined by the traversal (the measured workload `m'`
    /// plus delegate parent-search overhead).
    pub fn total_edges_examined(&self) -> u64 {
        self.records.iter().map(|r| r.work.total_edges()).sum()
    }

    /// Total bytes that crossed rank boundaries.
    pub fn total_remote_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.remote_bytes).sum()
    }

    /// Total remote bytes saved by compression (0 when off).
    pub fn total_bytes_saved(&self) -> u64 {
        self.records.iter().map(|r| r.bytes_saved).sum()
    }

    /// Total modeled codec seconds (0 when compression is off).
    pub fn total_codec_seconds(&self) -> f64 {
        self.records.iter().map(|r| r.codec_seconds).sum()
    }

    /// Codec selections summed over the whole run.
    pub fn codec_totals(&self) -> CodecCounts {
        let mut total = CodecCounts::default();
        for r in &self.records {
            total.merge(&r.codec_counts);
        }
        total
    }

    /// The run's critical path, derived from the per-iteration records
    /// and the fault accounting.
    ///
    /// The returned path's
    /// [`total_seconds`](gcbfs_trace::CriticalPath::total_seconds) is
    /// bit-identical to [`RunStats::modeled_elapsed`]: the iteration
    /// elapsed times are summed in the same order with the same overlap
    /// expression, and the checkpoint/recovery buckets are passed through
    /// unchanged. Segment lane attribution (`gpu`) is `None` here because
    /// the records only keep cluster-wide phase maxima; a
    /// [`TraceLog`](gcbfs_trace::TraceLog) from an observed run carries
    /// per-lane attribution as well.
    pub fn critical_path(&self) -> CriticalPath {
        let mut iterations = Vec::with_capacity(self.records.len());
        let mut cursor = 0.0f64;
        for r in &self.records {
            let p = r.timing.phases;
            let elapsed = r.timing.elapsed();
            iterations.push(IterationPath {
                iter: r.iter,
                start: cursor,
                elapsed,
                blocking: r.timing.blocking_reduce,
                overlap: r.timing.overlap,
                segments: [
                    PathSegment { phase: PhaseTag::Computation, seconds: p.computation, gpu: None },
                    PathSegment { phase: PhaseTag::LocalComm, seconds: p.local_comm, gpu: None },
                    PathSegment {
                        phase: PhaseTag::RemoteNormal,
                        seconds: p.remote_normal,
                        gpu: None,
                    },
                    PathSegment {
                        phase: PhaseTag::RemoteDelegate,
                        seconds: p.remote_delegate,
                        gpu: None,
                    },
                ],
            });
            cursor += elapsed;
        }
        CriticalPath {
            iterations,
            checkpoint_seconds: self.fault.checkpoint_seconds,
            recovery_seconds: self.fault.recovery_seconds,
        }
    }

    /// Compression ratio of the run's remote traffic: raw bytes over wire
    /// bytes (1.0 when compression is off or nothing was sent).
    pub fn compression_ratio(&self) -> f64 {
        let wire = self.total_remote_bytes();
        let raw = wire + self.total_bytes_saved();
        if wire == 0 {
            1.0
        } else {
            raw as f64 / wire as f64
        }
    }
}

/// Geometric mean of positive samples — the paper reports "the geometric
/// mean of edge traversal rates" over its 140 random sources (§VI-A3).
pub fn geometric_mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "geometric mean of an empty sample set");
    assert!(samples.iter().all(|&s| s > 0.0), "geometric mean requires positive samples");
    let log_sum: f64 = samples.iter().map(|&s| s.ln()).sum();
    (log_sum / samples.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcbfs_cluster::timing::PhaseTimes;

    fn record(iter: u32, mask_reduced: bool, comp: f64) -> IterationRecord {
        IterationRecord {
            iter,
            frontier_len: 10,
            new_delegates: 2,
            work: KernelWork { nn_edges: 5, ..Default::default() },
            backward_gpus: (0, 0, 0),
            nn_updates_sent: 3,
            remote_bytes: 12,
            bytes_saved: 4,
            codec_seconds: 0.5,
            codec_counts: CodecCounts::default(),
            mask_reduced,
            timing: IterationTiming {
                phases: PhaseTimes {
                    computation: comp,
                    local_comm: 0.0,
                    remote_normal: 1.0,
                    remote_delegate: 2.0,
                },
                blocking_reduce: true,
                overlap: false,
            },
        }
    }

    #[test]
    fn totals_accumulate() {
        let stats = RunStats {
            records: vec![record(0, true, 4.0), record(1, false, 6.0)],
            wall_seconds: 0.1,
            fault: FaultStats::default(),
            num_gpus: 4,
        };
        assert_eq!(stats.iterations(), 2);
        assert_eq!(stats.mask_reductions(), 1);
        assert_eq!(stats.phase_totals().computation, 10.0);
        assert_eq!(stats.modeled_elapsed(), (4.0 + 3.0) + (6.0 + 3.0));
        assert_eq!(stats.total_edges_examined(), 10);
        assert_eq!(stats.total_remote_bytes(), 24);
        assert_eq!(stats.total_bytes_saved(), 8);
        assert_eq!(stats.total_codec_seconds(), 1.0);
        // ratio = (24 + 8) / 24
        assert!((stats.compression_ratio() - 32.0 / 24.0).abs() < 1e-12);
        assert_eq!(stats.codec_totals(), CodecCounts::default());
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[4.0, 9.0]) - 6.0).abs() < 1e-9);
        assert!((geometric_mean(&[5.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_zero() {
        let _ = geometric_mean(&[1.0, 0.0]);
    }

    #[test]
    fn empty_stats() {
        let stats = RunStats::default();
        assert_eq!(stats.iterations(), 0);
        assert_eq!(stats.modeled_elapsed(), 0.0);
        assert_eq!(stats.critical_path().total_seconds(), 0.0);
    }

    #[test]
    fn critical_path_total_equals_modeled_elapsed() {
        let fault = FaultStats {
            checkpoint_seconds: 0.125,
            recovery_seconds: 0.375,
            ..FaultStats::default()
        };
        let stats = RunStats {
            records: vec![record(0, true, 4.0), record(1, false, 6.0)],
            wall_seconds: 0.1,
            fault,
            num_gpus: 4,
        };
        let cp = stats.critical_path();
        assert_eq!(cp.total_seconds(), stats.modeled_elapsed());
        assert_eq!(cp.iterations.len(), 2);
        // Starts are cumulative elapsed times; segments mirror the phases.
        assert_eq!(cp.iterations[0].start, 0.0);
        assert_eq!(cp.iterations[1].start, stats.records[0].timing.elapsed());
        assert_eq!(cp.iterations[0].segments[0].seconds, 4.0);
        assert!(cp.iterations.iter().all(|i| i.segments.iter().all(|s| s.gpu.is_none())));
    }
}
