//! Critical-path analysis of a BSP run.
//!
//! Each superstep's elapsed time is gated, phase by phase, by the
//! slowest lane (and by the collective for the delegate reduction). The
//! analyzer attributes every modeled second of the run to exactly one
//! phase or to a resilience charge. The attribution is *exact*: each
//! [`IterationPath`] carries the very [`IterationTiming`] the driver
//! built and recorded (the one fold, `IterationTiming::from_lanes`), so
//! [`CriticalPath::total_seconds`] reproduces `RunStats::modeled_elapsed()`
//! bit-for-bit through the one overlap rule, `IterationTiming::elapsed`.
//! Which lane gated a phase is read from `TraceLog::phase_spans`.

use crate::event::PhaseTag;
use crate::timing::IterationTiming;

/// The critical path of one BFS iteration (superstep).
#[derive(Clone, Debug, PartialEq)]
pub struct IterationPath {
    /// Iteration number.
    pub iter: u32,
    /// Modeled start time of the iteration.
    pub start: f64,
    /// The iteration's cluster timing, exactly as the run recorded it.
    pub timing: IterationTiming,
}

impl IterationPath {
    /// Seconds of `elapsed` attributed to each phase, in reporting
    /// order. Under a blocking reduction all four phases contribute
    /// fully; under a non-blocking one the two remote phases overlap and
    /// only the longer contributes (the shorter is attributed zero).
    /// With pipelined compute/comm overlap only the winning side of
    /// `max(computation, pipeline)` is attributed at all: a compute-bound
    /// iteration attributes everything to computation, a comm-bound one
    /// attributes nothing to it. The attribution always sums to
    /// `elapsed` (bit-for-bit without overlap; overlap introduces one
    /// extra addition whose rounding the observability suite bounds).
    pub fn attributed(&self) -> [f64; 4] {
        let p = &self.timing.phases;
        let (c, l, rn, rd) = (p.computation, p.local_comm, p.remote_normal, p.remote_delegate);
        let (arn, ard) = if self.timing.blocking_reduce {
            (rn, rd)
        } else if rn.max(rd) == rn {
            (rn, 0.0)
        } else {
            (0.0, rd)
        };
        if self.timing.overlap {
            let pipeline = l + (arn + ard);
            if c >= pipeline {
                [c, 0.0, 0.0, 0.0]
            } else {
                [0.0, l, arn, ard]
            }
        } else {
            [c, l, arn, ard]
        }
    }
}

/// The critical path of a whole run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalPath {
    /// Per-iteration paths in execution order (post-rollback survivors).
    pub iterations: Vec<IterationPath>,
    /// Total checkpoint charge, folded in the order it was incurred
    /// (bit-identical to `FaultStats::checkpoint_seconds`).
    pub checkpoint_seconds: f64,
    /// Total retry + rollback charge, folded in the order it was
    /// incurred (bit-identical to `FaultStats::recovery_seconds`).
    pub recovery_seconds: f64,
}

impl CriticalPath {
    /// Total attributed modeled time: the sum of per-iteration elapsed
    /// times (in iteration order) plus the resilience overhead. This is
    /// the same expression `RunStats::modeled_elapsed()` evaluates, so
    /// the two agree bit-for-bit.
    pub fn total_seconds(&self) -> f64 {
        self.iterations.iter().map(|i| i.timing.elapsed()).sum::<f64>()
            + (self.checkpoint_seconds + self.recovery_seconds)
    }

    /// Attributed seconds per phase across all iterations, in reporting
    /// order (resilience overhead excluded).
    pub fn phase_attribution(&self) -> [f64; 4] {
        let mut totals = [0.0f64; 4];
        for it in &self.iterations {
            let a = it.attributed();
            for (t, v) in totals.iter_mut().zip(a.iter()) {
                *t += v;
            }
        }
        totals
    }

    /// Human-readable multi-line summary for CLI output: total, phase
    /// attribution with percentages, and the resilience overhead when
    /// there is any.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let total = self.total_seconds();
        let phases = self.phase_attribution();
        let mut s = String::new();
        let _ =
            writeln!(s, "critical path: {:.6} s over {} iterations", total, self.iterations.len());
        for (tag, secs) in PhaseTag::ALL.iter().zip(phases.iter()) {
            let pct = if total > 0.0 { 100.0 * secs / total } else { 0.0 };
            let _ = writeln!(s, "  {:<16} {:>12.6} s  {:5.1}%", tag.label(), secs, pct);
        }
        let overhead = self.checkpoint_seconds + self.recovery_seconds;
        if overhead > 0.0 {
            let pct = if total > 0.0 { 100.0 * overhead / total } else { 0.0 };
            let _ = writeln!(
                s,
                "  {:<16} {:>12.6} s  {:5.1}%  (checkpoint {:.6}, recovery {:.6})",
                "resilience", overhead, pct, self.checkpoint_seconds, self.recovery_seconds
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::PhaseTimes;

    fn iteration(blocking: bool, c: f64, l: f64, rn: f64, rd: f64) -> IterationPath {
        IterationPath {
            iter: 0,
            start: 0.0,
            timing: IterationTiming {
                phases: PhaseTimes {
                    computation: c,
                    local_comm: l,
                    remote_normal: rn,
                    remote_delegate: rd,
                },
                blocking_reduce: blocking,
                overlap: false,
            },
        }
    }

    fn overlapped(blocking: bool, c: f64, l: f64, rn: f64, rd: f64) -> IterationPath {
        let mut it = iteration(blocking, c, l, rn, rd);
        it.timing.overlap = true;
        it
    }

    #[test]
    fn attribution_sums_to_elapsed() {
        for blocking in [false, true] {
            let it = iteration(blocking, 4.0, 1.0, 2.0, 3.0);
            let a = it.attributed();
            assert_eq!(a.iter().sum::<f64>(), it.timing.elapsed());
        }
    }

    #[test]
    fn nonblocking_overlap_attributes_winner_only() {
        let it = iteration(false, 4.0, 1.0, 2.0, 3.0);
        assert_eq!(it.attributed(), [4.0, 1.0, 0.0, 3.0]);
    }

    #[test]
    fn overlap_attributes_the_winning_side_only() {
        // Compute-bound: elapsed == computation, everything else hidden.
        let it = overlapped(false, 4.0, 1.0, 2.0, 3.0);
        assert_eq!(it.timing.elapsed(), 4.0);
        assert_eq!(it.attributed(), [4.0, 0.0, 0.0, 0.0]);
        // Comm-bound: computation hides instead; the nonblocking remote
        // rule still zeroes the losing remote phase.
        let it = overlapped(false, 1.0, 2.0, 5.0, 3.0);
        assert_eq!(it.timing.elapsed(), 7.0);
        assert_eq!(it.attributed(), [0.0, 2.0, 5.0, 0.0]);
        // Blocking comm-bound sums both remote phases inside the pipeline.
        let it = overlapped(true, 1.0, 2.0, 5.0, 3.0);
        assert_eq!(it.timing.elapsed(), 10.0);
        assert_eq!(it.attributed(), [0.0, 2.0, 5.0, 3.0]);
    }

    #[test]
    fn totals_include_resilience() {
        let cp = CriticalPath {
            iterations: vec![iteration(true, 1.0, 0.5, 0.25, 0.125)],
            checkpoint_seconds: 0.0625,
            recovery_seconds: 0.03125,
        };
        assert_eq!(cp.total_seconds(), 1.875 + 0.09375);
        let phases = cp.phase_attribution();
        assert_eq!(phases, [1.0, 0.5, 0.25, 0.125]);
    }

    #[test]
    fn summary_mentions_every_phase() {
        let cp = CriticalPath {
            iterations: vec![iteration(false, 1.0, 0.5, 0.25, 0.125)],
            checkpoint_seconds: 0.5,
            recovery_seconds: 0.0,
        };
        let s = cp.summary();
        for tag in PhaseTag::ALL {
            assert!(s.contains(tag.label()), "{s}");
        }
        assert!(s.contains("resilience"));
    }
}
