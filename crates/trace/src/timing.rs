//! Phase timing and the stream-overlap accounting of Figs. 3, 8 and 10.
//!
//! The paper breaks BFS runtime into four parts — *Computation*, *Local
//! Communication*, *Remote Normal Exchange*, and *Remote Delegate Reduce*
//! ([`PhaseTag`](crate::PhaseTag), the one phase vocabulary) — and notes
//! that "the sum of all parts in one column is more than the elapsed time
//! of BFS, because different parts may overlap" (§VI-B).
//!
//! A superstep's cluster timing is built once, by
//! [`IterationTiming::from_lanes`]: the slowest lane gates each phase, and
//! the delegate reduction is a collective. [`IterationTiming::elapsed`] is
//! the one overlap rule: with non-blocking reduction the two remote phases
//! proceed concurrently (the delegate stream can start as soon as masks
//! arrive, without waiting for normal vertices), so the iteration pays
//! `max` of the two; a blocking reduction serializes them. The driver's
//! records, the span sink and the critical path all read these two.

/// Modeled seconds spent in each phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimes {
    /// Seconds in [`PhaseTag::Computation`](crate::PhaseTag::Computation).
    pub computation: f64,
    /// Seconds in [`PhaseTag::LocalComm`](crate::PhaseTag::LocalComm).
    pub local_comm: f64,
    /// Seconds in [`PhaseTag::RemoteNormal`](crate::PhaseTag::RemoteNormal).
    pub remote_normal: f64,
    /// Seconds in [`PhaseTag::RemoteDelegate`](crate::PhaseTag::RemoteDelegate).
    pub remote_delegate: f64,
}

impl PhaseTimes {
    /// Zero times.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Sum of all phases — the "sum of parts" that exceeds elapsed time.
    pub fn sum(&self) -> f64 {
        self.computation + self.local_comm + self.remote_normal + self.remote_delegate
    }

    /// Element-wise sum.
    pub fn combine(&self, other: &Self) -> Self {
        Self {
            computation: self.computation + other.computation,
            local_comm: self.local_comm + other.local_comm,
            remote_normal: self.remote_normal + other.remote_normal,
            remote_delegate: self.remote_delegate + other.remote_delegate,
        }
    }
}

/// The timing of one BFS iteration (superstep), cluster-wide.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IterationTiming {
    /// Per-phase seconds of the iteration.
    pub phases: PhaseTimes,
    /// Whether the delegate reduction was blocking (`MPI_Allreduce`) in
    /// this iteration; decides the overlap rule.
    pub blocking_reduce: bool,
    /// Whether the communication pipeline (encode → transfer → decode)
    /// ran concurrently with kernel execution this iteration: the whole
    /// pipeline hides behind compute instead of following it.
    pub overlap: bool,
}

impl IterationTiming {
    /// The cluster timing of one superstep from its per-GPU lanes: each
    /// of the three per-lane phases is the left `f64::max` fold of the
    /// lanes from zero (the slowest GPU gates the phase), and the
    /// delegate reduction is the collective's `remote_delegate` (the
    /// lanes' own `remote_delegate` is not read).
    pub fn from_lanes(
        lanes: &[PhaseTimes],
        remote_delegate: f64,
        blocking_reduce: bool,
        overlap: bool,
    ) -> Self {
        let mut phases = PhaseTimes { remote_delegate, ..PhaseTimes::zero() };
        for lane in lanes {
            phases.computation = phases.computation.max(lane.computation);
            phases.local_comm = phases.local_comm.max(lane.local_comm);
            phases.remote_normal = phases.remote_normal.max(lane.remote_normal);
        }
        Self { phases, blocking_reduce, overlap }
    }

    /// Elapsed modeled time of the iteration after overlap:
    /// computation and local staging are serial; the two remote phases
    /// overlap under non-blocking reduction and serialize under blocking.
    /// With pipelined compute/comm overlap the iteration instead pays
    /// `max(computation, local + remote)` — the communication pipeline
    /// runs on the copy engines while the visit kernels execute, so only
    /// the longer of the two sides gates the superstep.
    pub fn elapsed(&self) -> f64 {
        let p = &self.phases;
        let remote = if self.blocking_reduce {
            p.remote_normal + p.remote_delegate
        } else {
            p.remote_normal.max(p.remote_delegate)
        };
        if self.overlap {
            p.computation.max(p.local_comm + remote)
        } else {
            p.computation + p.local_comm + remote
        }
    }

    /// Sum of parts (no overlap) — what Figs. 8/10 stack.
    pub fn sum_of_parts(&self) -> f64 {
        self.phases.sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PhaseTimes {
        PhaseTimes { computation: 4.0, local_comm: 1.0, remote_normal: 2.0, remote_delegate: 3.0 }
    }

    #[test]
    fn sum_and_combine() {
        let a = sample();
        assert_eq!(a.sum(), 10.0);
        let b = PhaseTimes {
            computation: 1.0,
            local_comm: 5.0,
            remote_normal: 0.0,
            remote_delegate: 9.0,
        };
        let c = a.combine(&b);
        assert_eq!(c.computation, 5.0);
        assert_eq!(c.local_comm, 6.0);
        assert_eq!(c.remote_delegate, 12.0);
    }

    #[test]
    fn from_lanes_takes_the_slowest_lane_and_the_collective() {
        let lanes = [
            PhaseTimes {
                computation: 4.0,
                local_comm: 1.0,
                remote_normal: 0.5,
                remote_delegate: 7.0,
            },
            PhaseTimes {
                computation: 3.0,
                local_comm: 1.5,
                remote_normal: 2.0,
                remote_delegate: 0.0,
            },
        ];
        let it = IterationTiming::from_lanes(&lanes, 3.0, false, true);
        assert_eq!(
            it.phases,
            PhaseTimes {
                computation: 4.0,
                local_comm: 1.5,
                remote_normal: 2.0,
                remote_delegate: 3.0
            }
        );
        assert!(!it.blocking_reduce);
        assert!(it.overlap);
        // No lanes: every lane phase folds to zero.
        let empty = IterationTiming::from_lanes(&[], 0.25, true, false);
        assert_eq!(empty.phases, PhaseTimes { remote_delegate: 0.25, ..PhaseTimes::zero() });
    }

    #[test]
    fn overlap_takes_max_of_remote_phases() {
        let it = IterationTiming { phases: sample(), blocking_reduce: false, overlap: false };
        assert_eq!(it.elapsed(), 4.0 + 1.0 + 3.0);
        assert!(it.elapsed() < it.sum_of_parts());
    }

    #[test]
    fn blocking_serializes_remote_phases() {
        let it = IterationTiming { phases: sample(), blocking_reduce: true, overlap: false };
        assert_eq!(it.elapsed(), 4.0 + 1.0 + 2.0 + 3.0);
        assert_eq!(it.elapsed(), it.sum_of_parts());
    }

    #[test]
    fn pipelined_overlap_hides_the_shorter_side() {
        // Compute-bound: the whole comm pipeline hides behind compute.
        let it = IterationTiming { phases: sample(), blocking_reduce: false, overlap: true };
        assert_eq!(it.elapsed(), 4.0);
        // Comm-bound: compute hides behind the pipeline instead.
        let comm_heavy = PhaseTimes {
            computation: 1.0,
            local_comm: 2.0,
            remote_normal: 5.0,
            remote_delegate: 3.0,
        };
        let it = IterationTiming { phases: comm_heavy, blocking_reduce: false, overlap: true };
        assert_eq!(it.elapsed(), 2.0 + 5.0);
        // The blocking rule still serializes the remote phases inside the
        // pipeline side of the max.
        let it = IterationTiming { phases: comm_heavy, blocking_reduce: true, overlap: true };
        assert_eq!(it.elapsed(), 2.0 + 5.0 + 3.0);
    }

    #[test]
    fn overlap_never_exceeds_the_serial_charge() {
        for phases in [
            sample(),
            PhaseTimes {
                computation: 0.0,
                local_comm: 0.5,
                remote_normal: 2.0,
                remote_delegate: 0.1,
            },
            PhaseTimes {
                computation: 9.0,
                local_comm: 0.0,
                remote_normal: 0.0,
                remote_delegate: 0.0,
            },
        ] {
            for blocking in [false, true] {
                let off = IterationTiming { phases, blocking_reduce: blocking, overlap: false };
                let on = IterationTiming { phases, blocking_reduce: blocking, overlap: true };
                assert!(on.elapsed() <= off.elapsed());
                assert!(on.elapsed() >= phases.computation);
            }
        }
    }
}
