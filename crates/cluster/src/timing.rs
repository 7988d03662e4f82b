//! Phase timing and the stream-overlap accounting of Figs. 3, 8 and 10.
//!
//! The paper breaks BFS runtime into four parts — *Computation*, *Local
//! Communication*, *Remote Normal Exchange*, and *Remote Delegate Reduce* —
//! and notes that "the sum of all parts in one column is more than the
//! elapsed time of BFS, because different parts may overlap" (§VI-B).
//! [`IterationTiming::elapsed`] encodes the overlap rule: with non-blocking
//! reduction the two remote phases proceed concurrently (the delegate
//! stream can start as soon as masks arrive, without waiting for normal
//! vertices), so the iteration pays `max` of the two; a blocking reduction
//! serializes them.

/// One of the paper's four runtime phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Local kernel execution (both streams).
    Computation,
    /// Intra-rank staging: binning, local all2all, local mask reduce.
    LocalComm,
    /// Point-to-point normal-vertex exchange over the network.
    RemoteNormal,
    /// Global delegate mask reduction across ranks.
    RemoteDelegate,
}

impl Phase {
    /// All phases, in the paper's reporting order.
    pub const ALL: [Phase; 4] =
        [Phase::Computation, Phase::LocalComm, Phase::RemoteNormal, Phase::RemoteDelegate];

    /// Label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Computation => "Computation",
            Phase::LocalComm => "Local Communication",
            Phase::RemoteNormal => "Remote Normal Exchange",
            Phase::RemoteDelegate => "Remote Delegate Reduce",
        }
    }
}

/// Modeled seconds spent in each phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimes {
    /// Seconds in [`Phase::Computation`].
    pub computation: f64,
    /// Seconds in [`Phase::LocalComm`].
    pub local_comm: f64,
    /// Seconds in [`Phase::RemoteNormal`].
    pub remote_normal: f64,
    /// Seconds in [`Phase::RemoteDelegate`].
    pub remote_delegate: f64,
}

impl PhaseTimes {
    /// Zero times.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Time of one phase.
    pub fn get(&self, phase: Phase) -> f64 {
        match phase {
            Phase::Computation => self.computation,
            Phase::LocalComm => self.local_comm,
            Phase::RemoteNormal => self.remote_normal,
            Phase::RemoteDelegate => self.remote_delegate,
        }
    }

    /// Mutable access to one phase.
    pub fn get_mut(&mut self, phase: Phase) -> &mut f64 {
        match phase {
            Phase::Computation => &mut self.computation,
            Phase::LocalComm => &mut self.local_comm,
            Phase::RemoteNormal => &mut self.remote_normal,
            Phase::RemoteDelegate => &mut self.remote_delegate,
        }
    }

    /// Adds `seconds` to a phase.
    pub fn add(&mut self, phase: Phase, seconds: f64) {
        *self.get_mut(phase) += seconds;
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

    /// Element-wise maximum — used to aggregate phases across GPUs of a
    /// superstep (the slowest GPU gates each phase).
    pub fn max(&self, other: &Self) -> Self {
        Self {
            computation: self.computation.max(other.computation),
            local_comm: self.local_comm.max(other.local_comm),
            remote_normal: self.remote_normal.max(other.remote_normal),
            remote_delegate: self.remote_delegate.max(other.remote_delegate),
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

/// The degraded critical-path bound of edge-balanced multi-survivor
/// spreading: a dead member's load split evenly across `survivors` live
/// members inflates the slowest lane by at most `(p+1)/p` (with `p`
/// survivors) — `2×` in the degenerate one-survivor case.
/// This is the factor spare-less recovery is designed to hit.
pub fn degraded_bound(survivors: usize) -> f64 {
    assert!(survivors > 0, "need at least one survivor");
    (survivors as f64 + 1.0) / survivors as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PhaseTimes {
        PhaseTimes { computation: 4.0, local_comm: 1.0, remote_normal: 2.0, remote_delegate: 3.0 }
    }

    #[test]
    fn sum_and_get() {
        let p = sample();
        assert_eq!(p.sum(), 10.0);
        assert_eq!(p.get(Phase::RemoteDelegate), 3.0);
    }

    #[test]
    fn add_accumulates() {
        let mut p = PhaseTimes::zero();
        p.add(Phase::Computation, 1.5);
        p.add(Phase::Computation, 0.5);
        assert_eq!(p.computation, 2.0);
    }

    #[test]
    fn combine_and_max() {
        let a = sample();
        let b = PhaseTimes {
            computation: 1.0,
            local_comm: 5.0,
            remote_normal: 0.0,
            remote_delegate: 9.0,
        };
        let c = a.combine(&b);
        assert_eq!(c.computation, 5.0);
        assert_eq!(c.local_comm, 6.0);
        let m = a.max(&b);
        assert_eq!(m.computation, 4.0);
        assert_eq!(m.remote_delegate, 9.0);
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

    #[test]
    fn degraded_bound_beats_buddy_hosting() {
        assert_eq!(degraded_bound(1), 2.0, "one survivor degenerates to buddy hosting");
        assert_eq!(degraded_bound(15), 16.0 / 15.0);
        assert!(degraded_bound(15) < 2.0);
    }
}
