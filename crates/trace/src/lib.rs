//! Structured observability for the simulated GPU cluster.
//!
//! This crate is the measurement substrate behind the paper's per-phase,
//! per-rank accounting (Figs. 8/10 runtime breakdowns, §V communication
//! volume analysis). It records *typed events in modeled-time coordinates*:
//!
//! * per-lane (simulated GPU) **phase spans** for the four runtime phases,
//! * per-GPU **kernel spans** tagged with kernel kind, stream and
//!   traversal direction,
//! * per-peer **message events** carrying raw and wire byte counts,
//! * **collective hops** of the delegate mask reduction, and
//! * **fault spans** for checkpoints, retries and rollback recovery.
//!
//! Everything is timestamped on the *modeled* clock — the deterministic
//! simulated-cluster time maintained by the BFS driver — never on host
//! wall-clock time. Because every modeled quantity in this workspace is
//! bit-identical across host thread counts, so is every exported trace:
//! the same run produces byte-for-byte identical Chrome traces and
//! JSON-lines files at `GCBFS_THREADS=1`, `2` or `4`.
//!
//! The crate is dependency-free so that both `gcbfs-cluster` and
//! `gcbfs-core` can use it without a dependency cycle. It is also where
//! the workspace's one phase vocabulary lives ([`PhaseTag`] and
//! [`PhaseTimes`]) and its one superstep fold: a superstep's cluster
//! [`IterationTiming`] is built once, by [`IterationTiming::from_lanes`],
//! and recorded as given — the sink derives no time of its own.
//!
//! Sub-modules:
//!
//! * [`timing`] — [`PhaseTimes`] and [`IterationTiming`]: the fold from
//!   per-GPU lanes to cluster maxima and the overlap rule.
//! * [`event`] — the typed event vocabulary.
//! * [`sink`] — [`SpanSink`], the per-run recorder with a monotone
//!   modeled-time cursor, and [`TraceLog`], the finished log.
//! * [`critical_path`] — the per-superstep rank×phase analysis whose
//!   total reproduces the run's modeled elapsed time bit-for-bit.
//! * [`metrics`] — a counters/gauges/histograms registry with
//!   deterministic snapshot ordering.
//! * [`chrome`] — Chrome `trace_event` JSON exporter (Perfetto-loadable).
//! * [`jsonl`] — compact JSON-lines exporter consumed by the bench bins.
//! * [`json`] — a minimal in-tree JSON parser and a `trace_event` schema
//!   validator (the build environment is offline; no serde).

#![warn(missing_docs)]

pub mod chrome;
pub mod critical_path;
pub mod event;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod sink;
pub mod timing;

pub use critical_path::{CriticalPath, IterationPath};
pub use event::{
    Channel, CollectiveHop, DirTag, FaultKind, FaultSpan, KernelEvent, KernelSpan, KernelTag,
    LaneStages, MessageEvent, MessageKind, MessageRecord, PhaseSpan, PhaseTag, StageSpan, StageTag,
    StreamTag,
};
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
pub use sink::{SinkMark, SpanSink, TraceLog};
pub use timing::{IterationTiming, PhaseTimes};

/// Controls whether the observability subsystem records anything.
///
/// `Off` is the default and is *zero-cost in modeled arithmetic*: no
/// floating-point accumulation anywhere in the simulation is reordered,
/// added or removed, so every seed-visible number (`RunStats`, trace
/// tables, bench JSON) is bit-identical to a build without the subsystem.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ObservabilityConfig {
    /// Record nothing. All seed-visible outputs are bit-identical to a
    /// run without observability.
    #[default]
    Off,
    /// Record phase spans, kernel spans, messages, collective hops and
    /// fault spans for every iteration.
    Full,
}

impl ObservabilityConfig {
    /// Whether any recording is enabled.
    pub fn is_on(self) -> bool {
        matches!(self, ObservabilityConfig::Full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_default_and_off() {
        assert_eq!(ObservabilityConfig::default(), ObservabilityConfig::Off);
        assert!(!ObservabilityConfig::Off.is_on());
        assert!(ObservabilityConfig::Full.is_on());
    }
}
