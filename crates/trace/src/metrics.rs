//! A small metrics registry with deterministic snapshot ordering.
//!
//! Counters, gauges and histograms are keyed by string name and stored
//! in `BTreeMap`s, so a snapshot always lists metrics in the same
//! (lexicographic) order regardless of insertion order or host thread
//! count. [`MetricsRegistry::from_log`] derives the standard metric set
//! from a [`TraceLog`], aggregating the same events the accounting
//! invariants are checked against.

use std::collections::BTreeMap;

use crate::event::{Channel, PhaseTag};
use crate::sink::TraceLog;

/// Power-of-two bucketed histogram of non-negative samples.
///
/// Bucket `i` counts samples with `value < 2^i` (after flooring at 1);
/// the last bucket is an overflow bucket. Sample values are `u64`, so
/// byte counts and work counts fit without rounding.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts; bucket `i` holds samples in `[2^(i-1), 2^i)`
    /// (bucket 0 holds zeros and ones), last bucket overflows.
    pub buckets: [u64; Histogram::NUM_BUCKETS],
    /// Number of samples observed.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

impl Histogram {
    /// Number of buckets (covers up to 2^30, then overflow).
    pub const NUM_BUCKETS: usize = 32;

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        // Bit length of the value, clamped so huge samples land in the
        // final (overflow) bucket.
        let idx = (64 - u64::leading_zeros(value.max(1)) as usize).min(Self::NUM_BUCKETS);
        self.buckets[idx - 1] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Mean sample value, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Inclusive upper bound of bucket `i`: bucket 0 holds `{0, 1}` so
    /// its bound is 1; bucket `i >= 1` holds `[2^i, 2^(i+1) - 1]` so its
    /// bound is `2^(i+1) - 1`; the overflow bucket reports `u64::MAX`.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            1
        } else if i >= Self::NUM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the deterministic upper bound
    /// of the bucket holding the sample of rank `ceil(q * count)`
    /// (nearest-rank definition). Returns 0 for an empty histogram.
    ///
    /// Bucket boundaries are fixed powers of two, so the extracted
    /// quantile is bit-identical for any insertion order or host thread
    /// count — the property the SLO trackers need. Resolution is the 2x
    /// bucket width; callers needing exact percentiles keep raw samples.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper_bound(i);
            }
        }
        Self::bucket_upper_bound(Self::NUM_BUCKETS - 1)
    }

    /// The standard SLO triple `(p50, p95, p99)`.
    pub fn slo_quantiles(&self) -> (u64, u64, u64) {
        (self.quantile(0.50), self.quantile(0.95), self.quantile(0.99))
    }
}

/// A deterministic, sorted view of the registry at one point in time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histograms sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a gauge by exact name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram by exact name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

/// Mutable counters/gauges/histograms keyed by name.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Adds `value` to gauge `name` (creating it at zero).
    pub fn gauge_add(&mut self, name: &str, value: f64) {
        *self.gauges.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Records a sample into histogram `name` (creating it empty).
    pub fn histogram_observe(&mut self, name: &str, value: u64) {
        self.histograms.entry(name.to_string()).or_default().observe(value);
    }

    /// Takes the deterministic sorted snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(n, v)| (n.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(n, v)| (n.clone(), *v)).collect(),
            histograms: self.histograms.iter().map(|(n, h)| (n.clone(), h.clone())).collect(),
        }
    }

    /// Builds the standard metric set from a finished trace log.
    ///
    /// Counters: message counts and byte totals per channel, kernel work
    /// per kernel tag, fault counts per kind, span and iteration counts.
    /// Gauges: attributed seconds per phase and the critical-path total.
    /// Histograms: wire bytes per message.
    pub fn from_log(log: &TraceLog) -> Self {
        let mut reg = Self::new();
        reg.counter_add("trace.iterations", log.iterations.len() as u64);
        reg.counter_add("trace.phase_spans", log.phase_spans.len() as u64);
        reg.counter_add("trace.kernel_spans", log.kernel_spans.len() as u64);
        for m in &log.messages {
            let chan = m.channel.label();
            reg.counter_add(&format!("message.{chan}.count"), 1);
            reg.counter_add(&format!("message.{chan}.raw_bytes"), m.raw_bytes);
            reg.counter_add(&format!("message.{chan}.wire_bytes"), m.wire_bytes);
            reg.histogram_observe(&format!("message.{chan}.wire_bytes_hist"), m.wire_bytes);
        }
        for k in &log.kernel_spans {
            let tag = k.tag.label();
            reg.counter_add(&format!("kernel.{tag}.spans"), 1);
            reg.counter_add(&format!("kernel.{tag}.work"), k.work);
            reg.gauge_add(&format!("kernel.{tag}.seconds"), k.dur);
        }
        for f in &log.faults {
            reg.counter_add(&format!("fault.{}.count", f.kind.label()), 1);
            reg.gauge_add(&format!("fault.{}.seconds", f.kind.label()), f.dur);
        }
        let cp = log.critical_path();
        let phases = cp.phase_attribution();
        for (tag, secs) in PhaseTag::ALL.iter().zip(phases.iter()) {
            reg.gauge_set(&format!("critical_path.{}.seconds", tag.label()), *secs);
        }
        reg.gauge_set("critical_path.total_seconds", cp.total_seconds());
        // Convenience: cross-rank traffic is what §V's volume analysis
        // plots; surface it under a short stable name too.
        let remote: u64 = log
            .messages
            .iter()
            .filter(|m| m.channel == Channel::CrossRank)
            .map(|m| m.wire_bytes)
            .sum();
        reg.counter_add("traffic.cross_rank.wire_bytes", remote);
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MessageRecord;
    use crate::sink::SpanSink;
    use crate::timing::{IterationTiming, PhaseTimes};

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(1024);
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1030);
        assert_eq!(h.buckets[0], 2); // 0 and 1
        assert_eq!(h.buckets[1], 2); // 2 and 3 (the [2, 4) bucket)
        assert_eq!(h.buckets[10], 1); // 1024
        assert!((h.mean() - 206.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let mut h = Histogram::default();
        h.observe(u64::MAX);
        assert_eq!(h.buckets[Histogram::NUM_BUCKETS - 1], 1);
        assert_eq!(h.quantile(0.5), u64::MAX);
    }

    #[test]
    fn quantile_on_empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.slo_quantiles(), (0, 0, 0));
    }

    #[test]
    fn quantile_nearest_rank_on_bucket_bounds() {
        let mut h = Histogram::default();
        // 90 samples of value 1 (bucket 0), 9 of value 100 (bucket 6,
        // [64, 127]), 1 of value 5000 (bucket 12, [4096, 8191]).
        for _ in 0..90 {
            h.observe(1);
        }
        for _ in 0..9 {
            h.observe(100);
        }
        h.observe(5000);
        assert_eq!(h.quantile(0.0), 1, "rank clamps to the first sample");
        assert_eq!(h.quantile(0.50), 1);
        assert_eq!(h.quantile(0.90), 1);
        assert_eq!(h.quantile(0.95), 127, "bucket upper bound of value 100");
        assert_eq!(h.quantile(0.99), 127);
        assert_eq!(h.quantile(1.0), 8191, "bucket upper bound of value 5000");
        assert_eq!(h.slo_quantiles(), (1, 127, 127));
    }

    #[test]
    fn quantile_is_insertion_order_independent() {
        let values = [7u64, 3, 900, 12, 0, 55, 55, 1 << 20, 42, 9];
        let mut forward = Histogram::default();
        let mut backward = Histogram::default();
        for &v in &values {
            forward.observe(v);
        }
        for &v in values.iter().rev() {
            backward.observe(v);
        }
        for q in [0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(forward.quantile(q), backward.quantile(q));
        }
    }

    #[test]
    fn bucket_upper_bounds_cover_observe_mapping() {
        // Every observed value must be <= the bound of its own bucket
        // and > the bound of the previous bucket.
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u32::MAX as u64, u64::MAX] {
            let idx = (64 - u64::leading_zeros(v.max(1)) as usize).min(Histogram::NUM_BUCKETS) - 1;
            assert!(v <= Histogram::bucket_upper_bound(idx), "value {v} bucket {idx}");
            if idx > 0 {
                assert!(v > Histogram::bucket_upper_bound(idx - 1), "value {v} bucket {idx}");
            }
        }
    }

    #[test]
    fn snapshot_histogram_lookup() {
        let mut reg = MetricsRegistry::new();
        reg.histogram_observe("lat", 5);
        reg.histogram_observe("lat", 9);
        let snap = reg.snapshot();
        let h = snap.histogram("lat").expect("recorded");
        assert_eq!(h.count, 2);
        assert!(snap.histogram("missing").is_none());
    }

    #[test]
    fn snapshot_is_sorted_regardless_of_insertion_order() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("zeta", 1);
        reg.counter_add("alpha", 2);
        reg.counter_add("mid", 3);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn from_log_aggregates_messages_and_phases() {
        let mut sink = SpanSink::new(2, 1);
        let lanes = [
            PhaseTimes {
                computation: 1.0,
                local_comm: 0.5,
                remote_normal: 0.25,
                remote_delegate: 0.0,
            },
            PhaseTimes {
                computation: 2.0,
                local_comm: 0.25,
                remote_normal: 0.5,
                remote_delegate: 0.0,
            },
        ];
        let msgs = [
            MessageRecord { src: 0, dst: 1, raw_bytes: 100, wire_bytes: 40, intra: false },
            MessageRecord { src: 1, dst: 0, raw_bytes: 60, wire_bytes: 60, intra: false },
        ];
        let timing = IterationTiming::from_lanes(&lanes, 0.125, true, false);
        sink.record_iteration(0, &lanes, &timing, &[], &[vec![], vec![]], &msgs, &[]);
        let log = sink.finish();
        let snap = MetricsRegistry::from_log(&log).snapshot();
        assert_eq!(snap.counter("message.cross_rank.count"), Some(2));
        assert_eq!(snap.counter("message.cross_rank.wire_bytes"), Some(100));
        assert_eq!(snap.counter("traffic.cross_rank.wire_bytes"), Some(100));
        assert_eq!(snap.counter("trace.iterations"), Some(1));
        assert_eq!(snap.gauge("critical_path.total_seconds"), Some(2.0 + 0.5 + 0.5 + 0.125));
    }
}
