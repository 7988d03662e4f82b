//! Sim-only pricing of one superstep: turns the work counters and byte
//! volumes the traversal produced into modeled Ray time.
//!
//! The proc backend measures wall time instead, so nothing here runs
//! there. Every `f64` below is combined in a fixed order — the golden
//! trace, the `BENCH_*.json` ledgers and the observability sink's
//! bit-exact replay of these folds all depend on it.

use crate::comm::ExchangeResult;
use crate::config::BfsConfig;
use crate::direction::Direction;
use crate::kernels::{GpuWorker, KernelWork, LocalIterationOutput};
use crate::stats::IterationRecord;
use crate::verify;
use gcbfs_cluster::collectives::{mask_reduce_hops, AllreduceOutcome};
use gcbfs_cluster::cost::{DeviceModel, KernelKind};
use gcbfs_cluster::timing::{IterationTiming, PhaseTimes};
use gcbfs_cluster::topology::Topology;
use gcbfs_compress::CodecCounts;
use gcbfs_trace::{
    CollectiveHop, DirTag, KernelEvent, KernelTag, LanePhases, LaneStages, SpanSink, StreamTag,
};

/// The run-constant inputs of the pricing step.
pub(crate) struct Pricer<'a> {
    config: &'a BfsConfig,
    topo: Topology,
    /// One effective device prices every computation-side charge: the
    /// scalar variant runs on a derated device (per-bit probing wastes
    /// word-level bandwidth), the word-parallel default on the base model.
    vdev: DeviceModel,
    /// With DO on, each iteration also pays the direction-decision kernel
    /// (workload prediction); on long-tail graphs this is what makes
    /// DOBFS slightly slower than BFS (§VI-D).
    do_overhead: f64,
    num_delegates: u32,
    /// Delegate-mask wire size (the `d/8` of §V-A, word-rounded).
    pub mask_bytes: u64,
}

/// One superstep's accumulating charges.
pub(crate) struct StepPrice {
    /// Per-GPU lane times; only `computation` is filled until
    /// [`Pricer::timing`] folds the exchange in.
    pub phases: Vec<PhaseTimes>,
    /// True when a sink is observing: kernel spans and mask hops are
    /// only materialized then.
    observing: bool,
    kernel_events: Vec<Vec<KernelEvent>>,
    mask_hops: Vec<CollectiveHop>,
    /// NIC slowdown this superstep (1.0 without a degradation window).
    bw: f64,
    remote_delegate: f64,
    local_mask_time: f64,
    mask_remote_bytes: u64,
    bytes_saved: u64,
    codec_seconds: f64,
    codec_counts: CodecCounts,
    mask_reduced: bool,
}

impl<'a> Pricer<'a> {
    pub fn new(config: &'a BfsConfig, topo: Topology, num_delegates: u32) -> Self {
        let device = &config.cost.device;
        Self {
            config,
            topo,
            vdev: config.kernel_variant.device_model(device),
            do_overhead: if config.direction_optimization {
                device.kernel_launch_overhead
            } else {
                0.0
            },
            num_delegates,
            mask_bytes: (num_delegates as u64).div_ceil(64) * 8,
        }
    }

    fn mask_ops_event(work: u64, seconds: f64) -> KernelEvent {
        KernelEvent {
            tag: KernelTag::MaskOps,
            dir: DirTag::NotApplicable,
            stream: StreamTag::Delegate,
            work,
            seconds,
        }
    }

    /// Per-GPU computation time: the two streams run concurrently. Each
    /// stream's time is the sum of its three kernel spans, so per-stream
    /// span sums equal the stream times bit-for-bit.
    pub fn compute(&self, outputs: &[LocalIterationOutput], bw: f64, observing: bool) -> StepPrice {
        let mut phases = Vec::with_capacity(outputs.len());
        let mut kernel_events = Vec::new();
        for o in outputs {
            let evs = o.kernel_events(&self.vdev);
            let normal = evs[0].seconds + evs[1].seconds + evs[2].seconds;
            let delegate = evs[3].seconds + evs[4].seconds + evs[5].seconds;
            phases.push(PhaseTimes {
                computation: normal.max(delegate) + self.do_overhead,
                ..PhaseTimes::zero()
            });
            if observing {
                kernel_events.push(evs.to_vec());
            }
        }
        StepPrice {
            phases,
            observing,
            kernel_events,
            mask_hops: Vec::new(),
            bw,
            remote_delegate: 0.0,
            local_mask_time: 0.0,
            mask_remote_bytes: 0,
            bytes_saved: 0,
            codec_seconds: 0f64,
            codec_counts: CodecCounts::default(),
            mask_reduced: false,
        }
    }

    /// Charges the delegate-mask reduction and the mask copy/OR work the
    /// consume performs on every GPU's delegate stream.
    pub fn mask_reduction(&self, price: &mut StepPrice, outcome: &AllreduceOutcome) {
        price.mask_reduced = true;
        price.remote_delegate += outcome.global_time * price.bw;
        price.local_mask_time = outcome.local_time;
        // Total volume 2·(d/8)·prank (§V-A) — per-message size is the
        // compressed one when compression is on — zero on a single rank.
        let nranks = self.topo.num_ranks();
        if nranks > 1 {
            price.mask_remote_bytes = 2 * outcome.bytes_per_message * nranks as u64;
            price.bytes_saved += 2 * outcome.bytes_saved_per_message() * nranks as u64;
        }
        price.codec_seconds += outcome.codec_seconds;
        price.codec_counts.merge(&outcome.codec_counts);
        if price.observing {
            // Ring hops of the two-phase reduction; their wire sum is
            // exactly `mask_remote_bytes` by construction.
            price.mask_hops = mask_reduce_hops(nranks, outcome);
        }
        let mask_ops = self.vdev.kernel_time(KernelKind::MaskOps, self.mask_bytes);
        for ph in &mut price.phases {
            ph.computation += mask_ops;
        }
        for evs in &mut price.kernel_events {
            evs.push(Self::mask_ops_event(self.mask_bytes, mask_ops));
        }
    }

    /// Per-iteration synchronization (termination/activity flag): a tiny
    /// blocking allreduce — the "per-iteration overhead of a few µs" the
    /// WDC analysis talks about (§VI-D). Verification sums ride this same
    /// collective: 8 bytes when Off (exactly the historical width), 24
    /// under Checksums, 40 under Full.
    pub fn sync(&self, price: &mut StepPrice) {
        let bytes = self.config.verification.sync_bytes();
        price.remote_delegate +=
            self.config.cost.network.allreduce_time(bytes, self.topo.num_ranks(), true) * price.bw;
    }

    /// The verification scan is charged work: one fused kernel per GPU at
    /// mask-ops bandwidth over everything the tier touches.
    pub fn verify_scan(&self, price: &mut StepPrice, workers: &[GpuWorker]) {
        for (g, w) in workers.iter().enumerate() {
            let bytes = verify::scan_bytes(
                self.config.verification,
                price.mask_reduced,
                self.mask_bytes,
                w.depths_local.len(),
                self.num_delegates,
                w.frontier.len(),
            );
            let scan = self.vdev.kernel_time(KernelKind::MaskOps, bytes);
            price.phases[g].computation += scan;
            if price.observing {
                price.kernel_events[g].push(Self::mask_ops_event(bytes, scan));
            }
        }
    }

    /// Folds the exchange in and assembles the cluster-wide timing.
    pub fn timing(&self, price: &mut StepPrice, ex: &ExchangeResult) -> IterationTiming {
        price.bytes_saved += ex.bytes_saved();
        price.codec_seconds += ex.codec_seconds;
        price.codec_counts.merge(&ex.codec_counts);
        let mut cluster = PhaseTimes::zero();
        for (g, ph) in price.phases.iter_mut().enumerate() {
            ph.local_comm = ex.local_time[g] + price.local_mask_time;
            ph.remote_normal = ex.remote_time[g] * price.bw;
            cluster = cluster.max(ph);
        }
        cluster.remote_delegate = price.remote_delegate;
        IterationTiming {
            phases: cluster,
            blocking_reduce: self.config.blocking_reduce,
            overlap: self.config.overlap,
        }
    }

    /// Hands the sink one lane per GPU, carrying the very values
    /// [`Self::timing`] combined — the sink re-runs the same fold to
    /// place spans.
    pub fn record_spans(
        &self,
        price: &StepPrice,
        sink: &mut SpanSink,
        iter: u32,
        ex: &ExchangeResult,
    ) {
        let lanes: Vec<LanePhases> = price
            .phases
            .iter()
            .map(|ph| LanePhases {
                computation: ph.computation,
                local_comm: ph.local_comm,
                remote_normal: ph.remote_normal,
            })
            .collect();
        // Stage split of each lane's local_comm: the local mask work
        // gates the wire like the encode stage does, so it rides the
        // encode side; decode is pure codec time.
        let stages: Vec<LaneStages> = if self.config.overlap {
            (0..price.phases.len())
                .map(|g| LaneStages {
                    encode: ex.encode_time[g] + price.local_mask_time,
                    decode: ex.decode_time[g],
                })
                .collect()
        } else {
            Vec::new()
        };
        sink.record_iteration(
            iter,
            &lanes,
            price.remote_delegate,
            self.config.blocking_reduce,
            self.config.overlap,
            &stages,
            &price.kernel_events,
            &ex.messages,
            &price.mask_hops,
        );
    }

    /// The committed superstep's cluster-wide record.
    pub fn record(
        &self,
        price: StepPrice,
        iter: u32,
        (frontier_len, new_delegates): (u64, u64),
        outputs: &[LocalIterationOutput],
        ex: &ExchangeResult,
        timing: IterationTiming,
    ) -> IterationRecord {
        let work = outputs.iter().fold(KernelWork::default(), |mut acc, o| {
            acc.normal_previsit_vertices += o.work.normal_previsit_vertices;
            acc.delegate_previsit_vertices += o.work.delegate_previsit_vertices;
            acc.nn_edges += o.work.nn_edges;
            acc.nd_edges += o.work.nd_edges;
            acc.dn_edges += o.work.dn_edges;
            acc.dd_edges += o.work.dd_edges;
            acc
        });
        let backward_gpus = outputs.iter().fold((0u32, 0u32, 0u32), |acc, o| {
            (
                acc.0 + (o.directions.dd == Direction::Backward) as u32,
                acc.1 + (o.directions.dn == Direction::Backward) as u32,
                acc.2 + (o.directions.nd == Direction::Backward) as u32,
            )
        });
        IterationRecord {
            iter,
            frontier_len,
            new_delegates,
            work,
            backward_gpus,
            nn_updates_sent: ex.items_sent,
            remote_bytes: ex.remote_bytes + price.mask_remote_bytes,
            bytes_saved: price.bytes_saved,
            codec_seconds: price.codec_seconds,
            codec_counts: price.codec_counts,
            mask_reduced: price.mask_reduced,
            timing,
        }
    }
}
